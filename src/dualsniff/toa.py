"""Range-sum (ToA) estimator: intersect two ellipses sharing the eNb focus.

Each sniffer's timing delta fixes the sum D_k of device-to-eNb and
device-to-sniffer distances, an ellipse with foci at the eNb and that
sniffer.  With r = |u - enb|, |u - s_k| = D_k - r squares to the row that
``tdoa.rows`` gives with the eNb as reference and delta_d = -D_k, so the
intersections come in closed form from ``geometry.eliminate``, collinear or not.
Ellipses that do not cross give no answer.  The range-sums of N samples are
one (N, 2) array, column k for sniffer k.
"""

import math
from typing import Sequence, Tuple

import numpy as np

# Not called here: kept importable for the benchmark tracer, which wraps
# ``toa.ellipse_scan`` by name.
from ._kernels import ellipse_scan  # noqa: F401
from .errors import InfeasibleObservation, NoIntersection
from .geometry import (SPEED_OF_LIGHT, VERTEX_TOL, Position, Reasons, Scenario, Solutions,
                       choose_candidate, distance, eliminate)
from .tdoa import rows
from .timing import ta_seconds

#: Rounding allowance of the true-branch test D_k - r >= 0, meters.
CROSSING_TOL = 1e-9
#: Former name of ``CROSSING_TOL``, still read by the benchmark tracer.
NEWTON_TOL = CROSSING_TOL


def compose_D(deltas, sniffers: Sequence[Position], scenario: Scenario) -> np.ndarray:
    """The (N, 2) range-sums of ``deltas[k]``, sniffer k's measured delta (seconds) or N of them.

    Column k is D_k = |enb - s_k| + c * (delta_k + ta) for ``sniffers[k]``,
    with the timing advance taken from the scenario's TA index.  A negative
    (delta_k + ta) puts the range-sum below the focal distance; it is kept,
    and the solver reports it infeasible.
    """
    deltas = np.column_stack(deltas)
    if not np.isfinite(deltas).all():
        raise ValueError(f"deltas must be finite, got {deltas}")
    d_focal = np.array([distance(scenario.enb, s) for s in sniffers])
    return d_focal + SPEED_OF_LIGHT * (deltas + ta_seconds(scenario.ta_index))


def solve_toa_batch(sniffers: Sequence[Position], D, enb: Position,
                    band: Tuple[float, float]) -> Solutions:
    """Intersect the range-sum ellipses of every sample: ``D`` is (N, 2), a row per
    sample and column k the range-sum of ``sniffers[k]``, or one sample's (2,).

    The crossings are the roots of ``geometry.eliminate`` on the true branch
    D_k - r >= 0 of both ellipses; a collinear layout gives a mirror pair of
    equal range, residual and ``clean`` flag, which the band keeps together.
    The residual is the norm of the two unsquared range-sum misses, as in
    TDoA, and the elimination vertex counts only as a double root (a tangency
    that rounding split) of residual at most ``VERTEX_TOL``: every valid
    candidate is a crossing on the true branch, and clean.
    ``geometry.choose_candidate`` picks.  A sample fails InfeasibleObservation
    for a range-sum below the focal distance, DegenerateGeometry for dependent
    rows and NoIntersection for ellipses that do not cross.
    """
    D = np.asarray(D, dtype=float)
    if len(sniffers) != 2 or D.shape[-1:] != (2,) or D.ndim > 2:
        raise ValueError(f"need two sniffers and range-sums D of shape (N, 2), or (2,) for one "
                         f"sample; got {len(sniffers)} sniffers and D of shape {D.shape}")
    D = np.atleast_2d(D)
    d_focal = np.array([distance(enb, s) for s in sniffers])
    short = ~(D >= d_focal)
    first = short.argmax(axis=1)  # a sample's first short observation names its failure
    reasons: Reasons = [(short.any(axis=1), InfeasibleObservation, lambda i: InfeasibleObservation(
        f"observation {first[i] + 1}: range-sum {D[i, first[i]]:.3f} m is below the focal "
        f"distance {d_focal[first[i]]:.3f} m"))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        system = rows(enb, sniffers, -D)
        u, r, vertex = eliminate(system.P, system.dd, system.h, enb, reasons)
        to_enb = np.hypot(u[..., 0] - enb.x, u[..., 1] - enb.y)
        residual = np.hypot(*(to_enb + np.hypot(u[..., 0] - s.x, u[..., 1] - s.y) - D[:, k, None]
                              for k, s in enumerate(sniffers)))
        valid = ((np.minimum(D[:, :1], D[:, 1:]) - r >= -CROSSING_TOL)
                 & (~vertex[:, None] | (residual <= VERTEX_TOL)) & np.isfinite(u).all(axis=2))
    residual[~valid] = math.inf
    reasons.append((~valid[:, 0], NoIntersection,
                    lambda i: NoIntersection("ellipses do not intersect")))
    return choose_candidate(u, r, residual, valid, valid, reasons, enb, band)


def solve_toa(sniffers: Sequence[Position], D, enb: Position,
              band: Tuple[float, float]) -> Solutions:
    """``solve_toa_batch`` for one sample's range-sums; raises its failure
    (InfeasibleObservation, DegenerateGeometry, NoIntersection or AmbiguousSolution)."""
    sol = solve_toa_batch(sniffers, D, enb, band)
    sol.check(0)
    return sol
