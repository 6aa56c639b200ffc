"""Range-sum (ToA) estimator: intersect two ellipses sharing the eNb focus.

Each sniffer's timing delta fixes the sum D_k of device-to-eNb and
device-to-sniffer distances, an ellipse with foci at the eNb and that
sniffer.  With r = |u - enb|, |u - s_k| = D_k - r squares to the row that
``tdoa.rows`` gives with the eNb as reference and delta_d = -D_k, so
``tdoa.solve_rows``, the solve core of both schemes, finds the intersections
in closed form with the sign of the reference term flipped, collinear or not.
Ellipses that do not cross give no answer.  The range-sums of N samples are
one (N, 2) array, column k for sniffer k.
"""

from typing import Sequence, Tuple

import numpy as np

# Not called here: kept importable for the benchmark tracer, which wraps
# ``toa.ellipse_scan`` by name.
from ._kernels import ellipse_scan  # noqa: F401
from .errors import InfeasibleObservation, NoIntersection
from .geometry import (SPEED_OF_LIGHT, Position, Reasons, Scenario, Solutions, choose_candidate,
                       distance)
from .tdoa import rows, solve_rows
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

    The crossings are the valid roots of ``tdoa.solve_rows`` (sign -1, the
    rows about the eNb with dd = -D) on the true branch D_k - r >= 0 of both
    ellipses; a collinear layout gives a mirror pair of equal range, residual
    and ``clean`` flag, which the band keeps together.  Every valid candidate
    is thus a crossing on the true branch, and clean.
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
        u, r, residual, valid = solve_rows(rows(enb, sniffers, -D), enb, -1.0, reasons)
        valid &= np.minimum(D[:, :1], D[:, 1:]) - r >= -CROSSING_TOL
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
