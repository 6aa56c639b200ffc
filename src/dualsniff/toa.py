"""Range-sum (ToA) estimator: intersect two ellipses sharing the eNb focus.

Each sniffer's timing delta fixes the sum D_k of device-to-eNb and
device-to-sniffer distances, an ellipse with foci at the eNb and that
sniffer.  With r = |u - enb|, |u - s_k| = D_k - r squares to the row that
``tdoa.rows`` gives with the eNb as reference and delta_d = -D_k, so the
intersections come in closed form from ``geometry.eliminate``, collinear or not.
The range-sums of N samples are one (N, 2) array, column k for sniffer k.
"""

import math
from typing import Sequence, Tuple

import numpy as np

# Not called here: kept importable for the benchmark tracer, which wraps
# ``toa.ellipse_scan`` by name.
from ._kernels import ellipse_scan  # noqa: F401
from .errors import InfeasibleObservation, NoIntersection
from .geometry import (SPEED_OF_LIGHT, Failed, Position, Scenario, Solutions, choose_candidate,
                       distance, eliminate, fail)
from .tdoa import rows
from .timing import ta_seconds

#: Rounding allowance of the true-branch test D_k - r >= 0, meters.
CROSSING_TOL = 1e-9
#: Former name of ``CROSSING_TOL``, still read by the benchmark tracer.
NEWTON_TOL = CROSSING_TOL
#: Above this residual a closest approach is declared no intersection, meters.
INTERSECTION_TOL = 1.0


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


def _onto_ellipse(u: np.ndarray, D: np.ndarray, sniffer: Position, enb: Position) -> np.ndarray:
    """The points of the ellipses |p - enb| + |p - sniffer| = D on the rays from the eNb
    through ``u``: r = (D^2 - |f|^2) / (2 (D - f.e)) along unit ray e, f = sniffer - eNb."""
    e = (u - (enb.x, enb.y)) / np.hypot(u[:, 0] - enb.x, u[:, 1] - enb.y)[:, None]
    fx, fy = sniffer.x - enb.x, sniffer.y - enb.y
    r = 0.5 * (D * D - fx * fx - fy * fy) / (D - fx * e[:, 0] - fy * e[:, 1])
    return (enb.x, enb.y) + r[:, None] * e


def solve_toa_batch(sniffers: Sequence[Position], D, enb: Position,
                    band: Tuple[float, float]) -> Solutions:
    """Intersect the range-sum ellipses of every sample: ``D`` is (N, 2), a row per
    sample and column k the range-sum of ``sniffers[k]``, or one sample's (2,).

    The crossings are the roots of ``geometry.eliminate`` on the true branch
    D_k - r >= 0 of both ellipses; a collinear layout gives a mirror pair of
    equal range, residual and ``clean`` flag, which the band keeps together.
    Without a crossing, the elimination vertex carried along its ray from
    the eNb onto the first ellipse is the closest approach, an unclean
    candidate, collinear or not.
    ``geometry.choose_candidate`` picks.  A sample fails InfeasibleObservation
    for a range-sum below the focal distance, DegenerateGeometry for dependent
    rows and NoIntersection for ellipses that miss by more than ``INTERSECTION_TOL``.
    """
    D = np.asarray(D, dtype=float)
    if len(sniffers) != 2 or D.shape[-1:] != (2,) or D.ndim > 2:
        raise ValueError(f"need two sniffers and range-sums D of shape (N, 2), or (2,) for one "
                         f"sample; got {len(sniffers)} sniffers and D of shape {D.shape}")
    D = np.atleast_2d(D)
    failed: Failed = {}
    for k, s in enumerate(sniffers):
        d_focal = distance(enb, s)
        fail(failed, ~(D[:, k] >= d_focal),
             lambda i: InfeasibleObservation(f"observation {k + 1}: range-sum {D[i, k]:.3f} m "
                                             f"is below the focal distance {d_focal:.3f} m"))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        system = rows(enb, sniffers, -D)
        u, r, vertex = eliminate(system.P, system.dd, system.h, enb, failed)
        clean = (np.minimum(D[:, :1], D[:, 1:]) - r >= -CROSSING_TOL) & ~vertex[:, None]
        u[vertex, 0] = _onto_ellipse(u[vertex, 0], D[vertex, 0], sniffers[0], enb)
        valid = (clean | vertex[:, None] & [True, False]) & np.isfinite(u).all(axis=2)
        to_enb = np.hypot(u[..., 0] - enb.x, u[..., 1] - enb.y)
        residual = np.maximum(*(np.abs(to_enb + np.hypot(u[..., 0] - s.x, u[..., 1] - s.y)
                                       - D[:, k, None]) for k, s in enumerate(sniffers)))
    residual[~valid] = math.inf
    fail(failed, ~(residual[:, 0] <= INTERSECTION_TOL), lambda i: NoIntersection(
        f"ellipses do not intersect; closest approach misses by {residual[i, 0]:.3f} m "
        f"(tolerance {INTERSECTION_TOL} m)"))
    return choose_candidate(u, r, residual, valid, clean & valid, failed, enb, band)


def solve_toa(sniffers: Sequence[Position], D, enb: Position,
              band: Tuple[float, float]) -> Solutions:
    """``solve_toa_batch`` for one sample's range-sums; raises its failure
    (InfeasibleObservation, DegenerateGeometry, NoIntersection or AmbiguousSolution)."""
    sol = solve_toa_batch(sniffers, D, enb, band)
    sol.check(0)
    return sol
