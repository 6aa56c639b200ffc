"""Range-sum (ToA) estimator: intersect two ellipses sharing the eNb focus.

Each sniffer's timing delta fixes the sum D_i of device-to-eNb and
device-to-sniffer distances, an ellipse with foci at the eNb and that
sniffer.  With r = |u - enb|, |u - s_i| = D_i - r squares to the row of
``tdoa.build_system`` with the eNb as reference and delta_d = -D_i, so the
intersections come in closed form from ``geometry.eliminate``, collinear or not.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Not called here: kept importable for the benchmark tracer, which wraps
# ``toa.ellipse_scan`` by name.
from ._kernels import ellipse_scan  # noqa: F401
from .errors import CollinearityWarning, InfeasibleObservation, NoIntersection
from .geometry import (SPEED_OF_LIGHT, Failed, Position, Scenario, Solutions, choose_candidate,
                       distance, eliminate, fail, triangle_area)
from .tdoa import TdoaPair, build_system
from .timing import ta_seconds

#: Rounding allowance of the true-branch test D_i - r >= 0, meters.
CROSSING_TOL = 1e-9
#: Former name of ``CROSSING_TOL``, still read by the benchmark tracer.
NEWTON_TOL = CROSSING_TOL
#: Above this residual a closest approach is declared no intersection, meters.
INTERSECTION_TOL = 1.0
#: Triangle area below which eNb and sniffers count as collinear, m^2.
COLLINEAR_AREA = 1e-6


@dataclass(frozen=True)
class ToAObservation:
    """One range-sum constraint: |u - enb| + |u - sniffer| = D.

    ``D`` is one range-sum, or an array of one per sample.  Where D is
    smaller than the focal distance no ellipse exists, and the solver
    rejects the observation.
    """

    sniffer: Position
    D: float


@dataclass(frozen=True)
class ToAEstimate:
    """Chosen intersection plus every candidate the solver saw.

    ``residual`` is the worse of the two range-sum residuals at the returned
    position; exact intersections have residual at rounding level.
    ``crossing`` is False when ``position`` is the closest approach of
    ellipses that do not cross.
    """

    position: Position
    residual: float
    candidates: Tuple[Position, ...]
    crossing: bool


def compose_D(delta: float, sniffer: Position, scenario: Scenario) -> ToAObservation:
    """Range-sum D for one sniffer's measured delta (seconds), or an array of them.

    D = |enb - sniffer| + c * (delta + ta), with the timing advance taken
    from the scenario's TA index.  A negative (delta + ta) puts the range-sum
    below the focal distance; the observation is kept, and the solver
    reports it infeasible.
    """
    if not np.isfinite(delta).all():
        raise ValueError(f"delta must be finite, got {delta}")
    d_focal = distance(scenario.enb, sniffer)
    D = d_focal + SPEED_OF_LIGHT * (delta + ta_seconds(scenario.ta_index))
    return ToAObservation(sniffer=sniffer, D=D)


def _onto_ellipse(u: np.ndarray, D: np.ndarray, sniffer: Position, enb: Position) -> np.ndarray:
    """The points of the ellipses |p - enb| + |p - sniffer| = D on the rays from the eNb
    through ``u``: r = (D^2 - |f|^2) / (2 (D - f.e)) along unit ray e, f = sniffer - eNb."""
    e = (u - (enb.x, enb.y)) / np.hypot(u[:, 0] - enb.x, u[:, 1] - enb.y)[:, None]
    fx, fy = sniffer.x - enb.x, sniffer.y - enb.y
    r = 0.5 * (D * D - fx * fx - fy * fy) / (D - fx * e[:, 0] - fy * e[:, 1])
    return (enb.x, enb.y) + r[:, None] * e


def solve_toa_batch(obs1: ToAObservation, obs2: ToAObservation, enb: Position,
                    band: Tuple[float, float]) -> Solutions:
    """Intersect the range-sum ellipses of every sample: ``D`` holds one per sample.

    The crossings are the roots of ``geometry.eliminate`` on the true branch
    D_i - r >= 0 of both ellipses; a collinear layout warns
    CollinearityWarning once.  Without a crossing, the elimination vertex
    carried along its ray from the eNb onto the first ellipse is the closest
    approach, an unclean candidate, collinear or not.
    ``geometry.choose_candidate`` picks.  A sample fails InfeasibleObservation
    for a range-sum below the focal distance, DegenerateGeometry for dependent
    rows and NoIntersection for ellipses that miss by more than ``INTERSECTION_TOL``.
    """
    obs = (obs1, obs2)
    D = np.column_stack([np.atleast_1d(o.D) for o in obs]).astype(float)
    failed: Failed = {}
    for k, o in enumerate(obs):
        d_focal = distance(enb, o.sniffer)
        fail(failed, ~(D[:, k] >= d_focal),
             lambda i: InfeasibleObservation(f"observation {k + 1}: range-sum {D[i, k]:.3f} m "
                                             f"is below the focal distance {d_focal:.3f} m"))
    sniffers = [o.sniffer for o in obs]
    if triangle_area(enb, *sniffers) < COLLINEAR_AREA:
        warnings.warn(CollinearityWarning("base station and sniffers are collinear; intersections "
                                          "are mirror-symmetric about their common line"))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        system = build_system([TdoaPair(enb, s, -D[:, k]) for k, s in enumerate(sniffers)])
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


def solve_toa(obs1: ToAObservation, obs2: ToAObservation, enb: Position,
              band: Tuple[float, float]) -> ToAEstimate:
    """``solve_toa_batch`` for one sample; raises its failure (InfeasibleObservation,
    DegenerateGeometry, NoIntersection or AmbiguousSolution)."""
    sol = solve_toa_batch(obs1, obs2, enb, band)
    sol.check(0)
    k, valid = sol.pick[0], sol.valid[0]
    order = np.argsort(sol.residual[0][valid], kind="stable")
    return ToAEstimate(Position(*sol.u[0, k].tolist()), float(sol.residual[0, k]),
                       tuple(Position(*p) for p in sol.u[0][valid][order].tolist()),
                       crossing=bool(sol.clean[0, k]))
