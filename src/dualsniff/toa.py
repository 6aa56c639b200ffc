"""Range-sum (ToA) estimator: intersect two ellipses sharing the eNb focus.

Each sniffer's timing delta fixes the sum D_i of device-to-eNb and
device-to-sniffer distances, an ellipse with foci at the eNb and that
sniffer.  With r = |u - enb|, |u - s_i| = D_i - r squares to the row of
``tdoa.build_system`` with the eNb as reference and delta_d = -D_i, so the
intersections come in closed form from ``geometry.eliminate``.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

# Not called here: kept importable for the benchmark tracer, which wraps
# ``toa.ellipse_scan`` by name.
from ._kernels import ellipse_scan  # noqa: F401
from .errors import CollinearityWarning, InfeasibleObservation, NoIntersection
from .geometry import (Candidate, Position, Scenario, choose_candidate, distance,
                       eliminate, triangle_area)
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

    ``feasible`` is False when D is smaller than the focal distance, in which
    case no ellipse exists and solvers must reject the observation.
    """

    sniffer: Position
    D: float
    feasible: bool = True


@dataclass(frozen=True)
class ToAEstimate:
    """Chosen intersection plus every candidate the solver saw.

    ``residual`` is the worse of the two range-sum residuals at the returned
    position; exact intersections have residual at rounding level.
    """

    position: Position
    residual: float
    candidates: Tuple[Position, ...]


def compose_D(delta: float, sniffer: Position, scenario: Scenario) -> ToAObservation:
    """Range-sum D for one sniffer's measured delta (seconds).

    D = |enb - sniffer| + c * (delta + ta), with the timing advance taken
    from the scenario's TA index.  A negative (delta + ta) would put the
    range-sum below the focal distance; the observation is then flagged
    infeasible rather than dropped, so callers can report it.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    d_focal = distance(scenario.enb, sniffer)
    D = d_focal + scenario.speed_of_light * (delta + ta_seconds(scenario.ta_index))
    return ToAObservation(sniffer=sniffer, D=D, feasible=D >= d_focal)


def ellipse_residual(u_cand: Position, obs: ToAObservation, enb: Position) -> float:
    """Signed miss of the range-sum constraint at a candidate point, meters."""
    return distance(u_cand, enb) + distance(u_cand, obs.sniffer) - obs.D


def _onto_ellipse(u: Position, obs: ToAObservation, enb: Position) -> Position:
    """The point of the ellipse of ``obs`` on the ray from the eNb through ``u``:
    r = (D^2 - |f|^2) / (2 (D - f.e)) along the unit ray e, f = sniffer - eNb."""
    d = distance(u, enb)
    ex, ey = (u.x - enb.x) / d, (u.y - enb.y) / d
    fx, fy = obs.sniffer.x - enb.x, obs.sniffer.y - enb.y
    r = 0.5 * (obs.D ** 2 - fx * fx - fy * fy) / (obs.D - fx * ex - fy * ey)
    return Position(enb.x + r * ex, enb.y + r * ey)


def _on_common_line(obs1: ToAObservation, obs2: ToAObservation, enb: Position):
    """Crossings, or else the closest approach, of ellipses with collinear foci.

    With x along the line from the eNb and a_i the sniffer offsets on it, the
    squared rows a_i x - D_i r = (a_i^2 - D_i^2) / 2 fix x and the range r.
    The crossings are the mirror pair y = +-sqrt(r^2 - x^2) off the line; at
    y^2 <= 0 the point on the line is a tangency or the closest approach.
    """
    far = max(obs1.sniffer, obs2.sniffer, key=lambda s: distance(s, enb))
    ex, ey = (far.x - enb.x) / distance(far, enb), (far.y - enb.y) / distance(far, enb)
    (a1, D1), (a2, D2) = (((o.sniffer.x - enb.x) * ex + (o.sniffer.y - enb.y) * ey, o.D)
                          for o in (obs1, obs2))
    det = D1 * a2 - a1 * D2
    if det == 0.0:
        raise NoIntersection("collinear ellipses of equal eccentricity are nested")
    b1, b2 = 0.5 * (a1 * a1 - D1 * D1), 0.5 * (a2 * a2 - D2 * D2)
    x, r = (D1 * b2 - D2 * b1) / det, (a1 * b2 - a2 * b1) / det
    y = math.sqrt(max(r * r - x * x, 0.0))
    mirrors = [Position(enb.x + x * ex - s * y * ey, enb.y + x * ey + s * y * ex)
               for s in (1.0, -1.0)]
    return (mirrors, None) if y > 0.0 else ([], mirrors[0])


def solve_toa(obs1: ToAObservation, obs2: ToAObservation, enb: Position,
              band: Tuple[float, float]) -> ToAEstimate:
    """Intersect the two range-sum ellipses and pick the physical root.

    The crossings are the roots of ``geometry.eliminate`` on the true branch
    D_i - r >= 0 of both ellipses, or of the common line of a collinear
    layout, which also warns CollinearityWarning.  Without a crossing, the
    elimination vertex carried along its ray from the eNb onto the first
    ellipse is the closest approach.  ``geometry.choose_candidate`` picks.

    Raises InfeasibleObservation for range-sums below the focal distance,
    NoIntersection when the ellipses miss by more than ``INTERSECTION_TOL``,
    and AmbiguousSolution when two well-separated candidates are both in band.
    """
    for idx, obs in ((1, obs1), (2, obs2)):
        d_focal = distance(enb, obs.sniffer)
        if not obs.feasible or obs.D < d_focal:
            raise InfeasibleObservation(
                f"observation {idx}: range-sum {obs.D:.3f} m is below the "
                f"focal distance {d_focal:.3f} m")
    if triangle_area(enb, obs1.sniffer, obs2.sniffer) < COLLINEAR_AREA:
        warnings.warn(CollinearityWarning(
            "base station and sniffers are collinear; intersections are "
            "mirror-symmetric about their common line"))
        crossings, closest = _on_common_line(obs1, obs2, enb)
    else:
        system = build_system([TdoaPair(enb, o.sniffer, -o.D) for o in (obs1, obs2)])
        roots, vertex = eliminate(system.G, system.h, enb)
        crossings = [u for u, r in roots if min(obs1.D, obs2.D) - r >= -CROSSING_TOL]
        closest = _onto_ellipse(vertex[0], obs1, enb) if vertex else None

    def candidate(q: Position, clean: bool) -> Candidate:
        miss = max(abs(ellipse_residual(q, o, enb)) for o in (obs1, obs2))
        return Candidate(q, distance(q, enb), miss, clean)

    cands = [candidate(q, True) for q in crossings]
    if not cands and closest is not None:
        cands = [candidate(closest, False)]
    if not cands or cands[0].residual > INTERSECTION_TOL:
        raise NoIntersection(
            f"ellipses do not intersect; closest approach misses by "
            f"{cands[0].residual if cands else math.inf:.3f} m "
            f"(tolerance {INTERSECTION_TOL} m)")
    best = choose_candidate(cands, enb, band)
    order = sorted(cands, key=lambda c: c.residual)
    return ToAEstimate(position=best.position, residual=best.residual,
                       candidates=tuple(c.position for c in order))
