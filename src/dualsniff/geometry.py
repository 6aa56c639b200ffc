"""Planar positions, distances, and the measurement scenario.

Everything downstream works in a flat 2D plane with distances in meters and
times in seconds.  Microseconds appear only in the sniffer log format.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import AmbiguousSolution, DegenerateGeometry

#: Speed of light in vacuum, m/s.
SPEED_OF_LIGHT = 299_792_458.0

#: LTE basic time unit Ts = 1/30.72 MHz, seconds.
LTE_TS = 1.0 / 30_720_000.0

#: One timing-advance step expressed in seconds (16 Ts of round-trip compensation).
TA_STEP_S = 16.0 * LTE_TS

#: Width of one timing-advance distance band, meters.
TA_BAND_M = 78.12

#: Condition-number limit for the solvable linear systems.
CONDITION_LIMIT = 1e12
#: Discriminant values above this (negative) floor are clamped to zero, m^2.
DISCRIMINANT_TOL = -1e-9
#: Two clean in-band candidates farther apart than this are ambiguous, meters.
AMBIGUITY_SEPARATION = 1.0


@dataclass(frozen=True)
class Position:
    """A 2D point in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")


def whole(name: str, value) -> int:
    """``value`` as an int; a non-finite or fractional float raises ValueError."""
    if isinstance(value, float) and value % 1 != 0:  # a fraction, or inf % 1 == nan
        raise ValueError(f"{name} must be {'an integer' if math.isfinite(value) else 'finite'}, "
                         f"got {value}")
    return int(value)


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions, meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def ta_band(ta_index: int) -> Tuple[float, float]:
    """Distance band [lo, hi) around the base station covered by one TA index.

    Bands tile [0, inf) in steps of ``TA_BAND_M``: index 0 covers
    [0, 78.12) m, index 1 covers [78.12, 156.24) m, and so on.
    """
    if ta_index < 0:
        raise ValueError(f"ta_index must be non-negative, got {ta_index}")
    return ta_index * TA_BAND_M, (ta_index + 1) * TA_BAND_M


def triangle_area(a: Position, b: Position, c: Position) -> float:
    """Unsigned area of the triangle spanned by three positions, m^2."""
    return 0.5 * abs((b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y))


@dataclass(frozen=True)
class Scenario:
    """Fixed geometry of one capture: base station, sniffers, optional ground truth.

    Attributes:
        enb: Base station position (the system clock reference).
        sniffers: At least two sniffer positions, in capture order.
        ue_truth: True device position when known (simulation / evaluation).
        ta_index: Timing-advance index the device operates under.
        speed_of_light: Propagation speed, m/s.
    """

    enb: Position
    sniffers: Tuple[Position, ...]
    ue_truth: Optional[Position] = None
    ta_index: int = 0
    speed_of_light: float = SPEED_OF_LIGHT

    def __post_init__(self):
        object.__setattr__(self, "sniffers", tuple(self.sniffers))
        if len(self.sniffers) < 2:
            raise ValueError(f"need at least two sniffers, got {len(self.sniffers)}")
        object.__setattr__(self, "ta_index", whole("ta_index", self.ta_index))
        if self.ta_index < 0:
            raise ValueError(f"ta_index must be a non-negative integer, got {self.ta_index}")
        for i, s in enumerate(self.sniffers):
            if distance(s, self.enb) == 0.0:
                raise ValueError(f"sniffer {i} coincides with the base station")
        if self.ue_truth is not None:
            d = distance(self.ue_truth, self.enb)
            lo, hi = ta_band(self.ta_index)
            if not (lo <= d < hi):
                raise ValueError(
                    f"ue_truth is {d:.2f} m from the base station, outside the "
                    f"TA={self.ta_index} band [{lo:.2f}, {hi:.2f}) m"
                )

    @property
    def band(self) -> Tuple[float, float]:
        """Distance band implied by this scenario's TA index."""
        return ta_band(self.ta_index)

    def distances_to(self, point: Position) -> Tuple[float, ...]:
        """Distances from every sniffer to a point, in sniffer order."""
        return tuple(distance(s, point) for s in self.sniffers)


def eliminate(G: np.ndarray, h: np.ndarray, anchor: Position
              ) -> Tuple[List[Tuple[Position, float]], Optional[Tuple[Position, float]]]:
    """Solve two squared range rows together with r = |u - anchor|.

    Row i of G [x, y, r]^T = h is linear in the position u = (x, y) and its
    range r to ``anchor``: the squared range-difference rows of
    ``tdoa.build_system`` and, with the base station as the anchor, the
    squared range-sum rows of ``toa`` (the spherical-intersection
    construction of Smith & Abel 1987 and Chan & Ho 1994).  The position
    block gives u(r) = u0 - B r; substituting into r = |u(r) - anchor|
    leaves (|B|^2 - 1) r^2 - 2 (w . B) r + |w|^2 = 0 with w = u0 - anchor.

    Returns ``(roots, vertex)``.  ``roots`` holds (u(r), r) for every
    non-negative real root r in ascending order; squaring admits roots off
    the true branch, which the caller tests.  ``vertex`` is None unless the
    quadratic has no real root (discriminant below ``DISCRIMINANT_TOL``);
    it is then (u(r), r) at the quadratic's vertex, where r and
    |u(r) - anchor| come closest, and ``roots`` is empty.  Raises
    DegenerateGeometry when the position block is near-singular.
    """
    A = G[:, :2]
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateGeometry(
            f"position rows are near-collinear (condition number {cond:.2e})")
    u0 = np.linalg.solve(A, h)
    B = np.linalg.solve(A, G[:, 2])
    w = u0 - np.array([anchor.x, anchor.y])

    def at(r: float) -> Tuple[Position, float]:
        u = u0 - B * r
        return Position(float(u[0]), float(u[1])), r

    alpha = float(B @ B) - 1.0
    beta = -2.0 * float(w @ B)
    gamma = float(w @ w)

    roots: List[float] = []
    if abs(alpha) < 1e-14:
        if beta != 0.0:
            roots.append(-gamma / beta)
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        if disc < DISCRIMINANT_TOL:
            return [], at(-0.5 * beta / alpha)
        sq = math.sqrt(max(disc, 0.0))
        # citardauq ordering keeps both roots accurate when beta dominates
        q = -0.5 * (beta + math.copysign(sq, beta))
        roots.append(q / alpha)
        if q != 0.0:
            roots.append(gamma / q)
    ranges = sorted({max(0.0, r) if r > -1e-9 else r for r in roots})
    return [at(r) for r in ranges if r >= 0.0], None


class Candidate(NamedTuple):
    """One solution of a two-row range system, as the band check sees it."""

    position: Position
    range: float      # range to the elimination anchor, meters
    residual: float   # miss of the unsquared equations at ``position``, meters
    clean: bool       # on the true branch of both unsquared equations


def choose_candidate(cands: Sequence[Candidate], enb: Position,
                     band: Tuple[float, float]) -> Candidate:
    """Pick the physical candidate with the timing-advance band.

    Two clean candidates inside ``band`` farther apart than
    ``AMBIGUITY_SEPARATION`` raise AmbiguousSolution, which carries every
    clean candidate.  Otherwise the in-band candidate with the smallest
    residual wins.  With none in band, the clean candidate whose base-station
    distance lies nearest the band wins, ties going to the smaller residual;
    with no clean candidate either, the smallest residual does.
    """
    lo, hi = band
    in_band = [c for c in cands if lo <= distance(c.position, enb) < hi]
    clean = [c for c in in_band if c.clean]
    if len(clean) >= 2:
        spread = max(distance(a.position, b.position)
                     for i, a in enumerate(clean) for b in clean[i + 1:])
        if spread > AMBIGUITY_SEPARATION:
            raise AmbiguousSolution(
                f"{len(clean)} in-band candidates separated by {spread:.2f} m",
                candidates=[c.position for c in cands if c.clean])
    if in_band:
        return min(in_band, key=lambda c: c.residual)

    def band_gap(c: Candidate) -> float:
        d = distance(c.position, enb)
        return max(lo - d, d - hi)

    clean = [c for c in cands if c.clean]
    if clean:
        return min(clean, key=lambda c: (band_gap(c), c.residual))
    return min(cands, key=lambda c: c.residual)
