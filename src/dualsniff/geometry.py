"""Planar positions, distances, and the measurement scenario.

Everything downstream works in a flat 2D plane with distances in meters and
times in seconds.  Microseconds appear only in the sniffer log format.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import AmbiguousSolution, DegenerateGeometry, LocalizationError

#: Speed of light in vacuum, m/s.
SPEED_OF_LIGHT = 299_792_458.0

#: LTE basic time unit Ts = 1/30.72 MHz, seconds.
LTE_TS = 1.0 / 30_720_000.0

#: One timing-advance step expressed in seconds (16 Ts of round-trip compensation).
TA_STEP_S = 16.0 * LTE_TS

#: Width of one timing-advance distance band, meters.
TA_BAND_M = 78.12

#: Condition-number limit for the solvable linear systems, the two rows of
#: ``eliminate`` among them: rows of like length are dependent when the sine
#: of their angle is at most 1 / CONDITION_LIMIT.
CONDITION_LIMIT = 1e12
#: Largest miss of an ``eliminate`` vertex kept as a double root that rounding split, m.
VERTEX_TOL = 1e-5
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
        ta_index: Non-negative timing-advance index the device operates under.
    """

    enb: Position
    sniffers: Tuple[Position, ...]
    ue_truth: Optional[Position] = None
    ta_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sniffers", tuple(self.sniffers))
        if len(self.sniffers) < 2:
            raise ValueError(f"need at least two sniffers, got {len(self.sniffers)}")
        object.__setattr__(self, "ta_index", whole("ta_index", self.ta_index))
        lo, hi = ta_band(self.ta_index)  # refuses a negative index; a huge one overflows
        for i, s in enumerate(self.sniffers):
            if distance(s, self.enb) == 0.0:
                raise ValueError(f"sniffer {i + 1} coincides with the base station")
        if self.ue_truth is not None:
            d = distance(self.ue_truth, self.enb)
            if not (lo <= d < hi):
                raise ValueError(
                    f"ue_truth is {d:.2f} m from the base station, outside the "
                    f"TA={self.ta_index} band [{lo:.2f}, {hi:.2f}) m"
                )

    @property
    def band(self) -> Tuple[float, float]:
        """Distance band implied by this scenario's TA index."""
        return ta_band(self.ta_index)


#: A batch solve's failures, one reason per stage in the order the stages run: the mask of
#: the samples the stage fails, their exception type, and a function building sample i's.
Reasons = List[Tuple[np.ndarray, type, Callable[[int], LocalizationError]]]


def eliminate(A, g: np.ndarray, h: np.ndarray, anchor: Position, reasons: Reasons
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the rows A u + g_i r = h_i of N samples together with r = |u - anchor|.

    The rows are linear in theta = (u, r): the squared rows of
    ``tdoa.build_system`` or their normal equations (the spherical
    intersection of Smith & Abel 1987 and Chan & Ho 1994).  The samples share
    the 2x2 block ``A``; ``g`` and ``h`` are (N, 2).  A sample's rows
    a_k = (A_k, g_k) meet in the line theta_0 + t n along their null direction
    m = a_0 x a_1, n = m / |m|, from its point nearest the origin,
    theta_0 = m x (h_1 a_0 - h_0 a_1) / |m|^2.  With w = u_0 - anchor, r = |u - anchor|
    leaves (|n_u|^2 - n_r^2) t^2 + 2 (w . n_u - r_0 n_r) t + |w|^2 - r_0^2 = 0,
    well posed also for a singular A (collinear stations: n_r = 0, a mirror
    pair of equal range).  Returns ``(u, r, vertex)``: each sample's roots of
    non-negative range in ascending range and their positions, two columns,
    NaN where missing or non-finite; the caller tests them for the true
    branch.  Without a real root ``vertex`` is set and column 0 holds the
    vertex, where r and |u - anchor| come closest; the caller keeps it only if
    it misses by at most ``VERTEX_TOL``.  The one degeneracy rule of both
    schemes: a sample fails DegenerateGeometry when its rows' condition number
    c, by c + 1/c = (|a_0|^2 + |a_1|^2) / |m|, reaches ``CONDITION_LIMIT``: a
    sine of their angle of at most 1 / ``CONDITION_LIMIT`` for rows of like
    length, or one row at the rounding floor of the other, as the normal
    equations of sniffers on an axis-parallel line give.  Every step is
    element-wise: a batch gives each sample the bits of its one-sample call.
    """
    (a0, a1), (b0, b1) = A
    det, g0, g1, h0, h1 = a0 * b1 - a1 * b0, g[:, :1], g[:, 1:], h[:, :1], h[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m0, m1 = a1 * g1 - b1 * g0, b0 * g0 - a0 * g1  # and det, its range component
        mm = m0 * m0 + m1 * m1 + det * det
        f = a0 * a0 + a1 * a1 + g0 * g0 + b0 * b0 + b1 * b1 + g1 * g1
        reasons.append((~(mm * CONDITION_LIMIT ** 2 > f * f)[:, 0], DegenerateGeometry,
                        lambda i: DegenerateGeometry("the two rows are dependent")))
        v0, v1, v2 = h1 * a0 - h0 * b0, h1 * a1 - h0 * b1, h1 * g0 - h0 * g1
        x0, y0, r0 = (m1 * v2 - det * v1) / mm, (det * v0 - m0 * v2) / mm, (m0 * v1 - m1 * v0) / mm
        norm = np.sqrt(mm)
        nx, ny, nr = m0 / norm, m1 / norm, det / norm
        wx, wy = x0 - anchor.x, y0 - anchor.y
        alpha = nx * nx + ny * ny - nr * nr
        beta = 2.0 * (wx * nx + wy * ny - r0 * nr)
        gamma = wx * wx + wy * wy - r0 * r0
        disc = beta * beta - 4.0 * alpha * gamma
        # citardauq ordering keeps both roots accurate when beta dominates
        q = -0.5 * (beta + np.copysign(np.sqrt(np.maximum(disc, 0.0)), beta))
        linear = np.abs(alpha) < 1e-14
        vertex = ~linear & (disc < 0.0)  # where q = -beta / 2, the vertex
        t0 = np.where(linear, -gamma / beta, q / alpha)
        t = np.concatenate([t0, np.where(linear | vertex | (q == 0.0), np.nan, gamma / q)], 1)
        t[r0 + nr * t <= -1e-9] = np.nan
        # r = r0 + nr t ascends with t sign(nr); NaN sorts last
        sign = np.copysign(1.0, nr)
        t = np.sort(sign * t, axis=1) * sign
        t[t[:, 1] == t[:, 0], 1] = np.nan  # a double root counts once; a mirror pair's r agree
        r = np.maximum(r0 + nr * t, 0.0)
        u = np.concatenate([(x0 + nx * t)[..., None], (y0 + ny * t)[..., None]], axis=2)
    u[~np.isfinite(u)] = np.nan
    return u, r, vertex[:, 0]


@dataclass(frozen=True, eq=False)
class Solutions:
    """Candidates and outcome of N samples solved in one call.

    Sample i offers candidate k at ``u[i, k]`` where ``valid[i, k]``: its
    range ``r[i, k]`` to the elimination anchor, ``residual[i, k]``, the miss
    of the unsquared equations in meters, and ``clean[i, k]``, set on the
    true branch of every equation.  ``pick[i]`` is the chosen candidate;
    ``code[i]`` is 0, or k + 1 when ``reasons[k]`` is the first stage to fail it.
    """

    u: np.ndarray
    r: np.ndarray
    residual: np.ndarray
    valid: np.ndarray
    clean: np.ndarray
    pick: np.ndarray
    code: np.ndarray
    reasons: Reasons

    def chosen(self, values: np.ndarray) -> np.ndarray:
        """The chosen candidate's entry of a per-candidate array, one per sample."""
        return values[np.arange(len(self.pick)), self.pick]

    @property
    def status(self) -> np.ndarray:
        """Each sample's status: ``ok`` or the name of its failure's exception type."""
        return np.array(["ok", *(e.__name__ for _, e, _ in self.reasons)], object)[self.code]

    def failure(self, i: int) -> Optional[LocalizationError]:
        """The exception of sample ``i``'s failure, built anew; None if it solved."""
        return self.reasons[self.code[i] - 1][2](i) if self.code[i] else None

    def check(self, i: int) -> None:
        """Raise the failure of sample ``i``, if it failed."""
        if self.code[i]:
            raise self.failure(i)


def choose_candidate(u: np.ndarray, r: np.ndarray, residual: np.ndarray, valid: np.ndarray,
                     clean: np.ndarray, reasons: Reasons, enb: Position,
                     band: Tuple[float, float]) -> Solutions:
    """Pick each sample's physical candidate with the timing-advance band.

    The in-band candidate with the smallest residual wins.  With none in
    band, the clean candidate whose base-station distance lies nearest the
    band wins, ties going to the smaller residual; with no clean candidate
    either, the smallest residual does; then the lower column.  Two clean
    in-band candidates farther apart than ``AMBIGUITY_SEPARATION`` fail the
    sample with AmbiguousSolution, the last of ``reasons``.  The arrays are
    those of ``Solutions``, with the two candidate columns of ``eliminate``;
    an invalid candidate's residual is set to inf.
    """
    residual[~valid] = math.inf
    lo, hi = band
    d = np.hypot(u[..., 0] - enb.x, u[..., 1] - enb.y)
    in_band = valid & (lo <= d) & (d < hi)
    tier = np.where(in_band, 0, 3 - valid - (valid & clean))
    gap = np.where(tier == 1, np.maximum(lo - d, d - hi), 0.0)
    sure = in_band & clean
    spread = np.where(sure[:, 0] & sure[:, 1], np.hypot(*(u[:, 0] - u[:, 1]).T), 0.0)
    reasons.append((spread > AMBIGUITY_SEPARATION, AmbiguousSolution, lambda i: AmbiguousSolution(
        f"{np.count_nonzero(sure[i])} in-band candidates separated by {spread[i]:.2f} m",
        candidates=[Position(x, y) for x, y in u[i][valid[i] & clean[i]].tolist()])))
    code = np.zeros(len(u), np.int8)
    for k in range(len(reasons), 0, -1):  # the first stage to fail a sample names it
        code[reasons[k - 1][0]] = k
    return Solutions(u, r, residual, valid, clean, np.lexsort((residual, gap, tier))[:, 0],
                     code, reasons)
