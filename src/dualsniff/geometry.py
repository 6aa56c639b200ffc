"""Planar positions, distances, and the measurement scenario.

Everything downstream works in a flat 2D plane with distances in meters and
times in seconds.  Microseconds appear only in the sniffer log format.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

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


#: The failed samples of a batch solve: sample -> the exception of its failure.
Failed = Dict[int, LocalizationError]


def fail(failed: Failed, rows: np.ndarray, error: Callable[[int], LocalizationError]) -> None:
    """Fail the samples of the mask ``rows`` with ``error(i)``, unless they failed already."""
    for i in rows.nonzero()[0].tolist():
        failed.setdefault(i, error(i))


def eliminate(A: np.ndarray, g: np.ndarray, h: np.ndarray, anchor: Position, failed: Failed
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the rows A u + g_i r = h_i of N samples together with r = |u - anchor|.

    The rows are linear in the position u and its range r to ``anchor``: the
    squared rows of ``tdoa.build_system`` or their normal equations (the
    spherical intersection of Smith & Abel 1987 and Chan & Ho 1994).  The
    samples share the 2x2 block ``A``; ``g`` and ``h`` are (N, 2).  With
    u(r) = u0 - B r and w = u0 - anchor, r = |u(r) - anchor| leaves
    (|B|^2 - 1) r^2 - 2 (w . B) r + |w|^2 = 0.  Returns ``(u, r, vertex)``:
    each sample's non-negative real roots in ascending order and their
    positions, two columns, NaN where missing or non-finite.  Squaring admits
    roots off the true branch, which the caller tests.  Where the quadratic
    has no real root (discriminant below ``DISCRIMINANT_TOL``) ``vertex`` is
    set and column 0 holds its vertex, where r and |u(r) - anchor| come
    closest.  A near-singular block fails every sample with DegenerateGeometry.
    """
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        fail(failed, np.ones(len(h), dtype=bool), lambda i: DegenerateGeometry(
            f"position rows are near-collinear (condition number {cond:.2e})"))
        A = np.eye(2)  # every sample has failed; the rest only keeps the shapes
    # one LAPACK solve per sample and right-hand side, which rounds as the
    # pinned output digests were written; a multi-column solve does not
    blocks = A[None].repeat(len(h), axis=0)
    u0, B = (np.linalg.solve(blocks, v[:, :, None])[:, :, 0] for v in (h, g))
    w = u0 - (anchor.x, anchor.y)
    alpha = np.vecdot(B, B) - 1.0
    beta = -2.0 * np.vecdot(w, B)
    gamma = np.vecdot(w, w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = beta * beta - 4.0 * alpha * gamma
        # citardauq ordering keeps both roots accurate when beta dominates
        q = -0.5 * (beta + np.copysign(np.sqrt(np.maximum(disc, 0.0)), beta))
        linear = np.abs(alpha) < 1e-14
        r = np.array([np.where(linear, -gamma / beta, q / alpha),
                      np.where(linear | (q == 0.0), np.nan, gamma / q)]).T
        r = np.where(r > 0.0, r, np.where(r > -1e-9, 0.0, np.nan))
        r.sort(axis=1)
        r[r[:, 1] == r[:, 0], 1] = np.nan  # a double root counts once
        vertex = ~linear & (disc < DISCRIMINANT_TOL)
        r[vertex, 0], r[vertex, 1] = (-0.5 * beta / alpha)[vertex], np.nan
        u = u0[:, None] - B[:, None] * r[:, :, None]
    u[~np.isfinite(u)] = np.nan
    return u, r, vertex


@dataclass(frozen=True, eq=False)
class Solutions:
    """Candidates and outcome of N samples solved in one call.

    Sample i offers candidate k at ``u[i, k]`` where ``valid[i, k]``: its
    range ``r[i, k]`` to the elimination anchor, ``residual[i, k]``, the miss
    of the unsquared equations in meters, and ``clean[i, k]``, set on the
    true branch of every equation.  ``pick[i]`` is the chosen candidate and
    ``failed`` holds the exception of every failed sample.
    """

    u: np.ndarray
    r: np.ndarray
    residual: np.ndarray
    valid: np.ndarray
    clean: np.ndarray
    pick: np.ndarray
    failed: Failed

    def chosen(self, values: np.ndarray) -> np.ndarray:
        """The chosen candidate's entry of a per-candidate array, one per sample."""
        return values[np.arange(len(self.pick)), self.pick]

    @property
    def status(self) -> np.ndarray:
        """Each sample's status code: ``ok`` or the name of its failure's exception."""
        status = np.full(len(self.pick), "ok", dtype=object)
        status[list(self.failed)] = [type(e).__name__ for e in self.failed.values()]
        return status

    def check(self, i: int) -> None:
        """Raise the failure of sample ``i``, if it failed, with a fresh traceback."""
        if i in self.failed:
            raise self.failed[i].with_traceback(None)


def choose_candidate(u: np.ndarray, r: np.ndarray, residual: np.ndarray, valid: np.ndarray,
                     clean: np.ndarray, failed: Failed, enb: Position,
                     band: Tuple[float, float]) -> Solutions:
    """Pick each sample's physical candidate with the timing-advance band.

    The in-band candidate with the smallest residual wins.  With none in
    band, the clean candidate whose base-station distance lies nearest the
    band wins, ties going to the smaller residual; with no clean candidate
    either, the smallest residual does; then the lower column.  Two clean
    in-band candidates farther apart than ``AMBIGUITY_SEPARATION`` fail the
    sample with AmbiguousSolution.  The arrays are those of ``Solutions``.
    """
    lo, hi = band
    d = np.hypot(u[..., 0] - enb.x, u[..., 1] - enb.y)
    in_band = valid & (lo <= d) & (d < hi)
    tier = np.where(in_band, 0, 3 - valid - (valid & clean))
    gap = np.where(tier == 1, np.maximum(lo - d, d - hi), 0.0)
    sure = in_band & clean
    apart = np.hypot(*(u[:, :, None, k] - u[:, None, :, k] for k in (0, 1)))
    spread = np.maximum.reduce(np.where(sure[:, :, None] & sure[:, None], apart, 0.0), axis=(1, 2))
    fail(failed, spread > AMBIGUITY_SEPARATION, lambda i: AmbiguousSolution(
        f"{np.count_nonzero(sure[i])} in-band candidates separated by {spread[i]:.2f} m",
        candidates=[Position(x, y) for x, y in u[i][valid[i] & clean[i]].tolist()]))
    return Solutions(u, r, residual, valid, clean, np.lexsort((residual, gap, tier))[:, 0],
                     failed)
