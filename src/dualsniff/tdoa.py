"""Range-difference (TDoA) estimator built on per-sniffer delta differences.

Differencing two sniffers' deltas cancels the device-to-eNb leg, the timing
advance, and the device hardware error, leaving the range difference
d_UE,k - d_UE,1.  Squaring the hyperbola equations and introducing the
reference range d_UE,1 as a third unknown makes the system linear in
(x_u, y_u, d_UE,1).

For any number of pairs the geometric relation d_UE,1 = |u - s_1| closes
the system: the (least-squares) position is an affine function of the
reference range, and consistency yields a quadratic.  ``solve_rows``, that
solve with its scoring, serves the range sums (ToA) too, with the sign of the
reference term flipped.  The free-range normal equations remain only as the
paper's unconstrained least-squares baseline.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleObservation, MixedReference, NoRealRoot, RankDeficient
from .geometry import (CONDITION_LIMIT, SPEED_OF_LIGHT, VERTEX_TOL, Position, Reasons, Scenario,
                       Solutions, choose_candidate, distance, eliminate)

#: Hard reject for range differences, in units of the sniffer baseline.
BASELINE_REJECT_FACTOR = 3.0
#: Range-difference residual below which a root lies on the true hyperbola
#: branch (squaring admits sign-flipped ghosts with residuals of meters).
BRANCH_TOL = 1e-6


@dataclass(frozen=True)
class TdoaPair:
    """One range-difference measurement between a moving and a fixed sniffer.

    ``delta_d`` is d_UE,other - d_UE,ref in meters, or an array of one per
    sample.
    """

    ref_sniffer: Position
    other_sniffer: Position
    delta_d: float


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Linearized hyperbola rows P_k u + dd_k d_ue1 = h_k: the position block P of
    s_k - s_1 (n, 2) held once, dd and h (n,), or (N, n) for N samples sharing P."""

    P: np.ndarray
    dd: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        n = len(self.P)
        if n < 2 or self.P.shape != (n, 2) or self.dd.shape[-1:] != (n,) or self.dd.ndim > 2 \
                or self.h.shape != self.dd.shape:
            raise ValueError(f"need P (n>=2, 2) and dd, h ([N,] n), got P {self.P.shape}, "
                             f"dd {self.dd.shape}, h {self.h.shape}")


@dataclass(frozen=True)
class TdoaEstimate:
    position: Position
    d_ue1: float            # estimated range to the reference sniffer, m
    residual_norm: float    # meters; definition depends on method
    method: str             # constrained-elimination | constrained-least-squares | normal-equations


@dataclass(frozen=True)
class SampleOutcome:
    """Per-sample result of a batch estimate: either an estimate or an error."""

    estimate: Optional[TdoaEstimate]
    status: str = "ok"      # "ok" or the solver exception class name
    detail: str = ""


def form_tdoa(delta_ref, delta_k, ref_sniffer: Position, other_sniffer: Position,
              enb: Position) -> TdoaPair:
    """The range difference of two sniffers' deltas (seconds), one or one per sample.

    delta_d = (d_eNb,k - d_eNb,1) + c (delta_k - delta_ref); shared terms
    (timing advance, device error, eNb leg) cancel in the difference.
    ``solve_constrained_batch`` rejects a physically impossible difference.
    """
    delta_d = (distance(enb, other_sniffer) - distance(enb, ref_sniffer)) \
        + SPEED_OF_LIGHT * (delta_k - delta_ref)
    return TdoaPair(ref_sniffer, other_sniffer, delta_d)


def rows(ref: Position, others: Sequence[Position], dd) -> LinearSystem:
    """The squared-and-differenced hyperbola rows about the reference s_1 = ``ref``: row k
    of s_k = ``others[k]`` and range differences ``dd[..., k]``, dd (N, n) or one sample's (n,)."""
    dd = np.asarray(dd, dtype=float)
    P = np.array([(s.x - ref.x, s.y - ref.y) for s in others], dtype=float)
    const = np.array([(s.x ** 2 + s.y ** 2) - (ref.x ** 2 + ref.y ** 2) for s in others])
    return LinearSystem(P, dd, 0.5 * (const - dd * dd))


def build_system(pairs: Sequence[TdoaPair]) -> LinearSystem:
    """The ``rows`` of ``pairs`` about their one reference, with (N, n) ``dd`` and ``h``
    where each ``delta_d`` holds N samples' values."""
    if len(pairs) < 2:
        raise ValueError(f"need at least two pairs, got {len(pairs)}")
    ref = pairs[0].ref_sniffer
    for k, p in enumerate(pairs):
        if p.ref_sniffer != ref:
            raise MixedReference(f"pair {k} references {p.ref_sniffer}, expected {ref}")
    return rows(ref, [p.other_sniffer for p in pairs], np.array([p.delta_d for p in pairs]).T)


def solve_rows(system: LinearSystem, anchor: Position, sign: float, reasons: Reasons
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve every sample's rows with r = |u - anchor|: the core of both schemes.

    Range differences pass ``sign`` +1, range sums (dd = -D about the eNb) -1.
    More rows than two are reduced to their normal equations (the first step
    of Chan & Ho 1994) for ``geometry.eliminate``.  Station s_k = anchor + P_k
    misses by dd_k - (sign |u - s_k| - |u - anchor|), unsquared; the residual
    is the norm of the misses.  Returns ``(u, r, residual, valid)``: valid
    where the residual is a number, and at the vertex (a double root that
    rounding split) only if it is at most ``VERTEX_TOL``.
    """
    P, (dd, h) = system.P, np.atleast_2d(system.dd, system.h)
    A, g = P.tolist(), dd
    if len(P) > 2:  # the normal equations P^T P u + P^T dd r = P^T h, summed per sample
        A, g, h = (P.T @ P).tolist(), *(sum(v[:, k, None] * p for k, p in enumerate(P))
                                        for v in (dd, h))
    u, r, vertex = eliminate(A, g, h, anchor, reasons)
    # misses as (n, N, 2), station first: numpy's loops run over whole (N, 2) blocks
    x, y = u[..., 0], u[..., 1]
    sx, sy = (anchor.x + P[:, 0])[:, None, None], (anchor.y + P[:, 1])[:, None, None]
    to_anchor = np.hypot(x - anchor.x, y - anchor.y)
    miss = dd.T[:, :, None] - (sign * np.hypot(x - sx, y - sy) - to_anchor)
    residual = np.sqrt(np.add.reduce(miss * miss, axis=0))
    return u, r, residual, ~np.isnan(residual) & (~vertex[:, None] | (residual <= VERTEX_TOL))


def solve_constrained_batch(system: LinearSystem, ref_sniffer: Position,
                            band: Tuple[float, float], enb: Position) -> Solutions:
    """Solve n >= 2 rows per sample with d_UE,1 = |u - s_1| through ``solve_rows``.

    The samples share the position block ``system.P``.  ``geometry.eliminate``
    fails a sample whose two rows are dependent with DegenerateGeometry, as
    every sample of three or more collinear configurations does; two collinear
    configurations give a mirror pair, as in ToA.  A valid root is clean on
    the true branch d + delta_d_k >= 0 for every k (squaring admits ghosts,
    which miss by 2 |d + delta_d_k| with two rows), and with more rows only if
    it has the least residual of those.  ``geometry.choose_candidate`` picks.
    A sample fails InfeasibleObservation beyond ``BASELINE_REJECT_FACTOR``
    baselines, NoRealRoot without a valid root.
    """
    dd = np.atleast_2d(system.dd)
    baseline = np.hypot(system.P[:, 0], system.P[:, 1])
    far = np.abs(dd) > BASELINE_REJECT_FACTOR * baseline
    reasons: Reasons = [(far.any(axis=1), InfeasibleObservation, lambda i: InfeasibleObservation(
        f"|range difference| {abs(dd[i][far[i]][0]):.1f} m exceeds {BASELINE_REJECT_FACTOR:g}x "
        f"the sniffer baseline {baseline[far[i]][0]:.1f} m"))]
    u, d, residual, valid = solve_rows(system, ref_sniffer, 1.0, reasons)
    reasons.append((~np.logical_or.reduce(valid, axis=1), NoRealRoot, lambda i: NoRealRoot(
        "no non-negative reference range solves the quadratic")))
    ghost = np.minimum(0.0, d[:, :, None] + dd[:, None])
    clean = valid & (2.0 * np.sqrt(np.add.reduce(ghost * ghost, axis=2)) <= BRANCH_TOL)
    if len(system.P) > 2:
        clean &= np.arange(2) == np.where(clean, residual, np.inf).argmin(axis=1)[:, None]
    return choose_candidate(u, d, residual, valid, clean, reasons, enb, band)


def _estimates(sol: Solutions, n_rows: int) -> List[Optional[TdoaEstimate]]:
    """The estimate of every solved sample, None for a failed one."""
    method = "constrained-least-squares" if n_rows > 2 else "constrained-elimination"
    return [None if code else TdoaEstimate(Position(x, y), d, resid, method)
            for code, (x, y), d, resid in zip(sol.code.tolist(), *(
                sol.chosen(v).tolist() for v in (sol.u, sol.r, sol.residual)))]


def solve_constrained(system: LinearSystem, ref_sniffer: Position,
                      band: Tuple[float, float], enb: Position) -> TdoaEstimate:
    """``solve_constrained_batch`` for one sample's system; raises its failure."""
    sol = solve_constrained_batch(system, ref_sniffer, band, enb)
    sol.check(0)
    return _estimates(sol, len(system.P))[0]


def solve_normal_equations(system: LinearSystem) -> TdoaEstimate:
    """Unconstrained least squares (G^T G)^-1 G^T h, G = [P dd], the paper's LS baseline.

    ``estimate_tdoa`` solves through ``solve_constrained_batch`` instead.  Two
    rows give singular G^T G by construction, hence the explicit redirect;
    d_UE,1 is a free parameter here and its gap to the geometric range is not
    enforced.
    """
    G = np.column_stack([system.P, system.dd])
    if len(G) == 2:
        raise RankDeficient(
            "a 2x3 system has singular normal equations by construction; "
            "use solve_constrained for the two-pair setup")
    gram = G.T @ G
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise RankDeficient(
            f"normal equations condition number {cond:.2e} exceeds "
            f"{CONDITION_LIMIT:.0e}; rows are not independent")
    theta = np.linalg.solve(gram, G.T @ system.h)
    if theta[2] < 0:
        raise InfeasibleObservation(
            f"least-squares reference range d_ue1 = {theta[2]:.3f} m is negative")
    residual = float(np.linalg.norm(G @ theta - system.h))
    return TdoaEstimate(position=Position(float(theta[0]), float(theta[1])),
                        d_ue1=float(theta[2]), residual_norm=residual,
                        method="normal-equations")


def estimate_tdoa(matched_sets: Sequence[np.ndarray],
                  scenario: Scenario, *, ref_sniffer: Position,
                  other_positions: Sequence[Position]) -> List[SampleOutcome]:
    """Batch driver: one estimate per aligned sample across configurations.

    ``matched_sets[j]`` holds configuration j's matched samples, a
    ``snifferlog.SAMPLE`` array whose ``delta_a`` is the fixed reference
    sniffer and ``delta_b`` the sniffer at ``other_positions[j]``.  Sample i of every configuration makes one
    system, and one ``solve_constrained_batch`` call solves them all; outcome
    i is sample i's, and a failure is reported per sample.  Samples past the
    shortest configuration are unused.  Deltas are microseconds, as logged.
    """
    if len(matched_sets) < 2:
        raise ValueError(
            f"need at least two configurations, got {len(matched_sets)}")
    if len(other_positions) != len(matched_sets):
        raise ValueError(
            f"{len(other_positions)} sniffer positions for "
            f"{len(matched_sets)} configurations")

    n = min(len(s) for s in matched_sets)
    pairs = [form_tdoa(s["delta_a"][:n] * 1e-6, s["delta_b"][:n] * 1e-6, ref_sniffer, other,
                       scenario.enb) for s, other in zip(matched_sets, other_positions)]
    sol = solve_constrained_batch(build_system(pairs), ref_sniffer, scenario.band, scenario.enb)
    return [SampleOutcome(est, status, "" if est else str(sol.failure(i))) for i, (status, est)
            in enumerate(zip(sol.status.tolist(), _estimates(sol, len(pairs))))]
