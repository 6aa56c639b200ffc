"""Range-difference (TDoA) estimator built on per-sniffer delta differences.

Differencing two sniffers' deltas cancels the device-to-eNb leg, the timing
advance, and the device hardware error, leaving the range difference
d_UE,k - d_UE,1.  Squaring the hyperbola equations and introducing the
reference range d_UE,1 as a third unknown makes the system linear in
(x_u, y_u, d_UE,1).

For any number of pairs the geometric relation d_UE,1 = |u - s_1| closes
the system: the (least-squares) position is an affine function of the
reference range, and consistency yields a quadratic.  The free-range normal
equations remain only as the paper's unconstrained least-squares baseline.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleObservation, MixedReference, NoRealRoot, RankDeficient
from .geometry import (CONDITION_LIMIT, SPEED_OF_LIGHT, Failed, Position, Scenario, Solutions,
                       choose_candidate, distance, eliminate, fail)
from .snifferlog import MatchedColumns

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

    def __post_init__(self):
        if self.d_ue1 < 0:
            raise ValueError(f"d_ue1 must be non-negative, got {self.d_ue1}")


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


def build_system(pairs: Sequence[TdoaPair]) -> LinearSystem:
    """The squared-and-differenced hyperbola rows of ``pairs`` about their one reference
    s_1, with (N, n) ``dd`` and ``h`` where each ``delta_d`` holds N samples' values."""
    if len(pairs) < 2:
        raise ValueError(f"need at least two pairs, got {len(pairs)}")
    ref = pairs[0].ref_sniffer
    for k, p in enumerate(pairs):
        if p.ref_sniffer != ref:
            raise MixedReference(f"pair {k} references {p.ref_sniffer}, expected {ref}")
    others = [p.other_sniffer for p in pairs]
    dd = np.array([p.delta_d for p in pairs], dtype=float).T
    P = np.array([(s.x - ref.x, s.y - ref.y) for s in others], dtype=float)
    const = np.array([(s.x ** 2 + s.y ** 2) - (ref.x ** 2 + ref.y ** 2) for s in others])
    return LinearSystem(P, dd, 0.5 * (const - dd * dd))


def range_difference_residual(u: Position, pairs: Sequence[TdoaPair]) -> float:
    """Euclidean norm of the nonlinear range-difference misses at ``u``, meters."""
    total = 0.0
    for p in pairs:
        miss = p.delta_d - (distance(u, p.other_sniffer) - distance(u, p.ref_sniffer))
        total += miss * miss
    return math.sqrt(total)


def solve_constrained_batch(system: LinearSystem, ref_sniffer: Position,
                            band: Tuple[float, float], enb: Position) -> Solutions:
    """Solve n >= 2 rows per sample with d_UE,1 = |u - s_1| by reference-range elimination.

    The samples share the position block ``system.P``, and more rows are first
    reduced to its normal equations (the first step of Chan & Ho 1994).
    ``geometry.eliminate`` fails a sample whose two rows are dependent with
    DegenerateGeometry, as every sample of three or more collinear
    configurations does; two collinear configurations give a mirror pair, as
    in ToA.  A root is on the true branch when d + delta_d_k >= 0 for every k;
    squaring also admits ghosts, whose miss 2 |d + delta_d_k| is the two-row
    residual.
    With more rows the residual is ``range_difference_residual``, and only
    the true-branch root with the least of it is clean.
    ``geometry.choose_candidate`` picks.  A sample fails InfeasibleObservation
    beyond ``BASELINE_REJECT_FACTOR`` baselines, NoRealRoot without a root.
    """
    P, n = system.P, len(system.P)
    dd, h = np.atleast_2d(system.dd, system.h)
    failed: Failed = {}
    baseline = np.hypot(P[:, 0], P[:, 1])
    far = np.abs(dd) > BASELINE_REJECT_FACTOR * baseline
    fail(failed, np.logical_or.reduce(far, axis=1), lambda i: InfeasibleObservation(
        f"|range difference| {abs(dd[i][far[i]][0]):.1f} m exceeds {BASELINE_REJECT_FACTOR:g}x "
        f"the sniffer baseline {baseline[far[i]][0]:.1f} m"))
    A, g = P.tolist(), dd
    if n > 2:  # the normal equations P^T P u + P^T dd r = P^T h, summed element-wise per sample
        A, g, h = (P.T @ P).tolist(), *(sum(v[:, k, None] * p for k, p in enumerate(P))
                                        for v in (dd, h))
    u, d, vertex = eliminate(A, g, h, ref_sniffer, failed)
    valid = ~np.logical_or.reduce(np.isnan(u), axis=2) & ~vertex[:, None]
    fail(failed, ~np.logical_or.reduce(valid, axis=1), lambda i: NoRealRoot(
        "reference-range quadratic has a negative discriminant" if vertex[i]
        else "no non-negative reference range solves the quadratic"))
    ghost = np.minimum(0.0, d[:, :, None] + dd[:, None])
    residual = 2.0 * np.sqrt(np.add.reduce(ghost * ghost, axis=2))
    clean = valid & (residual <= BRANCH_TOL)
    if n > 2:
        # ``range_difference_residual`` over the rows' pairs, s_k = s_1 + P_k
        x, y = u[..., 0, None], u[..., 1, None]
        s1 = ref_sniffer
        miss = dd[:, None] - (np.hypot(x - (s1.x + P[:, 0]), y - (s1.y + P[:, 1]))
                              - np.hypot(x - s1.x, y - s1.y))
        residual = np.sqrt(np.add.reduce(miss * miss, axis=2))
        clean &= np.arange(2) == np.where(clean, residual, np.inf).argmin(axis=1)[:, None]
    residual[~valid] = np.inf
    return choose_candidate(u, d, residual, valid, clean, failed, enb, band)


def _estimates(sol: Solutions, n_rows: int) -> List[Optional[TdoaEstimate]]:
    """The estimate of every solved sample, None for a failed one."""
    method = "constrained-least-squares" if n_rows > 2 else "constrained-elimination"
    return [None if i in sol.failed else TdoaEstimate(Position(x, y), d, resid, method)
            for i, ((x, y), d, resid) in enumerate(zip(sol.chosen(sol.u).tolist(),
                                                       sol.chosen(sol.r).tolist(),
                                                       sol.chosen(sol.residual).tolist()))]


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


def estimate_tdoa(matched_sets: Sequence[MatchedColumns],
                  scenario: Scenario, *, ref_sniffer: Position,
                  other_positions: Sequence[Position]) -> List[SampleOutcome]:
    """Batch driver: one estimate per aligned sample across configurations.

    ``matched_sets[j]`` holds configuration j's matched samples, where
    ``delta_a`` is the fixed reference sniffer and ``delta_b`` the sniffer
    at ``other_positions[j]``.  Sample i of every configuration makes one
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
    pairs = [form_tdoa(s.delta_a[:n] * 1e-6, s.delta_b[:n] * 1e-6, ref_sniffer, other,
                       scenario.enb) for s, other in zip(matched_sets, other_positions)]
    sol = solve_constrained_batch(build_system(pairs), ref_sniffer, scenario.band, scenario.enb)
    return [SampleOutcome(est, status, str(sol.failed.get(i, ""))) for i, (status, est)
            in enumerate(zip(sol.status.tolist(), _estimates(sol, len(pairs))))]
