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

from .errors import (InfeasibleObservation, LocalizationError, MixedReference,
                     NoRealRoot, RankDeficient)
from .geometry import (CONDITION_LIMIT, SPEED_OF_LIGHT, Candidate, Position,
                       Scenario, choose_candidate, distance, eliminate)
from .snifferlog import MatchedSample

#: Hard reject for range differences, in units of the sniffer baseline.
BASELINE_REJECT_FACTOR = 3.0
#: Range-difference residual below which a root lies on the true hyperbola
#: branch (squaring admits sign-flipped ghosts with residuals of meters).
BRANCH_TOL = 1e-6


@dataclass(frozen=True)
class TdoaPair:
    """One range-difference measurement between a moving and a fixed sniffer.

    ``delta_d`` is d_UE,other - d_UE,ref in meters.
    """

    ref_sniffer: Position
    other_sniffer: Position
    delta_d: float
    pair_id: str = ""

    @property
    def baseline(self) -> float:
        return distance(self.ref_sniffer, self.other_sniffer)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Linearized hyperbola system G [x_u, y_u, d_ue1]^T = h."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if self.G.ndim != 2 or self.G.shape[1] != 3 or self.G.shape[0] < 2:
            raise ValueError(f"G must be (n>=2, 3), got {self.G.shape}")
        if self.h.shape != (self.G.shape[0],):
            raise ValueError(f"h must match G rows, got {self.h.shape}")


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

    index: int
    frame: int
    subframe: int
    estimate: Optional[TdoaEstimate]
    status: str = "ok"      # "ok" or the solver exception class name
    detail: str = ""


def form_tdoa(delta_ref: float, delta_k: float, ref_sniffer: Position,
              other_sniffer: Position, enb: Position, *,
              pair_id: str = "", speed_of_light: float = SPEED_OF_LIGHT) -> TdoaPair:
    """Range difference from two sniffers' deltas (seconds).

    delta_d = (d_eNb,k - d_eNb,1) + c (delta_k - delta_ref); shared terms
    (timing advance, device error, eNb leg) cancel in the difference.
    Rejects differences beyond ``BASELINE_REJECT_FACTOR`` times the sniffer
    baseline as physically impossible.
    """
    d_enb_ref = distance(enb, ref_sniffer)
    d_enb_k = distance(enb, other_sniffer)
    delta_d = (d_enb_k - d_enb_ref) + speed_of_light * (delta_k - delta_ref)
    baseline = distance(ref_sniffer, other_sniffer)
    if abs(delta_d) > BASELINE_REJECT_FACTOR * baseline:
        raise InfeasibleObservation(
            f"|range difference| {abs(delta_d):.1f} m exceeds "
            f"{BASELINE_REJECT_FACTOR:g}x the sniffer baseline {baseline:.1f} m")
    return TdoaPair(ref_sniffer=ref_sniffer, other_sniffer=other_sniffer,
                    delta_d=delta_d, pair_id=pair_id)


def build_system(pairs: Sequence[TdoaPair]) -> LinearSystem:
    """Stack the squared-and-differenced hyperbola rows into G theta = h."""
    if len(pairs) < 2:
        raise ValueError(f"need at least two pairs, got {len(pairs)}")
    ref = pairs[0].ref_sniffer
    for p in pairs[1:]:
        if p.ref_sniffer != ref:
            raise MixedReference(
                f"pair {p.pair_id!r} references {p.ref_sniffer}, expected {ref}")
    G = np.empty((len(pairs), 3))
    h = np.empty(len(pairs))
    for i, p in enumerate(pairs):
        sk, dd = p.other_sniffer, p.delta_d
        G[i] = (sk.x - ref.x, sk.y - ref.y, dd)
        h[i] = 0.5 * ((sk.x ** 2 + sk.y ** 2) - (ref.x ** 2 + ref.y ** 2) - dd ** 2)
    return LinearSystem(G=G, h=h)


def range_difference_residual(u: Position, pairs: Sequence[TdoaPair]) -> float:
    """Euclidean norm of the nonlinear range-difference misses at ``u``, meters."""
    total = 0.0
    for p in pairs:
        miss = p.delta_d - (distance(u, p.other_sniffer) - distance(u, p.ref_sniffer))
        total += miss * miss
    return math.sqrt(total)


def solve_constrained(system: LinearSystem, ref_sniffer: Position,
                      band: Tuple[float, float], enb: Position) -> TdoaEstimate:
    """Solve n >= 2 rows with d_UE,1 = |u - s_1| by reference-range elimination.

    More rows are first reduced to the position block's normal equations (the
    first step of Chan & Ho 1994).  A root is on the true branch when
    d + delta_d_k >= 0 for every k; squaring also admits ghosts, whose miss
    2 |d + delta_d_k| is the two-row residual.  With more rows the residual is
    ``range_difference_residual``, and only the true-branch root with the least
    of it is clean.  ``geometry.choose_candidate`` then prefers in-band
    candidates and raises AmbiguousSolution for two clean ones far apart.
    """
    G, h, rows = system.G, system.h, None
    if len(G) > 2:
        # row k is (s_k - s_1, delta_d_k)
        rows = G.tolist()
        G, h = G[:, :2].T @ G, G[:, :2].T @ h
    roots, vertex = eliminate(G, h, ref_sniffer)
    if vertex is not None:
        raise NoRealRoot("reference-range quadratic has a negative discriminant")
    if not roots:
        raise NoRealRoot("no non-negative reference range solves the quadratic")
    cands = []
    for pos, d in roots:
        resid = ghost = 2.0 * math.sqrt(sum(min(0.0, d + dd) ** 2 for dd in system.G[:, 2]))
        if rows:
            # ``range_difference_residual`` over the rows' pairs
            d_ref, total = distance(pos, ref_sniffer), 0.0
            for gx, gy, dd in rows:
                miss = dd - (math.hypot(pos.x - (ref_sniffer.x + gx),
                                        pos.y - (ref_sniffer.y + gy)) - d_ref)
                total += miss * miss
            resid = math.sqrt(total)
        cands.append(Candidate(pos, d, resid, ghost <= BRANCH_TOL))
    if rows:
        best = min((c for c in cands if c.clean), key=lambda c: c.residual, default=None)
        cands = [c._replace(clean=c is best) for c in cands]
    best = choose_candidate(cands, enb, band)
    return TdoaEstimate(position=best.position, d_ue1=best.range, residual_norm=best.residual,
                        method="constrained-least-squares" if rows else "constrained-elimination")


def solve_normal_equations(system: LinearSystem) -> TdoaEstimate:
    """Unconstrained least squares (G^T G)^-1 G^T h, the paper's LS baseline.

    ``estimate_tdoa`` solves through ``solve_constrained`` instead.  Two rows
    give singular G^T G by construction, hence the explicit redirect; d_UE,1
    is a free parameter here and its gap to the geometric range is not enforced.
    """
    n = system.G.shape[0]
    if n == 2:
        raise RankDeficient(
            "a 2x3 system has singular normal equations by construction; "
            "use solve_constrained for the two-pair setup")
    gram = system.G.T @ system.G
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise RankDeficient(
            f"normal equations condition number {cond:.2e} exceeds "
            f"{CONDITION_LIMIT:.0e}; rows are not independent")
    theta = np.linalg.solve(gram, system.G.T @ system.h)
    if theta[2] < 0:
        raise InfeasibleObservation(
            f"least-squares reference range d_ue1 = {theta[2]:.3f} m is negative")
    residual = float(np.linalg.norm(system.G @ theta - system.h))
    return TdoaEstimate(position=Position(float(theta[0]), float(theta[1])),
                        d_ue1=float(theta[2]), residual_norm=residual,
                        method="normal-equations")


def estimate_tdoa(matched_sets: Sequence[Sequence[MatchedSample]],
                  scenario: Scenario, *, ref_sniffer: Position,
                  other_positions: Sequence[Position]) -> List[SampleOutcome]:
    """Batch driver: one estimate per aligned sample across configurations.

    ``matched_sets[j]`` holds configuration j's matched samples, where
    ``delta_a`` is the fixed reference sniffer and ``delta_b`` the sniffer
    at ``other_positions[j]``.  Sample i of every configuration is combined
    into one constrained solve; solver failures are reported per sample
    without aborting the batch.  Deltas are microseconds, as logged.
    """
    if len(matched_sets) < 2:
        raise ValueError(
            f"need at least two configurations, got {len(matched_sets)}")
    if len(other_positions) != len(matched_sets):
        raise ValueError(
            f"{len(other_positions)} sniffer positions for "
            f"{len(matched_sets)} configurations")

    outcomes: List[SampleOutcome] = []
    n_samples = min(len(s) for s in matched_sets)
    for i in range(n_samples):
        label = matched_sets[0][i]
        try:
            pairs = [form_tdoa(s[i].delta_a * 1e-6, s[i].delta_b * 1e-6, ref_sniffer, other,
                               scenario.enb, pair_id=f"cfg{j + 1}",
                               speed_of_light=scenario.speed_of_light)
                     for j, (s, other) in enumerate(zip(matched_sets, other_positions))]
            est = solve_constrained(build_system(pairs), ref_sniffer, scenario.band, scenario.enb)
            outcomes.append(SampleOutcome(
                index=i, frame=label.frame, subframe=label.subframe,
                estimate=est))
        except LocalizationError as exc:  # per-sample isolation
            outcomes.append(SampleOutcome(
                index=i, frame=label.frame, subframe=label.subframe,
                estimate=None, status=type(exc).__name__, detail=str(exc)))
    return outcomes
