"""Shared scenario generation and solver wrappers for the test suite.

The random-scenario generator rejects degenerate layouts up front (sniffers
too close together, collinear triples, device near a band edge) and then
rejects draws the range-sum solver reports as geometrically ambiguous, since
a mirror intersection inside the same TA band is unresolvable by any solver.
All rejection is driven by the supplied RNG, so a fixed seed reproduces the
exact scenario sequence.
"""

import math

import numpy as np

from dualsniff.errors import LocalizationError
from dualsniff.geometry import SPEED_OF_LIGHT, Position, Scenario, distance, ta_band, triangle_area
from dualsniff.stats import ErrorStats
from dualsniff.tdoa import BRANCH_TOL, build_system, form_tdoa, solve_constrained
from dualsniff.timing import ClockConfig, quantize_ta, subframe_delta
from dualsniff.toa import compose_D, solve_toa

#: Scenario box half-width; the full box is 500 m on a side, eNb-centered.
BOX_HALF = 250.0
#: Minimum sniffer-to-sniffer and sniffer-to-eNb spacing, m.
MIN_SEPARATION = 20.0
#: Minimum triangle area for any (eNb, sniffer, sniffer) triple, m^2.
MIN_TRIANGLE_AREA = 500.0
#: Keep the device this far from TA band edges and from other nodes, m.
BAND_MARGIN = 5.0
NODE_MARGIN = 10.0


def _draw_position(rng) -> Position:
    return Position(float(rng.uniform(-BOX_HALF, BOX_HALF)),
                    float(rng.uniform(-BOX_HALF, BOX_HALF)))


def _geometry_ok(enb, sniffers, ue) -> bool:
    nodes = [enb, *sniffers]
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if distance(nodes[i], nodes[j]) < MIN_SEPARATION:
                return False
    for i in range(len(sniffers)):
        for j in range(i + 1, len(sniffers)):
            if triangle_area(enb, sniffers[i], sniffers[j]) < MIN_TRIANGLE_AREA:
                return False
    if len(sniffers) >= 3 and \
            triangle_area(sniffers[0], sniffers[1], sniffers[2]) < MIN_TRIANGLE_AREA:
        return False
    d_ub = distance(enb, ue)
    lo, hi = ta_band(quantize_ta(d_ub)[0])
    if d_ub - lo < BAND_MARGIN or hi - d_ub < BAND_MARGIN:
        return False
    return all(distance(ue, n) >= NODE_MARGIN for n in nodes)


def draw_scenario(rng, n_sniffers: int = 3) -> Scenario:
    """One random non-degenerate scenario with the eNb at the origin."""
    enb = Position(0.0, 0.0)
    while True:
        sniffers = tuple(_draw_position(rng) for _ in range(n_sniffers))
        ue = _draw_position(rng)
        if not _geometry_ok(enb, sniffers, ue):
            continue
        ta_index = quantize_ta(distance(enb, ue))[0]
        return Scenario(enb=enb, sniffers=sniffers, ue_truth=ue, ta_index=ta_index)


def noiseless_deltas(scenario: Scenario):
    """Per-sniffer clean timing deltas for a scenario, seconds."""
    cfg = ClockConfig.for_scenario(scenario)
    return [subframe_delta(scenario, k, cfg) for k in range(len(scenario.sniffers))]


def ue_tx_time(t_n: float, d_ub: float, cfg: ClockConfig) -> float:
    """Uplink transmit time for the downlink subframe sent at ``t_n``."""
    if d_ub < 0:
        raise ValueError("d_ub must be >= 0")
    return t_n + d_ub / SPEED_OF_LIGHT - cfg.ta_value + cfg.ue_hw_error


def dl_arrival(t_n: float, d_enb_k: float, offset_k: float) -> float:
    """Downlink arrival time at a sniffer, on that sniffer's clock."""
    if d_enb_k < 0:
        raise ValueError("d_enb_k must be >= 0")
    return t_n + d_enb_k / SPEED_OF_LIGHT + offset_k


def ul_arrival(t_n: float, d_ub: float, d_ue_k: float, offset_k: float,
               cfg: ClockConfig) -> float:
    """Uplink arrival time at a sniffer, on that sniffer's clock."""
    if d_ue_k < 0:
        raise ValueError("d_ue_k must be >= 0")
    return ue_tx_time(t_n, d_ub, cfg) + d_ue_k / SPEED_OF_LIGHT + offset_k


def sigma_for_snr(snr_db: float, sigma0: float) -> float:
    """Map an SNR to a timing-noise sigma: sigma0 * 10^(-SNR/20).

    The scale ``sigma0`` is a calibration knob; only the monotone decrease
    with SNR is relied on.  The simulator draws its noise from
    ``ClockConfig.sniffer_noise_sigma`` alone, so a test that wants noise
    to follow the SNR sets that sigma from this map.
    """
    return sigma0 * 10.0 ** (-snr_db / 20.0)


def ellipse_residual(u_cand: Position, obs, enb: Position) -> float:
    """Signed miss of the range-sum constraint ``obs`` at a candidate point, meters."""
    return distance(u_cand, enb) + distance(u_cand, obs.sniffer) - obs.D


MATCHED_HEADER = "frame,subframe,delta_a_us,delta_b_us"


def write_matched(samples) -> str:
    """Matched samples as a delimited table with header, floats by ``repr``."""
    return MATCHED_HEADER + "\n" + "".join(
        f"{frame},{subframe},{delta_a!r},{delta_b!r}\n"
        for frame, subframe, delta_a, delta_b in samples.tolist())


def run_toa(scenario: Scenario, deltas=None):
    """Range-sum solve on the first two sniffers: the one-sample ``Solutions``, which
    raises the sample's failure."""
    if deltas is None:
        deltas = noiseless_deltas(scenario)
    obs = [compose_D(deltas[k], scenario.sniffers[k], scenario) for k in (0, 1)]
    return solve_toa(obs[0], obs[1], scenario.enb, scenario.band)


def run_tdoa(scenario: Scenario, deltas=None):
    """Constrained range-difference solve with sniffer 1 as reference."""
    if deltas is None:
        deltas = noiseless_deltas(scenario)
    pairs = [form_tdoa(deltas[0], deltas[k], scenario.sniffers[0],
                       scenario.sniffers[k], scenario.enb)
             for k in range(1, len(scenario.sniffers))]
    return solve_constrained(build_system(pairs), scenario.sniffers[0],
                             scenario.band, scenario.enb)


def tdoa_crlb(ref: Position, others, u: Position, sigma: float) -> np.ndarray:
    """Cramér-Rao bound (2x2, m^2) on the position from one range difference per
    configuration, each made of two deltas with i.i.d. noise ``sigma`` (s).

    Row k of H is the gradient of |u - s_k| - |u - s_1|; the differences are
    independent, so R = 2 sigma^2 c^2 I and the bound is (H^T R^-1 H)^-1.
    """
    def unit(s):
        return np.array([u.x - s.x, u.y - s.y]) / distance(u, s)
    H = np.array([unit(s) - unit(ref) for s in others])
    return np.linalg.inv(H.T @ H / (2.0 * sigma ** 2 * SPEED_OF_LIGHT ** 2))


#: Reject range-sum draws whose ellipses cross at a near-tangent angle.
#: The determinant of the two constraint gradients is ~sin of the crossing
#: angle (each gradient has norm <= 2); below this floor the two ellipses
#: osculate, so a second genuine intersection sits within a few meters of
#: the first and the pair is unresolvable from timing alone.
MIN_CROSSING_DET = 0.05


def crossing_det(point: Position, enb: Position, s1: Position, s2: Position) -> float:
    """|det| of the two range-sum constraint gradients at ``point``.

    Each constraint D = |p - enb| + |p - sniffer| has gradient
    unit(p - enb) + unit(p - sniffer); the determinant of the two gradients
    measures how transversally the ellipses cross there.
    """
    rows = []
    for focal in (s1, s2):
        gx = gy = 0.0
        for ref in (enb, focal):
            dx = point.x - ref.x
            dy = point.y - ref.y
            r = math.hypot(dx, dy)
            gx += dx / r
            gy += dy / r
        rows.append((gx, gy))
    return abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])


def draw_solved_scenario(rng, n_sniffers: int = 3):
    """A non-degenerate scenario plus both noiseless solver outputs, the range-sum
    one a one-sample ``Solutions``.

    Draws are rejected when either solver raises (mirror candidate in the
    same band, or a tangency), the range-sum solve still sees a second
    in-band candidate, the returned point is a closest approach rather than
    a crossing, or the ellipses cross near-tangentially
    (gradient determinant under MIN_CROSSING_DET); those layouts cannot be
    resolved from timing alone, regardless of solver quality.
    """
    while True:
        sc = draw_scenario(rng, n_sniffers)
        try:
            toa = run_toa(sc)
            tdoa_est = run_tdoa(sc)
        except LocalizationError:
            continue
        lo, hi = sc.band
        in_band = [q for q in toa.u[0][toa.valid[0]].tolist()
                   if lo <= distance(Position(*q), sc.enb) < hi]
        if len(in_band) > 1:
            continue
        if not toa.clean[0, toa.pick[0]]:
            continue
        if crossing_det(Position(*toa.chosen(toa.u)[0].tolist()), sc.enb,
                        sc.sniffers[0], sc.sniffers[1]) < MIN_CROSSING_DET:
            continue
        return sc, toa, tdoa_est


def draw_audited_instance(rng, sigma: float):
    """One audited noisy instance: (scenario, pairs, constrained estimate).

    Instances are redrawn when: the device falls beyond TA band 1 (keeps the
    oracle's search over the annulus small); forming or solving the noisy
    system raises; the solver lands on a squaring ghost (residual over
    BRANCH_TOL); or the solution leaves the TA annulus.  The oracle searches
    exactly that annulus for the same cost, so the comparison is only
    well-posed for in-annulus, true-branch solutions.
    """
    while True:
        sc = draw_scenario(rng)
        if sc.ta_index > 1:
            continue
        deltas = np.array(noiseless_deltas(sc)) + rng.normal(0.0, sigma, 3)
        try:
            pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0],
                               sc.sniffers[k], sc.enb) for k in (1, 2)]
            est = solve_constrained(build_system(pairs), sc.sniffers[0],
                                    sc.band, sc.enb)
        except LocalizationError:
            continue
        if est.residual_norm > BRANCH_TOL:
            continue
        lo, hi = sc.band
        if not lo <= distance(est.position, sc.enb) < hi:
            continue
        return sc, pairs, est


def draw_solvable_scenario(rng, n_sniffers: int = 3) -> Scenario:
    """Like ``draw_solved_scenario`` but returning only the scenario."""
    return draw_solved_scenario(rng, n_sniffers)[0]


def position_error(position: Position, scenario: Scenario) -> float:
    return distance(position, scenario.ue_truth)


def numpy_summarize(samples) -> ErrorStats:
    """``stats.summarize`` as numpy formulas, the reference for its plain-float sums."""
    arr = np.asarray(samples, dtype=float)
    return ErrorStats(mean=float(arr.mean()), rmse=float(math.sqrt(np.mean(arr ** 2))),
                      std=float(arr.std()), count=int(arr.size),
                      cdf=tuple((float(e), (i + 1) / arr.size)
                                for i, e in enumerate(np.sort(arr))))
