import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from dualsniff import tdoa
from dualsniff.errors import (InfeasibleObservation, LocalizationError, MixedReference,
                              NoRealRoot, RankDeficient)
from dualsniff.geometry import (AMBIGUITY_SEPARATION, SPEED_OF_LIGHT, Position, Scenario,
                                distance, ta_band)
from dualsniff.snifferlog import MatchedColumns, match_records
from dualsniff.tdoa import (LinearSystem, TdoaEstimate, TdoaPair,
                            build_system, estimate_tdoa, form_tdoa,
                            range_difference_residual, solve_constrained,
                            solve_constrained_batch, solve_normal_equations)
from dualsniff.timing import (CaptureSpec, ClockConfig, Relocation, quantize_ta, segments,
                              simulate_capture)


def _tri_scenario():
    """Three sniffers, device at (40, 30)."""
    return Scenario(enb=Position(0, 0),
                    sniffers=(Position(100, 0), Position(0, 100), Position(-80, 40)),
                    ue_truth=Position(40, 30), ta_index=0)


def _pairs_for(sc):
    deltas = helpers.noiseless_deltas(sc)
    return [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
            for k in range(1, len(sc.sniffers))]


def test_form_tdoa_known_value():
    sc = _tri_scenario()
    deltas = helpers.noiseless_deltas(sc)
    pair = form_tdoa(deltas[0], deltas[1], sc.sniffers[0], sc.sniffers[1], sc.enb)
    # d_ue2 - d_ue1 = sqrt(40^2 + 70^2) - sqrt(60^2 + 30^2)
    want = math.sqrt(6500.0) - math.sqrt(4500.0)
    assert pair.delta_d == pytest.approx(want, abs=1e-9)
    assert distance(pair.ref_sniffer, pair.other_sniffer) == pytest.approx(math.sqrt(2.0) * 100.0)


def test_form_tdoa_zero_for_equidistant_sniffers():
    sc = Scenario(enb=Position(0, 0),
                  sniffers=(Position(100, 0), Position(0, 100)),
                  ue_truth=Position(50, 50), ta_index=0)
    deltas = helpers.noiseless_deltas(sc)
    pair = form_tdoa(deltas[0], deltas[1], sc.sniffers[0], sc.sniffers[1], sc.enb)
    assert pair.delta_d == pytest.approx(0.0, abs=1e-9)


def test_form_tdoa_cancels_shared_shifts():
    """Timing advance and device error hit both deltas alike and drop out."""
    sc = _tri_scenario()
    deltas = helpers.noiseless_deltas(sc)
    base = form_tdoa(deltas[0], deltas[1], sc.sniffers[0], sc.sniffers[1], sc.enb)
    for shift in (5e-6, -5e-6, 1e-6, -1e-6):
        shifted = form_tdoa(deltas[0] + shift, deltas[1] + shift,
                            sc.sniffers[0], sc.sniffers[1], sc.enb)
        assert shifted.delta_d == pytest.approx(base.delta_d, abs=1e-9)


def test_form_tdoa_rejects_impossible_difference():
    s1, s2, s3 = Position(100, 0), Position(0, 100), Position(-80, 40)
    # |delta_d| can never exceed the sniffer baseline; 500 m is far beyond it
    bad = form_tdoa(0.0, 500.0 / SPEED_OF_LIGHT, s1, s2, Position(0, 0))
    good = form_tdoa(0.0, 0.0, s1, s3, Position(0, 0))
    with pytest.raises(InfeasibleObservation, match="exceeds 3x the sniffer baseline 141.4 m"):
        solve_constrained(build_system([good, bad]), s1, (0.0, 78.12), Position(0, 0))


def test_build_system_rows_by_hand():
    ref = Position(0, 0)
    pairs = [TdoaPair(ref_sniffer=ref, other_sniffer=Position(1, 0), delta_d=0.0),
             TdoaPair(ref_sniffer=ref, other_sniffer=Position(0, 2), delta_d=1.0)]
    system = build_system(pairs)
    assert system.P.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert system.dd.tolist() == [0.0, 1.0]
    assert np.allclose(system.h, [0.5, 1.5])


def test_build_system_truth_satisfies_rows():
    sc = _tri_scenario()
    system = build_system(_pairs_for(sc))
    rows = system.P @ [40.0, 30.0] + system.dd * distance(sc.ue_truth, sc.sniffers[0])
    assert np.allclose(rows, system.h, atol=1e-7)


def test_build_system_rejects_mixed_reference():
    p1 = TdoaPair(ref_sniffer=Position(0, 0), other_sniffer=Position(1, 0),
                  delta_d=0.0)
    p2 = TdoaPair(ref_sniffer=Position(5, 5), other_sniffer=Position(0, 1),
                  delta_d=0.0)
    with pytest.raises(MixedReference, match=r"^pair 2 references"):
        build_system([p1, p1, p2])
    with pytest.raises(ValueError):
        build_system([p1])


def test_constrained_round_trip():
    sc = _tri_scenario()
    est = helpers.run_tdoa(sc)
    assert helpers.position_error(est.position, sc) < 1e-9
    assert est.d_ue1 == pytest.approx(math.sqrt(4500.0), abs=1e-9)
    assert est.residual_norm < 1e-9
    assert est.method == "constrained-elimination"


def test_constrained_handles_zero_differences():
    """Device equidistant from all three sniffers: the circumcenter case."""
    sc = Scenario(enb=Position(0, 0),
                  sniffers=(Position(120, 0), Position(0, 80), Position(-40, -60)),
                  ue_truth=Position(30.4, -4.4), ta_index=0)
    pairs = _pairs_for(sc)
    for p in pairs:
        assert abs(p.delta_d) < 1e-9
    est = solve_constrained(build_system(pairs), sc.sniffers[0], sc.band, sc.enb)
    assert helpers.position_error(est.position, sc) < 1e-9


def test_constrained_solves_three_rows():
    sc = _tri_scenario()
    deltas = helpers.noiseless_deltas(sc)
    pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
             for k in (1, 2)]
    three = build_system(pairs + pairs[:1])
    est = solve_constrained(three, sc.sniffers[0], sc.band, sc.enb)
    assert helpers.position_error(est.position, sc) < 1e-9
    assert est.d_ue1 == pytest.approx(math.sqrt(4500.0), abs=1e-9)
    assert est.residual_norm < 1e-9
    assert est.method == "constrained-least-squares"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_configs=st.integers(3, 5))
def test_constrained_least_squares_is_exact_without_noise(seed, n_configs):
    sc = helpers.draw_scenario(np.random.default_rng(seed), n_sniffers=n_configs + 1)
    est = solve_constrained(build_system(_pairs_for(sc)), sc.sniffers[0], sc.band, sc.enb)
    assert helpers.position_error(est.position, sc) < 1e-6
    assert est.method == "constrained-least-squares"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_configs=st.integers(3, 5))
# 2.5314787375873764 against 2.5314787375873906 m: not equal bit for bit
@example(seed=3248538, n_configs=5)
def test_least_squares_residual_is_the_range_difference_residual(seed, n_configs):
    rng = np.random.default_rng(seed)
    sc = helpers.draw_scenario(rng, n_sniffers=n_configs + 1)
    noisy = [TdoaPair(p.ref_sniffer, p.other_sniffer, p.delta_d + rng.normal(0.0, 2.0))
             for p in _pairs_for(sc)]
    system = build_system(noisy)
    try:
        est = solve_constrained(system, sc.sniffers[0], sc.band, sc.enb)
    except LocalizationError:
        return
    # the pairs as the rows give them: s_k = s_1 + P_k
    ref = sc.sniffers[0]
    rows = [TdoaPair(ref, Position(ref.x + px, ref.y + py), dd)
            for (px, py), dd in zip(system.P.tolist(), system.dd.tolist())]
    # the same misses, summed as arrays or as scalars, round apart after d_k - d_1
    # cancels: by up to 583 ulps (7.1e-14 relative) in 3000 random draws
    assert math.isclose(est.residual_norm, range_difference_residual(est.position, rows),
                        rel_tol=1e-12)


#: Orientations of the collinear layouts, radians: axis-parallel and not.
LINE_ANGLES = (0.0, 0.4, 1.1, math.pi / 2, 2.0, 2.8, math.pi, 4.0, 5.3)


def _on_line(through: Position, theta: float, offsets) -> tuple:
    """Positions ``offsets`` meters along the line through ``through`` at angle ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return tuple(Position(through.x + t * c, through.y + t * s) for t in offsets)


def _solve_draws(sc, draws, sigma, rng):
    """``solve_constrained_batch`` of ``draws`` samples of ``sc``: the first noiseless,
    the rest with ``sigma`` seconds of timing noise, sniffer 1 the reference."""
    clean = np.array(helpers.noiseless_deltas(sc))
    deltas = clean + rng.normal(0.0, sigma, (draws, len(clean)))
    deltas[0] = clean
    pairs = [form_tdoa(deltas[:, 0], deltas[:, k], sc.sniffers[0], sc.sniffers[k], sc.enb)
             for k in range(1, len(clean))]
    return solve_constrained_batch(build_system(pairs), sc.sniffers[0], sc.band, sc.enb)


@pytest.mark.parametrize("theta", LINE_ANGLES, ids="{:.2f}".format)
@pytest.mark.parametrize("n_configs", [3, 4])
def test_collinear_sniffers_fail_every_sample(n_configs, theta):
    """n > 2 sniffers on one line make the normal-equation rows dependent, so
    every sample, noiseless or noisy, fails DegenerateGeometry on its own."""
    offsets = (0.0, 60.0, 130.0, -90.0, 210.0)[:n_configs + 1]
    sc = Scenario(enb=Position(0, 0), sniffers=_on_line(Position(50, -40), theta, offsets),
                  ue_truth=Position(20, 90), ta_index=1)
    sol = _solve_draws(sc, 50, 2e-8, np.random.default_rng(3))
    assert sol.status.tolist() == ["DegenerateGeometry"] * 50


#: The device keeps this far from the sniffers' line, m.  Nearer, the mirror pair
#: is a near-double root: rounding moves it by up to 1.2 cm at 0.1 m off the line,
#: and within 1 cm it can push the pair below DISCRIMINANT_TOL (NoRealRoot).
LINE_MARGIN = 1.0


@pytest.mark.parametrize("theta", LINE_ANGLES, ids="{:.2f}".format)
def test_collinear_two_configurations_give_a_mirror_pair(theta):
    """Sniffer 2 relocated along the line through sniffer 1, noiseless: the rows
    meet in a mirror pair about that line, as ToA's collinear stations do.  The
    truth is a candidate, and the band picks an answer within
    AMBIGUITY_SEPARATION of it or the sample fails AmbiguousSolution."""
    rng, enb, outcomes = np.random.default_rng(11), Position(0, 0), []
    while len(outcomes) < 200:
        ref, ue = (Position(*rng.uniform(-helpers.BOX_HALF, helpers.BOX_HALF, 2).tolist())
                   for _ in range(2))
        nodes = (enb, *_on_line(ref, theta, [0.0, *rng.uniform(-300.0, 300.0, 2).tolist()]))
        ta_index = quantize_ta(distance(ue, enb))[0]
        lo, hi = ta_band(ta_index)
        if (min(distance(p, q) for i, p in enumerate(nodes) for q in nodes[i + 1:])
                < helpers.MIN_SEPARATION
                or min(distance(ue, p) for p in nodes) < helpers.NODE_MARGIN
                or abs((ue.x - ref.x) * math.sin(theta) - (ue.y - ref.y) * math.cos(theta))
                < LINE_MARGIN
                or not lo + helpers.BAND_MARGIN <= distance(ue, enb) <= hi - helpers.BAND_MARGIN):
            continue
        sol = _solve_draws(Scenario(enb, nodes[1:], ue, ta_index), 1, 0.0, rng)
        candidates = sol.u[0][sol.valid[0]].tolist()
        assert min(distance(Position(x, y), ue) for x, y in candidates) < 1e-4
        outcomes.append(sol.status[0])
        if sol.status[0] == "ok":
            assert distance(Position(*sol.chosen(sol.u)[0].tolist()), ue) <= AMBIGUITY_SEPARATION
    assert set(outcomes) == {"ok", "AmbiguousSolution"}


def test_constrained_no_real_root():
    # hand-built system: u(d) = u0 - B d with B = (2, 0) and w = (-1.5, 0.5)
    # gives 3 d^2 + 6 d + 2.5 = 0, whose roots are both negative
    ref = Position(0, 50)
    pairs = [TdoaPair(ref_sniffer=ref, other_sniffer=Position(1, 50), delta_d=2.0),
             TdoaPair(ref_sniffer=ref, other_sniffer=Position(0, 51), delta_d=0.0)]
    with pytest.raises(NoRealRoot):
        solve_constrained(build_system(pairs), ref, (0.0, 78.12), Position(0, 0))


def test_range_difference_residual_zero_at_truth():
    sc = _tri_scenario()
    pairs = _pairs_for(sc)
    assert range_difference_residual(sc.ue_truth, pairs) < 1e-9
    assert range_difference_residual(Position(0, 0), pairs) > 1.0


def test_normal_equations_three_rows():
    sc = _tri_scenario()
    system = build_system(_pairs_for(sc))
    assert (system.P.shape, system.dd.shape, system.h.shape) == ((2, 2), (2,), (2,))
    # widen to three rows with a fourth sniffer
    wide = Scenario(enb=sc.enb, sniffers=sc.sniffers + (Position(30, -110),),
                    ue_truth=sc.ue_truth, ta_index=0)
    est = solve_normal_equations(build_system(_pairs_for(wide)))
    assert helpers.position_error(est.position, wide) < 1e-6
    assert est.d_ue1 == pytest.approx(math.sqrt(4500.0), abs=1e-6)
    assert est.method == "normal-equations"
    assert est.residual_norm < 1e-6


def test_normal_equations_redirect_on_two_rows():
    sc = _tri_scenario()
    system = build_system(_pairs_for(sc))
    with pytest.raises(RankDeficient) as exc:
        solve_normal_equations(system)
    assert "solve_constrained" in str(exc.value)
    # the redirect target solves the very same system
    est = solve_constrained(system, sc.sniffers[0], sc.band, sc.enb)
    assert helpers.position_error(est.position, sc) < 1e-9


def test_normal_equations_duplicate_rows_rank_deficient():
    ref = Position(100, 0)
    pair = TdoaPair(ref_sniffer=ref, other_sniffer=Position(0, 100), delta_d=13.5)
    with pytest.raises(RankDeficient):
        solve_normal_equations(build_system([pair, pair, pair]))


def test_linear_system_shape_validation():
    LinearSystem(P=np.zeros((2, 2)), dd=np.zeros((4, 2)), h=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        LinearSystem(P=np.zeros((1, 2)), dd=np.zeros(1), h=np.zeros(1))
    with pytest.raises(ValueError):
        LinearSystem(P=np.zeros((2, 2)), dd=np.zeros(3), h=np.zeros(3))
    with pytest.raises(ValueError):
        LinearSystem(P=np.zeros((2, 2)), dd=np.zeros((4, 2)), h=np.zeros(2))


def test_estimate_validation():
    with pytest.raises(ValueError):
        TdoaEstimate(position=Position(0, 0), d_ue1=-1.0, residual_norm=0.0,
                     method="constrained-elimination")


def _matched(samples):
    """Matched columns of (frame, subframe, delta_a_us, delta_b_us) samples."""
    frame, subframe, da, db = (np.array(c) for c in zip(*samples))
    return MatchedColumns(frame=frame, subframe=subframe, delta_a=da, delta_b=db)


def test_estimate_tdoa_batch():
    sc = _tri_scenario()
    deltas = helpers.noiseless_deltas(sc)
    sets = [_matched([(0, i, deltas[0] * 1e6, deltas[k] * 1e6) for i in range(3)])
            for k in (1, 2)]
    outcomes = estimate_tdoa(sets, sc, ref_sniffer=sc.sniffers[0],
                             other_positions=sc.sniffers[1:])
    assert [o.status for o in outcomes] == ["ok"] * 3
    for o in outcomes:
        assert helpers.position_error(o.estimate.position, sc) < 1e-9
    again = estimate_tdoa(sets, sc, ref_sniffer=sc.sniffers[0],
                          other_positions=sc.sniffers[1:])
    assert [o.estimate.position for o in again] == \
        [o.estimate.position for o in outcomes]


def test_estimate_tdoa_isolates_bad_samples():
    sc = _tri_scenario()
    deltas = helpers.noiseless_deltas(sc)
    samples = [[(0, i, deltas[0] * 1e6, deltas[k] * 1e6) for i in range(3)] for k in (1, 2)]
    # sample 1 of the second configuration claims an impossible difference
    samples[1][1] = (0, 1, deltas[0] * 1e6, deltas[0] * 1e6 + 100.0)
    sets = [_matched(s) for s in samples]
    outcomes = estimate_tdoa(sets, sc, ref_sniffer=sc.sniffers[0],
                             other_positions=sc.sniffers[1:])
    assert [o.status for o in outcomes] == \
        ["ok", "InfeasibleObservation", "ok"]
    assert outcomes[1].estimate is None
    assert outcomes[1].detail != ""


def test_normal_equations_reject_negative_reference_range():
    # an identity system whose least-squares d_ue1 is -5 m
    system = LinearSystem(P=np.eye(3)[:, :2], dd=np.eye(3)[:, 2], h=np.array([0.0, 0.0, -5.0]))
    with pytest.raises(InfeasibleObservation):
        solve_normal_equations(system)


def test_estimate_tdoa_lets_programming_errors_through(monkeypatch):
    """Only solver failures are isolated per sample; a bug stops the batch."""
    sc = _tri_scenario()
    deltas = helpers.noiseless_deltas(sc)
    sets = [_matched([(0, 0, deltas[0] * 1e6, deltas[k] * 1e6)]) for k in (1, 2)]

    def broken(*args):
        raise TypeError("solver bug")

    monkeypatch.setattr(tdoa, "solve_constrained_batch", broken)
    with pytest.raises(TypeError, match="solver bug"):
        estimate_tdoa(sets, sc, ref_sniffer=sc.sniffers[0], other_positions=sc.sniffers[1:])


def test_estimate_tdoa_needs_two_sets():
    sc = _tri_scenario()
    with pytest.raises(ValueError):
        estimate_tdoa([_matched([(0, 0, 0.1, 0.2)])], sc, ref_sniffer=sc.sniffers[0],
                      other_positions=sc.sniffers[1:2])


#: The benchmark's busy-cell layout: sniffer 2 moves twice, so three segments.
PLAN_SCENARIO = Scenario(enb=Position(0, 0), sniffers=(Position(109.7, 0), Position(0, 139.5)),
                         ue_truth=Position(80, 82.2), ta_index=1)
PLAN = (Relocation(1, 10, Position(154, 40)), Relocation(1, 20, Position(60, 170)))


def _plan_fixes(clock):
    """(status, position) of each TDoA sample of a capture cut at the plan's segments."""
    capture = simulate_capture(PLAN_SCENARIO, clock, CaptureSpec(subframes=30), PLAN)
    plan = segments(PLAN_SCENARIO, PLAN, 30)
    matched = [match_records(capture.sniffer_log(0, start, stop),
                             capture.sniffer_log(1, start, stop))[0] for start, stop, _ in plan]
    outcomes = estimate_tdoa(matched, PLAN_SCENARIO, ref_sniffer=PLAN_SCENARIO.sniffers[0],
                             other_positions=[layout.sniffers[1] for _, _, layout in plan])
    return [(o.status, o.estimate.position if o.estimate else None) for o in outcomes]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(ue_hw_error=st.floats(-1e-6, 1e-6), ta_value=st.floats(0.0, 2e-5))
def test_clock_errors_cancel_through_the_segment_plan(ue_hw_error, ta_value):
    """Device error and timing advance leave every noisy (20 ns) fix of a
    relocated capture within 1e-6 m of the zero-error run."""
    noise = dict(sniffer_noise_sigma=2e-8, rng_seed=7)
    base = _plan_fixes(ClockConfig(**noise))
    fixes = _plan_fixes(ClockConfig(ue_hw_error=ue_hw_error, ta_value=ta_value, **noise))
    assert len(base) == 10 and all(status == "ok" for status, _ in base)
    assert [status for status, _ in fixes] == [status for status, _ in base]
    assert max(distance(p, q) for (_, p), (_, q) in zip(fixes, base)) < 1e-6


#: Timing noise of the efficiency check, s, draws per layout and layouts per count.
CRLB_SIGMA, CRLB_DRAWS, CRLB_LAYOUTS = 2e-8, 400, 24
#: Bound on the median over layouts of RMSE / sqrt(trace(CRLB)), per configuration
#: count.  Over 40 seeds the medians reached 1.02, 1.20, 1.70 and 1.47; with the
#: constraint dropped for n > 2 they fell no lower than 1.55, 1.52 and 1.38.
CRLB_FACTOR = {2: 1.1, 3: 1.4, 4: 1.9, 5: 1.7}


@pytest.mark.parametrize("n_configs", sorted(CRLB_FACTOR))
def test_constrained_batch_reaches_the_crlb(n_configs):
    """On random layouts in the small-noise regime (bound under 15 m, inside a
    78 m TA band), the RMSE of the solved draws stays near the Cramér-Rao bound.

    The median over layouts is checked, not each layout: a rare fallback answer
    far outside the TA band can dominate one layout's RMSE.
    """
    rng = np.random.default_rng(20 + n_configs)
    ratios, solved = [], 0
    while len(ratios) < CRLB_LAYOUTS:
        sc = helpers.draw_scenario(rng, n_sniffers=n_configs + 1)
        ref, others = sc.sniffers[0], sc.sniffers[1:]
        bound = math.sqrt(np.trace(helpers.tdoa_crlb(ref, others, sc.ue_truth, CRLB_SIGMA)))
        if bound > 15.0:
            continue
        try:
            helpers.run_tdoa(sc)
        except LocalizationError:
            continue
        clean = helpers.noiseless_deltas(sc)
        noise = rng.normal(0.0, CRLB_SIGMA, size=(2, n_configs, CRLB_DRAWS))
        pairs = [form_tdoa(clean[0] + noise[0, k], clean[k + 1] + noise[1, k], ref, s, sc.enb)
                 for k, s in enumerate(others)]
        sol = solve_constrained_batch(build_system(pairs), ref, sc.band, sc.enb)
        ok = sol.status == "ok"
        miss = sol.chosen(sol.u)[ok] - [sc.ue_truth.x, sc.ue_truth.y]
        ratios.append(math.sqrt(np.mean(np.sum(miss ** 2, axis=1))) / bound)
        solved += np.count_nonzero(ok)
    assert solved >= 0.9 * CRLB_LAYOUTS * CRLB_DRAWS
    assert np.median(ratios) <= CRLB_FACTOR[n_configs], np.round(ratios, 2)
