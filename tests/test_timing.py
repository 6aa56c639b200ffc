import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsniff.geometry import (LTE_TS, SPEED_OF_LIGHT, TA_BAND_M, TA_STEP_S,
                                Position, Scenario, distance)
from dualsniff.snifferlog import MAX_RNTI, filter_rnti
from dualsniff.timing import (MAX_SUBFRAMES, CaptureSpec, ClockConfig, Relocation,
                              SimulatedCapture, quantize_ta, segments, simulate_capture,
                              subframe_delta, ta_seconds)
from helpers import dl_arrival, sigma_for_snr, ue_tx_time, ul_arrival


def _square_scenario():
    return Scenario(enb=Position(0, 0),
                    sniffers=(Position(100, 0), Position(0, 100)),
                    ue_truth=Position(40, 30), ta_index=0)


def test_ta_seconds():
    assert ta_seconds(0) == 0.0
    assert ta_seconds(1) == 16.0 * LTE_TS
    assert ta_seconds(3) == pytest.approx(3 * 16.0 / 30_720_000.0)
    with pytest.raises(ValueError):
        ta_seconds(-1)


def test_quantize_ta():
    assert quantize_ta(0.0) == (0, 0.0)
    index, ta = quantize_ta(114.70)
    assert index == 1
    assert ta == TA_STEP_S
    assert quantize_ta(50.0)[0] == 0
    assert quantize_ta(200.0)[0] == 2
    # exact band edge belongs to the upper band
    assert quantize_ta(TA_BAND_M)[0] == 1
    with pytest.raises(ValueError):
        quantize_ta(-0.1)


def test_sigma_for_snr():
    assert sigma_for_snr(0.0, 2.5e-8) == 2.5e-8
    assert sigma_for_snr(20.0, 2.5e-8) == pytest.approx(2.5e-9)
    xs = [sigma_for_snr(s, 1e-8) for s in (0.0, 5.0, 10.0, 15.0, 20.0)]
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_clock_config_validation():
    with pytest.raises(ValueError):
        ClockConfig(sniffer_noise_sigma=-1e-9)
    sc = _square_scenario()
    with pytest.raises(ValueError, match="rng_seed must be an integer"):
        ClockConfig.for_scenario(sc, rng_seed=2.5)
    cfg = ClockConfig.for_scenario(sc, ue_hw_error=1, rng_seed=3.0)
    assert cfg.ue_hw_error == 1.0 and type(cfg.ue_hw_error) is float
    assert cfg.rng_seed == 3 and type(cfg.rng_seed) is int


def test_for_scenario_matches_ta_index():
    sc = Scenario(enb=Position(0, 0),
                  sniffers=(Position(100, 0), Position(0, 100)),
                  ue_truth=Position(80, 30), ta_index=1)
    cfg = ClockConfig.for_scenario(sc)
    assert cfg.ta_value == ta_seconds(1)


def test_segments_need_a_subframe():
    sc = _square_scenario()
    for subframes in (0, -3):
        with pytest.raises(ValueError, match="at least one subframe"):
            segments(sc, (), subframes)
    with pytest.raises(ValueError, match="subframes must be >= 1"):
        CaptureSpec(subframes=0)


def test_capture_length_has_a_ceiling():
    assert CaptureSpec(subframes=MAX_SUBFRAMES).subframes == MAX_SUBFRAMES
    with pytest.raises(ValueError, match=f"subframes must be >= 1 and <= {MAX_SUBFRAMES}"):
        CaptureSpec(subframes=MAX_SUBFRAMES + 1)


def test_segments_cut_the_capture_at_relocations():
    sc = _square_scenario()
    a, b, c = Position(0, 150), Position(200, 10), Position(-50, 90)
    moves = [Relocation(sniffer=1, at_subframe=7, to=c),
             Relocation(sniffer=1, at_subframe=3, to=a),
             Relocation(sniffer=0, at_subframe=3, to=b)]
    assert segments(sc, moves, 10) == [
        (0, 3, sc), (3, 7, replace(sc, sniffers=(b, a))), (7, 10, replace(sc, sniffers=(b, c)))]
    assert segments(sc, (), 4) == [(0, 4, sc)]


def test_segments_hold_the_scenario_rules():
    """Each segment's layout is a Scenario, so a relocation onto the base station
    is refused as such a sniffer in the scenario is."""
    sc = _square_scenario()
    for sniffer in (0, 1):
        with pytest.raises(ValueError, match=f"^sniffer {sniffer + 1} coincides with the base"):
            segments(sc, [Relocation(sniffer=sniffer, at_subframe=5, to=sc.enb)], 10)


def test_delta_matches_arrival_difference():
    """The observable is exactly the UL-DL arrival gap on one sniffer clock."""
    sc = _square_scenario()
    offsets = (4.2e-6, -1.7e-6)
    cfg = ClockConfig(ue_hw_error=3e-7, ta_value=ta_seconds(0))
    d_ub = distance(sc.enb, sc.ue_truth)
    for k in (0, 1):
        d_enb_k = distance(sc.enb, sc.sniffers[k])
        d_ue_k = distance(sc.ue_truth, sc.sniffers[k])
        for t_n in (0.0, 0.013, 0.731):
            ul = ul_arrival(t_n, d_ub, d_ue_k, offsets[k], cfg)
            dl = dl_arrival(t_n, d_enb_k, offsets[k])
            assert subframe_delta(sc, k, cfg) == pytest.approx(ul - dl, abs=1e-12)


def test_delta_independent_of_sniffer_offset():
    sc = _square_scenario()
    d_ub = distance(sc.enb, sc.ue_truth)
    d_enb = distance(sc.enb, sc.sniffers[0])
    d_ue = distance(sc.ue_truth, sc.sniffers[0])
    cfg, gaps = ClockConfig(), []
    for offset in (0.0, 12.3e-6, -44.0e-6):
        ul = ul_arrival(0.004, d_ub, d_ue, offset, cfg)
        dl = dl_arrival(0.004, d_enb, offset)
        gaps.append(ul - dl)
    assert gaps[0] == pytest.approx(gaps[1], abs=1e-15)
    assert gaps[0] == pytest.approx(gaps[2], abs=1e-15)


def test_delta_recovers_range_sum():
    """c * delta + d_enb_k == d_ub + d_ue_k for a clean clock."""
    sc = _square_scenario()
    cfg = ClockConfig()
    d_ub = distance(sc.enb, sc.ue_truth)
    for k in (0, 1):
        d_enb_k = distance(sc.enb, sc.sniffers[k])
        d_ue_k = distance(sc.ue_truth, sc.sniffers[k])
        got = SPEED_OF_LIGHT * subframe_delta(sc, k, cfg) + d_enb_k
        assert got == pytest.approx(d_ub + d_ue_k, abs=1e-9)


def test_delta_zero_for_collinear_sniffer():
    # sniffer on the base-station-to-device ray, beyond the device: the
    # uplink detour exactly cancels and the delta collapses to zero
    sc = Scenario(enb=Position(0, 0), sniffers=(Position(60, 80), Position(0, 100)),
                  ue_truth=Position(30, 40), ta_index=0)
    cfg = ClockConfig()
    assert subframe_delta(sc, 0, cfg) == 0.0


def test_ta_and_hw_error_shift_delta_linearly():
    sc = _square_scenario()
    base = subframe_delta(sc, 0, ClockConfig())
    with_ta = subframe_delta(sc, 0, ClockConfig(ta_value=5 * TA_STEP_S))
    assert base - with_ta == pytest.approx(5 * TA_STEP_S, abs=1e-18)
    with_eps = subframe_delta(sc, 0, ClockConfig(ue_hw_error=1e-6))
    assert with_eps - base == pytest.approx(1e-6, abs=1e-18)


def test_ue_tx_time_applies_advance():
    cfg = ClockConfig(ta_value=2e-6, ue_hw_error=0.0)
    t = ue_tx_time(0.010, 299.792458, cfg)
    assert t == pytest.approx(0.010 + 1e-6 - 2e-6, abs=1e-15)
    with pytest.raises(ValueError):
        ue_tx_time(0.0, -1.0, cfg)


def test_simulate_capture_shape_and_ids():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    capture = simulate_capture(sc, cfg, CaptureSpec(subframes=7, rnti=7423))
    assert len(capture) == 14
    logs = [capture.sniffer_log(k) for k in (0, 1)]
    assert all(len(log) == 7 and set(log["rnti"].tolist()) == {7423} for log in logs)
    assert set(logs[0]["cqi"].tolist()) == {15}  # 20 dB default maps to the top CQI


def test_simulate_capture_frame_counter_wraps():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    log = simulate_capture(sc, cfg, CaptureSpec(subframes=25, start_frame=1023)).sniffer_log(0)
    frames = log["frame"].tolist()
    assert frames[:10] == [1023] * 10
    assert frames[10:20] == [0] * 10
    assert frames[20:] == [1] * 5
    assert log["subframe"].tolist() == [n % 10 for n in range(25)]
    # only the counter's value modulo the wrap matters, however large the start
    far = simulate_capture(sc, cfg, CaptureSpec(subframes=25,
                                                start_frame=1023 + 1024 * 10 ** 30))
    assert np.array_equal(far.sniffer_log(0), log)


def test_simulate_capture_noiseless_matches_model():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    capture = simulate_capture(sc, cfg, CaptureSpec(subframes=5))
    for k in (0, 1):
        want = subframe_delta(sc, k, cfg) * 1e6
        assert set(capture.sniffer_log(k)["dl_ul_delta"].tolist()) == {want}


def test_simulate_capture_deterministic_per_seed():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=11)
    a, b = (simulate_capture(sc, cfg, CaptureSpec(subframes=40)) for _ in range(2))
    assert all(np.array_equal(a.sniffer_log(k), b.sniffer_log(k)) for k in (0, 1))
    other = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=12)
    c = simulate_capture(sc, other, CaptureSpec(subframes=40))
    assert all((a.sniffer_log(k)["dl_ul_delta"] != c.sniffer_log(k)["dl_ul_delta"]).any()
               for k in (0, 1))


def test_simulate_capture_holds_its_delta_block_once():
    """Each device's draw goes straight into the (subframes, devices, sniffers) block,
    so 20 000 subframes of four devices peak below 1.5 blocks, not at the two that
    stacking the draws would hold."""
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=5)
    spec = CaptureSpec(subframes=20_000)
    simulate_capture(sc, cfg, replace(spec, subframes=10), decoys=3)  # warm up numpy's caches
    tracemalloc.start()
    try:
        capture = simulate_capture(sc, cfg, spec, decoys=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = capture.dl_ul_delta.nbytes
    assert capture.dl_ul_delta.shape == (20_000, 4, 2) and peak < 1.5 * block


def test_a_log_chunk_builds_only_its_own_subframes():
    # the last 1000 subframes of the longest capture: 56 KB of entries, where numbering
    # every subframe of the capture first takes 8 MB
    capture = SimulatedCapture(CaptureSpec(subframes=MAX_SUBFRAMES),
                               np.zeros((MAX_SUBFRAMES, 1, 2)))
    tracemalloc.start()
    try:
        log = capture.sniffer_log(0, MAX_SUBFRAMES - 1000, MAX_SUBFRAMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 1000 and log["frame"][-1] == 99_999 % 1024 and peak < 1 << 20


@pytest.mark.parametrize("start, stop", [(0, None), (3, 7), (-4, None), (2, -3), (6, 2),
                                         (-20, 50)])
def test_a_log_chunk_is_that_slice_of_the_whole_log(start, stop):
    delta = np.arange(10 * 2 * 3, dtype=float).reshape(10, 2, 3)
    capture = SimulatedCapture(CaptureSpec(subframes=10, start_frame=1022), delta)
    whole = capture.sniffer_log(1).reshape(10, 2)  # a row per subframe, a column per device
    assert np.array_equal(capture.sniffer_log(1, start, stop), whole[start:stop].ravel())


def test_relocation_switches_position_mid_capture():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    moved = Position(0, 150)
    capture = simulate_capture(sc, cfg, CaptureSpec(subframes=6),
                               relocations=[Relocation(sniffer=1, at_subframe=3, to=moved)])
    sn2 = capture.sniffer_log(1)["dl_ul_delta"].tolist()
    before = subframe_delta(sc, 1, cfg) * 1e6
    after_sc = Scenario(enb=sc.enb, sniffers=(sc.sniffers[0], moved),
                        ue_truth=sc.ue_truth, ta_index=sc.ta_index)
    after = subframe_delta(after_sc, 1, cfg) * 1e6
    assert sn2[:3] == [before] * 3
    assert sn2[3:] == [after] * 3
    # the unmoved sniffer never changes
    assert len(set(capture.sniffer_log(0)["dl_ul_delta"].tolist())) == 1


def test_relocation_does_not_reshuffle_noise():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=5e-8, rng_seed=3)
    plain = simulate_capture(sc, cfg, CaptureSpec(subframes=8))
    moved = simulate_capture(sc, cfg, CaptureSpec(subframes=8),
                             relocations=[Relocation(sniffer=0, at_subframe=5,
                                                     to=Position(200, 10))])
    # entries before the move are bit-identical, so noise draws are tied to
    # (seed, subframe, sniffer) and not to the relocation plan
    assert all(np.array_equal(plain.sniffer_log(k, 0, 5), moved.sniffer_log(k, 0, 5))
               for k in (0, 1))


def test_relocation_validation():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    to = Position(1, 1)
    for bad, reason in (([Relocation(sniffer=2, at_subframe=2, to=to)], "sniffer must be 1..2"),
                        ([Relocation(sniffer=-1, at_subframe=2, to=to)], "sniffer must be 1..2"),
                        ([Relocation(sniffer=0, at_subframe=0, to=to)], "at_subframe"),
                        ([Relocation(sniffer=0, at_subframe=5, to=to)], "at_subframe"),
                        ([Relocation(sniffer=1, at_subframe=2, to=to),
                          Relocation(sniffer=1, at_subframe=2, to=Position(2, 2))],
                         "sniffer 2 relocated twice at subframe 2")):
        with pytest.raises(ValueError, match=reason):
            simulate_capture(sc, cfg, CaptureSpec(subframes=5), relocations=bad)
    # one sniffer may move at several subframes, and two sniffers at one
    simulate_capture(sc, cfg, CaptureSpec(subframes=5),
                     relocations=[Relocation(sniffer=1, at_subframe=2, to=to),
                                  Relocation(sniffer=1, at_subframe=3, to=to),
                                  Relocation(sniffer=0, at_subframe=2, to=to)])


def test_relocation_fields_are_whole_numbers():
    for sniffer, at_subframe in ((1.5, 2), (1, 2.5), (1, float("inf")), (float("nan"), 2)):
        with pytest.raises(ValueError, match="must be (an integer|finite)"):
            Relocation(sniffer=sniffer, at_subframe=at_subframe, to=Position(1, 1))
    move = Relocation(sniffer=1.0, at_subframe=2.0, to=Position(1, 1))
    assert (move.sniffer, move.at_subframe) == (1, 2) and type(move.sniffer) is int


def test_simulate_capture_needs_truth():
    sc = Scenario(enb=Position(0, 0), sniffers=(Position(100, 0), Position(0, 100)))
    cfg = ClockConfig()
    with pytest.raises(ValueError):
        simulate_capture(sc, cfg, CaptureSpec(subframes=1))
    with pytest.raises(ValueError):
        subframe_delta(sc, 0, cfg)


def test_delta_microseconds_magnitude():
    # a 100 m scale scenario produces sub-microsecond deltas; sanity-check the
    # unit conversion into log records
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    (delta,) = simulate_capture(sc, cfg, CaptureSpec(subframes=1)).sniffer_log(0)["dl_ul_delta"]
    assert math.isclose(delta, subframe_delta(sc, 0, cfg) * 1e6, rel_tol=1e-12)
    assert 0.01 < abs(delta) < 10.0


def test_sniffer_log_is_one_sniffers_slice():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=5)
    capture = simulate_capture(sc, cfg, CaptureSpec(subframes=30, rnti=7423, start_frame=1022))
    log = capture.sniffer_log(1, 5, 25)
    assert np.array_equal(log, capture.sniffer_log(1)[5:25])
    assert log["dl_ul_delta"].tolist() == capture.dl_ul_delta[5:25, 0, 1].tolist()
    assert log["frame"].tolist() == [(1022 + n // 10) % 1024 for n in range(5, 25)]
    assert log["subframe"].tolist() == [n % 10 for n in range(5, 25)]
    assert set(log["rnti"].tolist()) == {7423}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(decoys=st.integers(0, 4), seed=st.integers(0, 2 ** 32), start_frame=st.integers(0, 10 ** 6),
       move=st.none() | st.tuples(st.integers(0, 1), st.integers(1, 39),
                                  st.floats(50, 200), st.floats(-100, 100)),
       bounds=st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted))
def test_each_device_is_its_own_one_device_capture(decoys, seed, start_frame, move, bounds):
    """The target's entries ignore the decoys; decoy j's are a capture of its own
    scenario and seed, at RNTI ``rnti + 1 + j``."""
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=seed)
    spec = CaptureSpec(subframes=40, rnti=7423, start_frame=start_frame)
    moves = [] if move is None else [Relocation(move[0], move[1], Position(*move[2:]))]
    capture = simulate_capture(sc, cfg, spec, moves, decoys=decoys)
    assert capture.dl_ul_delta.shape == (40, 1 + decoys, 2)
    devices, (lo, hi) = [(sc, cfg, spec)], sc.band
    place = np.random.default_rng(seed + 7919)
    for j in range(decoys):  # the base station is at the origin
        r = place.uniform(lo, hi - 1e-9)
        phi = place.uniform(0.0, 2.0 * np.pi)
        devices.append((replace(sc, ue_truth=Position(r * np.cos(phi), r * np.sin(phi))),
                        replace(cfg, rng_seed=seed + 104729 + j), replace(spec, rnti=7424 + j)))
    for k in (0, 1):
        log = capture.sniffer_log(k, *bounds)
        assert len(log) == (bounds[1] - bounds[0]) * (1 + decoys)
        for device in devices:
            alone = simulate_capture(*device, moves).sniffer_log(k, *bounds)
            assert filter_rnti(log, device[2].rnti).tobytes() == alone.tobytes()


@pytest.mark.parametrize("rnti, devices", [(MAX_RNTI, 2), (MAX_RNTI - 2, 4)])
def test_a_capture_refuses_rntis_past_the_largest(rnti, devices):
    """Device j's RNTI ``rnti + j`` may not pass ``MAX_RNTI``, however the capture is
    made: the log would wrap it to a negative number."""
    with pytest.raises(ValueError, match="decoys"):
        SimulatedCapture(CaptureSpec(subframes=1, rnti=rnti), np.zeros((1, devices, 2)))
    capture = SimulatedCapture(CaptureSpec(subframes=1, rnti=rnti), np.zeros((1, devices - 1, 2)))
    assert capture.sniffer_log(0)["rnti"].tolist() == list(range(rnti, MAX_RNTI + 1))


def test_capture_fields_change_only_their_columns():
    """The SNR, noise power, RNTI and start frame stamp the log; the deltas ignore them."""
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=9)
    base = CaptureSpec(subframes=20)
    plain = simulate_capture(sc, cfg, base)
    for snr_db, cqi in ((20.0, 15), (7.0, 8), (-6.0, 0), (-30.0, 0), (60.0, 15), (1e308, 15),
                        (-1e308, 0)):
        other = simulate_capture(sc, cfg, replace(base, rnti=42, snr_db=snr_db,
                                                  noise_power_dbm=-120.0, start_frame=500))
        assert other.dl_ul_delta.tobytes() == plain.dl_ul_delta.tobytes()
        log = other.sniffer_log(1)
        assert set(log["snr"].tolist()) == {snr_db} and set(log["cqi"].tolist()) == {cqi}
        assert set(log["noise_power"].tolist()) == {-120.0} and set(log["rnti"].tolist()) == {42}
        assert log["frame"][0] == 500


@pytest.mark.parametrize("override", [
    dict(snr_db=float("nan")), dict(snr_db=float("inf")),
    dict(noise_power_dbm=float("nan")), dict(noise_power_dbm=float("-inf")), dict(rnti=-1),
])
def test_simulate_capture_rejects_bad_entry_fields(override):
    """Every field the simulator stamps on its entries is checked once, by CaptureSpec."""
    sc = _square_scenario()
    (field,) = override
    with pytest.raises(ValueError, match=f"^{field} must be"):
        simulate_capture(sc, ClockConfig.for_scenario(sc), CaptureSpec(subframes=3, **override))


@pytest.mark.parametrize("field", ["ue_hw_error", "sniffer_noise_sigma", "ta_value"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_clock_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ClockConfig(**{field: value})
