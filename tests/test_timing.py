import math

import pytest

from dualsniff.geometry import (LTE_TS, SPEED_OF_LIGHT, TA_BAND_M, TA_STEP_S,
                                Position, Scenario, distance)
from dualsniff.timing import (ClockConfig, Relocation, SubframeSchedule,
                              dl_arrival, quantize_ta, sigma_for_snr,
                              simulate_capture, subframe_delta, ta_seconds,
                              ue_tx_time, ul_arrival)


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
        ClockConfig(sniffer_offsets=(0.0, 0.0), sniffer_noise_sigma=-1e-9)
    sc = _square_scenario()
    with pytest.raises(ValueError):
        ClockConfig.for_scenario(sc, sniffer_offsets=[0.0])


def test_for_scenario_matches_ta_index():
    sc = Scenario(enb=Position(0, 0),
                  sniffers=(Position(100, 0), Position(0, 100)),
                  ue_truth=Position(80, 30), ta_index=1)
    cfg = ClockConfig.for_scenario(sc)
    assert cfg.ta_value == ta_seconds(1)
    assert cfg.sniffer_offsets == (0.0, 0.0)


def test_schedule_fixed_period():
    with pytest.raises(ValueError):
        SubframeSchedule(count=0)


def test_delta_matches_arrival_difference():
    """The observable is exactly the UL-DL arrival gap on one sniffer clock."""
    sc = _square_scenario()
    cfg = ClockConfig(sniffer_offsets=(4.2e-6, -1.7e-6), ue_hw_error=3e-7,
                      ta_value=ta_seconds(0))
    d_ub = distance(sc.enb, sc.ue_truth)
    for k in (0, 1):
        d_enb_k = distance(sc.enb, sc.sniffers[k])
        d_ue_k = distance(sc.ue_truth, sc.sniffers[k])
        for t_n in (0.0, 0.013, 0.731):
            ul = ul_arrival(t_n, d_ub, d_ue_k, cfg.sniffer_offsets[k], cfg)
            dl = dl_arrival(t_n, d_enb_k, cfg.sniffer_offsets[k])
            assert subframe_delta(sc, k, cfg) == pytest.approx(ul - dl, abs=1e-12)


def test_delta_independent_of_sniffer_offset():
    sc = _square_scenario()
    d_ub = distance(sc.enb, sc.ue_truth)
    d_enb = distance(sc.enb, sc.sniffers[0])
    d_ue = distance(sc.ue_truth, sc.sniffers[0])
    gaps = []
    for offset in (0.0, 12.3e-6, -44.0e-6):
        cfg = ClockConfig(sniffer_offsets=(offset, offset))
        ul = ul_arrival(0.004, d_ub, d_ue, offset, cfg)
        dl = dl_arrival(0.004, d_enb, offset)
        gaps.append(ul - dl)
    assert gaps[0] == pytest.approx(gaps[1], abs=1e-15)
    assert gaps[0] == pytest.approx(gaps[2], abs=1e-15)


def test_delta_recovers_range_sum():
    """c * delta + d_enb_k == d_ub + d_ue_k for a clean clock."""
    sc = _square_scenario()
    cfg = ClockConfig(sniffer_offsets=(0.0, 0.0))
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
    cfg = ClockConfig(sniffer_offsets=(0.0, 0.0))
    assert subframe_delta(sc, 0, cfg) == 0.0


def test_ta_and_hw_error_shift_delta_linearly():
    sc = _square_scenario()
    base = subframe_delta(sc, 0, ClockConfig(sniffer_offsets=(0.0, 0.0)))
    with_ta = subframe_delta(sc, 0, ClockConfig(sniffer_offsets=(0.0, 0.0),
                                                ta_value=5 * TA_STEP_S))
    assert base - with_ta == pytest.approx(5 * TA_STEP_S, abs=1e-18)
    with_eps = subframe_delta(sc, 0, ClockConfig(sniffer_offsets=(0.0, 0.0),
                                                 ue_hw_error=1e-6))
    assert with_eps - base == pytest.approx(1e-6, abs=1e-18)


def test_ue_tx_time_applies_advance():
    cfg = ClockConfig(sniffer_offsets=(0.0,), ta_value=2e-6, ue_hw_error=0.0)
    t = ue_tx_time(0.010, 299.792458, cfg)
    assert t == pytest.approx(0.010 + 1e-6 - 2e-6, abs=1e-15)
    with pytest.raises(ValueError):
        ue_tx_time(0.0, -1.0, cfg)


def test_simulate_capture_shape_and_ids():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    records = simulate_capture(sc, cfg, SubframeSchedule(count=7), rnti=7423)
    assert len(records) == 14
    assert [r.sniffer_id for r in records[:4]] == ["sn1", "sn2", "sn1", "sn2"]
    assert all(r.rnti == 7423 for r in records)
    assert records[0].cqi == 15  # 20 dB default maps to the top CQI


def test_simulate_capture_frame_counter_wraps():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    records = simulate_capture(sc, cfg, SubframeSchedule(count=25), start_frame=1023)
    frames = [r.frame for r in records[::2]]  # one sniffer's view
    assert frames[:10] == [1023] * 10
    assert frames[10:20] == [0] * 10
    assert frames[20:] == [1] * 5
    assert [r.subframe for r in records[::2]] == [n % 10 for n in range(25)]


def test_simulate_capture_noiseless_matches_model():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    records = simulate_capture(sc, cfg, SubframeSchedule(count=5))
    for k in (0, 1):
        want = subframe_delta(sc, k, cfg) * 1e6
        deltas = {r.dl_ul_delta for r in records if r.sniffer_id == f"sn{k + 1}"}
        assert deltas == {want}


def test_simulate_capture_deterministic_per_seed():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=11)
    a = simulate_capture(sc, cfg, SubframeSchedule(count=40))
    b = simulate_capture(sc, cfg, SubframeSchedule(count=40))
    assert a == b
    other = ClockConfig.for_scenario(sc, sniffer_noise_sigma=3e-8, rng_seed=12)
    c = simulate_capture(sc, other, SubframeSchedule(count=40))
    assert any(x.dl_ul_delta != y.dl_ul_delta for x, y in zip(a, c))


def test_relocation_switches_position_mid_capture():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    moved = Position(0, 150)
    records = simulate_capture(sc, cfg, SubframeSchedule(count=6),
                               relocations=[Relocation(sniffer=1, at_subframe=3, to=moved)])
    sn2 = [r.dl_ul_delta for r in records if r.sniffer_id == "sn2"]
    before = subframe_delta(sc, 1, cfg) * 1e6
    after_sc = Scenario(enb=sc.enb, sniffers=(sc.sniffers[0], moved),
                        ue_truth=sc.ue_truth, ta_index=sc.ta_index)
    after = subframe_delta(after_sc, 1, cfg) * 1e6
    assert sn2[:3] == [before] * 3
    assert sn2[3:] == [after] * 3
    # the unmoved sniffer never changes
    sn1 = {r.dl_ul_delta for r in records if r.sniffer_id == "sn1"}
    assert len(sn1) == 1


def test_relocation_does_not_reshuffle_noise():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc, sniffer_noise_sigma=5e-8, rng_seed=3)
    plain = simulate_capture(sc, cfg, SubframeSchedule(count=8))
    moved = simulate_capture(sc, cfg, SubframeSchedule(count=8),
                             relocations=[Relocation(sniffer=0, at_subframe=5,
                                                     to=Position(200, 10))])
    # records before the move are bit-identical, so noise draws are tied to
    # (seed, subframe, sniffer) and not to the relocation plan
    assert plain[:10] == moved[:10]


def test_relocation_validation():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    sched = SubframeSchedule(count=5)
    for bad in (Relocation(sniffer=2, at_subframe=2, to=Position(1, 1)),
                Relocation(sniffer=0, at_subframe=0, to=Position(1, 1)),
                Relocation(sniffer=0, at_subframe=5, to=Position(1, 1))):
        with pytest.raises(ValueError):
            simulate_capture(sc, cfg, sched, relocations=[bad])


def test_simulate_capture_needs_truth():
    sc = Scenario(enb=Position(0, 0), sniffers=(Position(100, 0), Position(0, 100)))
    cfg = ClockConfig(sniffer_offsets=(0.0, 0.0))
    with pytest.raises(ValueError):
        simulate_capture(sc, cfg, SubframeSchedule(count=1))
    with pytest.raises(ValueError):
        subframe_delta(sc, 0, cfg)


def test_delta_microseconds_magnitude():
    # a 100 m scale scenario produces sub-microsecond deltas; sanity-check the
    # unit conversion into log records
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    rec = simulate_capture(sc, cfg, SubframeSchedule(count=1))[0]
    assert math.isclose(rec.dl_ul_delta,
                        subframe_delta(sc, 0, cfg) * 1e6, rel_tol=1e-12)
    assert 0.01 < abs(rec.dl_ul_delta) < 10.0
