"""End-to-end acceptance checks, one test per numbered claim.

Each test exercises a whole-system property at a fixed tolerance and prints
one ``[criterion N] ... PASS`` line with the measured figures (visible with
``pytest -s``).  Noise levels and RNG seeds are calibration constants frozen
here so every run reproduces the same figures; the rationale for each gate
sits next to the code that applies it.
"""

import io
import pathlib
import time

import numpy as np
import pytest

import helpers
from dualsniff.bruteforce import annulus_minimum
from dualsniff.errors import LocalizationError, RankDeficient
from dualsniff.geometry import Position, Scenario, distance
from dualsniff.snifferlog import ENTRY, filter_rnti, match_records, parse_log, write_log
from dualsniff.stats import cdf_quantile, one_sigma_filter, summarize
from dualsniff.tdoa import (BRANCH_TOL, build_system, form_tdoa,
                            solve_constrained, solve_normal_equations)
from dualsniff.timing import ClockConfig, subframe_delta, ta_seconds

DATA = pathlib.Path(__file__).parent / "data"

#: Fixed asymmetric layout used by the perturbation and noise checks; the
#: device sits mid-band (d_ub ~ 114.7 m, TA index 1) and the range-sum
#: mirror intersection falls outside the band, so both solvers apply.
ANCHOR = Scenario(enb=Position(0.0, 0.0),
                  sniffers=(Position(109.7, 0.0), Position(0.0, 139.5),
                            Position(154.0, 40.0)),
                  ue_truth=Position(80.0, 82.2), ta_index=1)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {label}: {detail}"


def _anchor_deltas(dta: float = 0.0, eps: float = 0.0):
    """Clean per-sniffer deltas with an offset timing advance or device error."""
    cfg = ClockConfig(ue_hw_error=eps, ta_value=ta_seconds(ANCHOR.ta_index) + dta)
    return [subframe_delta(ANCHOR, k, cfg) for k in range(3)]


def _noisy_pipelines(eps: float, sigma: float, seed: int, count: int = 400):
    """Per-sample errors of both estimators on shared noisy captures.

    The same noise row feeds both pipelines; samples where the range-sum
    solve fails (noise can push an ellipse pair apart) are dropped from both
    so the comparison stays paired.
    """
    base = np.array(_anchor_deltas(eps=eps))
    noise = np.random.default_rng(seed).normal(0.0, sigma, (count, 3))
    toa_err, tdoa_err = [], []
    for row in base + noise:
        deltas = list(row)
        try:
            toa_est = helpers.run_toa(ANCHOR, deltas)
            tdoa_est = helpers.run_tdoa(ANCHOR, deltas)
        except LocalizationError:
            continue
        toa_err.append(helpers.position_error(toa_est.position, ANCHOR))
        tdoa_err.append(helpers.position_error(tdoa_est.position, ANCHOR))
    return np.array(toa_err), np.array(tdoa_err)


def test_criterion_1_noiseless_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_toa = worst_tdoa = 0.0
    for _ in range(1000):
        sc, toa_est, tdoa_est = helpers.draw_solved_scenario(rng)
        worst_toa = max(worst_toa, helpers.position_error(toa_est.position, sc))
        worst_tdoa = max(worst_tdoa, helpers.position_error(tdoa_est.position, sc))
    elapsed = time.perf_counter() - t0
    ok = worst_toa < 1e-6 and worst_tdoa < 1e-6 and elapsed < 10.0
    _report(1, "noiseless exactness", ok,
            f"1000 scenarios, worst range-sum {worst_toa:.2e} m, "
            f"worst range-difference {worst_tdoa:.2e} m, {elapsed:.2f} s")


def test_criterion_2_cancellation_invariants():
    base_toa = helpers.run_toa(ANCHOR, _anchor_deltas())
    base_tdoa = helpers.run_tdoa(ANCHOR, _anchor_deltas())

    perturbations = [("ta+5us", dict(dta=+5e-6)), ("ta-5us", dict(dta=-5e-6)),
                     ("ue+1us", dict(eps=+1e-6)), ("ue-1us", dict(eps=-1e-6))]
    worst_tdoa_shift = 0.0
    toa_material = []
    shift_1us = None
    for label, kw in perturbations:
        deltas = _anchor_deltas(**kw)
        tdoa_est = helpers.run_tdoa(ANCHOR, deltas)
        worst_tdoa_shift = max(worst_tdoa_shift,
                               distance(tdoa_est.position, base_tdoa.position))
        try:
            toa_est = helpers.run_toa(ANCHOR, deltas)
            shift = distance(toa_est.position, base_toa.position)
            toa_material.append(shift > 100.0)
        except LocalizationError:
            # an ellipse pair turning infeasible is as material as it gets
            shift = None
            toa_material.append(True)
        if label == "ue+1us":
            shift_1us = shift

    ok = (worst_tdoa_shift < 1e-9 and shift_1us is not None
          and shift_1us > 100.0 and all(toa_material))
    _report(2, "cancellation invariants", ok,
            f"worst range-difference shift {worst_tdoa_shift:.2e} m, "
            f"range-sum shift at +1 us device error "
            f"{'n/a' if shift_1us is None else f'{shift_1us:.1f} m'}")


def _draw_noisy_instance(rng, sigma: float):
    """One audited noisy instance: (scenario, pairs, constrained estimate).

    Instances are redrawn when: the device falls beyond TA band 1 (keeps the
    oracle's search over the annulus small); forming or solving the noisy
    system raises; the solver lands on a squaring ghost (residual over
    BRANCH_TOL); or the solution leaves the TA annulus.  The oracle searches
    exactly that annulus for the same cost, so the comparison is only
    well-posed for in-annulus, true-branch solutions.
    """
    while True:
        sc = helpers.draw_scenario(rng)
        if sc.ta_index > 1:
            continue
        deltas = np.array(helpers.noiseless_deltas(sc)) + rng.normal(0.0, sigma, 3)
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


def test_criterion_3_oracle_equivalence():
    sigma = 1e-7  # c * sigma ~ 30 m of range noise per record
    rng = np.random.default_rng(3003)
    t0 = time.perf_counter()
    worst_gap = 0.0
    for _ in range(100):
        sc, pairs, est = _draw_noisy_instance(rng, sigma)
        _, brute_cost = annulus_minimum(sc.enb, sc.band, pairs)
        worst_gap = max(worst_gap, abs(est.residual_norm ** 2 - brute_cost))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and elapsed < 60.0
    _report(3, "oracle equivalence", ok,
            f"100 noisy instances, worst cost gap {worst_gap:.2e} m^2, "
            f"{elapsed:.1f} s")


def test_criterion_4_scheme_ordering():
    # device error 0.155 us + 0.02 us noise put the range-sum mean mid-band;
    # differencing cancels the device error, so the range-difference mean
    # keeps only the (sqrt(2)-amplified) random part
    toa_err, tdoa_err = _noisy_pipelines(eps=1.55e-7, sigma=2e-8, seed=2024)
    mean_toa = float(toa_err.mean())
    mean_tdoa = float(tdoa_err.mean())
    ratio = mean_tdoa / mean_toa
    ok = (len(toa_err) >= 350 and 30.0 <= mean_toa <= 45.0
          and mean_tdoa < mean_toa and ratio < 0.7)
    _report(4, "scheme ordering", ok,
            f"{len(toa_err)} paired samples, range-sum mean {mean_toa:.2f} m, "
            f"range-difference mean {mean_tdoa:.2f} m, ratio {ratio:.3f}")


def test_criterion_5_filter_effect():
    rng = np.random.default_rng(55)
    n = 5000
    body = rng.normal(20.0, 5.0, n - n // 10)
    tail = rng.normal(200.0, 20.0, n // 10)
    samples = np.abs(np.concatenate([body, tail]))
    kept, removed = one_sigma_filter(samples)
    reduction = 1.0 - float(kept.mean()) / float(samples.mean())
    ok = reduction >= 0.20
    _report(5, "filter effect", ok,
            f"n={n}, mean {samples.mean():.2f} -> {kept.mean():.2f} m, "
            f"{len(removed)} removed, reduction {reduction:.1%}")


def test_criterion_6_snr_monotonicity():
    sigma0 = 2.0e-7  # noise scale; sigma_for_snr maps 15 dB / 20 dB below it
    quantiles = {}
    counts = {}
    for snr in (15.0, 20.0):
        toa_err, tdoa_err = _noisy_pipelines(eps=1.0e-7,
                                             sigma=helpers.sigma_for_snr(snr, sigma0),
                                             seed=2024)
        counts[snr] = len(toa_err)
        stats_toa, stats_tdoa = summarize(toa_err), summarize(tdoa_err)
        quantiles[snr] = (cdf_quantile(stats_tdoa, 0.5),
                          cdf_quantile(stats_tdoa, 0.8),
                          cdf_quantile(stats_toa, 0.8))
    q50_lo, q80_lo, toa80_lo = quantiles[15.0]
    q50_hi, q80_hi, toa80_hi = quantiles[20.0]
    toa_change = abs(toa80_hi - toa80_lo) / toa80_lo
    ok = (min(counts.values()) >= 350
          and q50_hi < q50_lo and q80_hi < q80_lo and toa_change < 0.15)
    _report(6, "snr monotonicity", ok,
            f"range-difference q50 {q50_lo:.2f} -> {q50_hi:.2f} m, "
            f"q80 {q80_lo:.2f} -> {q80_hi:.2f} m; "
            f"range-sum q80 change {toa_change:.1%}")


def test_criterion_7_parser_round_trip():
    rng = np.random.default_rng(77)
    # one entry's fields at a time, in log-line order
    entries = [
        (int(rng.integers(0, 1024)), int(rng.integers(0, 10)), int(rng.integers(0, 65536)),
         float(rng.normal(0.0, 3.0)), float(rng.normal(15.0, 4.0)), int(rng.integers(0, 16)),
         float(rng.normal(-95.0, 2.0)))
        for _ in range(10000)
    ]
    log = np.array(entries, ENTRY)
    again, fuzz_diags = parse_log(io.StringIO(write_log(log)))
    round_trip_ok = fuzz_diags == [] and np.array_equal(again, log)

    with (DATA / "golden_a.log").open() as fh:
        records_a, diags_a = parse_log(fh)
    with (DATA / "golden_b.log").open() as fh:
        records_b, diags_b = parse_log(fh)
    diags_ok = (
        [(d.line, d.reason) for d in diags_a] == [
            (9, "could not convert string to float: 'bad'"),
            (10, "expected 6 fields, got 7"),
            (11, "cqi must be in [0, 15], got 16"),
        ]
        and [(d.line, d.reason) for d in diags_b] == [
            (4, "bad frame.subframe token '1023'"),
            (5, "could not convert string to float: 'os.10'"),
        ])

    samples, match_diags = match_records(filter_rnti(records_a, 7423),
                                         filter_rnti(records_b, 7423))
    matched_ok = (
        match_diags == ["duplicate key frame=1024 subframe=2 in a: dropped"]
        and helpers.write_matched(samples) == (DATA / "golden_matched.csv").read_text())

    ok = round_trip_ok and diags_ok and matched_ok
    _report(7, "parser round trip", ok,
            f"10000-record identity {round_trip_ok}, "
            f"golden diagnostics {diags_ok}, matched table {matched_ok}")


def test_criterion_8_rank_deficiency_guard():
    systems = []

    deltas = helpers.noiseless_deltas(ANCHOR)
    pairs = [form_tdoa(deltas[0], deltas[k], ANCHOR.sniffers[0],
                       ANCHOR.sniffers[k], ANCHOR.enb) for k in (1, 2)]
    systems.append((ANCHOR, build_system(pairs)))

    rng = np.random.default_rng(888)
    for _ in range(3):
        sc = helpers.draw_solvable_scenario(rng)
        deltas = helpers.noiseless_deltas(sc)
        pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0],
                           sc.sniffers[k], sc.enb) for k in (1, 2)]
        systems.append((sc, build_system(pairs)))

    worst = 0.0
    for sc, system in systems:
        with pytest.raises(RankDeficient):
            solve_normal_equations(system)
        est = solve_constrained(system, sc.sniffers[0], sc.band, sc.enb)
        worst = max(worst, helpers.position_error(est.position, sc))
    ok = worst < 1e-9
    _report(8, "rank deficiency guard", ok,
            f"{len(systems)} two-row systems rejected by normal equations, "
            f"constrained solve worst error {worst:.2e} m")
