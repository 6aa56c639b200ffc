import csv
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dualsniff.errors import (AmbiguousSolution, DegenerateGeometry, InfeasibleObservation,
                              NoIntersection)
from dualsniff.geometry import SPEED_OF_LIGHT, Position, Scenario, distance, ta_band
from dualsniff.timing import ClockConfig, subframe_delta
from dualsniff.toa import INTERSECTION_TOL, compose_D, solve_toa, solve_toa_batch
from helpers import ellipse_residual

DATA = pathlib.Path(__file__).parent / "data"


def _annulus_scenario():
    """Band-1 layout whose second intersection falls outside the band."""
    return Scenario(enb=Position(0, 0),
                    sniffers=(Position(109.7, 0.0), Position(0.0, 139.5)),
                    ue_truth=Position(80.0, 82.2), ta_index=1)


def _square_scenario():
    return Scenario(enb=Position(0, 0),
                    sniffers=(Position(100, 0), Position(0, 100)),
                    ue_truth=Position(40, 30), ta_index=0)


def test_compose_D_known_value():
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    D = compose_D([subframe_delta(sc, k, cfg) for k in (0, 1)], sc.sniffers, sc)
    assert D.shape == (1, 2)
    # d_ub + d_ue1 = 50 + sqrt(60^2 + 30^2)
    assert D[0, 0] == pytest.approx(50.0 + math.sqrt(4500.0), rel=1e-12)


def test_compose_D_restores_timing_advance():
    sc = _annulus_scenario()
    cfg = ClockConfig.for_scenario(sc)
    d_ub = distance(sc.enb, sc.ue_truth)
    D = compose_D([subframe_delta(sc, k, cfg) for k in (0, 1)], sc.sniffers, sc)
    for k in (0, 1):
        want = d_ub + distance(sc.ue_truth, sc.sniffers[k])
        assert D[0, k] == pytest.approx(want, rel=1e-12)


def test_compose_D_flags_infeasible():
    sc = _square_scenario()
    d_focal = 100.0
    D = compose_D([-2.0 * d_focal / SPEED_OF_LIGHT, 0.0], sc.sniffers, sc)
    assert D[0, 0] < d_focal
    with pytest.raises(ValueError):
        compose_D([float("nan"), 0.0], sc.sniffers, sc)


def test_ellipse_residual_sign():
    enb = Position(0, 0)
    s, D = Position(100, 0), 50.0 + math.sqrt(4500.0)
    assert ellipse_residual(Position(40, 30), s, D, enb) == pytest.approx(0.0, abs=1e-9)
    assert ellipse_residual(Position(400, 300), s, D, enb) > 0.0
    assert ellipse_residual(Position(50, 0), s, D, enb) < 0.0


def test_solve_recovers_annulus_truth():
    sc = _annulus_scenario()
    sol = helpers.run_toa(sc)
    position = Position(*sol.chosen(sol.u)[0])
    assert helpers.position_error(position, sc) < 1e-6
    assert sol.chosen(sol.residual)[0] < 1e-6
    lo, hi = sc.band
    assert lo <= distance(position, sc.enb) < hi
    assert sol.chosen(sol.u)[0].tolist() in sol.u[0][sol.valid[0]].tolist()


def test_solve_raises_on_infeasible_observation():
    sc = _square_scenario()
    for D in (50.0, 99.0):
        with pytest.raises(InfeasibleObservation):
            solve_toa(sc.sniffers, (D, 150.0), sc.enb, sc.band)


def test_mirror_in_same_band_is_ambiguous():
    """Both intersections inside one TA band cannot be told apart."""
    sc = _square_scenario()
    with pytest.raises(AmbiguousSolution) as exc:
        helpers.run_toa(sc)
    candidates = exc.value.candidates
    assert len(candidates) >= 2
    # every candidate genuinely satisfies both range-sum constraints
    cfg = ClockConfig.for_scenario(sc)
    D = compose_D([subframe_delta(sc, k, cfg) for k in (0, 1)], sc.sniffers, sc)
    for q in candidates:
        for s, D_k in zip(sc.sniffers, D[0]):
            assert abs(ellipse_residual(q, s, D_k, sc.enb)) < 1e-6
    assert any(distance(q, sc.ue_truth) < 1e-6 for q in candidates)


def test_disjoint_ellipses_raise():
    enb = Position(0, 0)
    with pytest.raises(NoIntersection):
        solve_toa((Position(100, 0), Position(0, 100)), (300.0, 101.0), enb, (0.0, 1000.0))


def test_collinear_tangency_closest_approach():
    # both ellipses share their rightmost vertex at (60, 0); the constraint
    # surfaces touch without crossing, and all three stations are collinear
    enb = Position(0, 0)
    sol = solve_toa((Position(30, 0), Position(-40, 0)), (90.0, 160.0), enb, (0.0, 78.12))
    x, y = sol.chosen(sol.u)[0]
    assert x == pytest.approx(60.0, abs=0.05)
    assert abs(y) < 0.5


def test_crossing_flag_tells_a_crossing_from_a_closest_approach():
    # noiseless range-sums: the ellipses cross at the device, so every
    # answer not refused as ambiguous is a crossing
    rng = np.random.default_rng(17)
    solved = 0
    for sc in [_annulus_scenario()] + [helpers.draw_scenario(rng) for _ in range(40)]:
        try:
            sol = helpers.run_toa(sc)
        except AmbiguousSolution:
            continue
        assert sol.clean[0, sol.pick[0]]
        solved += 1
    assert solved >= 20
    # the small ellipse lies inside the large one and misses it by about half a meter
    enb = Position(0, 0)
    small, large = Position(100, 0), Position(0, 100)
    sol = solve_toa((small, large), (150.0, 291.9), enb, (0.0, 1000.0))
    assert not sol.clean[0, sol.pick[0]]
    assert 0.1 < sol.chosen(sol.residual)[0] < INTERSECTION_TOL
    assert abs(ellipse_residual(Position(*sol.chosen(sol.u)[0]), small, 150.0, enb)) < 1e-9


def test_candidates_sorted_by_residual():
    """Sorted by the solver's ``residual``, the candidates' own misses ascend too."""
    sc = _annulus_scenario()
    cfg = ClockConfig.for_scenario(sc)
    D = compose_D([subframe_delta(sc, k, cfg) for k in (0, 1)], sc.sniffers, sc)
    sol = solve_toa(sc.sniffers, D, sc.enb, sc.band)
    valid = sol.valid[0]
    candidates = sol.u[0][valid][np.argsort(sol.residual[0][valid], kind="stable")]
    rs = [max(abs(ellipse_residual(Position(*q), s, D_k, sc.enb))
              for s, D_k in zip(sc.sniffers, D[0])) for q in candidates.tolist()]
    assert rs == sorted(rs)


def test_random_scenarios_recover_truth():
    rng = np.random.default_rng(61)
    for _ in range(50):
        sc = helpers.draw_solvable_scenario(rng)
        sol = helpers.run_toa(sc)
        assert helpers.position_error(Position(*sol.chosen(sol.u)[0]), sc) < 1e-6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phi=st.floats(0.0, 2.0 * math.pi), dx=st.floats(-1e3, 1e3),
       dy=st.floats(-1e3, 1e3),
       noise=st.lists(st.floats(-2e-8, 2e-8), min_size=3, max_size=3))
def test_solution_is_frame_equivariant(phi, dx, dy, noise):
    """Rotating and translating the whole scene moves both fixes with it.

    The same noisy deltas are solved in both frames; on this layout the
    noise keeps every candidate of both schemes at least 19 m from a band
    edge, so rounding cannot tip the band pick.
    """
    base = Scenario(enb=Position(0, 0),
                    sniffers=(Position(109.7, 0.0), Position(0.0, 139.5),
                              Position(154.0, 40.0)),
                    ue_truth=Position(80.0, 82.2), ta_index=1)
    cos_p, sin_p = math.cos(phi), math.sin(phi)

    def move(p):
        return Position(dx + cos_p * p.x - sin_p * p.y, dy + sin_p * p.x + cos_p * p.y)

    moved = Scenario(enb=move(base.enb), sniffers=tuple(move(s) for s in base.sniffers),
                     ue_truth=move(base.ue_truth), ta_index=base.ta_index)
    deltas = [d + n for d, n in zip(helpers.noiseless_deltas(base), noise)]
    toa = [helpers.run_toa(sc, deltas) for sc in (base, moved)]
    tdoa = [helpers.run_tdoa(sc, deltas) for sc in (base, moved)]
    for fix, moved_fix in ([Position(*sol.chosen(sol.u)[0]) for sol in toa],
                           [est.position for est in tdoa]):
        assert distance(moved_fix, move(fix)) < 1e-6


def test_collinear_mirror_pair_is_ambiguous():
    # eNb and both sniffers on the x-axis; the device at (30, 40) has a
    # mirror image at (30, -40) in the same TA band
    enb = Position(0, 0)
    truth = Position(30, 40)
    sniffers = (Position(100, 0), Position(-50, 0))
    D = [distance(truth, enb) + distance(truth, s) for s in sniffers]
    with pytest.raises(AmbiguousSolution) as exc:
        solve_toa(sniffers, D, enb, (0.0, 78.12))
    mirrors = sorted(exc.value.candidates, key=lambda q: q.y)
    assert distance(mirrors[0], Position(30, -40)) < 1e-9
    assert distance(mirrors[1], truth) < 1e-9


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 0.0])
def test_near_collinear_layout_keeps_its_mirror_pair(eps):
    """Sniffer 2 eps off the eNb-sniffer-1 line, down to a singular position
    block: a noiseless device and its near-mirror both lie in the band, and
    the truth is exact."""
    enb, truth = Position(0, 0), Position(30, 40)
    sniffers = (Position(100, 0), Position(-50, eps))
    D = [distance(truth, enb) + distance(truth, s) for s in sniffers]
    with pytest.raises(AmbiguousSolution) as exc:
        solve_toa(sniffers, D, enb, (0.0, 78.12))
    assert min(distance(q, truth) for q in exc.value.candidates) < 1e-9


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 1.1, math.pi / 2, 2.0, 2.5, 4.0, 5.5],
                         ids="{:.2f}".format)
def test_range_sums_in_proportion_are_degenerate(theta):
    """Sniffer 2 at 0.3 s_1 from the eNb with range-sums D = (200, 60) in the same
    proportion: the rows are dependent, up to rounding, in every orientation."""
    s1 = Position(100.0 * math.cos(theta), 100.0 * math.sin(theta))
    s2 = Position(0.3 * s1.x, 0.3 * s1.y)
    with pytest.raises(DegenerateGeometry):
        solve_toa((s1, s2), (200.0, 60.0), Position(0, 0), (0.0, 78.12))


@pytest.mark.parametrize("n_sniffers, shape", [(3, (4, 3)), (2, (4, 3)), (2, (3,)), (2, (4, 1, 2))])
def test_range_sums_must_be_two_columns_for_two_sniffers(n_sniffers, shape):
    sniffers = (Position(100, 0), Position(0, 100), Position(-100, 0))[:n_sniffers]
    with pytest.raises(ValueError, match=r"two sniffers and range-sums D of shape \(N, 2\)"):
        solve_toa_batch(sniffers, np.full(shape, 300.0), Position(0, 0), (0.0, 78.12))


def test_out_of_band_pick_is_nearest_the_band():
    """Two exact crossings outside the band: the one nearer the band wins.

    The square layout crosses at 15.3 m and at 50 m from the eNb; a band
    beyond both picks the far crossing, a band between them the near one,
    whatever their rounding-level residuals.
    """
    sc = _square_scenario()
    cfg = ClockConfig.for_scenario(sc)
    D = compose_D([subframe_delta(sc, k, cfg) for k in (0, 1)], sc.sniffers, sc)
    for band, want in (((100.0, 178.12), 50.0), ((20.0, 40.0), 15.3165)):
        sol = solve_toa(sc.sniffers, D, sc.enb, band)
        assert np.count_nonzero(sol.valid[0]) == 2
        assert distance(Position(*sol.chosen(sol.u)[0]), sc.enb) == pytest.approx(want, abs=1e-3)


def test_matches_the_scan_solver_reference():
    """Closed-form crossings against the retired scan-and-Newton solver.

    ``tests/data/toa_reference.csv`` holds 300 ``helpers.draw_scenario``
    layouts (two sniffers, eNb at the origin, seed 2026), each solved at
    delta noise of 0, 20 and 100 ns by the 720-point scan with Newton polish
    and a bounded closest-approach search that this solver replaced: the
    inputs, the status, the chosen point, its residual and the candidates.
    Every status must match, every old candidate must be a new one and the
    chosen point must agree, to 1e-6 m.  Two kinds of row are exempt from
    the chosen point.  Where the pool held two exact crossings, the old pick
    fell to residual rounding noise: the new one must be one of the in-band
    crossings or, with none in band, the crossing nearest the band.  Old
    closest approaches (residual above 1e-9 m) may move by up to 1 m or
    become NoIntersection.
    """
    enb = Position(0.0, 0.0)
    exempt = {"two exact": 0, "closest approach": 0}
    with open(DATA / "toa_reference.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        sniffers = [Position(float(row[f"s{k}_x"]), float(row[f"s{k}_y"])) for k in (1, 2)]
        D = [float(row[f"D{k}"]) for k in (1, 2)]
        band = ta_band(int(row["ta_index"]))
        old = [Position(*map(float, p.split())) for p in row["candidates"].split(";") if p]
        where = f"draw {row['draw']} at {row['sigma_ns']} ns"
        try:
            sol = solve_toa(sniffers, D, enb, band)
            position = Position(*sol.chosen(sol.u)[0])
            status, new = "ok", [Position(*q) for q in sol.u[0][sol.valid[0]].tolist()]
        except AmbiguousSolution as exc:
            status, new = type(exc).__name__, exc.candidates
        except (InfeasibleObservation, NoIntersection) as exc:
            status, new = type(exc).__name__, []
        if row["status"] == "ok" and float(row["residual"]) > 1e-9:
            exempt["closest approach"] += 1
            if status == "ok":
                moved = distance(position, Position(float(row["x"]), float(row["y"])))
                assert moved <= 1.0, where
            else:
                assert status == "NoIntersection", where
            continue
        assert status == row["status"], where
        for q in old:
            assert min(distance(q, p) for p in new) < 1e-6, where
        if status != "ok":
            continue
        lo, hi = band
        in_band = [q for q in old if lo <= distance(q, enb) < hi]
        if len(in_band or old) >= 2:
            exempt["two exact"] += 1
            if in_band:
                assert min(distance(position, q) for q in in_band) < 1e-6, where
            else:
                nearest = min(old, key=lambda q: max(lo - distance(q, enb), distance(q, enb) - hi))
                assert distance(position, nearest) < 1e-6, where
            continue
        assert distance(position, Position(float(row["x"]), float(row["y"]))) < 1e-6, where
    assert exempt == {"two exact": 54, "closest approach": 1}
