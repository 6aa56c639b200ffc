"""Properties of the batch solvers: a batch is its samples solved one by one,
the estimates move with the scene, and a collinear layout's mirror candidates
are kept or refused together."""

import math
from dataclasses import astuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dualsniff.errors import LocalizationError
from dualsniff.geometry import (AMBIGUITY_SEPARATION, TA_BAND_M, Position, Scenario, distance,
                                ta_band)
from dualsniff.tdoa import (TdoaPair, build_system, rows, solve_constrained,
                            solve_constrained_batch)
from dualsniff.toa import compose_D, solve_toa, solve_toa_batch

OFFSETS = st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
                   min_size=1, max_size=8)


def _one_by_one(solve, rows):
    """(status, position) of each row solved alone by ``solve``, which gives the
    chosen (x, y); the position as a tuple of floats."""
    out = []
    for row in rows:
        try:
            x, y = solve(*row)
        except LocalizationError as exc:
            out.append((type(exc).__name__, None))
        else:
            out.append(("ok", (float(x), float(y))))
    return out


def _toa_alone(s1, s2, enb, band):
    """A ``_one_by_one`` solve of (D1, D2) rows through the one-sample ``solve_toa``."""
    def solve(D1, D2):
        sol = solve_toa((s1, s2), (D1, D2), enb, band)
        return sol.chosen(sol.u)[0]
    return solve


def _batch(sol):
    return [(status, tuple(xy) if status == "ok" else None)
            for status, xy in zip(sol.status.tolist(), sol.chosen(sol.u).tolist())]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 5), samples=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_rows_and_range_sums_from_arrays_are_bit_identical(n, samples, seed):
    """``build_system`` of n pairs is ``rows(ref, others, dd)`` to the bit, for one
    sample (scalar differences), for N = 1 and for N > 1; ``compose_D`` of N samples
    is its N one-sample calls stacked, to the bit."""
    rng = np.random.default_rng(seed)
    ref, *others = (Position(x, y) for x, y in rng.uniform(-300.0, 300.0, (n + 1, 2)).tolist())
    dd = rng.normal(0.0, 80.0, (samples, n))
    for d in (dd[0], dd[:1], dd):
        got = build_system([TdoaPair(ref, o, d[..., k]) for k, o in enumerate(others)])
        want = rows(ref, others, d)
        for a, b in ((got.P, want.P), (got.dd, want.dd), (got.h, want.h)):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    sc = Scenario(enb=Position(*rng.uniform(-50.0, 50.0, 2).tolist()), sniffers=others[:2],
                  ta_index=int(rng.integers(0, 4)))
    deltas = rng.normal(0.0, 1e-6, (2, samples))
    D = compose_D(tuple(deltas), sc.sniffers, sc)
    alone = np.concatenate([compose_D(col, sc.sniffers, sc) for col in deltas.T.tolist()])
    assert D.shape == alone.shape == (samples, 2) and D.tobytes() == alone.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(phi=st.floats(0.0, 2.0 * math.pi), shift=st.floats(-1e3, 1e3), offsets=OFFSETS)
def test_toa_batch_equals_its_samples_solved_alone(phi, shift, offsets):
    """Row for row the same status and the same bits as an N = 1 call.

    The layout is the square one, turned and shifted, whose device has a
    mirror crossing in its own band: the first rows are that ambiguous
    sample, a range-sum below the focal distance and a nested pair of
    ellipses; the rest move both range-sums off the device's.
    """
    c, s = math.cos(phi), math.sin(phi)

    def move(x, y):
        return Position(shift + c * x - s * y, 0.5 * shift + s * x + c * y)

    enb, s1, s2, ue = move(0, 0), move(100, 0), move(0, 100), move(40, 30)
    band = (0.0, 78.12)
    truth = [distance(ue, enb) + distance(ue, k) for k in (s1, s2)]
    D = [truth, [distance(enb, s1) - 1.0, truth[1]], [distance(enb, s1) + 1e-3, truth[1] + 400.0],
         *([truth[0] + a, truth[1] + b] for a, b in offsets)]
    sol = solve_toa_batch((s1, s2), np.array(D), enb, band)
    alone = _one_by_one(_toa_alone(s1, s2, enb, band), D)
    assert _batch(sol) == alone
    assert [status for status, _ in alone[:3]] == [
        "AmbiguousSolution", "InfeasibleObservation", "NoIntersection"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(third=st.booleans(), offsets=OFFSETS)
def test_tdoa_batch_equals_its_samples_solved_alone(third, offsets):
    """Row for row the same status and the same bits as an N = 1 call.

    Sniffers a meter apart near a base station 50 m away: the first rows are
    a quadratic with two negative roots and a difference beyond three
    baselines; the rest draw differences of up to two baselines, with two
    rows or, through a third sniffer, the normal equations of three.
    """
    ref, enb = Position(0, 50), Position(0, 0)
    others = [Position(1, 50), Position(0, 51)] + ([Position(-1, 49)] if third else [])
    dd = [[2.0, 0.0], [3.5, 0.0], *([a / 30.0, b / 30.0] for a, b in offsets)]
    if third:
        dd = [row + [0.5] for row in dd]
    dd = np.array(dd)
    pairs = [TdoaPair(ref, other, dd[:, k]) for k, other in enumerate(others)]
    sol = solve_constrained_batch(build_system(pairs), ref, (0.0, 78.12), enb)
    alone = _one_by_one(
        lambda row: astuple(solve_constrained(
            build_system([TdoaPair(ref, o, d) for o, d in zip(others, row)]), ref,
            (0.0, 78.12), enb).position), ([row] for row in dd.tolist()))
    assert _batch(sol) == alone
    if not third:
        assert [status for status, _ in alone[:2]] == ["NoRealRoot", "InfeasibleObservation"]


def test_batches_of_no_samples_solve_to_no_solutions():
    """Zero samples, as a log without the target's RNTI gives, are an empty result."""
    ref, enb, band, none = Position(0, 50), Position(0, 0), (0.0, 78.12), np.zeros(0)
    others = [Position(1, 50), Position(0, 51), Position(-1, 49)]
    sols = [solve_constrained_batch(build_system([TdoaPair(ref, o, none) for o in others[:n]]),
                                    ref, band, enb) for n in (2, 3)]
    sols.append(solve_toa_batch(others[:2], np.zeros((0, 2)), enb, band))
    for sol in sols:
        assert (sol.u.shape, sol.pick.shape, sol.failed) == ((0, 2, 2), (0,), {})
        assert sol.status.tolist() == [] and sol.chosen(sol.u).shape == (0, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), phi=st.floats(0.0, 2.0 * math.pi),
       dx=st.floats(-1e3, 1e3), dy=st.floats(-1e3, 1e3))
def test_batch_estimates_move_with_the_scene(seed, phi, dx, dy):
    """A rotation and translation of the whole scene moves every estimate with it.

    Twelve noisy samples (20 ns) of a random four-sniffer layout are solved
    by ToA on the first two sniffers and by TDoA on all four, before and
    after the motion: the statuses agree and each fix moves by the motion
    to within 1e-6 m.
    """
    rng = np.random.default_rng(seed)
    sc = helpers.draw_scenario(rng, n_sniffers=4)
    cos_p, sin_p = math.cos(phi), math.sin(phi)

    def move(p):
        return Position(dx + cos_p * p.x - sin_p * p.y, dy + sin_p * p.x + cos_p * p.y)

    moved = Scenario(enb=move(sc.enb), sniffers=tuple(move(s) for s in sc.sniffers),
                     ue_truth=move(sc.ue_truth), ta_index=sc.ta_index)
    noise = rng.normal(0.0, 2e-8, (12, 4)) * 299_792_458.0
    fixes = []
    for scene in (sc, moved):
        ranges = [distance(scene.ue_truth, s) for s in scene.sniffers]
        d_ub = distance(scene.ue_truth, scene.enb)
        D = d_ub + np.array(ranges[:2]) + noise[:, :2]
        toa = solve_toa_batch(scene.sniffers[:2], D, scene.enb, scene.band)
        pairs = [TdoaPair(scene.sniffers[0], s, ranges[k] - ranges[0] + noise[:, k] - noise[:, 0])
                 for k, s in enumerate(scene.sniffers) if k]
        tdoa = solve_constrained_batch(build_system(pairs), scene.sniffers[0], scene.band,
                                       scene.enb)
        fixes.append([(sol.status.tolist(), sol.chosen(sol.u)) for sol in (toa, tdoa)])
    for (status, xy), (moved_status, moved_xy) in zip(*fixes):
        assert status == moved_status
        for st_, (x, y), want in zip(status, xy.tolist(), moved_xy.tolist()):
            if st_ == "ok":
                assert distance(move(Position(x, y)), Position(*want)) < 1e-6


def test_collinear_mirror_pairs_are_kept_or_refused_together():
    """Stations on one line give each sample's two crossings as a mirror pair about
    it: both candidates share their range (to 1e-12 relative), residual (to
    1e-9 m) and ``clean`` flag.  So the device's TA band keeps both or neither,
    and a sample with both in band fails AmbiguousSolution unless they lie within
    AMBIGUITY_SEPARATION.  300 random layouts on lines through the eNb, 50
    range-sum pairs each with 20 ns of noise."""
    rng = np.random.default_rng(25)
    pairs = in_band_pairs = 0
    for _ in range(300):
        enb = Position(*rng.uniform(-200.0, 200.0, 2).tolist())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s1, s2 = (Position(enb.x + t * math.cos(phi), enb.y + t * math.sin(phi))
                  for t in (rng.uniform(20.0, 250.0, 2) * rng.choice([-1.0, 1.0], 2)).tolist())
        ue = Position(*rng.uniform(-250.0, 250.0, 2).tolist())
        band = ta_band(int(distance(ue, enb) // TA_BAND_M))
        D = [distance(ue, enb) + distance(ue, s) + rng.normal(0.0, 6.0, 50) for s in (s1, s2)]
        sol = solve_toa_batch((s1, s2), np.column_stack(D), enb, band)
        two = np.isfinite(sol.r).all(axis=1)
        r, clean = sol.r[two], sol.clean[two]
        assert (np.abs(r[:, 0] - r[:, 1]) <= 1e-12 * r[:, 0]).all()
        assert (clean[:, 0] == clean[:, 1]).all()
        residual = sol.residual[two][clean[:, 0]]
        assert (np.abs(residual[:, 0] - residual[:, 1]) <= 1e-9).all()
        lo, hi = band
        d = np.hypot(sol.u[..., 0] - enb.x, sol.u[..., 1] - enb.y)
        in_band = sol.valid & (lo <= d) & (d < hi)
        assert (in_band[two, 0] == in_band[two, 1]).all()
        both = in_band.all(axis=1)
        spread = np.hypot(*(sol.u[:, 0] - sol.u[:, 1]).T)
        assert ((sol.status == "AmbiguousSolution") | (spread <= AMBIGUITY_SEPARATION))[both].all()
        pairs += np.count_nonzero(two)
        in_band_pairs += np.count_nonzero(both)
    assert pairs > 10_000 and in_band_pairs > 5_000


def test_dependent_rows_fail_only_their_sample():
    """Collinear stations with range-sums in proportion to the sniffer offsets give
    dependent rows: that sample alone fails DegenerateGeometry, the rest solve
    and equal their one-sample calls."""
    enb, s1, s2 = Position(0, 0), Position(100, 0), Position(50, 0)
    truth = [Position(30, 40), Position(35, -38), Position(20, 50)]
    D = np.array([[distance(t, enb) + distance(t, s) for s in (s1, s2)] for t in truth])
    D = np.insert(D, 1, [200.0, 100.0], axis=0)
    band = (0.0, 78.12)
    sol = solve_toa_batch((s1, s2), D, enb, band)
    alone = _one_by_one(_toa_alone(s1, s2, enb, band), D.tolist())
    assert _batch(sol) == alone
    assert sol.status.tolist() == ["AmbiguousSolution", "DegenerateGeometry",
                                   "AmbiguousSolution", "AmbiguousSolution"]
