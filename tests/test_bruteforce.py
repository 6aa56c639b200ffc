import csv
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dualsniff import bruteforce
from dualsniff._kernels import annulus_grid_min
from dualsniff.bruteforce import (_RINGS, CERT_TOL, _lower_bound, _polish, _start, annulus_minimum,
                                  pair_cost)
from dualsniff.geometry import Position, Scenario, distance, ta_band
from dualsniff.tdoa import BASELINE_REJECT_FACTOR, TdoaPair, form_tdoa

DATA = pathlib.Path(__file__).parent / "data"


def _tri_scenario():
    return Scenario(enb=Position(0, 0),
                    sniffers=(Position(100, 0), Position(0, 100), Position(-80, 40)),
                    ue_truth=Position(40, 30), ta_index=0)


def _pairs(sc):
    deltas = helpers.noiseless_deltas(sc)
    return [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
            for k in (1, 2)]


def test_pair_cost_zero_at_truth():
    sc = _tri_scenario()
    pairs = _pairs(sc)
    assert pair_cost(sc.ue_truth, pairs) < 1e-18
    assert pair_cost(Position(170, -40), pairs) > 1.0


def test_minimum_lands_on_truth_noiseless():
    sc = _tri_scenario()
    pos, cost = annulus_minimum(sc.enb, sc.band, _pairs(sc))
    assert distance(pos, sc.ue_truth) < 1e-3
    assert cost < 1e-12


def _recorded(monkeypatch, sc, pairs):
    """The search's (position, cost), and for each ``_lower_bound`` call the
    incumbent's cost then, the number of cells and their bounds."""
    incumbent, calls = [math.inf], []

    def polish(*args):
        w, cost = _polish(*args)
        incumbent.append(cost)
        return w, cost

    def bounded(*args):
        bound = _lower_bound(*args)
        calls.append((incumbent[-1], args[0].size, bound))
        return bound

    monkeypatch.setattr(bruteforce, "_polish", polish)
    monkeypatch.setattr(bruteforce, "_lower_bound", bounded)
    return annulus_minimum(sc.enb, sc.band, pairs), calls


def test_a_certified_search_stops_in_that_round(monkeypatch):
    # the polish takes a zero of the cost to rounding in the first round, and
    # no point costs less than 0: the search returns with no cell bound at all
    sc = _tri_scenario()
    (pos, cost), calls = _recorded(monkeypatch, sc, _pairs(sc))
    assert cost < 1e-20 and distance(pos, sc.ue_truth) < 1e-6
    assert calls == []
    # a positive minimum takes one call per round, each over the 16 children of
    # every cell the last one kept, and returns in the first round that certifies
    rounds = []
    for sc, pairs in _three_pair_draws():
        (pos, cost), calls = _recorded(monkeypatch, sc, pairs)
        certified = [best - bound.min() <= CERT_TOL * max(1.0, best) for best, _, bound in calls]
        assert certified.index(True) == len(calls) - 1 and cost == calls[-1][0]
        for (best, _, bound), (_, cells, _) in zip(calls, calls[1:]):
            assert cells == 16 * np.count_nonzero(bound < best)
        rounds.append(len(calls))
    assert max(rounds) > 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_refuses_a_non_finite_difference(bad):
    pairs = _pairs(_tri_scenario())
    pairs[1] = TdoaPair(pairs[1].ref_sniffer, pairs[1].other_sniffer, bad)
    with pytest.raises(ValueError, match="pair 1: delta_d must be finite"):
        annulus_minimum(Position(0, 0), (0.0, 78.12), pairs)


def test_requires_pairs():
    with pytest.raises(ValueError):
        annulus_minimum(Position(0, 0), (0.0, 78.12), [])


def _noisy_pairs(rng, bands):
    """A random non-degenerate layout with the device in one of the TA
    ``bands``, and its pairs from deltas with 100 ns of noise."""
    for _ in range(helpers.MAX_DRAWS):
        sc = helpers.draw_scenario(rng)
        if sc.ta_index not in bands:
            continue
        deltas = np.array(helpers.noiseless_deltas(sc)) + rng.normal(0.0, 1e-7, 3)
        pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
                 for k in (1, 2)]
        # an impossible difference, which the solvers reject, is drawn again
        if all(abs(p.delta_d) <= BASELINE_REJECT_FACTOR * distance(p.ref_sniffer, p.other_sniffer)
               for p in pairs):
            return sc, pairs
    raise AssertionError(f"_noisy_pairs: no acceptable draw in MAX_DRAWS = {helpers.MAX_DRAWS}")


def _grid_min(sc, pairs):
    """The least cost on an exhaustive 0.5 m grid over the scenario's annulus."""
    ref = pairs[0].ref_sniffer
    return annulus_grid_min((sc.enb.x, sc.enb.y), *sc.band, 0.5, (ref.x, ref.y),
                            [(p.other_sniffer.x, p.other_sniffer.y) for p in pairs],
                            [p.delta_d for p in pairs])[0]


def _rim_draws():
    """Four noisy draws in each of TA bands 0 and 1.  They are not filtered,
    so some minima lie on the annulus rims."""
    rng = np.random.default_rng(808)
    wanted = {0: 4, 1: 4}
    while any(wanted.values()):
        sc, pairs = _noisy_pairs(rng, {band for band, n in wanted.items() if n})
        wanted[sc.ta_index] -= 1
        yield sc, pairs


def _three_pair_draws():
    """Three pairs from four sniffers with 100 ns of noise: positive minima."""
    rng = np.random.default_rng(31)
    for _ in range(4):
        sc = helpers.draw_scenario(rng, 4)
        deltas = np.array(helpers.noiseless_deltas(sc)) + rng.normal(0.0, 1e-7, 4)
        yield sc, [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
                   for k in (1, 2, 3)]


def test_certified_minimum_never_above_a_fine_grid():
    # an exhaustive 0.5 m grid over the same annulus is an independent
    # reference: the certified minimum is never above its best point
    for sc, pairs in _rim_draws():
        pos, cost = annulus_minimum(sc.enb, sc.band, pairs)
        grid_cost = _grid_min(sc, pairs)
        assert cost <= grid_cost + CERT_TOL * max(1.0, cost)
        lo, hi = sc.band
        assert lo - 1e-9 <= distance(pos, sc.enb) <= hi + 1e-9
        assert pair_cost(pos, pairs) == pytest.approx(cost, rel=1e-9, abs=1e-15)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), ta_index=st.sampled_from((0, 1)))
def test_certified_cost_is_never_above_any_annulus_point(seed, ta_index):
    # 64 random points of the annulus, 16 of them on its rims, never beat the
    # certified minimum by more than its tolerance
    rng = np.random.default_rng(seed)
    sc, pairs = _noisy_pairs(rng, {ta_index})
    pos, cost = annulus_minimum(sc.enb, sc.band, pairs)
    lo, hi = sc.band
    assert lo - 1e-9 <= distance(pos, sc.enb) <= hi + 1e-9
    assert pair_cost(pos, pairs) == pytest.approx(cost, rel=1e-9, abs=1e-15)
    radii = np.concatenate([np.sqrt(rng.uniform(lo ** 2, hi ** 2, 48)), [lo] * 8, [hi] * 8])
    for r, th in zip(radii, rng.uniform(0.0, 2.0 * math.pi, 64)):
        q = Position(sc.enb.x + r * math.cos(th), sc.enb.y + r * math.sin(th))
        assert cost <= pair_cost(q, pairs) + CERT_TOL * max(1.0, cost)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), ta_index=st.sampled_from((0, 1)),
       phi=st.floats(0.0, 2.0 * math.pi), dx=st.floats(-1e4, 1e4), dy=st.floats(-1e4, 1e4))
def test_certified_cost_moves_with_the_scene(seed, ta_index, phi, dx, dy):
    # the eNb and sniffers are rotated about the eNb and translated: the
    # certified cost agrees to its tolerance plus rounding, and the point stays
    # in the band.  A moved coordinate rounds by at most a few ulps of the
    # shift plus the scene's extent, ``delta``; a sniffer moved by ``delta``
    # moves each miss by at most 2 delta, so with two pairs the root cost moves
    # by at most 2 sqrt(2) delta and the cost by 6 sqrt(cost) delta + 8 delta^2
    rng = np.random.default_rng(seed)
    sc, pairs = _noisy_pairs(rng, {ta_index})
    spin = complex(math.cos(phi), math.sin(phi))

    def move(p):
        q = complex(p.x - sc.enb.x, p.y - sc.enb.y) * spin
        return Position(sc.enb.x + dx + q.real, sc.enb.y + dy + q.imag)

    moved = [TdoaPair(move(p.ref_sniffer), move(p.other_sniffer), p.delta_d) for p in pairs]
    _, cost = annulus_minimum(sc.enb, sc.band, pairs)
    pos, moved_cost = annulus_minimum(move(sc.enb), sc.band, moved)
    lo, hi = sc.band
    assert lo - 1e-9 <= distance(pos, move(sc.enb)) <= hi + 1e-9
    delta = 8.0 * np.finfo(float).eps * (abs(dx) + abs(dy) + 4.0 * helpers.BOX_HALF)
    rounding = 6.0 * math.sqrt(cost) * delta + 8.0 * delta ** 2
    assert abs(moved_cost - cost) <= CERT_TOL * max(1.0, cost) + rounding


def _misses(x, y, pairs, enb):
    """Offsets and distances from each sniffer (reference first), the misses
    and the cost at the points (x, y), all relative to ``enb``."""
    sniffers = [pairs[0].ref_sniffer] + [p.other_sniffer for p in pairs]
    dx = x - np.array([s.x - enb.x for s in sniffers])[:, None]
    dy = y - np.array([s.y - enb.y for s in sniffers])[:, None]
    d = np.hypot(dx, dy)
    m = np.array([p.delta_d for p in pairs])[:, None] - (d[1:] - d[0])
    return dx, dy, d, m, (m * m).sum(axis=0)


def test_lower_bound_holds_over_each_cell():
    # no point of a polar cell costs less than the bound from its centre: an
    # 8 x 8 grid of points, edges and corners included, over 2000 cells of
    # 0.01-10 m, every other one within four widths of a sniffer, where the
    # Hessian term of the bound decides
    rng = np.random.default_rng(5)
    edge = np.linspace(-0.5, 0.5, 8)
    for _ in range(20):
        sc, pairs = _noisy_pairs(rng, {0, 1})  # the base station is at the origin
        width = np.exp(rng.uniform(math.log(0.01), math.log(10.0), 100))
        spin = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, (2, 100)))
        sniffer = np.array([complex(s.x, s.y) for s in sc.sniffers])[rng.integers(0, 3, 100)]
        centre = np.where(np.arange(100) % 2 == 0,
                          sniffer + width * rng.uniform(0.5, 4.0, 100) * spin[0],
                          rng.uniform(5.0, 300.0, 100) * spin[1])
        whole = np.abs(centre) > width  # the cell stays clear of the origin
        rho, th, d_rho = np.abs(centre[whole]), np.angle(centre[whole]), width[whole]
        d_th = d_rho / rho
        x, y = rho * np.cos(th), rho * np.sin(th)
        bound = _lower_bound(rho, d_rho, d_th, x, y, *_misses(x, y, pairs, sc.enb))
        p_rho = (rho[:, None] + d_rho[:, None] * np.repeat(edge, 8)).ravel()
        p_th = (th[:, None] + d_th[:, None] * np.tile(edge, 8)).ravel()
        cost = _misses(p_rho * np.cos(p_th), p_rho * np.sin(p_th), pairs, sc.enb)[-1]
        assert np.all(cost.reshape(rho.size, 64).min(axis=1) >= bound)


def test_lower_bound_holds_over_the_starting_partition():
    # the first round's cells bound every search that a zero does not end, and
    # band 0's inner ring touches the base station, which the sampled cells
    # above keep clear of: over TA bands 0-3, no point of a 12 x 12 grid over
    # each starting cell, edges and corners included, costs less than the
    # cell's bound
    rng = np.random.default_rng(41)
    edge = np.linspace(-0.5, 0.5, 12)
    for _ in range(10):
        sc, pairs = _noisy_pairs(rng, {0, 1})  # the base station is at the origin
        for band in range(4):
            lo, hi = ta_band(band)
            d_rho, d_th, rho, th, x, y = _start(lo, hi)
            assert rho.size == _RINGS * math.ceil(2.0 * math.pi * hi / d_rho)
            assert rho.min() - 0.5 * d_rho == pytest.approx(lo, abs=1e-9)
            x, y = x[:rho.size], y[:rho.size]  # the centres; rim points follow them
            bound = _lower_bound(rho, d_rho, d_th, x, y, *_misses(x, y, pairs, sc.enb))
            p_rho = (rho[:, None] + d_rho * np.repeat(edge, 12)).ravel()
            p_th = (th[:, None] + d_th * np.tile(edge, 12)).ravel()
            cost = _misses(p_rho * np.cos(p_th), p_rho * np.sin(p_th), pairs, sc.enb)[-1]
            assert np.all(cost.reshape(rho.size, 144).min(axis=1) >= bound)


def _reference_draws():
    """The instances of ``data/oracle_reference.csv``, each under its (draw, index) key."""
    rng = np.random.default_rng(3003)
    for i in range(100):
        yield ("criterion3", i), helpers.draw_audited_instance(rng, 1e-7)[:2]
    yield from ((("rim", i), draw) for i, draw in enumerate(_rim_draws()))
    yield from ((("three_pair", i), draw) for i, draw in enumerate(_three_pair_draws()))


def test_matches_the_reference_oracle():
    # data/oracle_reference.csv holds the cost and point (repr) of acceptance
    # criterion 3's 100 instances and of the rim and three-pair draws above, as
    # a search that went on refining until its cells were 0.05 m wide returned
    # them: stopping at the certificate keeps the cost to the certificate's
    # tolerance and the point to 1e-6 m
    with open(DATA / "oracle_reference.csv", newline="") as fh:
        reference = {(r["draw"], int(r["index"])): r for r in csv.DictReader(fh)}
    seen = set()
    for key, (sc, pairs) in _reference_draws():
        ref = reference[key]
        pos, cost = annulus_minimum(sc.enb, sc.band, pairs)
        assert abs(cost - float(ref["cost"])) <= CERT_TOL * max(1.0, cost)
        assert math.hypot(pos.x - float(ref["x"]), pos.y - float(ref["y"])) <= 1e-6
        seen.add(key)
    assert seen == set(reference) and len(seen) == 112


def test_a_cached_partition_gives_the_cold_answer():
    # TA bands 0-3 and the discs with their outer radii (the same hi, another
    # lo), interleaved on one cache, give the bits of searches on a cold one
    bands = [ta_band(b) for b in range(4)] + [(0.0, ta_band(b)[1]) for b in (1, 2, 3)]
    draws = [draw for _, draw in _reference_draws()]

    def bits(sc, pairs, band):
        pos, cost = annulus_minimum(sc.enb, band, pairs)
        return pos.x.hex(), pos.y.hex(), cost.hex()

    warm = [bits(sc, pairs, band) for sc, pairs in draws for band in bands]
    cold = []
    for sc, pairs in draws:
        for band in bands:
            _start.cache_clear()
            cold.append(bits(sc, pairs, band))
    assert warm == cold
    for array in _start(*ta_band(1))[2:]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_a_zero_of_the_cost_is_certified_to_rounding():
    # the polish takes the incumbent to the zero of the cost, far below the
    # certificate's tolerance, on noiseless layouts in any TA band
    sc = _tri_scenario()
    pos, cost = annulus_minimum(sc.enb, sc.band, _pairs(sc))
    assert cost <= 1e-20 and distance(pos, sc.ue_truth) < 1e-6
    rng = np.random.default_rng(23)
    for _ in range(10):
        sc = helpers.draw_scenario(rng)
        deltas = helpers.noiseless_deltas(sc)
        pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
                 for k in (1, 2)]
        pos, cost = annulus_minimum(sc.enb, sc.band, pairs)
        assert cost <= 1e-20 and pair_cost(pos, pairs) <= 1e-20


def test_overdetermined_minimum_is_never_above_a_fine_grid():
    # the least-squares minimum of three pairs is positive, and no 0.5 m grid
    # point of the annulus beats it
    for sc, pairs in _three_pair_draws():
        pos, cost = annulus_minimum(sc.enb, sc.band, pairs)
        grid_cost = _grid_min(sc, pairs)
        assert cost > 1e-6
        assert cost <= grid_cost + CERT_TOL * max(1.0, cost)
        assert pair_cost(pos, pairs) == pytest.approx(cost, rel=1e-9)


def test_refuses_a_flat_minimum():
    # |delta_d| beyond the baseline: the cost is least along a whole ray
    # behind the other sniffer, so no isolated minimum can be certified
    pair = TdoaPair(ref_sniffer=Position(100, 0), other_sniffer=Position(0, 100),
                    delta_d=-200.0)
    with pytest.raises(RuntimeError):
        annulus_minimum(Position(0, 0), (78.12, 156.24), [pair])


def test_rejects_an_empty_band():
    with pytest.raises(ValueError):
        annulus_minimum(Position(0, 0), (78.12, 78.12), _pairs(_tri_scenario()))


def test_rejects_an_unbounded_band():
    with pytest.raises(ValueError, match="band must satisfy"):
        annulus_minimum(Position(0, 0), (0.0, math.inf), _pairs(_tri_scenario()))
