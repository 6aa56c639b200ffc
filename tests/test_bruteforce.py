import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dualsniff._kernels import annulus_grid_min
from dualsniff.bruteforce import CERT_TOL, _lower_bound, annulus_minimum, pair_cost
from dualsniff.geometry import Position, Scenario, distance
from dualsniff.tdoa import BASELINE_REJECT_FACTOR, TdoaPair, form_tdoa


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


def test_requires_pairs():
    with pytest.raises(ValueError):
        annulus_minimum(Position(0, 0), (0.0, 78.12), [])


def _noisy_pairs(rng, bands):
    """A random non-degenerate layout with the device in one of the TA
    ``bands``, and its pairs from deltas with 100 ns of noise."""
    while True:
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


def _grid_min(sc, pairs):
    """The least cost on an exhaustive 0.5 m grid over the scenario's annulus."""
    ref = pairs[0].ref_sniffer
    return annulus_grid_min((sc.enb.x, sc.enb.y), *sc.band, 0.5, (ref.x, ref.y),
                            [(p.other_sniffer.x, p.other_sniffer.y) for p in pairs],
                            [p.delta_d for p in pairs])[0]


def test_certified_minimum_never_above_a_fine_grid():
    # an exhaustive 0.5 m grid over the same annulus is an independent
    # reference: the certified minimum is never above its best point.
    # Unfiltered noisy draws put some minima on the annulus rims.
    rng = np.random.default_rng(808)
    wanted = {0: 4, 1: 4}
    while any(wanted.values()):
        sc, pairs = _noisy_pairs(rng, {band for band, n in wanted.items() if n})
        wanted[sc.ta_index] -= 1
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
    # three pairs from four sniffers with 100 ns of noise: the least-squares
    # minimum is positive, and no 0.5 m grid point of the annulus beats it
    rng = np.random.default_rng(31)
    for _ in range(4):
        sc = helpers.draw_scenario(rng, 4)
        deltas = np.array(helpers.noiseless_deltas(sc)) + rng.normal(0.0, 1e-7, 4)
        pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
                 for k in (1, 2, 3)]
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
