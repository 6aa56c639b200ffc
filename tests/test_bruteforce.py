import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dualsniff._kernels import annulus_grid_min
from dualsniff.bruteforce import CERT_TOL, annulus_minimum, pair_cost
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
        ref = pairs[0].ref_sniffer
        grid_cost, _, _ = annulus_grid_min(
            (sc.enb.x, sc.enb.y), *sc.band, 0.5, (ref.x, ref.y),
            [(p.other_sniffer.x, p.other_sniffer.y) for p in pairs],
            [p.delta_d for p in pairs])
        assert cost <= grid_cost + CERT_TOL * max(1.0, cost)
        lo, hi = sc.band
        assert lo - 1e-9 <= distance(pos, sc.enb) <= hi + 1e-9
        assert pair_cost(pos, pairs) == pytest.approx(cost, rel=1e-9, abs=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
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
