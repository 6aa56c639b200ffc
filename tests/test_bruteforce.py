import numpy as np
import pytest

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


def test_certified_minimum_never_above_a_fine_grid():
    # an exhaustive 0.5 m grid over the same annulus is an independent
    # reference: the certified minimum is never above its best point.
    # Unfiltered noisy draws put some minima on the annulus rims.
    rng = np.random.default_rng(808)
    wanted = {0: 4, 1: 4}
    while any(wanted.values()):
        sc = helpers.draw_scenario(rng)
        if not wanted.get(sc.ta_index):
            continue
        deltas = np.array(helpers.noiseless_deltas(sc)) + rng.normal(0.0, 1e-7, 3)
        pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k], sc.enb)
                 for k in (1, 2)]
        if any(abs(p.delta_d) > BASELINE_REJECT_FACTOR * distance(p.ref_sniffer, p.other_sniffer)
               for p in pairs):
            continue  # an impossible difference, which the solvers reject
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
