import math

import pytest

from dualsniff.errors import AmbiguousSolution
from dualsniff.geometry import (SPEED_OF_LIGHT, TA_BAND_M, Candidate, Position,
                                Scenario, choose_candidate, distance, ta_band,
                                triangle_area)


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position(0.0, float("inf"))


def test_distance_basics():
    assert distance(Position(0, 0), Position(3, 4)) == 5.0
    assert distance(Position(-1, -1), Position(-1, -1)) == 0.0
    a, b = Position(12.5, -7.0), Position(-3.0, 44.0)
    assert distance(a, b) == distance(b, a)


def test_speed_of_light_value():
    assert SPEED_OF_LIGHT == 299_792_458.0


def test_ta_band_tiles_from_zero():
    assert ta_band(0) == (0.0, TA_BAND_M)
    lo, hi = ta_band(1)
    assert lo == TA_BAND_M
    assert hi == pytest.approx(2 * TA_BAND_M)
    # consecutive bands share an edge
    for i in range(5):
        assert ta_band(i)[1] == pytest.approx(ta_band(i + 1)[0])


def test_ta_band_rejects_negative_index():
    with pytest.raises(ValueError):
        ta_band(-1)


def test_triangle_area():
    assert triangle_area(Position(0, 0), Position(1, 0), Position(0, 1)) == 0.5
    # collinear points span no area
    assert triangle_area(Position(0, 0), Position(5, 5), Position(9, 9)) == 0.0


def test_scenario_requires_two_sniffers():
    with pytest.raises(ValueError):
        Scenario(enb=Position(0, 0), sniffers=(Position(1, 0),))


def test_scenario_rejects_sniffer_on_enb():
    with pytest.raises(ValueError):
        Scenario(enb=Position(5, 5), sniffers=(Position(5, 5), Position(1, 0)))


def test_scenario_checks_truth_against_band():
    # |u| = 50 sits in band 0, not band 1
    with pytest.raises(ValueError):
        Scenario(enb=Position(0, 0), sniffers=(Position(100, 0), Position(0, 100)),
                 ue_truth=Position(40, 30), ta_index=1)
    sc = Scenario(enb=Position(0, 0), sniffers=(Position(100, 0), Position(0, 100)),
                  ue_truth=Position(40, 30), ta_index=0)
    assert sc.band == (0.0, TA_BAND_M)


def test_scenario_distances_to():
    sc = Scenario(enb=Position(0, 0), sniffers=(Position(100, 0), Position(0, 100)))
    d = sc.distances_to(Position(40, 30))
    assert d[0] == pytest.approx(math.sqrt(60 ** 2 + 30 ** 2))
    assert d[1] == pytest.approx(math.sqrt(40 ** 2 + 70 ** 2))


def test_choose_candidate_by_band():
    enb = Position(0, 0)
    near = Candidate(Position(30, 40), 50.0, 1e-13, True)       # 50 m out
    far = Candidate(Position(60, 80), 100.0, 1e-14, True)       # 100 m out
    ghost = Candidate(Position(0, 120), 120.0, 5.0, False)      # 120 m out
    # out of band, the clean candidate nearest the band beats a smaller residual
    assert choose_candidate([far, near, ghost], enb, (100.0, 150.0)) == far
    assert choose_candidate([far, near, ghost], enb, (0.0, 40.0)) == near
    # a ghost stands in only when no clean candidate is left
    assert choose_candidate([ghost], enb, (0.0, 40.0)) == ghost
    # in band, the smaller residual wins, a ghost included
    assert choose_candidate([near, ghost], enb, (40.0, 130.0)) == near
    assert choose_candidate([far, ghost], enb, (110.0, 130.0)) == ghost
    # two clean in-band candidates far apart are ambiguous
    with pytest.raises(AmbiguousSolution) as exc:
        choose_candidate([near, far, ghost], enb, (0.0, 150.0))
    assert exc.value.candidates == [near.position, far.position]
