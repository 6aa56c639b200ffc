import numpy as np
import pytest

from dualsniff.errors import AmbiguousSolution
from dualsniff.geometry import (SPEED_OF_LIGHT, TA_BAND_M, Position, Scenario,
                                choose_candidate, distance, ta_band, triangle_area)


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


@pytest.mark.parametrize("ta_index, reason", [
    (float("inf"), "ta_index must be finite"), (float("nan"), "ta_index must be finite"),
    (1.5, "ta_index must be an integer"), (-1, "ta_index must be non-negative"),
])
def test_scenario_rejects_bad_ta_index(ta_index, reason):
    with pytest.raises(ValueError, match=reason):
        Scenario(enb=Position(0, 0), sniffers=(Position(1, 0), Position(0, 1)), ta_index=ta_index)
    sc = Scenario(enb=Position(0, 0), sniffers=(Position(1, 0), Position(0, 1)), ta_index=2.0)
    assert sc.ta_index == 2 and type(sc.ta_index) is int


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


def _choose(cands, band):
    """``choose_candidate`` for one sample offering ``cands``, two
    (position, residual, clean); raises as a solver does and returns the
    chosen candidate."""
    u = np.array([[(p.x, p.y) for p, _, _ in cands]])
    residual = np.array([[e for _, e, _ in cands]])
    clean = np.array([[c for _, _, c in cands]])
    sol = choose_candidate(u, np.zeros_like(residual), residual, np.ones_like(clean), clean,
                           [], Position(0, 0), band)
    sol.check(0)
    return cands[sol.pick[0]]


def test_choose_candidate_by_band():
    near = (Position(30, 40), 1e-13, True)       # 50 m out
    far = (Position(60, 80), 1e-14, True)        # 100 m out
    ghost = (Position(0, 120), 5.0, False)       # 120 m out
    # out of band, the clean candidate nearest the band beats a smaller residual
    assert _choose([far, near], (100.0, 150.0)) == far
    assert _choose([far, near], (0.0, 40.0)) == near
    # a ghost stands in only when no clean candidate is left
    assert _choose([ghost, ghost], (0.0, 40.0)) == ghost
    # in band, the smaller residual wins, a ghost included
    assert _choose([near, ghost], (40.0, 130.0)) == near
    assert _choose([far, ghost], (110.0, 130.0)) == ghost
    # two clean in-band candidates far apart are ambiguous
    with pytest.raises(AmbiguousSolution) as exc:
        _choose([near, far], (0.0, 150.0))
    assert exc.value.candidates == [near[0], far[0]]
    assert str(exc.value) == "2 in-band candidates separated by 50.00 m"
