import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsniff.stats import (EmptyInput, ErrorStats, InvalidProbability,
                             TooFewSamples, cdf_quantile, one_sigma_filter,
                             summarize)
from helpers import numpy_summarize

#: How far the plain-float summary may sit from the numpy formulas.  fsum and
#: hypot round about once, numpy's pairwise sums a few times: they differ by ulps.
SUMMARY_REL = 1e-12


def test_filter_removes_single_outlier():
    # mean 25, population std sqrt(1875) ~ 43.3: only the 100 lies outside
    kept, removed = one_sigma_filter([0.0, 0.0, 0.0, 100.0])
    assert kept.tolist() == [0.0, 0.0, 0.0]
    assert removed.tolist() == [100.0]


def test_filter_keeps_identical_samples():
    kept, removed = one_sigma_filter([7.0] * 5)
    assert kept.tolist() == [7.0] * 5
    assert removed.size == 0


def test_filter_never_empties_the_set():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        samples = np.abs(rng.normal(0.0, 50.0, size=n))
        kept, removed = one_sigma_filter(samples)
        assert kept.size >= 1
        assert kept.size + removed.size == n


def test_filter_requires_two_samples():
    with pytest.raises(TooFewSamples):
        one_sigma_filter([5.0])


def test_filter_keeps_about_68_percent_of_gaussian():
    rng = np.random.default_rng(99)
    samples = np.abs(rng.normal(40.0, 5.0, size=10_000))
    kept, _ = one_sigma_filter(samples)
    assert kept.size / samples.size == pytest.approx(0.683, abs=0.02)


def test_summarize_two_samples_by_hand():
    stats = summarize([3.0, 4.0])
    assert stats.mean == pytest.approx(3.5)
    assert stats.rmse == pytest.approx(math.sqrt(12.5))
    assert stats.std == pytest.approx(0.5)
    assert stats.count == 2
    assert stats.cdf == ((3.0, 0.5), (4.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=0.0, max_value=1e150), min_size=1, max_size=200))
@example([76.09624449125756] * 243)  # numpy's std 1.4e-14, the exact 0.0
def test_summarize_matches_the_numpy_formulas(samples):
    got, ref = summarize(samples), numpy_summarize(samples)
    assert got.mean == pytest.approx(ref.mean, rel=SUMMARY_REL)
    assert got.rmse == pytest.approx(ref.rmse, rel=SUMMARY_REL)
    # a mean one ulp apart moves a near-zero std by up to that ulp, so the
    # std's floor scales with the samples, not with the std itself
    assert got.std == pytest.approx(ref.std, rel=SUMMARY_REL, abs=SUMMARY_REL * ref.rmse)
    assert (got.count, got.cdf) == (ref.count, ref.cdf)


def test_summarize_does_not_overflow_near_the_float_limit():
    stats = summarize([1e308, 1e308])
    assert (stats.mean, stats.std) == (1e308, 0.0)
    assert stats.rmse == pytest.approx(1e308, rel=1e-15)


def test_rmse_identity():
    """Population std makes rmse^2 = mean^2 + std^2 hold exactly."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        samples = np.abs(rng.normal(30.0, 12.0, size=int(rng.integers(2, 500))))
        s = summarize(samples)
        assert s.rmse ** 2 == pytest.approx(s.mean ** 2 + s.std ** 2, rel=1e-12)


def test_cdf_is_sorted_and_ends_at_one():
    stats = summarize([5.0, 1.0, 3.0])
    assert stats.cdf == ((1.0, 1 / 3), (3.0, 2 / 3), (5.0, 1.0))


def test_quantiles_on_small_set():
    stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert cdf_quantile(stats, 0.2) == 1.0
    assert cdf_quantile(stats, 0.5) == 3.0
    assert cdf_quantile(stats, 0.8) == 4.0
    assert cdf_quantile(stats, 1.0) == 5.0
    assert cdf_quantile(stats, 1e-9) == 1.0


def test_quantile_probability_domain():
    stats = summarize([1.0, 2.0])
    with pytest.raises(InvalidProbability):
        cdf_quantile(stats, 0.0)
    with pytest.raises(InvalidProbability):
        cdf_quantile(stats, 1.0001)


def test_input_validation():
    with pytest.raises(EmptyInput):
        summarize([])
    with pytest.raises(ValueError):
        summarize([[1.0, 2.0]])
    with pytest.raises(ValueError):
        summarize([1.0, -2.0])
    with pytest.raises(ValueError):
        summarize([1.0, float("nan")])


def test_filter_cuts_heavy_tail_mean():
    rng = np.random.default_rng(23)
    n = 5000
    body = rng.normal(20.0, 5.0, size=n)
    tail = rng.normal(200.0, 20.0, size=n)
    is_tail = rng.uniform(size=n) < 0.10
    samples = np.clip(np.where(is_tail, tail, body), 0.0, None)
    kept, removed = one_sigma_filter(samples)
    assert removed.size > 0
    reduction = 1.0 - kept.mean() / samples.mean()
    assert reduction >= 0.20


def test_error_stats_is_frozen():
    stats = summarize([1.0, 2.0])
    with pytest.raises(Exception):
        stats.mean = 0.0
    assert isinstance(stats, ErrorStats)
