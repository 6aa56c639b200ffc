"""Error statistics: one-sigma outlier filter, summary metrics, empirical CDF.

All samples are non-negative error magnitudes in meters.  Standard deviation
is the population (divide-by-n) convention throughout, which keeps
rmse^2 = mean^2 + std^2 an exact identity on every sample set.  The summary
works on plain floats, so a caller that only summarizes never loads numpy;
the filter loads it and returns arrays.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


class EmptyInput(ValueError):
    """Summary statistics are undefined on an empty sample set."""


class InvalidProbability(ValueError):
    """Quantile probability must lie in (0, 1]."""


@dataclass(frozen=True)
class ErrorStats:
    """Summary of one error-sample set.

    ``cdf`` lists (error, probability) steps of the empirical CDF, sorted and
    ending at probability 1.
    """

    mean: float
    rmse: float
    std: float
    count: int
    cdf: Tuple[Tuple[float, float], ...]


def _as_samples(samples: Sequence[float]) -> List[float]:
    try:
        values = list(map(float, samples))
    except TypeError as exc:
        raise ValueError(f"samples must be a flat sequence of numbers: {exc}") from exc
    if not all(0.0 <= v < math.inf for v in values):
        raise ValueError("samples must be finite and non-negative")
    return values


def one_sigma_filter(samples: Sequence[float]) -> "Tuple[np.ndarray, np.ndarray]":
    """Single-pass outlier removal: keep samples within one std of the mean.

    Returns (kept, removed) arrays in input order.  The pass is not iterated,
    and the sample closest to the mean always survives (a lone one has
    deviation 0), so the result is never empty.  An empty set raises EmptyInput.
    """
    import numpy as np

    arr = np.array(_as_samples(samples))
    if arr.size == 0:
        raise EmptyInput("no samples to filter")
    mean = float(arr.mean())
    std = float(arr.std())
    keep = np.abs(arr - mean) <= std
    return arr[keep], arr[~keep]


def summarize(samples: Sequence[float]) -> ErrorStats:
    """Mean, RMSE, population std, and empirical CDF of error samples."""
    values = _as_samples(samples)
    if not values:
        raise EmptyInput("no samples to summarize")
    n = len(values)
    mean = math.fsum(v / n for v in values)  # cannot overflow, unlike the sum
    return ErrorStats(mean=mean,
                      rmse=math.hypot(*values) / math.sqrt(n),
                      std=math.hypot(*[v - mean for v in values]) / math.sqrt(n),
                      count=n,
                      cdf=tuple(zip(sorted(values), [i / n for i in range(1, n + 1)])))


def cdf_quantile(stats: ErrorStats, probability: float) -> float:
    """Smallest error whose empirical CDF reaches ``probability``."""
    if not 0.0 < probability <= 1.0:
        raise InvalidProbability(f"probability must be in (0, 1], got {probability}")
    if stats.count == 0:
        raise EmptyInput("stats cover no samples")
    # tiny slack so p * n landing on an integer is not pushed up by float fuzz
    idx = math.ceil(probability * stats.count - 1e-9) - 1
    idx = min(max(idx, 0), stats.count - 1)
    return stats.cdf[idx][0]
