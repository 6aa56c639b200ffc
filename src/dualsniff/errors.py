"""Exception types shared by the localization solvers and the configuration reader."""


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


class LocalizationError(Exception):
    """Base class for solver failures."""


class InfeasibleObservation(LocalizationError):
    """Measurement is physically impossible for the stated geometry.

    Raised for range-sums below the focal distance (no ellipse exists) and
    for range differences far beyond the sniffer baseline.
    """


class NoIntersection(LocalizationError):
    """The two range-sum ellipses do not cross, not even as a tangency."""


class AmbiguousSolution(LocalizationError):
    """Two well-separated candidates both pass the timing-advance band check.

    The solver cannot pick one on geometric grounds alone; all candidates are
    attached so the caller can disambiguate with side information.
    """

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = list(candidates)


class MixedReference(LocalizationError):
    """Range-difference pairs do not share a common reference sniffer."""


class NoRealRoot(LocalizationError):
    """The reference-range quadratic has no usable non-negative real root."""


class DegenerateGeometry(LocalizationError):
    """Sniffer geometry too close to collinear for a stable solve."""


class RankDeficient(LocalizationError):
    """Normal-equations system is rank deficient (needs at least 3 independent rows)."""
