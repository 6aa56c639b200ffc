"""Forward model of base-station, device, and sniffer clocks.

The base station transmits a downlink subframe every millisecond.  The device
answers early by the timing-advance value; each sniffer timestamps both frames
against its own clock.  The observable is the downlink-uplink delta per
sniffer, which is independent of the subframe index and cancels the sniffer's
own clock offset, so ``ClockConfig`` has no offset parameter.
``simulate_capture`` batches this into arrays of sniffer log entries and is
the ground-truth generator for both estimators.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .geometry import SPEED_OF_LIGHT, TA_BAND_M, TA_STEP_S, Position, Scenario, distance, whole
from .snifferlog import ENTRY, FRAME_WRAP, MAX_RNTI

#: Subframes per radio frame.
SUBFRAMES_PER_FRAME = 10

#: Longest capture, subframes (1000 s): refused before anything is allocated.
MAX_SUBFRAMES = 1_000_000


@dataclass(frozen=True)
class ClockConfig:
    """Clock and error parameters for one simulated capture.

    Attributes:
        ue_hw_error: Device hardware timing error, s.
        sniffer_noise_sigma: Std. dev. of per-record sniffer measurement noise, s.
        ta_value: Timing-advance applied by the device, s.
        rng_seed: Seed for the noise generator.
    """

    ue_hw_error: float = 0.0
    sniffer_noise_sigma: float = 0.0
    ta_value: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("ue_hw_error", "sniffer_noise_sigma", "ta_value"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "rng_seed", whole("rng_seed", self.rng_seed))
        for name in ("sniffer_noise_sigma", "rng_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def for_scenario(cls, scenario: Scenario, **fields) -> "ClockConfig":
        """The scenario's timing advance; ``fields`` set the rest."""
        return cls(ta_value=ta_seconds(scenario.ta_index), **fields)


@dataclass(frozen=True)
class CaptureSpec:
    """How long to capture and what to stamp on the records."""

    subframes: int = 1000
    rnti: int = 17001
    snr_db: float = 20.0
    noise_power_dbm: float = -95.0
    start_frame: int = 0

    def __post_init__(self):
        for name in ("subframes", "rnti", "start_frame"):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
        if not 1 <= self.subframes <= MAX_SUBFRAMES:
            raise ValueError(f"subframes must be >= 1 and <= {MAX_SUBFRAMES}, got {self.subframes}")
        if not 0 <= self.rnti <= MAX_RNTI:
            raise ValueError(f"rnti must be in [0, {MAX_RNTI}], got {self.rnti}")
        for name in ("snr_db", "noise_power_dbm"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class Relocation:
    """Move one sniffer to a new position at a subframe boundary.

    Records with subframe counter >= ``at_subframe`` use the new position.
    """

    sniffer: int
    at_subframe: int
    to: Position

    def __post_init__(self):
        for name in ("sniffer", "at_subframe"):
            object.__setattr__(self, name, whole(name, getattr(self, name)))


def segments(scenario: Scenario, relocations: Sequence[Relocation],
             subframes: int) -> List[Tuple[int, int, Scenario]]:
    """``(start, stop, layout)``: subframes start..stop-1 see the sniffers of ``layout``,
    the scenario with the sniffers moved as the relocations say.

    Raises ValueError for fewer than one subframe, for a relocation of an
    unknown sniffer, outside (0, subframes), or of a sniffer already moved at
    that subframe, and for a layout that ``Scenario`` refuses, such as a
    sniffer moved onto the base station.  Messages number sniffers from 1.
    """
    sniffers = scenario.sniffers
    if subframes < 1:
        raise ValueError(f"need at least one subframe, got {subframes}")
    for i, r in enumerate(relocations):
        if not 0 <= r.sniffer < len(sniffers):
            raise ValueError(f"relocated sniffer must be 1..{len(sniffers)}, got {r.sniffer + 1}")
        if not 0 < r.at_subframe < subframes:
            raise ValueError(f"relocation at_subframe must be inside the capture "
                             f"(1..{subframes - 1}), got {r.at_subframe}")
        if any((q.sniffer, q.at_subframe) == (r.sniffer, r.at_subframe) for q in relocations[:i]):
            raise ValueError(f"sniffer {r.sniffer + 1} relocated twice at subframe {r.at_subframe}")
    cuts = sorted({r.at_subframe for r in relocations})
    positions, plan = list(sniffers), []
    for start, stop in zip([0] + cuts, cuts + [subframes]):
        for r in relocations:
            if r.at_subframe == start:
                positions[r.sniffer] = r.to
        plan.append((start, stop, replace(scenario, sniffers=tuple(positions))))
    return plan


def ta_seconds(ta_index: int) -> float:
    """Timing-advance value in seconds for a given TA index."""
    if ta_index < 0:
        raise ValueError(f"ta_index must be non-negative, got {ta_index}")
    return ta_index * TA_STEP_S


def quantize_ta(d_ub: float) -> Tuple[int, float]:
    """TA index and timing-advance seconds for a device at distance ``d_ub``.

    The index steps every ``TA_BAND_M`` meters (floor convention, so a distance
    exactly on a boundary lands in the upper band).
    """
    if d_ub < 0:
        raise ValueError(f"distance must be >= 0, got {d_ub}")
    index = int(math.floor(d_ub / TA_BAND_M))
    return index, index * TA_STEP_S


def subframe_delta(scenario: Scenario, k: int, cfg: ClockConfig) -> float:
    """Noiseless downlink-uplink timing delta measured by sniffer ``k``, seconds.

    The uplink minus the downlink arrival of one subframe on the sniffer's
    clock.  The device transmits d_ub / c after the subframe, early by the
    timing advance and late by its hardware error; the subframe time and the
    sniffer's clock offset cancel, leaving pure geometry plus the
    timing-advance and device-error terms.  Sign convention: the delta grows
    when the uplink path lengthens, so range-sum recovery is
    d_ub + d_ue_k = d_enb_k + c * (delta + ta_value) exactly when the device
    error is zero.  ``simulate_capture`` adds the sniffer noise.
    """
    if scenario.ue_truth is None:
        raise ValueError("a simulated delta needs a scenario with ue_truth set")
    enb, ue, sniffer = scenario.enb, scenario.ue_truth, scenario.sniffers[k]
    d_enb_k = distance(enb, sniffer)
    d_ub = distance(enb, ue)
    d_ue_k = distance(ue, sniffer)
    return (d_ub + d_ue_k - d_enb_k) / SPEED_OF_LIGHT - cfg.ta_value + cfg.ue_hw_error


def _cqi_for_snr(snr_db: float) -> int:
    # rough CQI table fit: -6 dB -> 0, 20 dB -> 15; clamped first, so no SNR overflows
    return round((min(max(snr_db, -6.0), 20.0) + 6.0) * 15.0 / 26.0)


@dataclass(frozen=True, eq=False)
class SimulatedCapture:
    """One device's simulated capture: entry (n, k) is subframe n at sniffer k.

    ``dl_ul_delta`` holds one row per subframe and one column per sniffer, in
    microseconds; every other field of an entry follows from ``capture``.
    ``len`` counts entries; ``sniffer_log`` gives one sniffer's as an ``ENTRY`` array.
    """

    capture: CaptureSpec
    dl_ul_delta: np.ndarray

    def __len__(self) -> int:
        return self.dl_ul_delta.size

    def sniffer_log(self, k: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Sniffer ``k``'s entries for subframes ``start`` to ``stop`` (exclusive)."""
        spec, n = self.capture, np.arange(self.capture.subframes)[start:stop]
        log = np.empty(len(n), ENTRY)
        log["frame"] = (spec.start_frame % FRAME_WRAP + n // SUBFRAMES_PER_FRAME) % FRAME_WRAP
        log["subframe"], log["dl_ul_delta"] = n % SUBFRAMES_PER_FRAME, self.dl_ul_delta[start:stop, k]
        log["rnti"], log["snr"], log["cqi"] = spec.rnti, spec.snr_db, _cqi_for_snr(spec.snr_db)
        log["noise_power"] = spec.noise_power_dbm
        return log


def simulate_capture(scenario: Scenario, cfg: ClockConfig, capture: CaptureSpec,
                     relocations: Sequence[Relocation] = ()) -> SimulatedCapture:
    """Simulate one capture: one log entry per (subframe, sniffer).

    ``capture`` gives the length, the first frame counter and the RNTI, SNR
    and noise power stamped on every entry; the result keeps it as is.
    Per-entry measurement noise is i.i.d. Gaussian with
    ``cfg.sniffer_noise_sigma``; the whole noise block is drawn up front from
    ``cfg.rng_seed`` so an entry's draw depends only on (seed, subframe,
    sniffer), never on evaluation order.  A relocation swaps a sniffer's
    position from its stated subframe onward, within the same clock epoch.
    Within a segment (see ``segments``) a sniffer's noiseless delta is one
    number, so each (segment, sniffer) costs one scalar delta plus a column
    of noise.  A clock so noisy that a delta overflows raises ConfigError.
    """
    n_sniffers = len(scenario.sniffers)
    plan = segments(scenario, relocations, capture.subframes)

    rng = np.random.default_rng(cfg.rng_seed)
    delta = rng.normal(0.0, cfg.sniffer_noise_sigma, size=(capture.subframes, n_sniffers))
    for start, stop, layout in plan:
        for k in range(n_sniffers):
            delta[start:stop, k] += subframe_delta(layout, k, cfg)
    with np.errstate(over="ignore"):
        delta *= 1e6
    if not np.isfinite(delta).all():
        raise ConfigError(f"simulated dl_ul_delta is not finite: clock.sniffer_noise_sigma "
                          f"{cfg.sniffer_noise_sigma!r} or another clock value is too large")
    return SimulatedCapture(capture, delta)
