"""Forward model of base-station, device, and sniffer clocks.

The base station transmits a downlink subframe every millisecond.  The device
answers early by the timing-advance value; each sniffer timestamps both frames
against its own (offset) clock.  The observable is the downlink-uplink delta
per sniffer, which is independent of the subframe index and of the sniffer's
own clock offset.  ``simulate_capture`` batches this into sniffer log records
and is the ground-truth generator for both estimators.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import SPEED_OF_LIGHT, TA_BAND_M, TA_STEP_S, Position, Scenario, distance
from .snifferlog import FRAME_WRAP, TimingRecord

#: Subframes per radio frame.
SUBFRAMES_PER_FRAME = 10


@dataclass(frozen=True)
class ClockConfig:
    """Clock and error parameters for one simulated capture.

    Attributes:
        sniffer_offsets: Per-sniffer clock offset w.r.t. the base station, s.
        ue_hw_error: Device hardware timing error, s.
        sniffer_noise_sigma: Std. dev. of per-record sniffer measurement noise, s.
        ta_value: Timing-advance applied by the device, s.
        rng_seed: Seed for the noise generator.
    """

    sniffer_offsets: Tuple[float, ...]
    ue_hw_error: float = 0.0
    sniffer_noise_sigma: float = 0.0
    ta_value: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sniffer_offsets", tuple(self.sniffer_offsets))
        if self.sniffer_noise_sigma < 0:
            raise ValueError(f"sniffer_noise_sigma must be >= 0, got {self.sniffer_noise_sigma}")

    @classmethod
    def for_scenario(cls, scenario: Scenario, *, sniffer_offsets: Optional[Sequence[float]] = None,
                     ue_hw_error: float = 0.0, sniffer_noise_sigma: float = 0.0,
                     rng_seed: int = 0) -> "ClockConfig":
        """Build a config whose timing advance matches the scenario's TA index."""
        offsets = tuple(sniffer_offsets) if sniffer_offsets is not None \
            else (0.0,) * len(scenario.sniffers)
        if len(offsets) != len(scenario.sniffers):
            raise ValueError(
                f"{len(offsets)} sniffer offsets for {len(scenario.sniffers)} sniffers"
            )
        return cls(sniffer_offsets=offsets, ue_hw_error=ue_hw_error,
                   sniffer_noise_sigma=sniffer_noise_sigma,
                   ta_value=ta_seconds(scenario.ta_index), rng_seed=rng_seed)


@dataclass(frozen=True)
class SubframeSchedule:
    """Downlink subframe timeline: ``count`` subframes, one every millisecond."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"need at least one subframe, got {self.count}")


@dataclass(frozen=True)
class Relocation:
    """Move one sniffer to a new position at a subframe boundary.

    Records with subframe counter >= ``at_subframe`` use the new position.
    """

    sniffer: int
    at_subframe: int
    to: Position


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


def sigma_for_snr(snr_db: float, sigma0: float) -> float:
    """Map an SNR to a timing-noise sigma: sigma0 * 10^(-SNR/20).

    The scale ``sigma0`` is a calibration knob; only the monotone decrease
    with SNR is relied on.
    """
    return sigma0 * 10.0 ** (-snr_db / 20.0)


def ue_tx_time(t_n: float, d_ub: float, cfg: ClockConfig) -> float:
    """Uplink transmit time for the downlink subframe sent at ``t_n``."""
    if d_ub < 0:
        raise ValueError("d_ub must be >= 0")
    return t_n + d_ub / SPEED_OF_LIGHT - cfg.ta_value + cfg.ue_hw_error


def dl_arrival(t_n: float, d_enb_k: float, offset_k: float) -> float:
    """Downlink arrival time at a sniffer, on that sniffer's clock."""
    if d_enb_k < 0:
        raise ValueError("d_enb_k must be >= 0")
    return t_n + d_enb_k / SPEED_OF_LIGHT + offset_k


def ul_arrival(t_n: float, d_ub: float, d_ue_k: float, offset_k: float,
               cfg: ClockConfig) -> float:
    """Uplink arrival time at a sniffer, on that sniffer's clock."""
    if d_ue_k < 0:
        raise ValueError("d_ue_k must be >= 0")
    return ue_tx_time(t_n, d_ub, cfg) + d_ue_k / SPEED_OF_LIGHT + offset_k


def subframe_delta(scenario: Scenario, k: int, cfg: ClockConfig,
                   noise_sample: float = 0.0) -> float:
    """Downlink-uplink timing delta measured by sniffer ``k``, seconds.

    Equals ul_arrival - dl_arrival + noise for the same subframe; the subframe
    time and the sniffer's clock offset cancel, leaving pure geometry plus the
    timing-advance and device/sniffer error terms.  Sign convention: the delta
    grows when the uplink path lengthens, so range-sum recovery is
    d_ub + d_ue_k = d_enb_k + c * (delta + ta_value) exactly when noise and
    the device error are zero.
    """
    if scenario.ue_truth is None:
        raise ValueError("subframe_delta needs a scenario with ue_truth set")
    sniffer = scenario.sniffers[k]
    return _delta_at(scenario.enb, scenario.ue_truth, sniffer,
                     scenario.speed_of_light, cfg, noise_sample)


def _delta_at(enb: Position, ue: Position, sniffer: Position, c: float,
              cfg: ClockConfig, noise_sample: float) -> float:
    d_enb_k = distance(enb, sniffer)
    d_ub = distance(enb, ue)
    d_ue_k = distance(ue, sniffer)
    return ((d_ub + d_ue_k - d_enb_k) / c
            - cfg.ta_value + cfg.ue_hw_error + noise_sample)


def _cqi_for_snr(snr_db: float) -> int:
    # rough CQI table fit: -6 dB -> 0, 20 dB -> 15
    return int(min(15, max(0, round((snr_db + 6.0) * 15.0 / 26.0))))


def simulate_capture(scenario: Scenario, cfg: ClockConfig, schedule: SubframeSchedule,
                     relocations: Sequence[Relocation] = (), *,
                     rnti: int = 17001, snr_db: float = 20.0,
                     cqi: Optional[int] = None, noise_power_dbm: float = -95.0,
                     start_frame: int = 0) -> List[TimingRecord]:
    """Simulate one capture: one log record per (subframe, sniffer).

    Per-record measurement noise is i.i.d. Gaussian with
    ``cfg.sniffer_noise_sigma``; the whole noise block is drawn up front from
    ``cfg.rng_seed`` so a record's draw depends only on (seed, subframe,
    sniffer), never on evaluation order.  A relocation swaps a sniffer's
    position from its stated subframe onward, within the same clock epoch.
    """
    if scenario.ue_truth is None:
        raise ValueError("simulate_capture needs a scenario with ue_truth set")
    n_sniffers = len(scenario.sniffers)
    if len(cfg.sniffer_offsets) != n_sniffers:
        raise ValueError(
            f"{len(cfg.sniffer_offsets)} sniffer offsets for {n_sniffers} sniffers"
        )
    for r in relocations:
        if not 0 <= r.sniffer < n_sniffers:
            raise ValueError(f"relocation references unknown sniffer index {r.sniffer}")
        if not 0 < r.at_subframe < schedule.count:
            raise ValueError(
                f"relocation subframe {r.at_subframe} outside capture of "
                f"{schedule.count} subframes"
            )

    rng = np.random.default_rng(cfg.rng_seed)
    noise = rng.normal(0.0, cfg.sniffer_noise_sigma, size=(schedule.count, n_sniffers))
    moves = sorted(relocations, key=lambda r: r.at_subframe)
    positions = list(scenario.sniffers)
    record_cqi = cqi if cqi is not None else _cqi_for_snr(snr_db)

    records: List[TimingRecord] = []
    next_move = 0
    for n in range(schedule.count):
        while next_move < len(moves) and moves[next_move].at_subframe == n:
            positions[moves[next_move].sniffer] = moves[next_move].to
            next_move += 1
        frame = (start_frame + n // SUBFRAMES_PER_FRAME) % FRAME_WRAP
        subframe = n % SUBFRAMES_PER_FRAME
        for k in range(n_sniffers):
            delta = _delta_at(scenario.enb, scenario.ue_truth, positions[k],
                              scenario.speed_of_light, cfg, noise[n, k])
            records.append(TimingRecord(
                frame=frame, subframe=subframe, rnti=rnti,
                dl_ul_delta=delta * 1e6, snr=snr_db, cqi=record_cqi,
                noise_power=noise_power_dbm, sniffer_id=f"sn{k + 1}"))
    return records
