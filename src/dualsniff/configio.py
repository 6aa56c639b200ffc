"""YAML experiment configuration: scenario geometry, clocks, capture plan.

Schema (all lengths in meters, times in seconds)::

    scenario:
      enb: [0.0, 0.0]
      sniffers:
        - [100.0, 0.0]
        - [0.0, 100.0]
      ue_truth: [40.0, 30.0]        # optional; required to simulate
      ta_index: 0
    clock:                          # optional block, defaults shown
      sniffer_offsets: [0.0, 0.0]
      ue_hw_error: 0.0
      sniffer_noise_sigma: 0.0
      rng_seed: 0
    capture:                        # optional block
      subframes: 1000
      rnti: 17001
      snr_db: 20.0
      noise_power_dbm: -95.0
      start_frame: 0
    relocations:                    # optional; sniffer numbers are 1-based
      - {sniffer: 2, at_subframe: 500, to: [100.0, 100.0]}
"""

import math
from dataclasses import dataclass
from typing import Tuple

import yaml

from .geometry import Position, Scenario
from .snifferlog import MAX_RNTI
from .timing import ClockConfig, Relocation


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class CaptureSpec:
    """How long to capture and what to stamp on the records."""

    subframes: int = 1000
    rnti: int = 17001
    snr_db: float = 20.0
    noise_power_dbm: float = -95.0
    start_frame: int = 0

    def __post_init__(self):
        if self.subframes < 1:
            raise ConfigError(f"subframes must be >= 1, got {self.subframes}")
        if not 0 <= self.rnti <= MAX_RNTI:
            raise ConfigError(f"rnti must be in [0, {MAX_RNTI}], got {self.rnti}")
        for name in ("snr_db", "noise_power_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything a simulation or locate run needs, loaded from one file."""

    scenario: Scenario
    clock: ClockConfig
    capture: CaptureSpec
    relocations: Tuple[Relocation, ...]


def _position(raw, where: str) -> Position:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in raw)):
        raise ConfigError(f"{where} must be a [x, y] pair of finite numbers, got {raw!r}")
    return Position(float(raw[0]), float(raw[1]))


def _integer(section: dict, key: str, default: int) -> int:
    """``section[key]`` as an int; a non-finite or fractional number is a ConfigError."""
    raw = section.get(key, default)
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ConfigError(f"{key} must be finite, got {raw}")
    if isinstance(raw, float) and not raw.is_integer():
        raise ConfigError(f"{key} must be an integer, got {raw}")
    return int(raw)


def _section(doc, name: str, required: bool) -> dict:
    raw = doc.get(name)
    if raw is None:
        if required:
            raise ConfigError(f"missing required section {name!r}")
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping, got {type(raw).__name__}")
    return raw


def parse_setup(doc) -> ExperimentSetup:
    """Build an ExperimentSetup from a parsed YAML document."""
    if not isinstance(doc, dict):
        raise ConfigError(f"top level must be a mapping, got {type(doc).__name__}")
    known = {"scenario", "clock", "capture", "relocations"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    sc = _section(doc, "scenario", required=True)
    if "enb" not in sc:
        raise ConfigError("scenario.enb is required")
    if "sniffers" not in sc or not isinstance(sc["sniffers"], list) or len(sc["sniffers"]) < 2:
        raise ConfigError("scenario.sniffers must list at least two [x, y] positions")
    enb = _position(sc["enb"], "scenario.enb")
    sniffers = tuple(_position(p, f"scenario.sniffers[{i}]")
                     for i, p in enumerate(sc["sniffers"]))
    ue_truth = _position(sc["ue_truth"], "scenario.ue_truth") if sc.get("ue_truth") is not None else None
    try:
        scenario = Scenario(enb=enb, sniffers=sniffers, ue_truth=ue_truth,
                            ta_index=_integer(sc, "ta_index", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    ck = _section(doc, "clock", required=False)
    offsets = ck.get("sniffer_offsets", [0.0] * len(sniffers))
    try:
        clock = ClockConfig.for_scenario(
            scenario, sniffer_offsets=offsets,
            ue_hw_error=float(ck.get("ue_hw_error", 0.0)),
            sniffer_noise_sigma=float(ck.get("sniffer_noise_sigma", 0.0)),
            rng_seed=_integer(ck, "rng_seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"clock: {exc}") from exc

    cp = _section(doc, "capture", required=False)
    try:
        capture = CaptureSpec(
            subframes=_integer(cp, "subframes", 1000),
            rnti=_integer(cp, "rnti", 17001),
            snr_db=float(cp.get("snr_db", 20.0)),
            noise_power_dbm=float(cp.get("noise_power_dbm", -95.0)),
            start_frame=_integer(cp, "start_frame", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"capture: {exc}") from exc

    raw_moves = doc.get("relocations") or []
    if not isinstance(raw_moves, list):
        raise ConfigError("relocations must be a list")
    moves = []
    for i, m in enumerate(raw_moves):
        if not isinstance(m, dict) or not {"sniffer", "at_subframe", "to"} <= set(m):
            raise ConfigError(
                f"relocations[{i}] needs keys sniffer, at_subframe, to")
        n = m["sniffer"]
        if not isinstance(n, int) or not 1 <= n <= len(sniffers):
            raise ConfigError(
                f"relocations[{i}].sniffer must be 1..{len(sniffers)}, got {n!r}")
        at = m["at_subframe"]
        if not isinstance(at, int) or not 0 < at < capture.subframes:
            raise ConfigError(
                f"relocations[{i}].at_subframe must be inside the capture "
                f"(1..{capture.subframes - 1}), got {at!r}")
        moves.append(Relocation(sniffer=n - 1, at_subframe=at,
                                to=_position(m["to"], f"relocations[{i}].to")))
    return ExperimentSetup(scenario=scenario, clock=clock, capture=capture,
                           relocations=tuple(moves))


def load_setup(path: str) -> ExperimentSetup:
    """Read and validate one experiment YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    try:
        return parse_setup(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
