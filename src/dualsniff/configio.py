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

Any other key is an error, and so is a boolean anywhere: no field takes
one.  ``parse_setup`` checks shape, keys and booleans only: the dataclasses,
``CaptureSpec`` among them, live in ``timing`` and ``geometry`` and hold the
defaults and value rules; ``timing.segments`` holds the plan's.
"""

from dataclasses import dataclass
from typing import List, Tuple

import yaml

from .errors import ConfigError
from .geometry import Position, Scenario, whole
from .timing import CaptureSpec, ClockConfig, Relocation, segments

#: The documented keys of each section, and of each relocation.
KEYS = {"scenario": {"enb", "sniffers", "ue_truth", "ta_index"},
        "clock": {"ue_hw_error", "sniffer_noise_sigma", "rng_seed"},
        "capture": {"subframes", "rnti", "snr_db", "noise_power_dbm", "start_frame"},
        "relocations": {"sniffer", "at_subframe", "to"}}


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything a simulation or locate run needs; construction checks the plan."""

    scenario: Scenario
    clock: ClockConfig
    capture: CaptureSpec
    relocations: Tuple[Relocation, ...]

    def __post_init__(self):
        self.segments()

    def segments(self) -> List[Tuple[int, int, Scenario]]:
        """The capture's stretches between relocations; see ``timing.segments``."""
        return segments(self.scenario, self.relocations, self.capture.subframes)


def _position(raw, where: str) -> Position:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, (int, float)) for v in raw)):
        raise ConfigError(f"{where} must be a [x, y] pair of numbers, got {raw!r}")
    return _build(where, lambda: Position(float(raw[0]), float(raw[1])))


def _mapping(raw, where: str, known) -> dict:
    """``raw`` as a mapping with no key outside ``known``; None stands for an empty one."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(map(str, unknown))}")
    return raw


def _build(where: str, make, *args, **fields):
    """``make(*args, **fields)``, reporting a bad value as a ConfigError at ``where``;
    a number too large for a float is one."""
    try:
        return make(*args, **fields)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _no_booleans(node, where: str) -> None:
    """Reject a boolean anywhere in ``node``, which would pass as 1 or 0, naming its key path."""
    if isinstance(node, bool):
        raise ConfigError(f"{where} is the boolean {node!r}; no field takes one "
                          "(YAML reads yes, no, on and off as booleans)")
    if isinstance(node, dict):
        for key, value in node.items():
            _no_booleans(value, f"{where}.{key}" if where else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _no_booleans(value, f"{where}[{i}]")


def parse_setup(doc) -> ExperimentSetup:
    """Build an ExperimentSetup from a parsed YAML document."""
    if not isinstance(doc, dict):
        raise ConfigError(f"top level must be a mapping, got {type(doc).__name__}")
    _no_booleans(doc, "")
    unknown = set(doc) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(map(str, unknown))}")

    sc = _mapping(doc.get("scenario"), "scenario", KEYS["scenario"])
    if "enb" not in sc:
        raise ConfigError("scenario.enb is required")
    if "sniffers" not in sc or not isinstance(sc["sniffers"], list) or len(sc["sniffers"]) < 2:
        raise ConfigError("scenario.sniffers must list at least two [x, y] positions")
    fields = dict(sc, enb=_position(sc["enb"], "scenario.enb"),
                  sniffers=tuple(_position(p, f"scenario.sniffers[{i}]")
                                 for i, p in enumerate(sc["sniffers"])))
    if sc.get("ue_truth") is not None:
        fields["ue_truth"] = _position(sc["ue_truth"], "scenario.ue_truth")
    scenario = _build("scenario", Scenario, **fields)
    clock = _build("clock", ClockConfig.for_scenario, scenario,
                   **_mapping(doc.get("clock"), "clock", KEYS["clock"]))
    capture = _build("capture", CaptureSpec,
                     **_mapping(doc.get("capture"), "capture", KEYS["capture"]))

    raw_moves = [] if doc.get("relocations") is None else doc["relocations"]
    if not isinstance(raw_moves, list):
        raise ConfigError("relocations must be a list")
    moves = []
    for i, m in enumerate(raw_moves):
        where = f"relocations[{i}]"
        if set(_mapping(m, where, KEYS["relocations"])) != KEYS["relocations"]:
            raise ConfigError(f"{where} needs keys sniffer, at_subframe, to")
        number = _build(where, whole, "sniffer", m["sniffer"])
        moves.append(_build(where, Relocation, number - 1, m["at_subframe"],
                            _position(m["to"], f"{where}.to")))
    return _build("relocations", ExperimentSetup, scenario, clock, capture, tuple(moves))


def load_setup(path: str) -> ExperimentSetup:
    """Read and validate one experiment YAML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    try:
        return parse_setup(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
