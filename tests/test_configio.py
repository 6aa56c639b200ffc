import re
import textwrap

import pytest

from dualsniff.configio import (CaptureSpec, ConfigError, load_setup,
                                parse_setup)
from dualsniff.geometry import Position
from dualsniff.timing import ta_seconds

MINIMAL = {
    "scenario": {
        "enb": [0.0, 0.0],
        "sniffers": [[100.0, 0.0], [0.0, 100.0]],
    },
}


def _full_doc():
    return {
        "scenario": {
            "enb": [0.0, 0.0],
            "sniffers": [[109.7, 0.0], [0.0, 139.5]],
            "ue_truth": [80.0, 82.2],
            "ta_index": 1,
        },
        "clock": {
            "ue_hw_error": 3e-7,
            "sniffer_noise_sigma": 2e-8,
            "rng_seed": 42,
        },
        "capture": {
            "subframes": 40,
            "rnti": 7423,
            "snr_db": 18.0,
            "noise_power_dbm": -92.0,
            "start_frame": 1020,
        },
        "relocations": [
            {"sniffer": 2, "at_subframe": 20, "to": [154.0, 40.0]},
        ],
    }


def test_minimal_document_defaults():
    setup = parse_setup(MINIMAL)
    assert setup.scenario.ue_truth is None
    assert setup.scenario.ta_index == 0
    assert setup.clock.sniffer_noise_sigma == 0.0
    assert setup.capture == CaptureSpec()
    assert setup.relocations == ()


def test_full_document():
    setup = parse_setup(_full_doc())
    assert setup.scenario.ue_truth == Position(80.0, 82.2)
    assert setup.clock.ta_value == ta_seconds(1)
    assert setup.clock.rng_seed == 42
    assert setup.capture.rnti == 7423
    assert setup.capture.start_frame == 1020
    (move,) = setup.relocations
    # YAML numbering is 1-based, internal sniffer indices are 0-based
    assert move.sniffer == 1
    assert move.at_subframe == 20
    assert move.to == Position(154.0, 40.0)


def test_unknown_top_level_key():
    doc = dict(_full_doc(), extra={"x": 1})
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_setup(doc)


def test_missing_scenario_section():
    with pytest.raises(ConfigError, match="scenario"):
        parse_setup({"clock": {}})
    with pytest.raises(ConfigError, match="top level"):
        parse_setup(["not", "a", "mapping"])


def test_bad_positions():
    doc = _full_doc()
    doc["scenario"]["enb"] = [1.0]
    with pytest.raises(ConfigError, match=r"scenario.enb"):
        parse_setup(doc)
    doc = _full_doc()
    doc["scenario"]["sniffers"] = [[0.0, 1.0]]
    with pytest.raises(ConfigError, match="at least two"):
        parse_setup(doc)
    doc = _full_doc()
    doc["scenario"]["sniffers"][0] = ["a", "b"]
    with pytest.raises(ConfigError, match=r"sniffers\[0\]"):
        parse_setup(doc)


def test_truth_outside_band_is_config_error():
    doc = _full_doc()
    doc["scenario"]["ue_truth"] = [10.0, 10.0]  # band 1 starts at 78.12 m
    with pytest.raises(ConfigError, match="scenario"):
        parse_setup(doc)


def test_capture_validation():
    doc = _full_doc()
    doc["capture"]["subframes"] = 0
    with pytest.raises(ConfigError, match="subframes"):
        parse_setup(doc)
    # integer fields take whole numbers only, never truncating a fraction
    for section, key in (("capture", "subframes"), ("capture", "rnti"),
                         ("capture", "start_frame"), ("clock", "rng_seed"),
                         ("scenario", "ta_index")):
        doc = _full_doc()
        doc[section][key] = 17001.9
        with pytest.raises(ConfigError, match=f"{section}: {key} must be an integer, got 17001.9"):
            parse_setup(doc)
        doc[section][key] = float(_full_doc()[section][key])
        assert getattr(getattr(parse_setup(doc), section), key) == _full_doc()[section][key]
    # the dataclass itself holds the rule, not only the parser
    for fields in (dict(rnti=17001.9), dict(start_frame=2.5), dict(subframes=float("inf")),
                   dict(rnti=17001.9, start_frame=2.5)):
        with pytest.raises(ValueError, match="must be (an integer|finite)"):
            CaptureSpec(**fields)
    assert CaptureSpec(rnti=7423.0, start_frame=2.0) == CaptureSpec(rnti=7423, start_frame=2)


@pytest.mark.parametrize("section, key, value", [
    ("clock", "ue_hw_error", float("nan")),
    ("clock", "ue_hw_error", float("inf")),
    ("clock", "sniffer_noise_sigma", float("nan")),
    ("clock", "sniffer_noise_sigma", float("inf")),
    ("capture", "snr_db", float("nan")),
    ("capture", "snr_db", float("-inf")),
    ("capture", "noise_power_dbm", float("nan")),
    ("capture", "noise_power_dbm", float("inf")),
    ("capture", "subframes", float("inf")),
    ("capture", "rnti", float("inf")),
    ("capture", "start_frame", float("-inf")),
    ("clock", "rng_seed", float("inf")),
    ("scenario", "ta_index", float("inf")),
    ("capture", "rnti", float("nan")),
])
def test_non_finite_values_are_config_errors(section, key, value):
    doc = _full_doc()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}: {key} must be finite"):
        parse_setup(doc)


def test_relocation_validation():
    for patch, pattern in (
        ({"sniffer": 3}, r"sniffer must be 1\.\.2"),
        ({"sniffer": 0}, r"sniffer must be 1\.\.2"),
        ({"at_subframe": 0}, "at_subframe"),
        ({"at_subframe": 40}, "at_subframe"),
        ({"to": [1.0]}, "to"),
    ):
        doc = _full_doc()
        doc["relocations"][0].update(patch)
        with pytest.raises(ConfigError, match=pattern):
            parse_setup(doc)
    doc = _full_doc()
    doc["relocations"] = [{"sniffer": 2}]
    with pytest.raises(ConfigError, match="needs keys"):
        parse_setup(doc)
    doc = _full_doc()
    doc["relocations"].append({"sniffer": 2, "at_subframe": 20, "to": [60.0, 170.0]})
    with pytest.raises(ConfigError, match="relocations: sniffer 2 relocated twice at subframe 20"):
        parse_setup(doc)


def test_relocation_numbers_are_integer_fields():
    doc = _full_doc()
    doc["relocations"][0].update(sniffer=2.0, at_subframe=15.0)
    (move,) = parse_setup(doc).relocations
    assert (move.sniffer, move.at_subframe) == (1, 15)
    for key, value in (("at_subframe", 15.5), ("sniffer", 2.5), ("at_subframe", float("inf"))):
        doc = _full_doc()
        doc["relocations"][0][key] = value
        with pytest.raises(ConfigError, match=rf"relocations\[0\]: {key} must be"):
            parse_setup(doc)


@pytest.mark.parametrize("value", [0, 0.0, "", {}, "none", {"sniffer": 2}],
                         ids=repr)
def test_relocations_that_are_not_a_list_are_config_errors(value):
    with pytest.raises(ConfigError, match="^relocations must be a list$"):
        parse_setup(dict(_full_doc(), relocations=value))


@pytest.mark.parametrize("section, key", [
    ("scenario", "speed_of_light"), ("clock", "sniffer_noise"), ("clock", "ta_value"),
    ("clock", "sniffer_offsets"), ("capture", "subframe"), ("relocations", "at"),
])
def test_undocumented_keys_are_config_errors(section, key):
    doc = _full_doc()
    entry = doc["relocations"][0] if section == "relocations" else doc[section]
    entry[key] = 1.0
    where = "relocations[0]" if section == "relocations" else section
    with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: unknown keys \['{key}'\]"):
        parse_setup(doc)


def test_load_setup_roundtrip(tmp_path):
    text = textwrap.dedent("""\
        scenario:
          enb: [0.0, 0.0]
          sniffers:
            - [109.7, 0.0]
            - [0.0, 139.5]
          ue_truth: [80.0, 82.2]
          ta_index: 1
        capture:
          subframes: 40
          rnti: 7423
        """)
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    setup = load_setup(str(path))
    assert setup.scenario.ue_truth == Position(80.0, 82.2)
    assert setup.capture.subframes == 40


def test_load_setup_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_setup(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [unclosed\n")
    with pytest.raises(ConfigError):
        load_setup(str(bad))
    # parse errors carry the file path for context
    incomplete = tmp_path / "incomplete.yaml"
    incomplete.write_text("scenario:\n  enb: [0.0, 0.0]\n")
    with pytest.raises(ConfigError, match="incomplete.yaml"):
        load_setup(str(incomplete))


@pytest.mark.parametrize("old, new, where", [
    ("ta_index: 1", "ta_index: yes", "scenario.ta_index"),
    ("subframes: 40", "subframes: on", "capture.subframes"),
    ("rnti: 7423", "rnti: true", "capture.rnti"),
    ("[0.0, 139.5]", "[off, 139.5]", "scenario.sniffers[1][0]"),
    ("sniffer: 2", "sniffer: true", "relocations[0].sniffer"),
], ids=["ta_index", "subframes", "rnti", "sniffer_x", "relocated_sniffer"])
def test_yaml_booleans_are_config_errors(tmp_path, old, new, where):
    # YAML 1.1 reads these spellings as booleans, which would pass as 1 and 0
    text = textwrap.dedent("""\
        scenario:
          enb: [0.0, 0.0]
          sniffers:
            - [109.7, 0.0]
            - [0.0, 139.5]
          ta_index: 1
        capture:
          subframes: 40
          rnti: 7423
        relocations:
          - {sniffer: 2, at_subframe: 20, to: [154.0, 40.0]}
        """)
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    load_setup(str(path))
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ConfigError, match=rf": {re.escape(where)} is the boolean (True|False);"):
        load_setup(str(path))
