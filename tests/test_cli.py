import hashlib
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

from dualsniff import cli
from dualsniff.cli import (ESTIMATES_HEADER, EXIT_CONFIG, EXIT_INPUT,
                           EXIT_NO_SAMPLES, EXIT_OK, main)
from dualsniff.snifferlog import MAX_RNTI, filter_rnti, parse_log

DATA = Path(__file__).resolve().parent / "data"

BASE_SCENARIO = """\
scenario:
  enb: [0.0, 0.0]
  sniffers:
    - [109.7, 0.0]
    - [0.0, 139.5]
  ue_truth: [80.0, 82.2]
  ta_index: 1
"""

TOA_CONFIG = BASE_SCENARIO + """\
capture:
  subframes: 30
  rnti: 7423
"""

TDOA_CONFIG = BASE_SCENARIO + """\
capture:
  subframes: 30
  rnti: 7423
relocations:
  - {sniffer: 2, at_subframe: 15, to: [154.0, 40.0]}
"""

NOISY_CLOCK = """\
clock:
  sniffer_noise_sigma: 2.0e-8
  rng_seed: 7
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _parse(path):
    """``parse_log`` of the log file at ``path``."""
    with path.open() as fh:
        return parse_log(fh)


def _simulate(tmp_path, config_text, out_name, extra=()):
    cfg = _write(tmp_path, "exp.yaml", config_text)
    out = tmp_path / out_name
    rc = main(["simulate", "--config", cfg, "--out-dir", str(out), *extra])
    assert rc == EXIT_OK
    return out


def test_simulate_writes_segment_files(tmp_path, capsys):
    out = _simulate(tmp_path, TOA_CONFIG, "run")
    files = sorted(p.name for p in out.glob("*.log"))
    assert files == ["sn1_cfg1.log", "sn2_cfg1.log"]
    records, diags = _parse(out / "sn1_cfg1.log")
    assert diags == []
    assert len(records) == 30
    assert "wrote" in capsys.readouterr().out


def test_simulate_relocation_splits_configs(tmp_path):
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    files = sorted(p.name for p in out.glob("*.log"))
    assert files == ["sn1_cfg1.log", "sn1_cfg2.log", "sn2_cfg1.log", "sn2_cfg2.log"]
    for name in files:
        records, _ = _parse(out / name)
        assert len(records) == 15
    # the moving sniffer reports a different delta after the move
    before, _ = _parse(out / "sn2_cfg1.log")
    after, _ = _parse(out / "sn2_cfg2.log")
    assert before["dl_ul_delta"][0] != after["dl_ul_delta"][0]
    # the reference sniffer does not
    ref1, _ = _parse(out / "sn1_cfg1.log")
    ref2, _ = _parse(out / "sn1_cfg2.log")
    assert ref1["dl_ul_delta"][0] == ref2["dl_ul_delta"][0]


def test_simulate_is_deterministic(tmp_path):
    config = TDOA_CONFIG + NOISY_CLOCK
    out_a = _simulate(tmp_path, config, "a")
    out_b = _simulate(tmp_path, config, "b")
    for name in ("sn1_cfg1.log", "sn2_cfg2.log"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    out_c = _simulate(tmp_path, config.replace("rng_seed: 7", "rng_seed: 8"), "c")
    assert (out_a / "sn1_cfg1.log").read_bytes() != (out_c / "sn1_cfg1.log").read_bytes()


def test_simulate_decoys_share_timeline(tmp_path):
    out = _simulate(tmp_path, TOA_CONFIG, "run", extra=["--decoys", "2"])
    records, _ = _parse(out / "sn1_cfg1.log")
    assert len(records) == 90
    assert len(filter_rnti(records, 7423)) == 30
    assert set(records["rnti"].tolist()) == {7423, 7424, 7425}
    # within a subframe, the target's entry and then the decoys' in RNTI order
    assert records["rnti"].tolist() == [7423, 7424, 7425] * 30


def test_simulate_subframes_override_conflicts_with_relocation(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.yaml", TDOA_CONFIG.replace("subframes: 30", "subframes: 10"))
    rc = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    assert "relocation" in capsys.readouterr().err


def test_simulate_rejects_negative_decoys(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG)
    out = tmp_path / "x"
    rc = main(["simulate", "--config", cfg, "--out-dir", str(out), "--decoys", "-3"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "--decoys" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "8"], ["--sigma", "0"], ["--snr", "10"],
                                  ["--subframes", "10"]])
def test_simulate_takes_experiment_values_from_the_config_only(tmp_path, capsys, flag):
    cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x"), *flag])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("section, line", [
    ("clock", "ue_hw_error: .nan"),
    ("clock", "sniffer_noise_sigma: .inf"),
    ("clock", "sniffer_noise_sigma: -1.0"),
    ("clock", "sniffer_noise_sigma: 1.0e303"),
    ("capture", "snr_db: .nan"),
    ("capture", "noise_power_dbm: .nan"),
    ("clock", "rng_seed: -1"),
    ("scenario", "enb: [.nan, 0.0]"),
    ("scenario", "enb: [.inf, 0.0]"),
    ("scenario", "sniffers: [[109.7, 0.0], [0.0, -.inf]]"),
    ("scenario", "ue_truth: [80.0, .nan]"),
    ("relocations", "to: [.inf, 40.0]"),
])
def test_simulate_rejects_non_finite_config_values(tmp_path, capsys, section, line):
    doc = yaml.safe_load(TDOA_CONFIG)
    entry = doc["relocations"][0] if section == "relocations" else doc.setdefault(section, {})
    entry.update(yaml.safe_load(line))
    cfg = _write(tmp_path, "exp.yaml", yaml.safe_dump(doc))
    out = tmp_path / "x"
    rc = main(["simulate", "--config", cfg, "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert line.split(":")[0] in err
    assert not out.exists()


#: An integer literal too large for a float.
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("section, line, where", [
    ("scenario", f"enb: [{HUGE}, 0.0]", "scenario.enb"),
    ("scenario", f"sniffers: [[109.7, 0.0], [0.0, {HUGE}]]", "scenario.sniffers[1]"),
    ("scenario", f"ue_truth: [80.0, -{HUGE}]", "scenario.ue_truth"),
    ("scenario", f"ta_index: {HUGE}", "scenario"),
    ("clock", f"ue_hw_error: {HUGE}", "clock"),
    ("clock", f"sniffer_noise_sigma: {HUGE}", "clock"),
    ("capture", f"snr_db: -{HUGE}", "capture"),
    ("capture", f"noise_power_dbm: {HUGE}", "capture"),
    ("relocations", f"to: [{HUGE}, 40.0]", "relocations[0].to"),
], ids=["enb", "sniffers", "ue_truth", "ta_index", "ue_hw_error", "sniffer_noise_sigma",
        "snr_db", "noise_power_dbm", "to"])
def test_integers_too_large_for_a_float_are_config_errors(tmp_path, capsys, section, line,
                                                          where):
    doc = yaml.safe_load(TDOA_CONFIG)
    entry = doc["relocations"][0] if section == "relocations" else doc.setdefault(section, {})
    entry.update(yaml.safe_load(line))
    cfg = _write(tmp_path, "exp.yaml", yaml.safe_dump(doc))
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {cfg}: {where}: ")
    assert not out.exists()


@pytest.mark.parametrize("subframes", [HUGE, str(10 ** 12)], ids=["400_digits", "1e12"])
def test_a_capture_too_long_to_simulate_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                          subframes):
    # refused by the config check: nothing the length of the capture is allocated
    def unreachable(*args):
        raise AssertionError("simulate_capture reached")

    monkeypatch.setattr(cli, "simulate_capture", unreachable)
    cfg = _write(tmp_path, "exp.yaml",
                 TOA_CONFIG.replace("subframes: 30", f"subframes: {subframes}"))
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: {cfg}: capture: subframes must be >= 1 and <= 1000000, got ")
    assert not out.exists()


@pytest.mark.parametrize("decoys", [33_333, 10 ** 9])
def test_decoys_past_the_capture_ceiling_are_a_config_error(tmp_path, capsys, monkeypatch,
                                                            decoys):
    # 1 + N captures of 30 subframes each, refused before any is simulated
    def unreachable(*args):
        raise AssertionError("simulate_capture reached")

    monkeypatch.setattr(cli, "simulate_capture", unreachable)
    cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG)
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out),
                 "--decoys", str(decoys)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: --decoys {decoys} takes the "
                                       f"captures past 1000000 subframes\n")
    assert not out.exists()


def test_decoys_up_to_the_capture_ceiling_are_simulated(tmp_path, monkeypatch):
    # 33 333 captures of 30 subframes fit under the ceiling: the check lets them through
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, "simulate_capture", reached)
    cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG)
    with pytest.raises(Reached):
        main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x"),
              "--decoys", "33332"])


def test_integer_config_fields_reject_infinity_and_fractions(tmp_path, capsys):
    for value, reason in ((".inf", "must be finite"), ("7423.5", "must be an integer")):
        cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG.replace("rnti: 7423", f"rnti: {value}"))
        out = tmp_path / "x"
        for command in (["simulate"], ["locate", "--scheme", "toa", "--rnti", "7423", "a", "b"]):
            assert main([*command, "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith(
                f"configuration error: {cfg}: capture: rnti {reason}")
        assert not out.exists()


@pytest.mark.parametrize("rnti, decoys, culprit", [
    (-1, 0, "rnti"),
    (MAX_RNTI + 1, 0, "rnti"),
    (MAX_RNTI, 1, "--decoys"),
    (MAX_RNTI - 2, 3, "--decoys"),
])
def test_simulate_rejects_rntis_outside_64_bits(tmp_path, capsys, rnti, decoys, culprit):
    cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG.replace("rnti: 7423", f"rnti: {rnti}"))
    out = tmp_path / "x"
    rc = main(["simulate", "--config", cfg, "--out-dir", str(out), "--decoys", str(decoys)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert culprit in err
    assert not out.exists()


def test_simulate_accepts_decoys_up_to_the_largest_rnti(tmp_path):
    out = _simulate(tmp_path, TOA_CONFIG.replace("rnti: 7423", f"rnti: {MAX_RNTI - 1}"),
                    "run", extra=["--decoys", "1"])
    records, diags = _parse(out / "sn1_cfg1.log")
    assert diags == [] and sorted(set(records["rnti"].tolist())) == [MAX_RNTI - 1, MAX_RNTI]


def test_locate_toa_noiseless(tmp_path, capsys):
    out = _simulate(tmp_path, TOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    rc = main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", "7423",
               "--out-dir", str(out),
               str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log")])
    assert rc == EXIT_OK
    lines = (out / "estimates_toa.csv").read_text().splitlines()
    assert lines[0] == ESTIMATES_HEADER
    assert len(lines) == 31
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[7] == "ok"
        assert abs(float(parts[6])) < 1e-6        # error_m
        assert float(parts[3]) == pytest.approx(80.0, abs=1e-6)
    report = (out / "report_toa.txt").read_text()
    assert "unfiltered,30,0.000000" in report
    assert "stage,count,mean_m,rmse_m,std_m,q80_m" in report
    assert "position error" in capsys.readouterr().out


def test_locate_tdoa_noiseless(tmp_path):
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    rc = main(["locate", "--config", cfg, "--scheme", "tdoa", "--rnti", "7423",
               "--out-dir", str(out),
               str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log"),
               str(out / "sn1_cfg2.log"), str(out / "sn2_cfg2.log")])
    assert rc == EXIT_OK
    lines = (out / "estimates_tdoa.csv").read_text().splitlines()
    assert len(lines) == 16  # min(15, 15) samples plus header
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[7] == "ok"
        assert abs(float(parts[6])) < 1e-6


def test_locate_tdoa_names_unused_samples(tmp_path, capsys):
    # sample i pairs across configurations, so cfg2's last 10 samples have no partner
    out = _simulate(tmp_path, TDOA_CONFIG.replace("at_subframe: 15", "at_subframe: 10"), "run")
    capsys.readouterr()
    rc = main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", "tdoa",
               "--rnti", "7423", "--out-dir", str(out),
               *(str(out / f"sn{k}_cfg{j}.log") for j in (1, 2) for k in (1, 2))])
    assert rc == EXIT_OK
    assert len((out / "estimates_tdoa.csv").read_text().splitlines()) == 11
    assert capsys.readouterr().err == (
        "configuration 2: 10 of 20 matched samples unused "
        "(the shortest configuration has 10)\n")


#: Noiseless, and sniffer 2 moves where both cfg2 ellipses cross once in the TA band.
FAR_MOVE_CONFIG = TDOA_CONFIG.replace("to: [154.0, 40.0]", "to: [-60.0, 120.0]")


def test_locate_solves_pair_j_with_segment_j(tmp_path, capsys):
    # cfg2 needs segment 2's positions: with segment 1's its rows are "ok" and 35.03 m off
    out = _simulate(tmp_path, FAR_MOVE_CONFIG, "run")
    logs = [str(out / f"sn{k}_cfg{j}.log") for j in (1, 2) for k in (1, 2)]
    for scheme, n_rows in (("toa", 30), ("tdoa", 15)):
        assert main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", scheme,
                     "--rnti", "7423", "--out-dir", str(out), *logs]) == EXIT_OK
        rows = [r.split(",") for r in
                (out / f"estimates_{scheme}.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(n_rows))
        assert all(r[7] == "ok" and float(r[6]) < 1e-6 for r in rows)
    capsys.readouterr()


def test_locate_range_metric(tmp_path):
    out = _simulate(tmp_path, TDOA_CONFIG + NOISY_CLOCK, "run")
    for scheme in ("toa", "tdoa"):
        rc = main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", scheme,
                   "--rnti", "7423", "--out-dir", str(out), "--metric", "range",
                   *(str(out / f"sn{k}_cfg{j}.log") for j in (1, 2) for k in (1, 2))])
        assert rc == EXIT_OK
        assert "range error" in (out / f"report_{scheme}.txt").read_text()
        rows = [r.split(",") for r in
                (out / f"estimates_{scheme}.csv").read_text().splitlines()[1:]]
        solved = [r for r in rows if r[7] == "ok"]
        assert solved and any(float(r[6]) > 0.1 for r in solved)
        for r in solved:  # the eNb is at the origin
            assert float(r[5]) == math.hypot(float(r[3]), float(r[4]))
            assert float(r[6]) == abs(float(r[5]) - math.hypot(80.0, 82.2))


def test_locate_file_count_errors(tmp_path, capsys):
    out = _simulate(tmp_path, TOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    one = str(out / "sn1_cfg1.log")
    assert main(["locate", "--config", cfg, "--scheme", "toa",
                 "--rnti", "7423", "--out-dir", str(out), one]) == EXIT_INPUT
    assert main(["locate", "--config", cfg, "--scheme", "tdoa",
                 "--rnti", "7423", "--out-dir", str(out), one, one, one]) == EXIT_INPUT
    assert main(["locate", "--config", cfg, "--scheme", "toa",
                 "--rnti", "7423", "--out-dir", str(out), one,
                 str(out / "missing.log")]) == EXIT_INPUT
    capsys.readouterr()
    # two sniffers and no relocation plan know one configuration, not two
    for scheme in ("toa", "tdoa"):
        assert main(["locate", "--config", cfg, "--scheme", scheme,
                     "--rnti", "7423", "--out-dir", str(out), one, one, one, one]) == EXIT_CONFIG
        assert "2 file pairs but only 1 configuration(s)" in capsys.readouterr().err


@pytest.mark.parametrize("scheme, config, n_cfg", [("toa", TOA_CONFIG, 1),
                                                   ("tdoa", TDOA_CONFIG, 2)],
                         ids=["toa", "tdoa"])
def test_locate_wrong_rnti_gives_no_samples(tmp_path, capsys, scheme, config, n_cfg):
    out = _simulate(tmp_path, config, "run")
    logs = [str(out / f"sn{k}_cfg{j}.log") for j in range(1, n_cfg + 1) for k in (1, 2)]
    rc = main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", scheme,
               "--rnti", "9999", "--out-dir", str(out), *logs])
    assert rc == EXIT_NO_SAMPLES
    assert "no samples" in capsys.readouterr().err


@pytest.mark.parametrize("rnti, rc", [(-1, EXIT_CONFIG), (MAX_RNTI + 1, EXIT_CONFIG),
                                      (0, EXIT_INPUT), (MAX_RNTI, EXIT_INPUT)])
def test_locate_refuses_an_rnti_outside_64_bits_before_reading_a_log(tmp_path, capsys, rnti, rc):
    # no entry can carry an RNTI outside [0, MAX_RNTI]: a configuration error, raised before
    # any log is read (these logs do not exist); the bounds themselves go on to the logs
    cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG)
    logs = [str(tmp_path / "sn1_cfg1.log"), str(tmp_path / "sn2_cfg1.log")]
    assert main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", str(rnti),
                 "--out-dir", str(tmp_path / "out"), *logs]) == rc
    err = capsys.readouterr().err
    if rc == EXIT_CONFIG:
        assert err == f"configuration error: --rnti must be in [0, {MAX_RNTI}], got {rnti}\n"
    else:
        assert err == f"input error: log file not found: {logs[0]}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, rc, message", [
    ("0100.0 7424 1.5 20.0 12 -95.0\n0100.0 7425 1.5 20.0 12 -95.0\n", EXIT_NO_SAMPLES,
     "no samples: no matched samples in the given log pairs"),
    # another device's malformed lines are skipped unparsed and not named
    ("0100.0 7424 x 20.0 12 -95.0\n0100.1 7424 1.5\n", EXIT_NO_SAMPLES,
     "no samples: no matched samples in the given log pairs"),
    ("", EXIT_INPUT, "input error: {path}: no parseable records"),
    ("# 7424 comment\n\n# note\n", EXIT_INPUT, "input error: {path}: no parseable records"),
], ids=["other-devices", "other-devices-malformed", "empty", "comments"])
def test_locate_exit_code_of_a_log_without_target_lines(tmp_path, capsys, text, rc, message):
    cfg = _write(tmp_path, "exp.yaml", TDOA_CONFIG)
    path = tmp_path / "sn1.log"
    path.write_text(text)
    for scheme in ("toa", "tdoa"):
        assert main(["locate", "--config", cfg, "--scheme", scheme, "--rnti", "7423",
                     "--out-dir", str(tmp_path), *[str(path)] * 4]) == rc
        assert capsys.readouterr().err == message.format(path=path) + "\n"


def test_locate_estimates_ignore_other_devices_lines(tmp_path, capsys):
    """Deleting the decoys' lines from the logs leaves every output file byte-identical."""
    out = _simulate(tmp_path, TDOA_CONFIG + NOISY_CLOCK, "run", extra=["--decoys", "3"])
    names = [f"sn{k}_cfg{j}.log" for j in (1, 2) for k in (1, 2)]
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in names:
        lines = (out / name).read_text().splitlines(keepends=True)
        target = [line for line in lines if line.split()[1] == "7423"]
        assert len(target) == len(lines) // 4 == 15
        (bare / name).write_text("".join(target))
    for scheme in ("toa", "tdoa"):
        for run in (out, bare):
            assert main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", scheme,
                         "--rnti", "7423", "--out-dir", str(run),
                         *(str(run / name) for name in names)]) == EXIT_OK
        for name in (f"estimates_{scheme}.csv", f"report_{scheme}.txt"):
            assert (out / name).read_bytes() == (bare / name).read_bytes()
    capsys.readouterr()


def test_locate_missing_config(tmp_path, capsys):
    rc = main(["locate", "--config", str(tmp_path / "nope.yaml"),
               "--scheme", "toa", "--rnti", "1", "--out-dir", str(tmp_path),
               "a.log", "b.log"])
    assert rc == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("command", [["simulate"],
                                     ["locate", "--scheme", "toa", "--rnti", "1", "a.log", "b.log"]],
                         ids=["simulate", "locate"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "exp.yaml"
    cfg.write_bytes(b"\xff")
    assert main([*command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert f"cannot read {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["toa", "tdoa"])
def test_locate_rejects_moving_reference(tmp_path, capsys, monkeypatch, scheme):
    config = BASE_SCENARIO + """\
capture:
  subframes: 30
  rnti: 7423
relocations:
  - {sniffer: 1, at_subframe: 15, to: [200.0, 10.0]}
"""
    out = _simulate(tmp_path, config, "run")
    cfg = str(tmp_path / "exp.yaml")
    parsed = []
    monkeypatch.setattr(cli, "parse_log", lambda fh: parsed.append(Path(fh.name).stem))
    rc = main(["locate", "--config", cfg, "--scheme", scheme, "--rnti", "7423",
               "--out-dir", str(out),
               str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log"),
               str(out / "sn1_cfg2.log"), str(out / "sn2_cfg2.log")])
    assert rc == EXIT_CONFIG
    assert "reference" in capsys.readouterr().err
    assert parsed == []  # the plan is checked before any log is read


THREE_SNIFFERS = BASE_SCENARIO.replace("    - [0.0, 139.5]\n",
                                        "    - [0.0, 139.5]\n    - [-120.0, 60.0]\n") + """\
capture:
  subframes: 20
  rnti: 7423
relocations:
  - {sniffer: MOVED, at_subframe: 10, to: [154.0, 40.0]}
"""


def _locate_tdoa(tmp_path, out, n_cfg=2):
    logs = [str(out / f"sn{k}_cfg{j}.log") for j in range(1, n_cfg + 1) for k in (1, 2)]
    return main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", "tdoa",
                 "--rnti", "7423", "--out-dir", str(out), *logs])


def test_locate_tdoa_solves_configuration_j_with_segment_j(tmp_path, capsys):
    out = _simulate(tmp_path, THREE_SNIFFERS.replace("MOVED", "2"), "run")
    assert _locate_tdoa(tmp_path, out) == EXIT_OK
    rows = (out / "estimates_tdoa.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    assert all(r.endswith(",ok") and abs(float(r.split(",")[6])) < 1e-6 for r in rows)
    capsys.readouterr()


def test_locate_tdoa_rejects_relocating_a_third_sniffer(tmp_path, capsys):
    # the plan moves sniffer 3; solving cfg2 with it put the device 56 m off, all "ok"
    out = _simulate(tmp_path, THREE_SNIFFERS.replace("MOVED", "3"), "run")
    capsys.readouterr()
    assert _locate_tdoa(tmp_path, out) == EXIT_CONFIG
    assert "reference" in capsys.readouterr().err
    assert not (out / "estimates_tdoa.csv").exists()


def test_two_relocations_of_one_sniffer_at_one_subframe_are_config_errors(tmp_path, capsys):
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    cfg = _write(tmp_path, "exp.yaml", TDOA_CONFIG + "  - {sniffer: 2, at_subframe: 15, "
                                                     "to: [60.0, 170.0]}\n")
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert _locate_tdoa(tmp_path, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("sniffer 2 relocated twice at subframe 15") == 2
    assert not (tmp_path / "x").exists() and not (out / "estimates_tdoa.csv").exists()


@pytest.mark.parametrize("command", [["simulate"],
                                     ["locate", "--scheme", "toa", "--rnti", "7423", "a", "b"]],
                         ids=["simulate", "locate"])
def test_a_relocation_onto_the_base_station_is_a_config_error(tmp_path, capsys, command):
    cfg = _write(tmp_path, "exp.yaml", TDOA_CONFIG.replace("[154.0, 40.0]", "[0.0, 0.0]"))
    out = tmp_path / "x"
    assert main([*command, "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: {cfg}: relocations: sniffer 2 "
                                       "coincides with the base station\n")
    assert not out.exists()


@pytest.mark.parametrize("section, line", [
    ("capture", "subframe: 20"), ("clock", "sniffer_noise: 2.0e-8"),
])
def test_misspelled_config_keys_are_config_errors(tmp_path, capsys, section, line):
    doc = yaml.safe_load(TOA_CONFIG)
    doc.setdefault(section, {}).update(yaml.safe_load(line))
    cfg = _write(tmp_path, "exp.yaml", yaml.safe_dump(doc))
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    key = line.split(":")[0]
    assert f"{section}: unknown keys ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_locate_reports_per_sample_failures(tmp_path, capsys):
    out = _simulate(tmp_path, TOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    # corrupt the first record of the reference log: a huge negative delta
    # makes the range-sum shorter than the focal distance
    ref = out / "sn1_cfg1.log"
    lines = ref.read_text().splitlines(keepends=True)
    first = lines[0].split()
    first[2] = "-999.0"
    broken = out / "broken.log"
    broken.write_text(" ".join(first) + "\n" + "".join(lines[1:]))
    rc = main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", "7423",
               "--out-dir", str(out), str(broken), str(out / "sn2_cfg1.log")])
    assert rc == EXIT_OK
    rows = (out / "estimates_toa.csv").read_text().splitlines()[1:]
    # sample 0 at frame 0, subframe 0, with no position, range or error
    assert rows[0] == "0,0,0,,,,,InfeasibleObservation"
    assert all(r.endswith("ok") for r in rows[1:])
    assert capsys.readouterr().err == (
        "sample 0: InfeasibleObservation: observation 1: range-sum -299226.824 m is below "
        "the focal distance 109.700 m\n")


def _break_deltas(path, keep=0):
    """Set every delta of the log at ``path``, but those of its first ``keep`` lines, to -999 us."""
    lines = [line.split() for line in path.read_text().splitlines()]
    path.write_text("".join(" ".join(f if i < keep else [*f[:2], "-999.0", *f[3:]]) + "\n"
                            for i, f in enumerate(lines)))


@pytest.mark.parametrize("scheme", ["toa", "tdoa"])
def test_locate_exits_4_when_every_sample_fails(tmp_path, capsys, scheme):
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    logs = [out / f"sn{k}_cfg{j}.log" for j in (1, 2) for k in (1, 2)]
    for ref in logs[::2]:
        _break_deltas(ref)
    capsys.readouterr()
    rc = main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", scheme,
               "--rnti", "7423", "--out-dir", str(out), *map(str, logs)])
    assert rc == EXIT_NO_SAMPLES
    err = capsys.readouterr().err
    assert err.endswith("no samples: every sample failed to solve\n")
    rows = (out / f"estimates_{scheme}.csv").read_text().splitlines()[1:]
    assert rows and all(r.endswith(",,,,,InfeasibleObservation") for r in rows)
    assert err.count(": InfeasibleObservation: ") == len(rows)
    assert not (out / f"report_{scheme}.txt").exists()


@pytest.mark.parametrize("scheme, n_cfg", [("toa", 1), ("tdoa", 2)])
def test_locate_reports_one_solved_sample_as_kept_by_the_filter(tmp_path, capsys, scheme, n_cfg):
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    logs = [out / f"sn{k}_cfg{j}.log" for j in range(1, n_cfg + 1) for k in (1, 2)]
    for ref in logs[::2]:
        _break_deltas(ref, keep=1)
    rc = main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", scheme,
               "--rnti", "7423", "--out-dir", str(out), *map(str, logs)])
    assert rc == EXIT_OK
    rows = (out / f"estimates_{scheme}.csv").read_text().splitlines()[1:]
    assert [r.split(",")[7] for r in rows].count("ok") == 1 and rows[0].endswith(",ok")
    report = (out / f"report_{scheme}.txt").read_text().splitlines()
    unfiltered, filtered = report[2].split(",", 1), report[3].split(",", 1)
    assert unfiltered[0] == "unfiltered" and unfiltered[1].startswith("1,")
    assert filtered == ["filtered", unfiltered[1]]
    assert report[4:] == ["removed_by_filter,0"]
    assert capsys.readouterr().out.endswith("\n".join(report) + "\n")


@pytest.mark.parametrize("scheme", ["toa", "tdoa"])
def test_locate_without_ground_truth_skips_statistics(tmp_path, capsys, scheme):
    out = _simulate(tmp_path, FAR_MOVE_CONFIG, "run")
    cfg = _write(tmp_path, "blind.yaml", FAR_MOVE_CONFIG.replace("  ue_truth: [80.0, 82.2]\n", ""))
    capsys.readouterr()
    rc = main(["locate", "--config", cfg, "--scheme", scheme, "--rnti", "7423",
               "--out-dir", str(out),
               *(str(out / f"sn{k}_cfg{j}.log") for j in (1, 2) for k in (1, 2))])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.endswith(
        "samples)\nno ground truth in scenario; skipping error statistics\n")
    rows = [r.split(",") for r in
            (out / f"estimates_{scheme}.csv").read_text().splitlines()[1:]]
    assert rows and all(r[7] == "ok" and r[5] and r[6] == "" for r in rows)
    assert not (out / f"report_{scheme}.txt").exists()


def test_locate_skips_malformed_lines_with_diagnostics(tmp_path, capsys):
    out = _simulate(tmp_path, TOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    ref = out / "sn1_cfg1.log"
    ref.write_text("garbage line here\n" + ref.read_text())
    rc = main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", "7423",
               "--out-dir", str(out),
               str(ref), str(out / "sn2_cfg1.log")])
    assert rc == EXIT_OK
    assert "skipped" in capsys.readouterr().err


def test_locate_replaces_undecodable_bytes(tmp_path, capsys):
    ref = tmp_path / "golden_a.log"
    ref.write_bytes((DATA / "golden_a.log").read_bytes() + b"\xff\xfe\n")
    cfg = _write(tmp_path, "exp.yaml", TOA_CONFIG)
    rc = main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", "7423",
               "--out-dir", str(tmp_path / "out"), str(ref), str(DATA / "golden_b.log")])
    assert rc == EXIT_OK
    assert f"{ref}:13: skipped:" in capsys.readouterr().err


def test_report_single_and_merged(tmp_path, capsys):
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    main(["locate", "--config", cfg, "--scheme", "tdoa", "--rnti", "7423",
          "--out-dir", str(out),
          str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log"),
          str(out / "sn1_cfg2.log"), str(out / "sn2_cfg2.log")])
    main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", "7423",
          "--out-dir", str(out),
          str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log")])
    capsys.readouterr()

    rc = main(["report", str(out / "estimates_tdoa.csv")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "input,count,mean_m,rmse_m,std_m,q80_m"
    assert text.splitlines()[1].startswith("estimates_tdoa,15,")

    report_path = tmp_path / "merged.csv"
    rc = main(["report", str(out / "estimates_tdoa.csv"),
               str(out / "estimates_toa.csv"), "--out", str(report_path)])
    assert rc == EXIT_OK
    capsys.readouterr()
    lines = report_path.read_text().splitlines()
    assert "probability,estimates_tdoa_error_m,estimates_toa_error_m" in lines
    assert sum(1 for ln in lines if ln.startswith("0.80,")) == 1


def test_report_out_creates_its_directory(tmp_path, capsys):
    est = tmp_path / "estimates_tdoa.csv"
    est.write_text(ESTIMATES_HEADER + "\n0,1,2,3.0,4.0,5.0,1.5,ok\n")
    out = tmp_path / "nodir" / "sub" / "rep.txt"
    assert main(["report", str(est), "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("input,count,mean_m,rmse_m,std_m,q80_m\nestimates_tdoa,1,")
    assert f"wrote {out}" in capsys.readouterr().out


def test_report_labels_runs_with_one_stem_by_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = {"a": "0,1,2,3.0,4.0,5.0,1.5,ok\n", "b": "0,1,2,3.0,4.0,5.0,2.5,ok\n"}
    for run, row in rows.items():
        Path(run).mkdir()
        Path(run, "estimates_tdoa.csv").write_text(ESTIMATES_HEADER + "\n" + row)
    assert main(["report", "a/estimates_tdoa.csv", "b/estimates_tdoa.csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(",")[:3] for ln in lines[1:3]] == [
        ["a/estimates_tdoa.csv", "1", "1.500000"], ["b/estimates_tdoa.csv", "1", "2.500000"]]
    assert "probability,a/estimates_tdoa.csv_error_m,b/estimates_tdoa.csv_error_m" in lines
    assert lines[-1].startswith("1.00,")


def test_report_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["report", str(bad)]) == EXIT_INPUT
    empty = tmp_path / "empty.csv"
    empty.write_text(ESTIMATES_HEADER + "\n")
    assert main(["report", str(empty)]) == EXIT_NO_SAMPLES
    assert main(["report", str(tmp_path / "absent.csv")]) == EXIT_INPUT
    capsys.readouterr()


def test_report_rejects_an_estimates_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(f"{ESTIMATES_HEADER}\n0,1,2,3.0,4.0,5.0,1.5,ok\n".encode() + b"\xff\n")
    assert main(["report", str(bad)]) == EXIT_INPUT
    assert f"cannot read {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("error", ["abc", "nan", "-4.0"])
def test_report_rejects_bad_error_values(tmp_path, capsys, error):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{ESTIMATES_HEADER}\n0,1,2,3.0,4.0,5.0,1.5,ok\n1,1,3,3.0,4.0,5.0,{error},ok\n")
    assert main(["report", str(bad)]) == EXIT_INPUT
    assert f"{bad}:3: error_m" in capsys.readouterr().err


def _fresh_python(probe, *args):
    """Standard output of ``probe`` run with ``args`` by a new interpreter on this ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(probe), *args], env=env,
                          capture_output=True, text=True, check=True, timeout=60).stdout


def test_cli_import_loads_no_scipy():
    """Importing every module loads only the declared runtime dependencies.

    Outside the standard library, the package may pull in numpy and PyYAML
    (``yaml``, with its libyaml binding ``_yaml``) and nothing else: not
    scipy, which used to cost most of the command line's start-up, and not
    numba.  What the interpreter loaded before the package does not count,
    nor do modules without a file, which C extensions register at run time
    (numpy's ``cython_runtime``).
    """
    out = _fresh_python("""\
        import importlib, pkgutil, sys
        before = set(sys.modules)
        import dualsniff
        for info in pkgutil.iter_modules(dualsniff.__path__):
            importlib.import_module("dualsniff." + info.name)
        loaded = {name.split(".")[0] for name in set(sys.modules) - before}
        print(*(name for name in loaded - set(sys.stdlib_module_names)
                if getattr(sys.modules[name], "__file__", None)))
        """)
    assert set(out.split()) - {"dualsniff", "numpy", "yaml", "_yaml"} == set()


def test_report_loads_neither_numpy_nor_yaml(tmp_path):
    """``report`` reads CSV files and prints quantiles, so it pays for neither import."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        path.write_text(f"{ESTIMATES_HEADER}\n0,1,2,3.0,4.0,5.0,1.5,ok\n1,1,3,3.0,4.0,5.0,2.5,ok\n")
    out = _fresh_python("""\
        import sys
        from dualsniff import cli
        rc = cli.main(["report", *sys.argv[1:]])
        print(rc, sorted({"numpy", "yaml"} & set(sys.modules)))
        """, *map(str, paths))
    assert out.splitlines()[-1] == "0 []"


def test_a_wrapper_set_on_cli_is_the_one_called(tmp_path, monkeypatch):
    """The benchmark tracer wraps ``cli.<name>``; ``locate`` must call the wrapper."""
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    logs = [out / f"sn{k}_cfg{j}.log" for j in (1, 2) for k in (1, 2)]
    calls = []

    def counting_parse_log(lines):
        calls.append(list(lines))
        return parse_log(lines)

    monkeypatch.setattr(cli, "parse_log", counting_parse_log)
    assert main(["locate", "--config", str(tmp_path / "exp.yaml"), "--scheme", "tdoa",
                 "--rnti", "7423", "--out-dir", str(out), *map(str, logs)]) == EXIT_OK
    assert cli.parse_log is counting_parse_log
    # one call per log, in pair order; every line is the target's, so each call gets
    # its whole log
    assert calls == [path.read_text().splitlines(keepends=True) for path in logs]


def test_a_fresh_cli_resolves_its_lazy_names():
    """On a fresh import, ``cli.load_setup`` resolves, an unknown name does not, and a
    binding set before that first lookup (the tracer's wrapper) survives it."""
    out = _fresh_python("""\
        from dualsniff import cli
        cli.parse_log = wrapper = object()
        print(cli.load_setup.__module__, hasattr(cli, "no_such_name"), cli.parse_log is wrapper)
        """)
    assert out == "dualsniff.configio False True\n"


CHANGEOVER_CONFIG = BASE_SCENARIO + """\
capture:
  subframes: 90
  rnti: 7423
  start_frame: 1020
clock:
  ue_hw_error: 1.55e-7
  sniffer_noise_sigma: 2.0e-8
  rng_seed: 7
relocations:
  - {sniffer: 2, at_subframe: 30, to: [154.0, 40.0]}
  - {sniffer: 2, at_subframe: 60, to: [60.0, 170.0]}
"""

#: sha256 of every output of ``test_outputs_match_the_record_wise_pipeline``,
#: as written by the pipeline that built one record object per log line;
#: the three ``locate tdoa`` entries by the constrained least-squares solve of
#: three configurations, which replaced the free-range normal equations; the
#: two estimates files by the null-direction elimination, within 1e-9 m of
#: ``REFERENCE_ESTIMATES_SHA256``'s files.
CHANGEOVER_SHA256 = {
    "simulate stdout":
        "088832e451bf4655b8f934d572027c1334eb47c872c4c05f7c3e899425d140ef",
    "locate tdoa stdout":
        "e6de7e2af0c9b6b92204eeaa16fb8e2aa9dfc0748aaf5cd9f8d6dd44a625a4d0",
    "locate tdoa stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "locate toa stdout":
        "4b27f20bf1b57c66f11a4e13efe735ef0f76597e111d8de03c47dc3b36cf2b96",
    "locate toa stderr":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run/sn1_cfg1.log":
        "0fbd7c7b1b0f6c0dfde8f4cf0118eb85159d93936e293e499fbd54b961af4507",
    "run/sn2_cfg1.log":
        "d3302cf369f12fba3677c22e32dfc67d3022d56ea240a56ca3780089d7bfb530",
    "run/sn1_cfg2.log":
        "23f2370870b292bdd93cb1ac2be4cea346c1d266b81b06316e142fc672cbe25e",
    "run/sn2_cfg2.log":
        "58dd91b3e4d98dc12c932c3c71aedc79f76d079ea5f8d63738e568f6fd6ad63d",
    "run/sn1_cfg3.log":
        "875bb8fb7e67812260cb85eb36874e45c9049c937c812c5593ce8b867faa14d2",
    "run/sn2_cfg3.log":
        "6ba0377bc35edea6915a215b001594c03b7465cf96c75f36c0bc471c3a679cb2",
    "run/estimates_tdoa.csv":
        "e780ec509959e63ca934f8056f408196a5d766192888cc6e29d05e9efef292ca",
    "run/estimates_toa.csv":
        "0d07ca2791c719857f846dad239ce508250bce962191fb11e4be1a51335647d6",
}


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


#: The estimates of the changeover runs as the inverse-block elimination wrote
#: them, kept in ``tests/data`` with the digest each was pinned at.
REFERENCE_ESTIMATES_SHA256 = {
    "changeover_estimates_tdoa.csv":
        "e3210b8f1d8f5b027c0a4a453c37ea37769cf45c5ad056daa13e318a4acbc80b",
    "changeover_estimates_toa.csv":
        "39286a058358df8bbb0d7db36915867a8f8e8a8a1c6efde06e0ada26a0ff744e",
    "two_config_estimates_tdoa.csv":
        "911e3aafa0f335b621ad391f2ad0b46811737bc90106b57db056e1e3e7e38a43",
}


def test_reference_estimates_are_the_former_pins():
    assert {name: _sha256((DATA / name).read_bytes())
            for name in REFERENCE_ESTIMATES_SHA256} == REFERENCE_ESTIMATES_SHA256


def _assert_near_reference(path, reference):
    """Row by row, the estimates at ``path`` give the same sample, frame, subframe and
    status as ``tests/data/<reference>``, and x, y, d_ub and error within 1e-9 m."""
    new, old = (Path(p).read_text().splitlines() for p in (path, DATA / reference))
    assert len(new) == len(old) and new[0] == old[0] == ESTIMATES_HEADER
    for got, want in zip(new[1:], old[1:]):
        got, want = got.split(","), want.split(",")
        assert got[:3] + got[7:] == want[:3] + want[7:]
        for a, b in zip(got[3:7], want[3:7]):
            assert a == b == "" or abs(float(a) - float(b)) <= 1e-9, (got, want)


def test_outputs_match_the_record_wise_pipeline(tmp_path, monkeypatch, capsys):
    # three decoys, three configurations, and the frame counter wraps at subframe 40
    monkeypatch.chdir(tmp_path)
    Path("exp.yaml").write_text(CHANGEOVER_CONFIG)
    digests = {}
    assert main(["simulate", "--config", "exp.yaml", "--out-dir", "run",
                 "--decoys", "3"]) == EXIT_OK
    digests["simulate stdout"] = _sha256(capsys.readouterr().out)
    logs = [f"run/sn{k}_cfg{j}.log" for j in (1, 2, 3) for k in (1, 2)]
    for scheme, files in (("tdoa", logs), ("toa", logs[:2])):
        assert main(["locate", "--config", "exp.yaml", "--scheme", scheme,
                     "--rnti", "7423", "--out-dir", "run", *files]) == EXIT_OK
        captured = capsys.readouterr()
        digests[f"locate {scheme} stdout"] = _sha256(captured.out)
        digests[f"locate {scheme} stderr"] = _sha256(captured.err)
    for path in [*logs, "run/estimates_tdoa.csv", "run/estimates_toa.csv"]:
        digests[path] = _sha256(Path(path).read_bytes())
    _assert_near_reference("run/estimates_tdoa.csv", "changeover_estimates_tdoa.csv")
    _assert_near_reference("run/estimates_toa.csv", "changeover_estimates_toa.csv")
    assert digests == CHANGEOVER_SHA256


#: sha256 of ``locate --scheme tdoa`` on the first two configurations of the
#: changeover logs, as written before the solve took more than two rows; the
#: estimates by the null-direction elimination, within 1e-9 m of the reference.
TWO_CONFIG_SHA256 = {
    "stdout": "d3d30cbd50239adab90afca4146817a694897c4d89561d448bcb3b1a60331e02",
    "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run/estimates_tdoa.csv":
        "3698a96eeee762f20b8e50fe4cb25b8c608b2769820c5fe79de875fddb8d4fbf",
}


def test_two_configuration_tdoa_is_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("exp.yaml").write_text(CHANGEOVER_CONFIG)
    assert main(["simulate", "--config", "exp.yaml", "--out-dir", "run",
                 "--decoys", "3"]) == EXIT_OK
    capsys.readouterr()
    logs = [f"run/sn{k}_cfg{j}.log" for j in (1, 2) for k in (1, 2)]
    assert main(["locate", "--config", "exp.yaml", "--scheme", "tdoa",
                 "--rnti", "7423", "--out-dir", "run", *logs]) == EXIT_OK
    captured = capsys.readouterr()
    _assert_near_reference("run/estimates_tdoa.csv", "two_config_estimates_tdoa.csv")
    assert {"stdout": _sha256(captured.out), "stderr": _sha256(captured.err),
            "run/estimates_tdoa.csv": _sha256(Path("run/estimates_tdoa.csv").read_bytes())
            } == TWO_CONFIG_SHA256


#: sha256 of ``locate --scheme toa`` on all three changeover configurations, each
#: pair solved with its own segment's sniffer positions.
EVERY_PAIR_TOA_SHA256 = {
    "stdout": "6cc7a4ff27b6e5e6863694fb5ddb18b4115533eb78057b9aaab0eebc5a97bdd0",
    "stderr": "904332f98ee6505787606fe0eb026ed454f71479ac7d627f33fb0da0e84cc679",
    "run/estimates_toa.csv":
        "0170a31068321c2089fa1dda290d96ddb67266a06b28b5ee7160ea7ddcd92271",
}


def test_toa_over_every_configuration_is_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("exp.yaml").write_text(CHANGEOVER_CONFIG)
    assert main(["simulate", "--config", "exp.yaml", "--out-dir", "run",
                 "--decoys", "3"]) == EXIT_OK
    capsys.readouterr()
    logs = [f"run/sn{k}_cfg{j}.log" for j in (1, 2, 3) for k in (1, 2)]
    assert main(["locate", "--config", "exp.yaml", "--scheme", "toa",
                 "--rnti", "7423", "--out-dir", "run", *logs]) == EXIT_OK
    captured = capsys.readouterr()
    assert len(Path("run/estimates_toa.csv").read_text().splitlines()) == 1 + 90
    assert {"stdout": _sha256(captured.out), "stderr": _sha256(captured.err),
            "run/estimates_toa.csv": _sha256(Path("run/estimates_toa.csv").read_bytes())
            } == EVERY_PAIR_TOA_SHA256
