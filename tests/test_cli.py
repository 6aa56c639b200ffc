import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dualsniff.cli import (ESTIMATES_HEADER, EXIT_CONFIG, EXIT_INPUT,
                           EXIT_NO_SAMPLES, EXIT_OK, main)
from dualsniff.snifferlog import filter_rnti, parse_log

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
    records, diags = parse_log((out / "sn1_cfg1.log").open(), "sn1")
    assert diags == []
    assert len(records) == 30
    assert "wrote" in capsys.readouterr().out


def test_simulate_relocation_splits_configs(tmp_path):
    out = _simulate(tmp_path, TDOA_CONFIG, "run")
    files = sorted(p.name for p in out.glob("*.log"))
    assert files == ["sn1_cfg1.log", "sn1_cfg2.log", "sn2_cfg1.log", "sn2_cfg2.log"]
    for name in files:
        records, _ = parse_log((out / name).open(), name)
        assert len(records) == 15
    # the moving sniffer reports a different delta after the move
    before, _ = parse_log((out / "sn2_cfg1.log").open(), "a")
    after, _ = parse_log((out / "sn2_cfg2.log").open(), "b")
    assert before[0].dl_ul_delta != after[0].dl_ul_delta
    # the reference sniffer does not
    ref1, _ = parse_log((out / "sn1_cfg1.log").open(), "a")
    ref2, _ = parse_log((out / "sn1_cfg2.log").open(), "b")
    assert ref1[0].dl_ul_delta == ref2[0].dl_ul_delta


def test_simulate_is_deterministic(tmp_path):
    config = TDOA_CONFIG + NOISY_CLOCK
    out_a = _simulate(tmp_path, config, "a")
    out_b = _simulate(tmp_path, config, "b")
    for name in ("sn1_cfg1.log", "sn2_cfg2.log"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    out_c = _simulate(tmp_path, config, "c", extra=["--seed", "8"])
    assert (out_a / "sn1_cfg1.log").read_bytes() != (out_c / "sn1_cfg1.log").read_bytes()


def test_simulate_decoys_share_timeline(tmp_path):
    out = _simulate(tmp_path, TOA_CONFIG, "run", extra=["--decoys", "2"])
    records, _ = parse_log((out / "sn1_cfg1.log").open(), "sn1")
    assert len(records) == 90
    assert len(filter_rnti(records, 7423)) == 30
    assert {r.rnti for r in records} == {7423, 7424, 7425}


def test_simulate_subframes_override_conflicts_with_relocation(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.yaml", TDOA_CONFIG)
    rc = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x"),
               "--subframes", "10"])
    assert rc == EXIT_CONFIG
    assert "relocation" in capsys.readouterr().err


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


def test_locate_range_metric(tmp_path):
    out = _simulate(tmp_path, TOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    rc = main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", "7423",
               "--out-dir", str(out), "--metric", "range",
               str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log")])
    assert rc == EXIT_OK
    report = (out / "report_toa.txt").read_text()
    assert "range error" in report


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


def test_locate_wrong_rnti_gives_no_samples(tmp_path, capsys):
    out = _simulate(tmp_path, TOA_CONFIG, "run")
    cfg = str(tmp_path / "exp.yaml")
    rc = main(["locate", "--config", cfg, "--scheme", "toa", "--rnti", "9999",
               "--out-dir", str(out),
               str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log")])
    assert rc == EXIT_NO_SAMPLES
    assert "no samples" in capsys.readouterr().err


def test_locate_missing_config(tmp_path, capsys):
    rc = main(["locate", "--config", str(tmp_path / "nope.yaml"),
               "--scheme", "toa", "--rnti", "1", "--out-dir", str(tmp_path),
               "a.log", "b.log"])
    assert rc == EXIT_CONFIG
    capsys.readouterr()


def test_locate_tdoa_rejects_moving_reference(tmp_path, capsys):
    config = BASE_SCENARIO + """\
capture:
  subframes: 30
  rnti: 7423
relocations:
  - {sniffer: 1, at_subframe: 15, to: [200.0, 10.0]}
"""
    out = _simulate(tmp_path, config, "run")
    cfg = str(tmp_path / "exp.yaml")
    rc = main(["locate", "--config", cfg, "--scheme", "tdoa", "--rnti", "7423",
               "--out-dir", str(out),
               str(out / "sn1_cfg1.log"), str(out / "sn2_cfg1.log"),
               str(out / "sn1_cfg2.log"), str(out / "sn2_cfg2.log")])
    assert rc == EXIT_CONFIG
    assert "reference" in capsys.readouterr().err


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
    assert rows[0].endswith("InfeasibleObservation")
    assert rows[0].split(",")[3] == ""  # no position for the failed sample
    assert all(r.endswith("ok") for r in rows[1:])
    assert "InfeasibleObservation" in capsys.readouterr().err


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


def test_cli_import_loads_no_scipy():
    """The command line imports none of scipy, which costs most of its start-up."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, dualsniff.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
