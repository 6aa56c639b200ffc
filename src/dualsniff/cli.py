"""Command-line experiment runner: simulate captures, locate, report errors.

Subcommands::

    dualsniff simulate --config exp.yaml --out-dir runs/a
    dualsniff locate   --config exp.yaml --scheme tdoa --out-dir runs/a \\
                       runs/a/sn1_cfg1.log runs/a/sn2_cfg1.log \\
                       runs/a/sn1_cfg2.log runs/a/sn2_cfg2.log
    dualsniff report   runs/a/estimates_tdoa.csv runs/b/estimates_toa.csv

``simulate`` writes one canonical log per sniffer per configuration segment
(segments are cut at relocation subframes): sn1_cfg1.log, sn2_cfg1.log, ...
``locate`` consumes file pairs in (reference, other) order, one pair per
configuration, and writes per-sample estimates plus an error report.
``report`` merges estimate files into a comparison table and plot-ready CDF
columns.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 no samples.
"""

import argparse
import sys
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configio import ConfigError, ExperimentSetup, load_setup
from .errors import LocalizationError
from .geometry import Position, Scenario, distance, ta_band
from .snifferlog import (MatchedSample, TimingRecord, filter_rnti, match_records,
                         parse_log, write_log)
from .stats import EmptyInput, ErrorStats, cdf_quantile, one_sigma_filter, summarize
from .tdoa import estimate_tdoa
from .timing import SubframeSchedule, quantize_ta, simulate_capture
from .toa import compose_D, solve_toa

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NO_SAMPLES = 4

ESTIMATES_HEADER = "sample,frame,subframe,x_m,y_m,d_ub_m,error_m,status"


class InputError(Exception):
    """A log or estimates file is missing or malformed."""


class NoSamples(Exception):
    """The pipeline produced zero usable samples."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _segment_bounds(setup: ExperimentSetup) -> List[int]:
    cuts = sorted({r.at_subframe for r in setup.relocations})
    return [0] + cuts + [setup.capture.subframes]


def _decoy_captures(setup: ExperimentSetup, count: int) -> List[List[TimingRecord]]:
    """Background traffic from other devices, to make RNTI filtering real.

    Each decoy is a separate device at a random in-band position with its own
    RNTI, sharing the capture timeline and relocation plan.
    """
    captures = []
    lo, hi = ta_band(setup.scenario.ta_index)
    rng = np.random.default_rng(setup.clock.rng_seed + 7919)
    for i in range(count):
        r = rng.uniform(lo, hi - 1e-9)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        ue = Position(setup.scenario.enb.x + r * np.cos(phi),
                      setup.scenario.enb.y + r * np.sin(phi))
        decoy_scenario = Scenario(enb=setup.scenario.enb,
                                  sniffers=setup.scenario.sniffers,
                                  ue_truth=ue, ta_index=setup.scenario.ta_index)
        decoy_clock = replace(setup.clock,
                              ta_value=quantize_ta(distance(ue, setup.scenario.enb))[1],
                              rng_seed=setup.clock.rng_seed + 104729 + i)
        captures.append(simulate_capture(
            decoy_scenario, decoy_clock,
            SubframeSchedule(count=setup.capture.subframes), setup.relocations,
            rnti=setup.capture.rnti + 1 + i, snr_db=setup.capture.snr_db,
            noise_power_dbm=setup.capture.noise_power_dbm,
            start_frame=setup.capture.start_frame))
    return captures


def _bucket_capture(records: Sequence[TimingRecord], n_sniffers: int,
                    bounds: Sequence[int],
                    out: Dict[Tuple[str, int], List[Tuple[int, TimingRecord]]]) -> None:
    """Split one capture (subframe-major record order) by sniffer and segment."""
    for i, rec in enumerate(records):
        n = i // n_sniffers
        seg = bisect_right(bounds, n) - 1
        out.setdefault((rec.sniffer_id, seg), []).append((n, rec))


def cmd_simulate(args) -> int:
    setup = load_setup(args.config)
    setup = _apply_overrides(setup, args)
    if setup.scenario.ue_truth is None:
        raise ConfigError("simulation requires scenario.ue_truth")

    schedule = SubframeSchedule(count=setup.capture.subframes)
    n_sniffers = len(setup.scenario.sniffers)
    bounds = _segment_bounds(setup)
    buckets: Dict[Tuple[str, int], List[Tuple[int, TimingRecord]]] = {}
    _bucket_capture(
        simulate_capture(
            setup.scenario, setup.clock, schedule, setup.relocations,
            rnti=setup.capture.rnti, snr_db=setup.capture.snr_db,
            noise_power_dbm=setup.capture.noise_power_dbm,
            start_frame=setup.capture.start_frame),
        n_sniffers, bounds, buckets)
    for capture in _decoy_captures(setup, args.decoys):
        _bucket_capture(capture, n_sniffers, bounds, buckets)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(n_sniffers):
        for j in range(len(bounds) - 1):
            tagged = sorted(buckets.get((f"sn{k + 1}", j), []),
                            key=lambda t: (t[0], t[1].rnti))
            path = out_dir / f"sn{k + 1}_cfg{j + 1}.log"
            path.write_text(write_log([r for _, r in tagged]), encoding="utf-8")
            print(f"wrote {path} ({len(tagged)} records)")
    return EXIT_OK


def _apply_overrides(setup: ExperimentSetup, args) -> ExperimentSetup:
    clock, capture = setup.clock, setup.capture
    if getattr(args, "seed", None) is not None:
        clock = replace(clock, rng_seed=args.seed)
    if getattr(args, "sigma", None) is not None:
        clock = replace(clock, sniffer_noise_sigma=args.sigma)
    if getattr(args, "subframes", None) is not None:
        if any(r.at_subframe >= args.subframes for r in setup.relocations):
            raise ConfigError("--subframes cuts the capture before a relocation")
        capture = replace(capture, subframes=args.subframes)
    if getattr(args, "snr", None) is not None:
        capture = replace(capture, snr_db=args.snr)
    return replace(setup, clock=clock, capture=capture)


# ---------------------------------------------------------------------------
# locate
# ---------------------------------------------------------------------------


def _read_records(path: str, rnti: int) -> List[TimingRecord]:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"log file not found: {path}")
    with p.open("r", encoding="utf-8") as fh:
        records, diags = parse_log(fh, sniffer_id=p.stem)
    for d in diags:
        print(f"{path}:{d.line}: skipped: {d.reason}", file=sys.stderr)
    if not records:
        raise InputError(f"{path}: no parseable records")
    return filter_rnti(records, rnti)


def _match_pair(ref_path: str, other_path: str, rnti: int) -> List[MatchedSample]:
    samples, diags = match_records(_read_records(ref_path, rnti),
                                   _read_records(other_path, rnti))
    for d in diags:
        print(f"{ref_path} / {other_path}: {d}", file=sys.stderr)
    return samples


def _error_of(est_pos: Position, scenario: Scenario, metric: str) -> Optional[float]:
    if scenario.ue_truth is None:
        return None
    if metric == "range":
        return abs(distance(est_pos, scenario.enb)
                   - distance(scenario.ue_truth, scenario.enb))
    return distance(est_pos, scenario.ue_truth)


def _locate_toa(setup: ExperimentSetup, files: Sequence[str], rnti: int,
                metric: str) -> List[dict]:
    if len(files) != 2:
        raise InputError(
            f"toa needs exactly 2 log files (reference, other), got {len(files)}")
    samples = _match_pair(files[0], files[1], rnti)
    scenario = setup.scenario
    s1, s2 = scenario.sniffers[0], scenario.sniffers[1]
    rows = []
    for i, s in enumerate(samples):
        row = {"sample": i, "frame": s.frame, "subframe": s.subframe,
               "status": "ok", "x": None, "y": None, "d_ub": None, "error": None}
        try:
            obs1 = compose_D(s.delta_a * 1e-6, s1, scenario)
            obs2 = compose_D(s.delta_b * 1e-6, s2, scenario)
            est = solve_toa(obs1, obs2, scenario.enb, scenario.band)
            row.update(x=est.position.x, y=est.position.y,
                       d_ub=distance(est.position, scenario.enb),
                       error=_error_of(est.position, scenario, metric))
        except LocalizationError as exc:
            row["status"] = type(exc).__name__
            print(f"sample {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        rows.append(row)
    return rows


def _locate_tdoa(setup: ExperimentSetup, files: Sequence[str], rnti: int,
                 metric: str) -> List[dict]:
    if len(files) < 4 or len(files) % 2:
        raise InputError(
            "tdoa needs file pairs (reference, other) for at least two "
            f"configurations, got {len(files)} files")
    n_cfg = len(files) // 2
    matched_sets = [_match_pair(files[2 * j], files[2 * j + 1], rnti)
                    for j in range(n_cfg)]
    scenario = setup.scenario
    if any(r.sniffer == 0 for r in setup.relocations):
        raise ConfigError(
            "tdoa needs sniffer 1 fixed as the common reference; the "
            "relocation plan moves it")
    moved = [r.to for r in sorted(setup.relocations, key=lambda r: r.at_subframe)]
    others = [scenario.sniffers[1]] + (moved if moved else list(scenario.sniffers[2:]))
    if len(others) < n_cfg:
        raise ConfigError(
            f"{n_cfg} configurations but only {len(others)} known positions "
            "for the moving sniffer (add relocations or sniffers)")
    outcomes = estimate_tdoa(matched_sets, scenario,
                             ref_sniffer=scenario.sniffers[0],
                             other_positions=others[:n_cfg])
    rows = []
    for o in outcomes:
        row = {"sample": o.index, "frame": o.frame, "subframe": o.subframe,
               "status": o.status, "x": None, "y": None, "d_ub": None, "error": None}
        if o.estimate is not None:
            est = o.estimate
            row.update(x=est.position.x, y=est.position.y,
                       d_ub=distance(est.position, scenario.enb),
                       error=_error_of(est.position, scenario, metric))
        else:
            print(f"sample {o.index}: {o.status}: {o.detail}", file=sys.stderr)
        rows.append(row)
    return rows


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def _write_estimates(path: Path, rows: Sequence[dict]) -> None:
    lines = [ESTIMATES_HEADER + "\n"]
    for r in rows:
        lines.append(f"{r['sample']},{r['frame']},{r['subframe']},"
                     f"{_fmt(r['x'])},{_fmt(r['y'])},{_fmt(r['d_ub'])},"
                     f"{_fmt(r['error'])},{r['status']}\n")
    path.write_text("".join(lines), encoding="utf-8")


def _stats_table(errors: Sequence[float], metric: str) -> str:
    """Pre- and post-filter summary, one block of delimited text."""
    whole = summarize(errors)
    if whole.count >= 2:
        kept, removed = one_sigma_filter(errors)
        filtered = summarize(kept)
    else:
        filtered, removed = whole, []
    label = "position error vs ground truth" if metric == "position" \
        else "range error vs ground truth (distance to eNb)"
    out = [f"metric: {label}, meters",
           "stage,count,mean_m,rmse_m,std_m,q80_m"]
    for stage, st in (("unfiltered", whole), ("filtered", filtered)):
        out.append(f"{stage},{st.count},{st.mean:.6f},{st.rmse:.6f},"
                   f"{st.std:.6f},{cdf_quantile(st, 0.8):.6f}")
    out.append(f"removed_by_filter,{len(removed)}")
    return "\n".join(out) + "\n"


def cmd_locate(args) -> int:
    setup = load_setup(args.config)
    rows = (_locate_toa if args.scheme == "toa" else _locate_tdoa)(
        setup, args.logs, args.rnti, args.metric)
    if not rows:
        raise NoSamples("no matched samples between the two captures")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / f"estimates_{args.scheme}.csv"
    _write_estimates(est_path, rows)
    print(f"wrote {est_path} ({len(rows)} samples)")

    errors = [r["error"] for r in rows if r["status"] == "ok" and r["error"] is not None]
    if not errors:
        if any(r["status"] == "ok" for r in rows):
            print("no ground truth in scenario; skipping error statistics")
            return EXIT_OK
        raise NoSamples("every sample failed to solve")
    table = _stats_table(errors, args.metric)
    report_path = out_dir / f"report_{args.scheme}.txt"
    report_path.write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _read_estimate_errors(path: str) -> List[float]:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"estimates file not found: {path}")
    lines = p.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != ESTIMATES_HEADER:
        raise InputError(
            f"{path}: expected header {ESTIMATES_HEADER!r}, "
            f"got {lines[0] if lines else '<empty>'!r}")
    errors = []
    for ln, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise InputError(f"{path}:{ln}: expected 8 columns, got {len(parts)}")
        if parts[7] == "ok" and parts[6]:
            errors.append(float(parts[6]))
    return errors


def cmd_report(args) -> int:
    names, all_stats = [], []
    for path in args.estimates:
        errors = _read_estimate_errors(path)
        if not errors:
            raise EmptyInput(f"{path}: no successful estimates to report")
        names.append(Path(path).stem)
        all_stats.append(summarize(errors))

    out = ["input,count,mean_m,rmse_m,std_m,q80_m"]
    for name, st in zip(names, all_stats):
        out.append(f"{name},{st.count},{st.mean:.6f},{st.rmse:.6f},"
                   f"{st.std:.6f},{cdf_quantile(st, 0.8):.6f}")
    out.append("")
    out.append("probability," + ",".join(f"{n}_error_m" for n in names))
    for p in [i / 100.0 for i in range(1, 101)]:
        cells = ",".join(f"{cdf_quantile(st, p):.6f}" for st in all_stats)
        out.append(f"{p:.2f},{cells}")
    text = "\n".join(out) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsniff",
        description="Passive dual-sniffer localization toolkit: simulate "
                    "captures, run ToA/TDoA estimators, report error statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate sniffer capture logs")
    sim.add_argument("--config", required=True, help="experiment YAML file")
    sim.add_argument("--out-dir", required=True, help="directory for log files")
    sim.add_argument("--seed", type=int, help="override clock.rng_seed")
    sim.add_argument("--sigma", type=float,
                     help="override clock.sniffer_noise_sigma (seconds)")
    sim.add_argument("--snr", type=float, help="override capture.snr_db")
    sim.add_argument("--subframes", type=int, help="override capture.subframes")
    sim.add_argument("--decoys", type=int, default=0,
                     help="number of extra background RNTIs to simulate")
    sim.set_defaults(func=cmd_simulate)

    loc = sub.add_parser("locate", help="estimate positions from capture logs")
    loc.add_argument("--config", required=True, help="experiment YAML file")
    loc.add_argument("--scheme", required=True, choices=("toa", "tdoa"))
    loc.add_argument("--rnti", type=int, required=True, help="target RNTI")
    loc.add_argument("--out-dir", required=True)
    loc.add_argument("--metric", choices=("position", "range"), default="position",
                     help="error metric against ground truth")
    loc.add_argument("logs", nargs="+",
                     help="log files as (reference, other) pairs per configuration")
    loc.set_defaults(func=cmd_locate)

    rep = sub.add_parser("report", help="summarize one or more estimate files")
    rep.add_argument("estimates", nargs="+", help="estimates_*.csv files")
    rep.add_argument("--out", help="write the report here instead of stdout")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NoSamples, EmptyInput) as exc:
        print(f"no samples: {exc}", file=sys.stderr)
        return EXIT_NO_SAMPLES


if __name__ == "__main__":
    sys.exit(main())
