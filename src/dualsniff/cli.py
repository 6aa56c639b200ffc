"""Command-line experiment runner: simulate captures, locate, report errors.

Subcommands::

    dualsniff simulate --config exp.yaml --out-dir runs/a
    dualsniff locate   --config exp.yaml --scheme tdoa --out-dir runs/a \\
                       runs/a/sn1_cfg1.log runs/a/sn2_cfg1.log \\
                       runs/a/sn1_cfg2.log runs/a/sn2_cfg2.log
    dualsniff report   runs/a/estimates_tdoa.csv runs/b/estimates_toa.csv

``simulate`` writes one log per sniffer per segment of ``timing.segments``:
sn1_cfg1.log, sn2_cfg1.log, ...  ``locate`` takes (reference, other) file
pairs, one per configuration, and writes per-sample estimates plus an error
report.  TDoA solves configuration j with sniffer 2 where segment j puts it.
``report`` merges estimate files into a comparison table and plot-ready CDF
columns.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 no samples.
"""

import argparse
import math
import sys
from dataclasses import replace
from importlib import import_module
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import ConfigError
from .stats import EmptyInput, cdf_quantile, one_sigma_filter, summarize

#: Names ``simulate`` and ``locate`` use, bound here on first use so ``report``
#: loads neither numpy nor PyYAML.  They stay ``cli`` attributes: the benchmark
#: tracer wraps ``cli.<name>``, and ``solve_toa`` is listed for it alone.
_LAZY = {"configio": ("ExperimentSetup", "load_setup"),
         "geometry": ("Position", "Scenario", "distance", "ta_band"),
         "snifferlog": ("MAX_RNTI", "MatchedColumns", "TimingColumns", "filter_rnti",
                        "interleave", "match_records", "parse_log", "write_log"),
         "tdoa": ("estimate_tdoa",),
         "timing": ("SimulatedCapture", "quantize_ta", "simulate_capture"),
         "toa": ("compose_D", "solve_toa", "solve_toa_batch")}


def _load() -> None:
    """Bind every name of ``_LAZY``, keeping a binding already set (a tracer's wrapper)."""
    for module, names in _LAZY.items():
        mod = import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    if any(name in names for names in _LAZY.values()):
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _decoy_captures(setup: "ExperimentSetup", count: int) -> "List[SimulatedCapture]":
    """Background traffic from other devices, to make RNTI filtering real.

    Each decoy is a separate device at a random in-band position with its own
    RNTI, sharing the capture timeline and relocation plan.
    """
    import numpy as np

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
            decoy_scenario, decoy_clock, replace(setup.capture, rnti=setup.capture.rnti + 1 + i),
            setup.relocations))
    return captures


def cmd_simulate(args) -> int:
    _load()
    setup = load_setup(args.config)
    setup = _apply_overrides(setup, args)
    if setup.scenario.ue_truth is None:
        raise ConfigError("simulation requires scenario.ue_truth")

    target = simulate_capture(setup.scenario, setup.clock, setup.capture, setup.relocations)
    # within a subframe, entries go in RNTI order (ties in capture order)
    captures = sorted([target, *_decoy_captures(setup, args.decoys)], key=lambda c: c.rnti)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(len(setup.scenario.sniffers)):
        for j, (start, stop, _) in enumerate(setup.segments()):
            log = interleave([c.sniffer_log(k, start, stop) for c in captures])
            path = out_dir / f"sn{k + 1}_cfg{j + 1}.log"
            path.write_text(write_log(log), encoding="utf-8")
            print(f"wrote {path} ({len(log)} records)")
    return EXIT_OK


def _override(obj, flag: str, **changes):
    """``replace`` for one command-line override, naming the flag on a bad value."""
    try:
        return replace(obj, **changes)
    except ValueError as exc:  # ConfigError included
        raise ConfigError(f"{flag}: {exc}") from exc


def _apply_overrides(setup: "ExperimentSetup", args) -> "ExperimentSetup":
    clock, capture = setup.clock, setup.capture
    if getattr(args, "decoys", 0) < 0:
        raise ConfigError(f"--decoys must be >= 0, got {args.decoys}")
    if getattr(args, "seed", None) is not None:
        clock = _override(clock, "--seed", rng_seed=args.seed)
    if getattr(args, "sigma", None) is not None:
        clock = _override(clock, "--sigma", sniffer_noise_sigma=args.sigma)
    if getattr(args, "subframes", None) is not None:
        capture = _override(capture, "--subframes", subframes=args.subframes)
    if getattr(args, "snr", None) is not None:
        capture = _override(capture, "--snr", snr_db=args.snr)
    if capture.rnti + getattr(args, "decoys", 0) > MAX_RNTI:
        raise ConfigError(f"--decoys {args.decoys} runs the decoy RNTIs past {MAX_RNTI}")
    return _override(setup, "--subframes", clock=clock, capture=capture)


# ---------------------------------------------------------------------------
# locate
# ---------------------------------------------------------------------------


def _read_records(path: str, rnti: int) -> "TimingColumns":
    _load()
    p = Path(path)
    if not p.is_file():
        raise InputError(f"log file not found: {path}")
    with p.open("r", encoding="utf-8", errors="replace") as fh:
        records, diags = parse_log(fh, sniffer_id=p.stem)
    for d in diags:
        print(f"{path}:{d.line}: skipped: {d.reason}", file=sys.stderr)
    if not records:
        raise InputError(f"{path}: no parseable records")
    return filter_rnti(records, rnti)


def _match_pair(ref_path: str, other_path: str, rnti: int) -> "MatchedColumns":
    samples, diags = match_records(_read_records(ref_path, rnti),
                                   _read_records(other_path, rnti))
    for d in diags:
        print(f"{ref_path} / {other_path}: {d}", file=sys.stderr)
    return samples


def _row(i: int, frame: int, subframe: int, status: str, xy, failure,
         scenario: "Scenario", metric: str) -> dict:
    """One estimates row; a failed sample's reason goes to stderr."""
    row = {"sample": i, "frame": frame, "subframe": subframe,
           "status": status, "x": None, "y": None, "d_ub": None, "error": None}
    if status != "ok":
        print(f"sample {i}: {status}: {failure}", file=sys.stderr)
        return row
    pos, truth = Position(*xy), scenario.ue_truth
    row.update(x=pos.x, y=pos.y, d_ub=distance(pos, scenario.enb))
    if truth is not None:
        row["error"] = abs(row["d_ub"] - distance(truth, scenario.enb)) \
            if metric == "range" else distance(pos, truth)
    return row


def _locate_toa(setup: "ExperimentSetup", files: Sequence[str], rnti: int,
                metric: str) -> List[dict]:
    if len(files) != 2:
        raise InputError(
            f"toa needs exactly 2 log files (reference, other), got {len(files)}")
    samples = _match_pair(files[0], files[1], rnti)
    scenario = setup.scenario
    sol = solve_toa_batch(compose_D(samples.delta_a * 1e-6, scenario.sniffers[0], scenario),
                          compose_D(samples.delta_b * 1e-6, scenario.sniffers[1], scenario),
                          scenario.enb, scenario.band)
    return [_row(i, frame, subframe, status, xy, sol.failed.get(i), scenario, metric)
            for i, (frame, subframe, status, xy) in enumerate(zip(
                samples.frame.tolist(), samples.subframe.tolist(), sol.status.tolist(),
                sol.chosen(sol.u).tolist()))]


def _locate_tdoa(setup: "ExperimentSetup", files: Sequence[str], rnti: int,
                 metric: str) -> List[dict]:
    if len(files) < 4 or len(files) % 2:
        raise InputError(
            "tdoa needs file pairs (reference, other) for at least two "
            f"configurations, got {len(files)} files")
    n_cfg = len(files) // 2
    matched_sets = [_match_pair(files[2 * j], files[2 * j + 1], rnti)
                    for j in range(n_cfg)]
    scenario = setup.scenario
    if any(r.sniffer != 1 for r in setup.relocations):
        raise ConfigError(
            "tdoa keeps sniffer 1 fixed as the common reference and relocates "
            "sniffer 2 only; the relocation plan moves another sniffer")
    plan = setup.segments()
    others = [p[1] for _, _, p in plan] if len(plan) > 1 else list(scenario.sniffers[1:])
    if len(others) < n_cfg:
        raise ConfigError(
            f"{n_cfg} configurations but only {len(others)} known positions "
            "for the moving sniffer (add relocations or sniffers)")
    outcomes = estimate_tdoa(matched_sets, scenario,
                             ref_sniffer=scenario.sniffers[0],
                             other_positions=others[:n_cfg])
    for j, samples in enumerate(matched_sets):
        if len(samples) > len(outcomes):
            print(f"configuration {j + 1}: {len(samples) - len(outcomes)} of {len(samples)} "
                  f"matched samples unused (the shortest configuration has {len(outcomes)})",
                  file=sys.stderr)
    return [_row(o.index, o.frame, o.subframe, o.status,
                 (o.estimate.position.x, o.estimate.position.y) if o.estimate else None,
                 o.detail, scenario, metric) for o in outcomes]


def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


def _write_estimates(path: Path, rows: Sequence[dict]) -> None:
    lines = [ESTIMATES_HEADER + "\n"]
    for r in rows:
        lines.append(f"{r['sample']},{r['frame']},{r['subframe']},"
                     f"{_fmt(r['x'])},{_fmt(r['y'])},{_fmt(r['d_ub'])},"
                     f"{_fmt(r['error'])},{r['status']}\n")
    path.write_text("".join(lines), encoding="utf-8")


def _stats_cells(st) -> str:
    """The ``count,mean_m,rmse_m,std_m,q80_m`` cells of one summary."""
    return f"{st.count},{st.mean:.6f},{st.rmse:.6f},{st.std:.6f},{cdf_quantile(st, 0.8):.6f}"


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
        out.append(f"{stage},{_stats_cells(st)}")
    out.append(f"removed_by_filter,{len(removed)}")
    return "\n".join(out) + "\n"


def cmd_locate(args) -> int:
    _load()
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
            try:
                error = float(parts[6])
            except ValueError:
                error = math.nan
            if not 0.0 <= error < math.inf:
                raise InputError(f"{path}:{ln}: error_m {parts[6]!r} is not a finite number >= 0")
            errors.append(error)
    return errors


def cmd_report(args) -> int:
    all_stats = []
    for path in args.estimates:
        errors = _read_estimate_errors(path)
        if not errors:
            raise EmptyInput(f"{path}: no successful estimates to report")
        all_stats.append(summarize(errors))
    # label runs by file stem, or by path where two stems collide
    names = [Path(path).stem for path in args.estimates]
    if len(set(names)) < len(names):
        names = list(args.estimates)

    out = ["input,count,mean_m,rmse_m,std_m,q80_m"]
    for name, st in zip(names, all_stats):
        out.append(f"{name},{_stats_cells(st)}")
    out.append("")
    out.append("probability," + ",".join(f"{n}_error_m" for n in names))
    for p in [i / 100.0 for i in range(1, 101)]:
        cells = ",".join(f"{cdf_quantile(st, p):.6f}" for st in all_stats)
        out.append(f"{p:.2f},{cells}")
    text = "\n".join(out) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
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
    sim.add_argument("--snr", type=float,
                     help="override capture.snr_db, which sets the logged SNR and CQI "
                          "columns only; the timing noise is clock.sniffer_noise_sigma")
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
