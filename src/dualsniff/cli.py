"""Command-line experiment runner: simulate captures, locate, report errors.

Subcommands::

    dualsniff simulate --config exp.yaml --out-dir runs/a
    dualsniff locate   --config exp.yaml --scheme tdoa --out-dir runs/a \\
                       runs/a/sn1_cfg1.log runs/a/sn2_cfg1.log \\
                       runs/a/sn1_cfg2.log runs/a/sn2_cfg2.log
    dualsniff report   runs/a/estimates_tdoa.csv runs/b/estimates_toa.csv

``simulate`` writes one log per sniffer per segment of ``timing.segments``:
sn1_cfg1.log, sn2_cfg1.log, ...  ``locate`` takes (reference, other) file
pairs, pair j for configuration j as ``_configurations`` reads it, and writes
per-sample estimates plus an error report; ToA solves each pair on its own.
Both schemes hand the same per-sample columns to ``_estimates_csv``, which
writes the estimates CSV and scores the solved samples against ground truth.
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
         "snifferlog": ("MAX_RNTI", "filter_rnti", "interleave", "match_records", "parse_log",
                        "write_log"),
         "tdoa": ("estimate_tdoa",),
         "timing": ("MAX_SUBFRAMES", "SimulatedCapture", "simulate_capture"),
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

    Each decoy is a separate device in the target's TA band with its own RNTI
    and noise seed, sharing the clock, capture timeline and relocation plan.
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
        captures.append(simulate_capture(
            replace(setup.scenario, ue_truth=ue),
            replace(setup.clock, rng_seed=setup.clock.rng_seed + 104729 + i),
            replace(setup.capture, rnti=setup.capture.rnti + 1 + i), setup.relocations))
    return captures


def cmd_simulate(args) -> int:
    _load()
    setup = load_setup(args.config)
    if args.decoys < 0:
        raise ConfigError(f"--decoys must be >= 0, got {args.decoys}")
    if setup.capture.rnti + args.decoys > MAX_RNTI:
        raise ConfigError(f"--decoys {args.decoys} runs the decoy RNTIs past {MAX_RNTI}")
    if (1 + args.decoys) * setup.capture.subframes > MAX_SUBFRAMES:
        raise ConfigError(f"--decoys {args.decoys} takes the captures past {MAX_SUBFRAMES} subframes")
    if setup.scenario.ue_truth is None:
        raise ConfigError("simulation requires scenario.ue_truth")

    target = simulate_capture(setup.scenario, setup.clock, setup.capture, setup.relocations)
    # within a subframe, entries go in RNTI order: the decoys' RNTIs follow the target's
    captures = [target, *_decoy_captures(setup, args.decoys)]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(len(setup.scenario.sniffers)):
        for j, (start, stop, _) in enumerate(setup.segments()):
            log = interleave([c.sniffer_log(k, start, stop) for c in captures])
            path = out_dir / f"sn{k + 1}_cfg{j + 1}.log"
            path.write_text(write_log(log), encoding="utf-8")
            print(f"wrote {path} ({len(log)} records)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# locate
# ---------------------------------------------------------------------------


def _read_records(path: str, rnti: int) -> "np.ndarray":
    _load()
    p = Path(path)
    if not p.is_file():
        raise InputError(f"log file not found: {path}")
    with p.open("r", encoding="utf-8", errors="replace") as fh:
        lines = fh.readlines()
    # skip another device's line unparsed: its RNTI field is plain ASCII-decimal and not
    # the target's value (compared as digits: int() refuses 4300+ digits); keeping a line
    # is always safe, as filter_rnti makes the exact test, so " rnti " keeps it at once
    target, spaced = str(rnti), f" {rnti} "
    kept = [i for i, line in enumerate(lines) if spaced in line
            or len(f := line.split(None, 2)) < 2 or f[0][0] == "#"
            or not (f[1].isdecimal() and f[1].isascii() and (f[1].lstrip("0") or "0") != target)]
    records, diags = parse_log([lines[i] for i in kept])
    for d in diags:
        print(f"{path}:{kept[d.line - 1] + 1}: skipped: {d.reason}", file=sys.stderr)
    if len(records) == 0 and len(kept) == len(lines):
        raise InputError(f"{path}: no parseable records")
    return filter_rnti(records, rnti)


def _configurations(setup: "ExperimentSetup", files: Sequence[str], rnti: int,
                    min_pairs: int = 1) -> "List[tuple[np.ndarray, Position, Position]]":
    """The matched samples and (reference, other) positions of each file pair.

    Pair j is configuration j: sniffers 1 and 2 where segment j of the plan puts
    them, or without a plan sniffer 1 and sniffer j + 1.  The plan may move
    sniffer 2 only.  Every check runs before any log is read.
    """
    if len(files) % 2 or len(files) < 2 * min_pairs:
        raise InputError(f"need (reference, other) log file pairs for at least {min_pairs} "
                         f"configuration(s), got {len(files)} files")
    if any(r.sniffer != 1 for r in setup.relocations):
        raise ConfigError("sniffer 1 is the fixed reference and only sniffer 2 relocates; "
                          "the relocation plan moves another sniffer")
    known = ([layout.sniffers[:2] for _, _, layout in setup.segments()] if setup.relocations else
             [(setup.scenario.sniffers[0], s) for s in setup.scenario.sniffers[1:]])
    if len(files) > 2 * len(known):
        raise ConfigError(f"{len(files) // 2} file pairs but only {len(known)} configuration(s) "
                          "(add relocations or sniffers)")
    configs = []
    for ref_path, other_path, (ref, other) in zip(files[::2], files[1::2], known):
        samples, diags = match_records(*(_read_records(f, rnti) for f in (ref_path, other_path)))
        for d in diags:
            print(f"{ref_path} / {other_path}: {d}", file=sys.stderr)
        configs.append((samples, ref, other))
    return configs


def _locate_toa(setup: "ExperimentSetup", files: Sequence[str], rnti: int) -> tuple:
    scenario, columns = setup.scenario, ([], [], [], [], [])
    for samples, *sniffers in _configurations(setup, files, rnti):
        D = compose_D((samples["delta_a"] * 1e-6, samples["delta_b"] * 1e-6), sniffers, scenario)
        sol = solve_toa_batch(sniffers, D, scenario.enb, scenario.band)
        for column, part in zip(columns, (
                samples["frame"].tolist(), samples["subframe"].tolist(), sol.status.tolist(),
                sol.chosen(sol.u).tolist(), [sol.failed.get(i) for i in range(len(samples))])):
            column += part
    return columns


def _locate_tdoa(setup: "ExperimentSetup", files: Sequence[str], rnti: int) -> tuple:
    matched_sets, refs, others = zip(*_configurations(setup, files, rnti, min_pairs=2))
    outcomes = estimate_tdoa(matched_sets, setup.scenario, ref_sniffer=refs[0],
                             other_positions=others)
    n = len(outcomes)
    for j, samples in enumerate(matched_sets):
        if len(samples) > n:
            print(f"configuration {j + 1}: {len(samples) - n} of {len(samples)} matched samples "
                  f"unused (the shortest configuration has {n})", file=sys.stderr)
    return (matched_sets[0]["frame"][:n].tolist(), matched_sets[0]["subframe"][:n].tolist(),
            [o.status for o in outcomes],
            [(o.estimate.position.x, o.estimate.position.y) if o.estimate else (None, None)
             for o in outcomes],
            [o.detail for o in outcomes])


def _estimates_csv(columns: tuple, scenario: "Scenario", metric: str) -> tuple:
    """The estimates CSV text, and the errors of the solved samples (none without truth).

    ``columns`` hold each sample's frame, subframe, status, chosen (x, y) and
    failure; a failed sample's reason goes to stderr.
    """
    enb, truth = scenario.enb, scenario.ue_truth
    lines, errors = [ESTIMATES_HEADER], []
    for i, (frame, subframe, status, (x, y), failure) in enumerate(zip(*columns)):
        if status != "ok":
            print(f"sample {i}: {status}: {failure}", file=sys.stderr)
            lines.append(f"{i},{frame},{subframe},,,,,{status}")
            continue
        d_ub, error = math.hypot(x - enb.x, y - enb.y), ""
        if truth is not None:
            errors.append(abs(d_ub - distance(truth, enb)) if metric == "range"
                          else math.hypot(x - truth.x, y - truth.y))
            error = repr(errors[-1])
        lines.append(f"{i},{frame},{subframe},{x!r},{y!r},{d_ub!r},{error},ok")
    return "\n".join(lines) + "\n", errors


def _stats_cells(st) -> str:
    """The ``count,mean_m,rmse_m,std_m,q80_m`` cells of one summary."""
    return f"{st.count},{st.mean:.6f},{st.rmse:.6f},{st.std:.6f},{cdf_quantile(st, 0.8):.6f}"


def _stats_table(errors: Sequence[float], metric: str) -> str:
    """Pre- and post-filter summary, one block of delimited text."""
    kept, removed = one_sigma_filter(errors)
    whole, filtered = summarize(errors), summarize(kept)
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
    if not 0 <= args.rnti <= MAX_RNTI:
        raise ConfigError(f"--rnti must be in [0, {MAX_RNTI}], got {args.rnti}")
    setup = load_setup(args.config)
    columns = (_locate_toa if args.scheme == "toa" else _locate_tdoa)(setup, args.logs, args.rnti)
    status = columns[2]
    if not status:
        raise NoSamples("no matched samples in the given log pairs")
    text, errors = _estimates_csv(columns, setup.scenario, args.metric)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / f"estimates_{args.scheme}.csv"
    est_path.write_text(text, encoding="utf-8")
    print(f"wrote {est_path} ({len(status)} samples)")

    if not errors:
        if "ok" in status:
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
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
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
