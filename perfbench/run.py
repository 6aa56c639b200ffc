"""Benchmark of the dualsniff user loop, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clean-capture --seed 1 --seconds 60 --trace 0

The workloads are defined in ``inputs.py``. A run with

* ``--trace 0`` runs every command of the loop as its own interpreter
  (``python -m dualsniff.cli`` with ``src`` on the path, since the entry point
  is not installed) and reports the end-to-end metrics: the mean wall time
  and median peak RSS of each command, the median set-up time of a fresh
  interpreter, the failure share and accuracy of the estimates, and the mean
  time per oracle audit;
* ``--trace 1`` runs the same commands in-process through ``cli.main``, once
  plain and once under the tracer of ``tracing.py``, and reports the
  per-layer metrics of the traced pass; the gap between the two passes is the
  tracing overhead.

Either way the loop repeats while ``--seconds`` last (at least ``MIN_REPS``
or ``MIN_PASSES`` times), every output is checked, and the run prints the
environment and its details as JSON lines, then the result object as the
last line. Results and spans are also kept under ``.perfbench/``.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from inputs import (AUDIT_GAP_LIMIT, COMMANDS, SMOKE, WORKLOADS, audit_instance,
                    command_argvs, draw_audit_instances, p50_error, write_config)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPS = 3
MIN_PASSES = 2  # a traced pass is a plain and a traced loop
MAX_REPS = 30
IMPORT_PROBES = 3
COMMAND_TIMEOUT_S = 60  # the slowest command of these workloads takes ~4 s

#: Acceptance criterion 4's bias band for the range-sum scheme, meters.
TOA_P50_BAND = (30.0, 45.0)

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "locate_tdoa_s": "s",
    "locate_toa_s": "s",
    "report_s": "s",
    "simulate_peak_rss_mb": "MB",
    "locate_peak_rss_mb": "MB",
    "unsolved_share": "ratio",
    "tdoa_err_p50_m": "m",
    "toa_err_p50_m": "m",
    "audit_s_per_instance": "s",
}


class Ops:
    """Operations attempted, and why the failed ones failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# checks and measurements shared by both modes
# ---------------------------------------------------------------------------


def check_estimates(w, work, ops, rc):
    """Gate one loop's commands and estimates files; return the files' figures.

    ``rc`` maps each command to its exit code; each command is one operation.
    """
    expected = {"tdoa": min(w.segments), "toa": w.segments[0]}
    figures = {}
    for scheme in ("tdoa", "toa"):
        ok = rc[f"locate_{scheme}"] == 0
        text = (work / f"estimates_{scheme}.csv").read_text(encoding="utf-8") if ok else ""
        statuses = [row.rsplit(",", 1)[-1] for row in text.splitlines()[1:]]
        figures[scheme] = {
            "rows": len(statuses),
            "failed": sum(s != "ok" for s in statuses),
            "p50": p50_error(text) if statuses else float("inf"),
            "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
    tdoa, toa = figures["tdoa"], figures["toa"]
    ops.record(rc["simulate"] == 0, f"simulate exited {rc['simulate']}")
    ops.record(rc["locate_tdoa"] == 0 and tdoa["rows"] == expected["tdoa"],
               f"locate tdoa exited {rc['locate_tdoa']} with {tdoa['rows']} rows, "
               f"expected {expected['tdoa']}")
    toa_ok = rc["locate_toa"] == 0 and toa["rows"] == expected["toa"]
    what = (f"locate toa exited {rc['locate_toa']} with {toa['rows']} rows, "
            f"expected {expected['toa']}")
    if w.check_scheme_order:
        lo, hi = TOA_P50_BAND
        toa_ok = toa_ok and lo <= toa["p50"] <= hi and tdoa["p50"] < toa["p50"]
        what += f"; toa p50 {toa['p50']:.3f} m (band {lo}-{hi}), tdoa p50 {tdoa['p50']:.3f} m"
    ops.record(toa_ok, what)
    ops.record(rc["report"] == 0, f"report exited {rc['report']}")
    return figures


def accuracy_metrics(figures):
    attempted = figures["tdoa"]["rows"] + figures["toa"]["rows"]
    failed = figures["tdoa"]["failed"] + figures["toa"]["failed"]
    return {
        "unsolved_share": failed / attempted if attempted else 1.0,
        # a median that is infinite (most samples unsolved) is capped so the
        # result stays valid JSON; the row-count or accuracy gate fails then
        "tdoa_err_p50_m": min(figures["tdoa"]["p50"], 1e9),
        "toa_err_p50_m": min(figures["toa"]["p50"], 1e9),
    }


def run_audits(instances, ops, tracer=None):
    """Time each audit instance; the cost-gap gate is criterion 3's."""
    times = []
    for sc, pairs in instances:
        t0 = time.perf_counter()
        with tracer.span("audit.instance") if tracer else nullcontext():
            gap = audit_instance(sc, pairs)
        times.append(time.perf_counter() - t0)
        ops.record(gap <= AUDIT_GAP_LIMIT, f"audit cost gap {gap:.3e} m^2")
    return times


def spawn(argv, stem, work):
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(work / f"{stem}.out", "wb") as out, open(work / f"{stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe_argv(w, seed, work):
    return [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(work / "exp.yaml"),
            str(seed), *map(str, w.audit_per_band)]


def keep_going(done, started, seconds, durations, min_done):
    """Start another loop while one more is expected to end within the budget."""
    if done < min_done:
        return True
    if done >= MAX_REPS:
        return False
    return time.perf_counter() + statistics.median(durations) <= started + seconds


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def run_e2e(w, seed, seconds, work, min_reps):
    """Repeat the loop while the budget lasts and report figures over the loops.

    The machine's speed drifts over seconds, so every loop also runs a set-up
    probe and the audit instances: each metric samples the whole run, not one
    stretch of it. A run holds only a handful of loops, and the mean of so few
    wall times scatters less from run to run than their median, and quartiles
    taken over runs already discount a run spoilt by one stall.
    """
    ops = Ops()
    started = time.perf_counter()  # the budget covers the warm-up too
    spawn(probe_argv(w, seed, work), "warmup", work)  # byte-compiles the package
    instances = draw_audit_instances(seed, w.audit_per_band)
    argvs = command_argvs(w, seed, work)
    cli = [sys.executable, "-m", "dualsniff.cli"]
    setup, audit = [], []
    walls = {cmd: [] for cmd in COMMANDS}
    rss = {cmd: [] for cmd in COMMANDS}
    rep_times, figures = [], []
    while keep_going(len(rep_times), started, seconds, rep_times, min_reps):
        rep_start = time.perf_counter()
        wall, _, rc = spawn(probe_argv(w, seed, work), "probe", work)
        ops.record(rc == 0, f"set-up probe exited {rc}")
        setup.append(wall)
        rc = {}
        for cmd in COMMANDS:
            wall, peak, rc[cmd] = spawn(cli + argvs[cmd], cmd, work)
            walls[cmd].append(wall)
            rss[cmd].append(peak)
        figures.append(check_estimates(w, work, ops, rc))
        audit += run_audits(instances, ops)
        rep_times.append(time.perf_counter() - rep_start)
        if any(code < 0 for code in rc.values()):
            break  # a command was killed; repeating it would only run out the clock

    metrics = {
        "setup_s": statistics.median(setup),
        **{f"{cmd}_s": statistics.fmean(walls[cmd]) for cmd in COMMANDS},
        "simulate_peak_rss_mb": statistics.median(rss["simulate"]),
        "locate_peak_rss_mb": statistics.median(
            max(a, b) for a, b in zip(rss["locate_tdoa"], rss["locate_toa"])),
        **accuracy_metrics(figures[-1]),
        "audit_s_per_instance": statistics.fmean(audit),
    }
    details = {"reps": len(rep_times), "setup_s": setup, "audit_s": audit,
               "command_s": walls, "estimates": figures[-1],
               "estimates_identical_across_reps": all(
                   f[s]["sha256"] == figures[0][s]["sha256"] for f in figures for s in f)}
    return metrics, ops, details


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def run_in_process(argv):
    from dualsniff import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:  # a crashed command counts as a failed operation
            return 1


def run_traced(w, seed, seconds, work, import_probes, min_passes):
    """Plain and traced in-process passes while the budget lasts; medians over passes."""
    from dualsniff.configio import load_setup
    from tracing import Tracer, layer_metrics

    ops = Ops()
    started = time.perf_counter()  # the budget covers the import probes too
    imports = []
    for i in range(import_probes):
        _, _, rc = spawn(probe_argv(w, seed, work), f"probe{i}", work)
        if ops.record(rc == 0, f"import probe exited {rc}"):
            imports.append(json.loads((work / f"probe{i}.out").read_text())["import_s"])

    instances = draw_audit_instances(seed, w.audit_per_band)
    scenario = load_setup(str(work / "exp.yaml")).scenario
    argvs = command_argvs(w, seed, work)
    plain, traced, pass_times, per_pass, tracers = [], [], [], [], []
    while keep_going(len(pass_times), started, seconds, pass_times, min_passes):
        pass_start = time.perf_counter()
        t0 = time.perf_counter()
        for cmd in COMMANDS:
            run_in_process(argvs[cmd])
        plain.append(time.perf_counter() - t0)

        tr = Tracer()
        rc, walls = {}, []
        with tr.installed():
            for cmd in COMMANDS:
                t0 = time.perf_counter()
                with tr.span(f"cli.{cmd}"):
                    rc[cmd] = run_in_process(argvs[cmd])
                walls.append(time.perf_counter() - t0)
            run_audits(instances, ops, tr)
        traced.append(sum(walls))
        figures = check_estimates(w, work, ops, rc)
        root_total = sum(end - start for _, start, end, parent in tr.spans if parent < 0)
        ops.record(abs(sum(tr.self_times()) - root_total) <= 1e-6 * max(root_total, 1.0),
                   "span self times do not add up to the root spans")
        per_pass.append(layer_metrics(tr, scenario, instances, walls))
        tracers.append(tr)
        pass_times.append(time.perf_counter() - pass_start)

    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    details = {"passes": len(pass_times), "plain_s": plain, "traced_s": traced,
               "import_s": imports, "estimates": figures}
    return metrics, ops, details, tracers


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload, seed):
    import numpy
    import scipy
    from dualsniff import _kernels

    # stands in for the revision where the checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted((SRC / "dualsniff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "using_numba": _kernels.USING_NUMBA,
        "kernel_path": "numba" if _kernels.USING_NUMBA else "numpy",
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name, seed, seconds, trace, smoke=False):
    """One benchmark run: (result object, environment, details, failures).

    ``smoke`` shrinks the workload to its ``SMOKE`` shape and runs each loop
    once, for the smoke test.
    """
    w = replace(WORKLOADS[name], **SMOKE[name]) if smoke else WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_config(w, seed, work / "exp.yaml")
    env = environment(name, seed)
    try:
        if trace:
            from tracing import PER_LAYER

            metrics, ops, details, tracers = run_traced(
                w, seed, seconds, work, 1 if smoke else IMPORT_PROBES, 1 if smoke else MIN_PASSES)
            units = {k: unit for k, (unit, _, _) in PER_LAYER.items()}
        else:
            metrics, ops, details = run_e2e(w, seed, seconds, work, 1 if smoke else MIN_REPS)
            units, tracers = E2E_UNITS, []
    finally:
        for log in work.glob("*.log"):
            log.unlink()
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"environment": env, "details": details, "failures": ops.failures, "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    if tracers:
        # one span per line: pass, name, start, end, parent index within the pass
        (work / "spans.jsonl").write_text("".join(
            json.dumps([i, *span]) + "\n" for i, tr in enumerate(tracers) for span in tr.spans))
    return result, env, details, ops.failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dualsniff" / "cli.py").is_file():
        print(f"perfbench: no dualsniff sources under {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, env, details, failures = run_workload(args.workload, args.seed, args.seconds,
                                                  args.trace)
    for failure in failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
