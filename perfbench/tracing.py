"""In-process span tracer and the per-layer metrics it yields.

The benchmark wraps the package's public functions where their callers look
them up (``dualsniff.cli.parse_log``, ``dualsniff.tdoa.solve_constrained``,
``dualsniff.toa.ellipse_scan``, ...), so no program file changes. Each call
becomes a span (name, start, end, parent); spans stay in memory until the
run ends. A span's self time is its duration minus its children's, and a
layer's self time is the sum over the spans named after it. Layers are the
package's modules; ``kernels`` is ``dualsniff._kernels``, and ``geometry``
and ``errors`` are helpers whose time falls to their callers.
"""

import functools
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from dualsniff import bruteforce, cli, tdoa, toa
from dualsniff.geometry import distance
from dualsniff.tdoa import BRANCH_TOL
from dualsniff.toa import NEWTON_TOL
from inputs import COMMANDS

TOA_FAILURES = ("AmbiguousSolution", "NoIntersection", "InfeasibleObservation")
TDOA_FAILURES = ("ValueError", "NoRealRoot", "AmbiguousSolution", "DegenerateGeometry",
                 "InfeasibleObservation", "RankDeficient")
LAYERS = ("configio", "timing", "snifferlog", "toa", "tdoa", "kernels", "bruteforce", "stats")

#: Per-layer metrics: name -> (unit, better, the end-to-end metric and
#: workload a change in it should move). Figures cover one traced pass: the
#: four commands and the workload's audit instances.
PER_LAYER = {
    "snifferlog.parse_log_us_per_line": ("us", "lower", "locate_tdoa_s, locate_toa_s, locate_peak_rss_mb on busy-cell"),
    "snifferlog.lines": ("count", "lower", "input size behind locate_*_s; 21 RNTIs per subframe on busy-cell"),
    "snifferlog.diagnostics": ("count", "lower", "none: simulated logs parse cleanly"),
    "snifferlog.filter_rnti_kept_share": ("ratio", "higher", "locate_*_s on busy-cell, where 1/21 is kept"),
    "snifferlog.match_records_us_per_sample": ("us", "lower", "locate_tdoa_s on clean-capture"),
    "snifferlog.matched_share": ("ratio", "higher", "unsolved_share everywhere"),
    "snifferlog.write_log_us_per_record": ("us", "lower", "simulate_s on busy-cell"),
    "timing.simulate_capture_us_per_record": ("us", "lower", "simulate_s, simulate_peak_rss_mb on busy-cell"),
    "toa.solve_toa_us.p50": ("us", "lower", "locate_toa_s on clean-capture"),
    "toa.solve_toa_us.p99": ("us", "lower", "locate_toa_s on clean-capture"),
    "kernels.ellipse_scan_us.p50": ("us", "lower", "locate_toa_s on clean-capture"),
    **{f"toa.failed.{name}": ("count", "lower", "unsolved_share, toa_err_p50_m")
       for name in TOA_FAILURES + ("other",)},
    "toa.closest_approach": ("count", "lower", "toa_err_p50_m"),
    "toa.unsolved_share": ("ratio", "lower", "unsolved_share on clean-capture"),
    "tdoa.solve_constrained_us.p50": ("us", "lower", "locate_tdoa_s on clean-capture"),
    "tdoa.solve_constrained_us.p99": ("us", "lower", "locate_tdoa_s on clean-capture"),
    "tdoa.solve_normal_equations_us.p50": ("us", "lower", "locate_tdoa_s on busy-cell"),
    "tdoa.form_build_us_per_sample": ("us", "lower", "locate_tdoa_s on clean-capture"),
    **{f"tdoa.failed.{name}": ("count", "lower", "unsolved_share, tdoa_err_p50_m on busy-cell")
       for name in TDOA_FAILURES + ("other",)},
    "tdoa.out_of_band": ("count", "lower", "tdoa_err_p50_m"),
    "tdoa.ghost_branch": ("count", "lower", "tdoa_err_p50_m"),
    "tdoa.unsolved_share": ("ratio", "lower", "unsolved_share on busy-cell"),
    **{f"cli.{cmd}_self_s": ("s", "lower", f"{cmd}_s" + (" on busy-cell" if cmd == "simulate" else ""))
       for cmd in COMMANDS},
    "cli.import_s": ("s", "lower", "setup_s everywhere, and report_s"),
    "configio.load_setup_ms": ("ms", "lower", "setup_s everywhere"),
    "stats.summarize_ms": ("ms", "lower", "report_s"),
    "bruteforce.annulus_minimum_s.p50": ("s", "lower", "audit_s_per_instance everywhere"),
    "bruteforce.annulus_minimum_s.max": ("s", "lower", "audit_s_per_instance everywhere"),
    "bruteforce.grid_share": ("ratio", "lower", "audit_s_per_instance everywhere"),
    "bruteforce.cost_evals": ("count", "lower", "audit_s_per_instance everywhere"),
    "bruteforce.grid_points": ("count", "lower", "audit_s_per_instance everywhere"),
    **{f"{layer}.self_s": ("s", "lower", "the command metrics whose span holds the layer")
       for layer in LAYERS},
    "trace.overhead_share": ("ratio", "lower", "none: traced over plain in-process time, minus 1"),
    "trace.accounted_share": ("ratio", "higher", "none: self time under the commands over their wall time"),
}


def _count_records(result, args):
    return {"records": len(result)}


def _count_written(result, args):
    return {"records": len(args[0])}


def _count_parsed(result, args):
    records, diagnostics = result
    return {"lines": len(records) + len(diagnostics), "diagnostics": len(diagnostics)}


def _count_filtered(result, args):
    return {"offered": len(args[0]), "kept": len(result)}


def _count_matched(result, args):
    return {"samples": len(result[0]), "possible": min(len(args[0]), len(args[1]))}


#: (module object, attribute, span name, counter) for every wrapped call site.
CALL_SITES = (
    (cli, "load_setup", "configio.load_setup", None),
    (cli, "simulate_capture", "timing.simulate_capture", _count_records),
    (cli, "write_log", "snifferlog.write_log", _count_written),
    (cli, "parse_log", "snifferlog.parse_log", _count_parsed),
    (cli, "filter_rnti", "snifferlog.filter_rnti", _count_filtered),
    (cli, "match_records", "snifferlog.match_records", _count_matched),
    (cli, "compose_D", "toa.compose_D", None),
    (cli, "solve_toa", "toa.solve_toa", None),
    (cli, "estimate_tdoa", "tdoa.estimate_tdoa", None),
    (cli, "summarize", "stats.summarize", None),
    (cli, "one_sigma_filter", "stats.one_sigma_filter", None),
    (cli, "cdf_quantile", "stats.cdf_quantile", None),
    (tdoa, "form_tdoa", "tdoa.form_tdoa", None),
    (tdoa, "build_system", "tdoa.build_system", None),
    (tdoa, "solve_constrained", "tdoa.solve_constrained", None),
    (tdoa, "solve_normal_equations", "tdoa.solve_normal_equations", None),
    (toa, "ellipse_scan", "kernels.ellipse_scan", None),
    (bruteforce, "annulus_minimum", "bruteforce.annulus_minimum", None),
    (bruteforce, "annulus_grid_min", "kernels.annulus_grid_min", None),
    (bruteforce, "pair_cost", "bruteforce.pair_cost", None),
)

#: Functions whose return values are kept for analysis after the pass.
KEEP_RESULTS = {"toa.solve_toa", "tdoa.estimate_tdoa"}


class Tracer:
    """Spans of one pass: ``spans[i] = [name, start, end, parent_index]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.raised = defaultdict(Counter)   # span name -> exception class -> count
        self.results = defaultdict(list)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name][type(exc).__name__] += 1
                raise
            if counter is not None:
                for key, value in counter(result, args).items():
                    self.counts[f"{name}.{key}"] += value
            if name in KEEP_RESULTS:
                self.results[name].append(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every call site with its traced wrapper, restoring on exit."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in CALL_SITES]
        try:
            for (module, attr, name, counter), (_, _, fn) in zip(CALL_SITES, originals):
                setattr(module, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def roots(self):
        """Index of the root span above each span."""
        root = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def self_times(self):
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name, root_prefix=""):
        """Durations of the spans called ``name`` under roots starting with ``root_prefix``."""
        roots = self.roots()
        return [end - start for i, (n, start, end, _) in enumerate(self.spans)
                if n == name and self.spans[roots[i]][0].startswith(root_prefix)]


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for a function that was never called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0


@functools.lru_cache(maxsize=None)
def grid_points(cx, cy, lo, hi):
    """Annulus points the grid oracle evaluates, counted the way ``_kernels`` builds its grid."""
    step = bruteforce.GRID_STEP
    n = int(2.0 * hi / step) + 1
    xs = cx - hi + step * np.arange(n)
    ys = cy - hi + step * np.arange(n)
    total = 0
    for chunk in np.array_split(xs, max(1, n // 256)):
        rr = (chunk[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2
        total += int(np.count_nonzero((rr >= lo * lo) & (rr <= hi * hi)))
    return total


def layer_metrics(tr, scenario, instances, command_walls):
    """Per-layer metrics of one traced pass (all of PER_LAYER but the import time)."""
    c = tr.counts

    def under_cli(name):
        return tr.durations(name, root_prefix="cli.")

    def per_unit_us(name, count):
        return 1e6 * sum(under_cli(name)) / max(count, 1)

    def us(values):
        return [1e6 * v for v in values]

    m = {
        "snifferlog.parse_log_us_per_line": per_unit_us(
            "snifferlog.parse_log", c["snifferlog.parse_log.lines"]),
        "snifferlog.lines": c["snifferlog.parse_log.lines"],
        "snifferlog.diagnostics": c["snifferlog.parse_log.diagnostics"],
        "snifferlog.filter_rnti_kept_share":
            c["snifferlog.filter_rnti.kept"] / max(c["snifferlog.filter_rnti.offered"], 1),
        "snifferlog.match_records_us_per_sample": per_unit_us(
            "snifferlog.match_records", c["snifferlog.match_records.samples"]),
        "snifferlog.matched_share":
            c["snifferlog.match_records.samples"] / max(c["snifferlog.match_records.possible"], 1),
        "snifferlog.write_log_us_per_record": per_unit_us(
            "snifferlog.write_log", c["snifferlog.write_log.records"]),
        "timing.simulate_capture_us_per_record": per_unit_us(
            "timing.simulate_capture", c["timing.simulate_capture.records"]),
    }

    toa_calls = us(under_cli("toa.solve_toa"))
    raised = tr.raised["toa.solve_toa"]
    m.update({
        "toa.solve_toa_us.p50": percentile(toa_calls, 50),
        "toa.solve_toa_us.p99": percentile(toa_calls, 99),
        "kernels.ellipse_scan_us.p50": percentile(us(under_cli("kernels.ellipse_scan")), 50),
        **{f"toa.failed.{name}": raised[name] for name in TOA_FAILURES},
        "toa.failed.other": sum(n for name, n in raised.items() if name not in TOA_FAILURES),
        "toa.closest_approach": sum(e.residual > NEWTON_TOL for e in tr.results["toa.solve_toa"]),
        "toa.unsolved_share": sum(raised.values()) / max(len(toa_calls), 1),
    })

    # the audit instances call solve_constrained too, so its latency covers both
    constrained = us(tr.durations("tdoa.solve_constrained"))
    outcomes = [o for batch in tr.results["tdoa.estimate_tdoa"] for o in batch]
    statuses = Counter(o.status for o in outcomes)
    solved = [o.estimate for o in outcomes if o.estimate is not None]
    lo, hi = scenario.band
    m.update({
        "tdoa.solve_constrained_us.p50": percentile(constrained, 50),
        "tdoa.solve_constrained_us.p99": percentile(constrained, 99),
        "tdoa.solve_normal_equations_us.p50": percentile(
            us(under_cli("tdoa.solve_normal_equations")), 50),
        "tdoa.form_build_us_per_sample": 1e6 * (
            sum(under_cli("tdoa.form_tdoa")) + sum(under_cli("tdoa.build_system"))
        ) / max(len(outcomes), 1),
        **{f"tdoa.failed.{name}": statuses[name] for name in TDOA_FAILURES},
        "tdoa.failed.other": sum(n for s, n in statuses.items() if s not in TDOA_FAILURES + ("ok",)),
        "tdoa.out_of_band": sum(not lo <= distance(e.position, scenario.enb) < hi for e in solved),
        # the residual is a range-difference miss only on the constrained path
        "tdoa.ghost_branch": sum(e.method == "constrained-elimination" and e.residual_norm > BRANCH_TOL
                                 for e in solved),
        "tdoa.unsolved_share": (len(outcomes) - len(solved)) / max(len(outcomes), 1),
    })

    own = tr.self_times()
    roots = tr.roots()
    oracle = tr.durations("bruteforce.annulus_minimum")
    m.update({
        **{f"cli.{cmd}_self_s": sum(t for (name, *_), t in zip(tr.spans, own) if name == f"cli.{cmd}")
           for cmd in COMMANDS},
        "configio.load_setup_ms": 1e3 * mean_or_zero(under_cli("configio.load_setup")),
        "stats.summarize_ms": 1e3 * mean_or_zero(under_cli("stats.summarize")),
        "bruteforce.annulus_minimum_s.p50": percentile(oracle, 50),
        "bruteforce.annulus_minimum_s.max": max(oracle, default=0.0),
        "bruteforce.grid_share": sum(tr.durations("kernels.annulus_grid_min")) / max(sum(oracle), 1e-12),
        "bruteforce.cost_evals": len(tr.durations("bruteforce.pair_cost")) / max(len(instances), 1),
        "bruteforce.grid_points": mean_or_zero(
            [grid_points(sc.enb.x, sc.enb.y, *sc.band) for sc, _ in instances]),
        **{f"{layer}.self_s": sum(t for (name, *_), t in zip(tr.spans, own)
                                  if name.split(".", 1)[0] == layer)
           for layer in LAYERS},
        "trace.accounted_share": sum(
            t for i, t in enumerate(own) if tr.spans[roots[i]][0].startswith("cli.")
        ) / sum(command_walls),
    })
    return m
