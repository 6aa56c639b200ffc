"""Workload definitions and seeded input generation for the benchmark.

Every workload runs the whole user loop (``simulate``, ``locate --scheme
tdoa``, ``locate --scheme toa``, ``report``) plus a set of oracle audits, so
every end-to-end metric exists on every workload; the workloads differ in
which layer dominates.

What the seed changes, and what it does not:

* The seed picks the target RNTI (decoys take the RNTIs right above it), the
  frame counter at capture start (so the 1024-frame wrap falls elsewhere) and
  the audit instances.
* The clock noise seed stays at 7, the seed of the README example, of the
  ROADMAP baseline and of the known failure counts (busy-cell: 421 of 1000
  TDoA samples fail). Solver failures are ~1 % events on the ToA side, so a
  noise draw per run would scatter the failure share by 20-30 % at these
  sample counts; with the noise pinned, the failure and accuracy metrics are
  exact and any change in them is a change in behaviour.

``dualsniff`` is imported inside the functions that use it, so this module
loads before the benchmark has checked that the package is there.
"""

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: README geometry: eNb at the origin, two sniffers, device in TA band 1.
ENB = (0.0, 0.0)
SNIFFERS = ((109.7, 0.0), (0.0, 139.5))
UE_TRUTH = (80.0, 82.2)
TA_INDEX = 1
UE_HW_ERROR = 1.55e-7
SNIFFER_NOISE = 2.0e-8
NOISE_SEED = 7

#: Audit instances are drawn like acceptance criterion 3.
AUDIT_SIGMA = 1e-7
AUDIT_MAX_TA = 1
AUDIT_GAP_LIMIT = 1e-6  # m^2, criterion 3's oracle-vs-solver bound


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subframes: int
    #: (at_subframe, new position of sniffer 2), one per extra configuration.
    moves: Tuple[Tuple[int, Tuple[float, float]], ...]
    decoys: int
    #: Audit instances per TA band (band 0, band 1). The grid oracle's cost
    #: depends on the band (band 1 has four times the grid), so the count per
    #: band is fixed and only the geometry inside a band follows the seed.
    audit_per_band: Tuple[int, int]
    #: Gates of acceptance criterion 4, applied on the clean capture only.
    check_scheme_order: bool = False

    @property
    def segments(self) -> List[int]:
        cuts = [0] + [at for at, _ in self.moves] + [self.subframes]
        return [b - a for a, b in zip(cuts, cuts[1:])]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="clean-capture",
            why="solver-bound: one target, no decoys, 2 configurations; "
                "solve_toa and its ellipse scan dominate locate",
            subframes=6000, moves=((3000, (154.0, 40.0)),), decoys=0,
            audit_per_band=(1, 1), check_scheme_order=True),
        Workload(
            name="busy-cell",
            why="ingest-bound: 20 decoy RNTIs, 3 configurations; parse_log "
                "dominates locate, TDoA takes the normal-equations path",
            subframes=3000, moves=((1000, (154.0, 40.0)), (2000, (60.0, 170.0))),
            decoys=20, audit_per_band=(1, 1)),
    )
}

#: Tiny shapes of the same workloads, for the smoke test.
SMOKE = {
    "clean-capture": dict(subframes=200, moves=((100, (154.0, 40.0)),),
                          audit_per_band=(1, 0)),
    "busy-cell": dict(subframes=120, moves=((40, (154.0, 40.0)), (80, (60.0, 170.0))),
                      decoys=2, audit_per_band=(1, 0)),
}


def target_rnti(seed: int) -> int:
    return 1000 + seed % 50000


def start_frame(seed: int) -> int:
    return (seed * 389) % 1024


def config_doc(w: Workload, seed: int) -> dict:
    return {
        "scenario": {"enb": list(ENB), "sniffers": [list(s) for s in SNIFFERS],
                     "ue_truth": list(UE_TRUTH), "ta_index": TA_INDEX},
        "clock": {"ue_hw_error": UE_HW_ERROR, "sniffer_noise_sigma": SNIFFER_NOISE,
                  "rng_seed": NOISE_SEED},
        "capture": {"subframes": w.subframes, "rnti": target_rnti(seed),
                    "start_frame": start_frame(seed)},
        "relocations": [{"sniffer": 2, "at_subframe": at, "to": list(to)}
                        for at, to in w.moves],
    }


def write_config(w: Workload, seed: int, path: Path) -> None:
    # JSON is valid YAML, so the config loader reads this as is.
    path.write_text(json.dumps(config_doc(w, seed), indent=1), encoding="utf-8")


#: The user loop, in order; each entry is one CLI command.
COMMANDS = ("simulate", "locate_tdoa", "locate_toa", "report")


def command_argvs(w: Workload, seed: int, work: Path) -> Dict[str, List[str]]:
    """``dualsniff`` arguments of each command of the loop, working in ``work``."""
    cfg, out = str(work / "exp.yaml"), str(work)
    # log files in (reference, other) order per configuration
    logs = [str(work / f"sn{k}_cfg{j}.log") for j in range(1, len(w.moves) + 2) for k in (1, 2)]
    rnti = str(target_rnti(seed))
    return {
        "simulate": ["simulate", "--config", cfg, "--out-dir", out, "--decoys", str(w.decoys)],
        "locate_tdoa": ["locate", "--config", cfg, "--scheme", "tdoa", "--rnti", rnti,
                        "--out-dir", out, *logs],
        "locate_toa": ["locate", "--config", cfg, "--scheme", "toa", "--rnti", rnti,
                       "--out-dir", out, *logs[:2]],
        "report": ["report", str(work / "estimates_tdoa.csv"), str(work / "estimates_toa.csv")],
    }


# ---------------------------------------------------------------------------
# audit instances
# ---------------------------------------------------------------------------
# The draw follows the acceptance suite's criterion 3: a random non-degenerate
# eNb-centred layout with three sniffers, noisy deltas, and redraws until the
# constrained solve lands on the true branch inside the TA annulus.

BOX_HALF = 250.0
MIN_SEPARATION = 20.0
MIN_TRIANGLE_AREA = 500.0
BAND_MARGIN = 5.0
NODE_MARGIN = 10.0


def _draw_scenario(rng):
    from dualsniff.geometry import Position, Scenario, distance, ta_band, triangle_area
    from dualsniff.timing import quantize_ta

    def point():
        return Position(float(rng.uniform(-BOX_HALF, BOX_HALF)),
                        float(rng.uniform(-BOX_HALF, BOX_HALF)))

    enb = Position(0.0, 0.0)
    while True:
        sniffers = tuple(point() for _ in range(3))
        ue = point()
        nodes = [enb, *sniffers]
        if any(distance(a, b) < MIN_SEPARATION
               for i, a in enumerate(nodes) for b in nodes[i + 1:]):
            continue
        triples = [(enb, sniffers[0], sniffers[1]), (enb, sniffers[0], sniffers[2]),
                   (enb, sniffers[1], sniffers[2]), sniffers]
        if any(triangle_area(*t) < MIN_TRIANGLE_AREA for t in triples):
            continue
        d_ub = distance(enb, ue)
        ta_index = quantize_ta(d_ub)[0]
        lo, hi = ta_band(ta_index)
        if d_ub - lo < BAND_MARGIN or hi - d_ub < BAND_MARGIN:
            continue
        if any(distance(ue, n) < NODE_MARGIN for n in nodes):
            continue
        return Scenario(enb=enb, sniffers=sniffers, ue_truth=ue, ta_index=ta_index)


def draw_audit_instances(seed: int, per_band: Tuple[int, int]):
    """``per_band[b]`` criterion-3 instances in TA band ``b``: (scenario, pairs)."""
    from dualsniff.errors import LocalizationError
    from dualsniff.geometry import distance
    from dualsniff.tdoa import BRANCH_TOL, build_system, form_tdoa, solve_constrained
    from dualsniff.timing import ClockConfig, subframe_delta

    rng = np.random.default_rng(seed)
    wanted = list(per_band)
    drawn = []
    while any(wanted):
        sc = _draw_scenario(rng)
        if sc.ta_index > AUDIT_MAX_TA:
            continue
        cfg = ClockConfig.for_scenario(sc)
        clean = [subframe_delta(sc, k, cfg) for k in range(3)]
        deltas = np.array(clean) + rng.normal(0.0, AUDIT_SIGMA, 3)
        try:
            pairs = [form_tdoa(deltas[0], deltas[k], sc.sniffers[0], sc.sniffers[k],
                               sc.enb) for k in (1, 2)]
            est = solve_constrained(build_system(pairs), sc.sniffers[0], sc.band, sc.enb)
        except LocalizationError:
            continue
        lo, hi = sc.band
        if est.residual_norm > BRANCH_TOL or not lo <= distance(est.position, sc.enb) < hi:
            continue
        if wanted[sc.ta_index]:
            wanted[sc.ta_index] -= 1
            drawn.append((sc, pairs))
    return drawn


def audit_instance(sc, pairs):
    """One audit: constrained solve, then the grid oracle over the same annulus.

    Returns the oracle-vs-solver cost gap in m^2. Module attributes are looked
    up at call time, so the tracer's wrappers see these calls.
    """
    from dualsniff import bruteforce, tdoa

    est = tdoa.solve_constrained(tdoa.build_system(pairs), sc.sniffers[0],
                                 sc.band, sc.enb)
    _, cost = bruteforce.annulus_minimum(sc.enb, sc.band, pairs)
    return abs(est.residual_norm ** 2 - cost)


def p50_error(csv_text: str) -> float:
    """Median position error over every attempted sample of an estimates CSV.

    An unsolved sample counts as infinitely wrong, so dropping hard samples
    cannot improve the figure.
    """
    errors = []
    for line in csv_text.splitlines()[1:]:
        parts = line.split(",")
        errors.append(float(parts[6]) if parts[7] == "ok" and parts[6] else math.inf)
    return statistics.median(errors)
