"""Set-up probe: what a fresh interpreter pays before any command does work.

Imports ``dualsniff.cli``, loads the workload's config and draws its audit
instances, then prints the in-process import time as JSON. The caller times
the whole process from spawn to exit.

Usage: python3 perfbench/probe.py CONFIG SEED N_BAND0 N_BAND1
"""

import json
import sys
import time

t0 = time.perf_counter()
import dualsniff.cli  # noqa: E402

import_s = time.perf_counter() - t0

from inputs import draw_audit_instances  # noqa: E402

if __name__ == "__main__":
    config, seed, n0, n1 = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    dualsniff.cli.load_setup(config)
    draw_audit_instances(seed, (n0, n1))
    print(json.dumps({"import_s": import_s}))
