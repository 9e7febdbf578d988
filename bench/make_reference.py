#!/usr/bin/env python3
"""Regenerate bench/reference.json: the failure counts of each workload's
campaign at a fixed reference seed, with many more trials than a benchmark
run.  The benchmark's statistical gate compares every run against them.

    python3 bench/make_reference.py
"""

import json
import sys
import time

import run

REFERENCE_SEED = 20010
REFERENCE_TRIALS = {"plan_p1e-4": 120_000, "logical_lazy_mwpm_d9": 60_000, "race_toric_d20": 40_000}


def main() -> int:
    lq = run._import_program()
    refs = {}
    for name, workload in run.WORKLOADS.items():
        t0 = time.perf_counter()
        k, n = workload.campaign(lq, REFERENCE_TRIALS[name], REFERENCE_SEED)
        refs[name] = {"seed": REFERENCE_SEED, "trials": n, "failures": k}
        print(f"{name}: {k}/{n} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    (run.BENCH / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
