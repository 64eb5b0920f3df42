"""Regenerate reference.json, the checked outputs at the default seed.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Regenerate only for a change
that is meant to alter these numbers, and say in that change why they
moved.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import gibbs_dnls  # noqa: E402
import workloads  # noqa: E402


def main():
    ref = {
        workload: {label: workloads.summary(gibbs_dnls.run(cfg))
                   for label, cfg in workloads.setup(workload, workloads.DEFAULT_SEED)}
        for workload in workloads.WORKLOADS
    }
    text = json.dumps(ref, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
