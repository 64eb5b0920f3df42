"""The benchmark workloads' configs at seed 0 reproduce perfbench/reference.json.

The benchmark checks every run against the pinned reference; running the
same configs here makes drift past its tolerance a test failure instead
of a finding that only a benchmark run reveals.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(BENCH_DIR)]

import workloads  # noqa: E402
from gibbs_dnls import run  # noqa: E402

REFERENCE = workloads.load_reference()
SEED = workloads.DEFAULT_SEED


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(workload):
    expected = {label: exp for label, _, exp in workloads.WORKLOADS[workload]}
    for label, config in workloads.setup(workload, SEED):
        record = run(config)
        problems = workloads.reference_problems(workloads.summary(record),
                                                REFERENCE[workload][label])
        problems += workloads.verdict_problems(record, expected[label], True)
        problems += workloads.property_problems(record, config)
        assert problems == [], (label, problems)
