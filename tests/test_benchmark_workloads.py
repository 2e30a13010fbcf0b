"""The benchmark's workloads run here as the benchmark runs them: one block each, at the benchmark's sizes.

The benchmark (``benchmarks/run.py``) counts a raised exception or a failed
check as a failed operation and carries on, so a change that breaks what it
calls would show only in its own runs.  This test shows it in the test suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import run  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_a_benchmark_block_runs_without_a_failed_operation(name):
    workload = run.set_up(name, seed=1)
    block = workload.block(0)
    assert block.attempted >= 1 and block.failed == 0, workload.failures
