"""Smoke run of the benchmark's operations against the package.

Every operation of the small warm-up cycle of each perfbench workload is
executed once and judged by its own oracle: nominal operations must
give the oracle's answer, out-of-domain operations must be refused with
a DeformedAlgebraError (exit 2 on the command line), and no operation
may raise anything untyped.  Range operations are measured, not judged.
"""

import sys
from pathlib import Path

import pytest

from defosc import DeformedAlgebraError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("dense-verify", "cli-sweep", "link-limits")


@pytest.fixture(scope="module")
def ops():
    pytest.importorskip("mpmath")
    sys.path.insert(0, str(PERFBENCH))  # ops imports its sibling oracle
    try:
        import ops as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_warmup_cycle_meets_its_oracle(ops, workload):
    problems = []
    for op in ops.build(workload, 1, warmup=True):
        try:
            value = op.run()
        except DeformedAlgebraError:
            if op.stratum == "nominal":
                problems.append(f"{op.label}: typed error on a nominal input")
            continue
        except Exception as exc:
            problems.append(f"{op.label}: untyped {type(exc).__name__}: {exc}")
            continue
        refused = getattr(value, "code", None) == 2
        if op.stratum == "domain" and not refused:
            problems.append(f"{op.label}: accepted an out-of-domain input")
        elif op.stratum == "nominal" and (reason := op.check(value)):
            problems.append(f"{op.label}: {reason}")
    assert problems == []
