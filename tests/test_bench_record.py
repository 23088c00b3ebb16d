"""tools/bench_record.py: BENCH_<pr>.json assembled from kept perfbench output."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_record  # noqa: E402

SPECS = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
# per pair, parent then change: the change wins pairs 0 and 2 where higher
# is better, and pair 1 where lower is
RUNS = {"parent": (100.0, 110.0, 120.0), "change": (105.0, 100.0, 130.0)}


def _keep(path: Path, sha: str, value: float) -> None:
    provenance = {"git_sha": sha, "python": "3.11.7", "numpy": "2.4.6", "blas": "b",
                  "blas_threads": 1, "nproc": 2, "seed": 1, "seconds": 20.0}
    metrics = {spec["name"]: {"value": value, "unit": spec["unit"]} for spec in SPECS}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    path.write_text("summary lines\n" + json.dumps({"provenance": provenance}) + "\n"
                    + json.dumps(result) + "\n")


@pytest.fixture
def logs(tmp_path):
    for side, values in RUNS.items():
        for workload in bench_record.WORKLOADS:
            for pair, value in enumerate(values):
                _keep(tmp_path / f"{side}-{workload}-pair{pair}.out", side * 5, value)
            _keep(tmp_path / f"{side}-{workload}-trace.out", side * 5, 1.5)
    return tmp_path


def test_record_writes_medians_quartiles_and_pair_wins(logs, tmp_path):
    out = tmp_path / "BENCH.json"
    bench_record.main(["record", str(logs), str(out), "--what", "w", "--note", "n"])
    bench = json.loads(out.read_text())
    assert (bench["parent_commit"], bench["change_commit"]) == ("parent" * 5, "change" * 5)
    assert bench["notes"] == ["n"] and "calls_ms" not in bench
    entry = bench["end_to_end"]["cli-sweep seed 1"]
    assert (entry["pairs"], entry["correct"]) == (3, [True, True])
    for spec in SPECS:
        metric = entry[spec["name"]]
        assert metric["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0,
                                    "runs": [100.0, 110.0, 120.0]}
        assert metric["change"]["median"] == 105.0
        assert metric["change_wins"] == (2 if spec["better"] == "higher" else 1)
        assert metric["median_change_rel"] == pytest.approx(-5 / 110)
        assert metric["parent_iqr"] == 10.0
    assert bench["traced"]["link-limits"]["change"]["metrics"]["ops_per_s"] == 1.5


def test_record_keeps_the_timed_calls(logs, tmp_path):
    calls = {"parent": {"f()": 2.0}, "change": {"f()": 1.0}}
    (logs / "calls.json").write_text(json.dumps(calls))
    out = tmp_path / "BENCH.json"
    bench_record.main(["record", str(logs), str(out), "--what", "w"])
    assert json.loads(out.read_text())["calls_ms"]["f()"] == {"parent": 2.0, "change": 1.0}


def test_record_refuses_a_single_pair(logs, tmp_path):
    for path in logs.glob("*-pair[12].out"):
        path.unlink()
    with pytest.raises(SystemExit, match="at least two complete pairs"):
        bench_record.main(["record", str(logs), str(tmp_path / "BENCH.json"), "--what", "w"])
