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


def _keep(path: Path, sha, value: float, seed: int = 1) -> None:
    provenance = {"git_sha": sha, "python": "3.11.7", "numpy": "2.4.6", "blas": "b",
                  "blas_threads": 1, "nproc": 2, "seed": seed, "seconds": 20.0}
    metrics = {spec["name"]: {"value": value, "unit": spec["unit"]} for spec in SPECS}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    path.write_text("summary lines\n" + json.dumps({"provenance": provenance}) + "\n"
                    + json.dumps(result) + "\n")


def _keep_run(logs: Path, seed: int = 1, sha=True) -> Path:
    logs.mkdir(exist_ok=True)
    for side, values in RUNS.items():
        commit = side * 5 if sha else None
        for workload in bench_record.WORKLOADS:
            for pair, value in enumerate(values):
                _keep(logs / f"{side}-{workload}-pair{pair}.out", commit, value, seed)
            _keep(logs / f"{side}-{workload}-trace.out", commit, 1.5, seed)
    return logs


@pytest.fixture
def logs(tmp_path):
    return _keep_run(tmp_path)


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
    assert bench["traced"]["link-limits seed 1"]["change"]["metrics"]["ops_per_s"] == 1.5


def test_record_keeps_the_timed_calls(logs, tmp_path):
    calls = {"parent": {"f()": 2.0}, "change": {"f()": 1.0}}
    (logs / "calls.json").write_text(json.dumps(calls))
    out = tmp_path / "BENCH.json"
    bench_record.main(["record", str(logs), str(out), "--what", "w"])
    assert json.loads(out.read_text())["calls_ms"]["f() seed 1"] == {"parent": 2.0, "change": 1.0}


def test_record_keeps_the_timed_calls_of_every_seed(tmp_path):
    first, second = _keep_run(tmp_path / "seed1"), _keep_run(tmp_path / "seed3", seed=3)
    for logs, ms in ((first, 2.0), (second, 3.0)):
        calls = {"parent": {"f()": ms, "g()": 1.0}, "change": {"f()": ms / 2, "g()": 1.0}}
        (logs / "calls.json").write_text(json.dumps(calls))
    out = tmp_path / "BENCH.json"
    bench_record.main(["record", str(first), str(second), str(out), "--what", "w"])
    calls = json.loads(out.read_text())["calls_ms"]
    assert list(calls) == ["how", "f() seed 1", "g() seed 1", "f() seed 3", "g() seed 3"]
    assert calls["f() seed 1"] == {"parent": 2.0, "change": 1.0}
    assert calls["f() seed 3"] == {"parent": 3.0, "change": 1.5}


def test_record_refuses_a_single_pair(logs, tmp_path):
    for path in logs.glob("*-pair[12].out"):
        path.unlink()
    with pytest.raises(SystemExit, match="at least two complete pairs"):
        bench_record.main(["record", str(logs), str(tmp_path / "BENCH.json"), "--what", "w"])


def test_record_puts_one_run_per_seed_into_one_file(tmp_path):
    first, second = _keep_run(tmp_path / "seed1"), _keep_run(tmp_path / "seed2", seed=2)
    out = tmp_path / "BENCH.json"
    bench_record.main(["record", str(first), str(second), str(out), "--what", "w"])
    bench = json.loads(out.read_text())
    keys = [f"{workload} seed {seed}" for seed in (1, 2) for workload in bench_record.WORKLOADS]
    assert list(bench["end_to_end"]) == keys and list(bench["traced"]) == keys
    assert bench["end_to_end"]["dense-verify seed 2"]["seed"] == 2
    with pytest.raises(SystemExit, match="dense-verify seed 1 appears in more than one LOG_DIR"):
        bench_record.main(["record", str(first), str(first), str(out), "--what", "w"])


def test_record_refuses_a_null_commit(tmp_path):
    # an export has no git_sha, so its commit must be named by hand
    logs, out = _keep_run(tmp_path / "logs", sha=False), tmp_path / "BENCH.json"
    missing = "no git_sha in the parent provenance; pass --parent-commit"
    with pytest.raises(SystemExit, match=missing):
        bench_record.main(["record", str(logs), str(out), "--what", "w"])
    with pytest.raises(SystemExit, match="pass --change-commit"):
        bench_record.main(["record", str(logs), str(out), "--what", "w", "--parent-commit", "p"])
    assert not out.exists()
    bench_record.main(["record", str(logs), str(out), "--what", "w",
                       "--parent-commit", "p", "--change-commit", "c"])
    bench = json.loads(out.read_text())
    assert (bench["parent_commit"], bench["change_commit"]) == ("p", "c")
    assert bench["traced"]["cli-sweep seed 1"]["parent"]["commit"] == "p"


def test_calls_alternate_the_sides_and_keep_each_minimum(monkeypatch):
    monkeypatch.setattr(bench_record, "CALL_REPEATS", 3)
    order, clock = [], iter(range(100, 0, -1))

    def time_call(side, expr):
        order.append((side, expr))
        return float(next(clock))

    times = bench_record._alternate(time_call, ["f()", "g()"])
    assert order == [(side, expr) for expr in ("f()", "g()") for _ in range(3)
                     for side in ("parent", "change")]
    # the clock only falls, so each side's minimum is its last call
    assert times == {"parent": {"f()": 96.0, "g()": 90.0}, "change": {"f()": 95.0, "g()": 89.0}}


def test_calls_are_timed_in_one_interpreter_per_checkout(monkeypatch):
    monkeypatch.setattr(bench_record, "CALL_REPEATS", 2)
    root = str(bench_record.ROOT)
    times = bench_record._time_calls({"parent": root, "change": root}, ["sf_table(harmonic(), 4)"])
    assert all(0 < times[side]["sf_table(harmonic(), 4)"] < 1e3 for side in bench_record.SIDES)
