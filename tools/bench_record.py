"""Record perfbench runs of a parent and a change commit as BENCH_<pr>.json.

    python tools/bench_record.py run PARENT_DIR CHANGE_DIR LOG_DIR \\
        [--pairs 10] [--seed 1] [--call EXPR ...]
    python tools/bench_record.py record LOG_DIR BENCH_<pr>.json --what TEXT \\
        [--note TEXT ...] [--parent-commit SHA] [--change-commit SHA]

PARENT_DIR and CHANGE_DIR are clean exports of the two commits (for
example `git archive <sha> | tar -x -C DIR`), each with its own
perfbench/ and src/.  `run` runs every workload in PAIRS alternating
pairs of untraced runs of BENCHMARK.json's run_seconds each (the parent
first in even-numbered pairs, counting from 0), then one traced run of
each side, and keeps the
stdout of each run as LOG_DIR/<side>-<workload>-<run>.out.  With
--call it also times each Python expression in each checkout, after
`from defosc import *`: the minimum of 7 repeats in one interpreter.

`record` reads the last two lines of each kept output (perfbench's
provenance and result JSON lines) and writes, per workload, the median,
quartiles and runs of every end-to-end metric of BENCHMARK.json for
both sides, the pairs the change wins, the relative change of the
median and the parent's interquartile range, then the per-layer metrics
of the traced runs, the host and the timed calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("dense-verify", "cli-sweep", "link-limits")
SIDES = ("parent", "change")
CALL_REPEATS = 7

_TIME_CALLS = """
import json, sys, timeit
sys.path.insert(0, "src")
from defosc import *
times = {}
for expr in sys.argv[1:]:
    timer = timeit.Timer(expr, globals=globals())
    number, _ = timer.autorange()
    times[expr] = min(timer.repeat(%d, number)) / number * 1e3
print(json.dumps(times))
""" % CALL_REPEATS


def _perfbench(checkout: str, workload: str, seed: int, trace: int) -> str:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    return subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout


def run(args) -> None:
    logs = Path(args.logs)
    logs.mkdir(parents=True, exist_ok=True)
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in WORKLOADS:
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                out = _perfbench(checkouts[side], workload, args.seed, 0)
                (logs / f"{side}-{workload}-pair{pair}.out").write_text(out)
        for side in SIDES:
            out = _perfbench(checkouts[side], workload, args.seed, 1)
            (logs / f"{side}-{workload}-trace.out").write_text(out)
    if args.call:
        calls = {
            side: json.loads(subprocess.run(
                [sys.executable, "-c", _TIME_CALLS, *args.call], cwd=checkouts[side],
                capture_output=True, text=True, check=True).stdout)
            for side in SIDES
        }
        (logs / "calls.json").write_text(json.dumps(calls, indent=1) + "\n")


def _read(path: Path) -> tuple[dict, dict]:
    provenance, result = path.read_text().splitlines()[-2:]
    return json.loads(provenance)["provenance"], json.loads(result)


def _stats(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1 if spec["better"] == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    before, after = _stats(parent), _stats(change)
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": before, "change": after,
        "change_wins": sum(gain > 0 for gain in gains),
        "ties": sum(gain == 0 for gain in gains),
        "median_change_rel": (after["median"] - before["median"]) / before["median"]
        if before["median"] else 0.0,
        "parent_iqr": before["q3"] - before["q1"],
    }


def record(args) -> None:
    logs = Path(args.logs)
    specs = BENCHMARK["end_to_end"]
    commits = {"parent": args.parent_commit, "change": args.change_commit}
    end_to_end, traced, host = {}, {}, {}
    for workload in WORKLOADS:
        runs = {side: sorted(logs.glob(f"{side}-{workload}-pair*.out")) for side in SIDES}
        read = {side: [_read(path) for path in runs[side]] for side in SIDES}
        if len(runs["parent"]) != len(runs["change"]) or len(runs["parent"]) < 2:
            sys.exit(f"error: {workload} needs at least two complete pairs in {logs}")
        provenance = read["parent"][0][0]
        host = {key: provenance[key] for key in ("python", "numpy", "blas", "blas_threads", "nproc")}
        for side in SIDES:
            commits[side] = commits[side] or read[side][0][0]["git_sha"]
        entry = {
            "seed": provenance["seed"], "seconds": provenance["seconds"],
            "pairs": len(runs["parent"]),
            "correct": [all(result["correct"] for _, result in read[side]) for side in SIDES],
        }
        for spec in specs:
            values = {side: [result["metrics"][spec["name"]]["value"] for _, result in read[side]]
                      for side in SIDES}
            entry[spec["name"]] = _compare(spec, values["parent"], values["change"])
        end_to_end[f"{workload} seed {provenance['seed']}"] = entry
        traced[workload] = {}
        for side in SIDES:
            provenance, result = _read(logs / f"{side}-{workload}-trace.out")
            traced[workload][side] = {
                "commit": commits[side], "workload": workload, "seed": provenance["seed"],
                "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
            }
    out = {
        "what": args.what,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1, "
                   "each side from a clean export of its commit",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "end_to_end": end_to_end,
        "traced": traced,
        "host": host,
    }
    calls = logs / "calls.json"
    if calls.is_file():
        times = json.loads(calls.read_text())
        out["calls_ms"] = {
            "how": f"minimum of {CALL_REPEATS} repeats in one interpreter per commit, "
                   "after the perfbench runs; milliseconds per call",
            **{expr: {side: times[side][expr] for side in SIDES} for expr in times["parent"]},
        }
    out["notes"] = args.note
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="run the alternating pairs and keep their output")
    runner.add_argument("parent")
    runner.add_argument("change")
    runner.add_argument("logs")
    runner.add_argument("--pairs", type=int, default=10, choices=range(2, 101), metavar="N>=2")
    runner.add_argument("--seed", type=int, default=1)
    runner.add_argument("--call", action="append", default=[])
    recorder = commands.add_parser("record", help="write BENCH_<pr>.json from kept output")
    recorder.add_argument("logs")
    recorder.add_argument("out")
    recorder.add_argument("--what", required=True)
    recorder.add_argument("--note", action="append", default=[])
    recorder.add_argument("--parent-commit")
    recorder.add_argument("--change-commit")
    args = parser.parse_args(argv)
    (run if args.command == "run" else record)(args)


if __name__ == "__main__":
    main()
