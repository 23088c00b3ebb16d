"""Record perfbench runs of a parent and a change commit as BENCH_<pr>.json.

    python tools/bench_record.py run PARENT_DIR CHANGE_DIR LOG_DIR \\
        [--pairs 10] [--seed 1] [--call EXPR ...]
    python tools/bench_record.py record LOG_DIR [LOG_DIR ...] BENCH_<pr>.json \\
        --what TEXT [--note TEXT ...] [--parent-commit SHA] [--change-commit SHA]

PARENT_DIR and CHANGE_DIR are clean exports of the two commits (for
example `git archive <sha> | tar -x -C DIR`), each with its own
perfbench/ and src/.  `run` runs every workload in PAIRS alternating
pairs of untraced runs of BENCHMARK.json's run_seconds each (the parent
first in even-numbered pairs, counting from 0), then one traced run of
each side, and keeps the
stdout of each run as LOG_DIR/<side>-<workload>-<run>.out.  With
--call it also times each Python expression in one interpreter per
checkout, after `from defosc import *`: 7 repeats per side, taken
parent, change, parent, ... so that host drift falls on both sides, and
the minimum of each side's repeats.

`record` reads the last two lines of each kept output (perfbench's
provenance and result JSON lines) of every LOG_DIR, one `run` each (for
example one per seed), and writes, per workload and seed, the median,
quartiles and runs of every end-to-end metric of BENCHMARK.json for
both sides, the pairs the change wins, the relative change of the
median and the parent's interquartile range, then the per-layer metrics
of the traced runs, the host and the timed calls, each keyed
"<expr> seed <n>" by the seed of its LOG_DIR.  A side whose
provenance names no commit (an export has no git_sha) needs
--parent-commit or --change-commit.
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

# one interpreter per checkout: reads a JSON expression per line and
# answers the milliseconds one call of it takes, over autorange's count
_CALL_WORKER = """
import json, sys, timeit
sys.path.insert(0, "src")
from defosc import *
numbers = {}
for line in sys.stdin:
    timer = timeit.Timer(json.loads(line), globals=globals())
    if line not in numbers:
        numbers[line] = timer.autorange()[0]
    print(timer.timeit(numbers[line]) / numbers[line] * 1e3, flush=True)
"""


def _alternate(time_call, exprs) -> dict:
    """Per side and expression, the minimum of CALL_REPEATS calls of
    time_call(side, expr), taken parent, change, parent, ..."""
    times = {side: {} for side in SIDES}
    for expr in exprs:
        for _ in range(CALL_REPEATS):
            for side in SIDES:
                ms = time_call(side, expr)
                times[side][expr] = min(times[side].get(expr, ms), ms)
    return times


def _time_calls(checkouts: dict, exprs) -> dict:
    workers = {side: subprocess.Popen([sys.executable, "-c", _CALL_WORKER], cwd=checkouts[side],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for side in SIDES}

    def time_call(side, expr):
        workers[side].stdin.write(json.dumps(expr) + "\n")
        workers[side].stdin.flush()
        return float(workers[side].stdout.readline())

    try:
        return _alternate(time_call, exprs)
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()


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
        calls = _time_calls(checkouts, args.call)
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
    specs = BENCHMARK["end_to_end"]
    commits = {"parent": args.parent_commit, "change": args.change_commit}
    end_to_end, traced, host, calls = {}, {}, {}, {side: {} for side in SIDES}
    for logs in map(Path, args.logs):
        for workload in WORKLOADS:
            runs = {side: sorted(logs.glob(f"{side}-{workload}-pair*.out")) for side in SIDES}
            read = {side: [_read(path) for path in runs[side]] for side in SIDES}
            if len(runs["parent"]) != len(runs["change"]) or len(runs["parent"]) < 2:
                sys.exit(f"error: {workload} needs at least two complete pairs in {logs}")
            provenance = read["parent"][0][0]
            host = {key: provenance[key]
                    for key in ("python", "numpy", "blas", "blas_threads", "nproc")}
            for side in SIDES:
                commits[side] = commits[side] or read[side][0][0]["git_sha"]
            key = f"{workload} seed {provenance['seed']}"
            if key in end_to_end:
                sys.exit(f"error: {key} appears in more than one LOG_DIR")
            entry = end_to_end[key] = {
                "seed": provenance["seed"], "seconds": provenance["seconds"],
                "pairs": len(runs["parent"]),
                "correct": [all(result["correct"] for _, result in read[side]) for side in SIDES],
            }
            for spec in specs:
                values = {side: [result["metrics"][spec["name"]]["value"]
                                 for _, result in read[side]] for side in SIDES}
                entry[spec["name"]] = _compare(spec, values["parent"], values["change"])
            traced[key] = {}
            for side in SIDES:
                provenance, result = _read(logs / f"{side}-{workload}-trace.out")
                traced[key][side] = {
                    "commit": commits[side], "workload": workload, "seed": provenance["seed"],
                    "metrics": {name: metric["value"]
                                for name, metric in result["metrics"].items()},
                }
        if (logs / "calls.json").is_file():  # each run's calls, keyed as its workloads are
            timed = json.loads((logs / "calls.json").read_text())
            for side in SIDES:
                calls[side].update((f"{expr} seed {provenance['seed']}", ms)
                                   for expr, ms in timed[side].items())
    for side in SIDES:
        if not commits[side]:
            sys.exit(f"error: no git_sha in the {side} provenance; pass --{side}-commit")
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
    if calls["parent"]:
        out["calls_ms"] = {
            "how": f"minimum of {CALL_REPEATS} repeats in one interpreter per commit, the "
                   "commits alternating, after the perfbench runs; milliseconds per call",
            **{expr: {side: calls[side][expr] for side in SIDES} for expr in calls["parent"]},
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
    recorder.add_argument("logs", nargs="+", metavar="LOG_DIR")
    recorder.add_argument("out")
    recorder.add_argument("--what", required=True)
    recorder.add_argument("--note", action="append", default=[])
    recorder.add_argument("--parent-commit")
    recorder.add_argument("--change-commit")
    args = parser.parse_args(argv)
    (run if args.command == "run" else record)(args)


if __name__ == "__main__":
    main()
