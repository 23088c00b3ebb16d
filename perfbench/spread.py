"""Run-to-run spread of the benchmark, and repeatability of traced counts.

    python3 perfbench/spread.py --seeds 1-10                # every workload
    python3 perfbench/spread.py --seeds 1-5 --workloads cli-sweep
    python3 perfbench/spread.py --repeat-trace --seeds 3    # counts repeat exactly?

For each workload the benchmark runs once per seed with BENCHMARK.json's
run_seconds; for each end-to-end metric the spread is the distance
between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of their median, shown
against the metric's bound.  --repeat-trace runs the traced run twice per
seed and compares every count-valued per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(args) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run(workload, seed, 0, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        report[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float("inf")
            flag = "ok" if share < bound / 3 else ("WIDE" if share <= bound else "OVER")
            report[workload][name] = {"median": median, "spread": share, "bound": bound,
                                      "values": values}
            print(f"  {name:18s} median {median:12.6g}  spread {share:8.4f}  "
                  f"bound {bound:5.2f}  {flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(report, indent=1) + "\n")


def repeat_trace(args) -> None:
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")}
    for workload in args.workloads:
        for seed in args.seeds:
            first, second = (run(workload, seed, 1, args.seconds)["metrics"] for _ in range(2))
            differ = sorted(n for n in counts if first[n]["value"] != second[n]["value"])
            print(f"{workload} seed {seed}: {len(counts)} counts, "
                  f"{'all repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")


def main() -> None:
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--repeat-trace", action="store_true")
    args = parser.parse_args()
    (repeat_trace if args.repeat_trace else spread)(args)


if __name__ == "__main__":
    main()
