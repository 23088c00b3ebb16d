"""Benchmark of the defosc pipeline: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload dense-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  --trace 0 measures the end-to-end metrics: set-up (fresh
interpreters importing defosc, plus input generation), then the
workload's operation cycle with one client, in whole cycles until
--seconds have passed, then every output against its oracle.  --trace 1
runs a fixed number of cycles untraced and then traced, and reports the
per-layer metrics.  The
last line of stdout is the result as one JSON object; a fuller record,
with provenance and the spans of a traced run, goes to .bench_out/.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os
import sys

# One client, one process: BLAS gets one thread (never more than nproc),
# set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
# The tail is reported at a fixed percentile per workload, so that two
# commits are compared at the same one: the highest of TAIL_LADDER that
# keeps TAIL_BEYOND samples beyond it at the sample count of a run of the
# seed commit (dense-verify: 74 ops; the others: thousands).  A run with
# fewer samples steps down the ladder, and the output says which was used.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_PERCENTILE = {"dense-verify": 75.0, "cli-sweep": 99.0, "link-limits": 99.0}
TAIL_BEYOND = 10
# Cycles per pass of the traced run: fixed, so its counts repeat exactly.
TRACE_CYCLES = {"dense-verify": 1, "cli-sweep": 12, "link-limits": 10}

# The end-to-end times are scaled to a reference CPU speed.  On a shared
# 2-CPU container host the CPU speed switched by up to 1.4x for seconds to
# minutes at a time, which moved every raw time metric by 15-35% between
# runs of the same code.  A fixed pure-Python loop, timed at least every
# CAL_INTERVAL_S between operations, measures the current speed; an
# operation's wall time is multiplied by CAL_REFERENCE_S over the mean of
# the loop's times just before and just after it.  The loop calls a
# function, raises a float to a power and appends to a list, as the
# package's own Python code does: it tracked the command-line latencies
# about three times more closely than a bare arithmetic loop.  Raw figures
# go to the provenance.
CAL_ITERATIONS = 2_500
CAL_REFERENCE_S = 0.0006  # the loop's usual time on that host
CAL_INTERVAL_S = 0.1


def _import_package():
    if not (SRC / "defosc" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'defosc'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import defosc

    if Path(defosc.__file__).resolve().parent != (SRC / "defosc").resolve():
        sys.exit(f"error: imported defosc from {defosc.__file__}, not from {SRC}")
    return defosc


# --------------------------------------------------------------------------
# executing and judging operations
# --------------------------------------------------------------------------


def execute(op, typed_error):
    """(value, None) or (None, (kind, message)); kind is typed or untyped."""
    try:
        value = op.run()
    except typed_error as exc:
        return None, ("typed", f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        return None, ("untyped", f"{type(exc).__name__}: {exc}")
    if getattr(value, "code", None) == 2:
        return value, ("typed", "exit 2")
    return value, None


def judge(op, value, error) -> tuple[str, str]:
    """ok / typed / failed, with the oracle's reason for a failure."""
    if op.stratum == "domain":
        if error and error[0] == "typed":
            return "typed", error[1]
        return "failed", error[1] if error else "accepted an out-of-domain input"
    if error:
        return ("typed" if error[0] == "typed" else "failed"), error[1]
    try:
        reason = op.check(value)
    except Exception as exc:  # an output the oracle cannot even read
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return ("failed", reason) if reason else ("ok", "")


def acceptable(op, verdict: str) -> bool:
    """Nominal inputs need the oracle's answer, domain inputs a typed error;
    range inputs are counted whatever they give."""
    if op.stratum == "nominal":
        return verdict == "ok"
    if op.stratum == "domain":
        return verdict == "typed"
    return True


def _same(a, b) -> bool:
    # repr also matches outputs that hold NaN, which never equals itself.
    return a == b or repr(a) == repr(b)


class Ledger:
    """Outcomes of every execution; the oracle judges each distinct op once
    and every repeat must reproduce the first outcome exactly."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.first: dict[int, tuple] = {}
        self.executions: list[int] = []
        self.diverged: Counter = Counter()

    def record(self, index: int, value, error) -> None:
        self.executions.append(index)
        if index not in self.first:
            self.first[index] = (value, error)
        elif not (_same(value, self.first[index][0]) and error == self.first[index][1]):
            self.diverged[index] += 1

    def summary(self) -> dict:
        verdicts = {
            index: judge(self.cycle[index], *outcome) for index, outcome in self.first.items()
        }
        counts = Counter(verdicts[index][0] for index in self.executions)
        counts["failed"] += sum(self.diverged.values())
        by_stratum: dict = {}
        for index in self.executions:
            stratum = self.cycle[index].stratum
            by_stratum.setdefault(stratum, Counter())[verdicts[index][0]] += 1
        problems = [
            f"{self.cycle[i].stratum}: {self.cycle[i].label}: {verdicts[i][0]} ({verdicts[i][1]})"
            for i in sorted(verdicts)
            if verdicts[i][0] != ("typed" if self.cycle[i].stratum == "domain" else "ok")
        ] + [f"not reproducible: {self.cycle[i].label}" for i in self.diverged]
        correct = not self.diverged and all(
            acceptable(self.cycle[i], verdicts[i][0]) for i in verdicts
        )
        return {
            "attempted": len(self.executions),
            "failed": counts["failed"],
            "typed": counts["typed"],
            "correct": correct,
            "by_stratum": {k: dict(v) for k, v in sorted(by_stratum.items())},
            "problems": problems,
        }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def _cal_step(x: float, k: int) -> float:
    return 0.5 * x**2 + k


def calibrate() -> float:
    """Seconds the reference loop takes now (best of two)."""
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        values = []
        for i in range(CAL_ITERATIONS):
            values.append(_cal_step(i * 1e-3, i))
        best = min(best, perf_counter() - start)
    return best


class ScaledClock:
    """Wall times of operations, kept with the calibrations around them."""

    def __init__(self) -> None:
        self.cals: list[float] = []
        self.raw: list[float] = []
        self._cal_of: list[int] = []  # index of the calibration before each op
        self._last = -math.inf

    def before(self) -> None:
        if perf_counter() - self._last >= CAL_INTERVAL_S:
            self.cals.append(calibrate())
            self._last = perf_counter()

    def record(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._cal_of.append(len(self.cals) - 1)

    def scaled(self) -> list[float]:
        self.cals.append(calibrate())  # closes the last window
        return [
            t * CAL_REFERENCE_S / (0.5 * (self.cals[i] + self.cals[i + 1]))
            for t, i in zip(self.raw, self._cal_of)
        ]


def measure_setup(ops, workload: str, seed: int):
    """Median over SETUP_REPEATS of (fresh-interpreter import + input
    generation), scaled like the operations; also the raw median."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    clock = ScaledClock()
    for _ in range(SETUP_REPEATS):
        clock.before()
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import defosc"],
            env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        cycle = ops.build(workload, seed)
        clock.record(perf_counter() - start)
    return statistics.median(clock.scaled()), statistics.median(clock.raw), cycle


def warm_up(ops, workload: str, seed: int, typed_error) -> None:
    for op in ops.build(workload, seed, warmup=True):
        execute(op, typed_error)


def timed_loop(cycle, seconds: float, typed_error):
    """Whole cycles until at least `seconds` have passed.

    Stopping only between cycles keeps every run's operation mix, and so
    its failure shares and latency percentiles, identical; a dense-verify
    cycle mixes 5 ms and 3 s operations, so a cut inside one would make
    the mix depend on where the clock ran out.
    """
    ledger = Ledger(cycle)
    clock = ScaledClock()
    start = perf_counter()
    while True:
        for index, op in enumerate(cycle):
            clock.before()
            t0 = perf_counter()
            value, error = execute(op, typed_error)
            clock.record(perf_counter() - t0)
            ledger.record(index, value, error)
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return ledger, clock, elapsed


def tail(times: list[float], highest: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by the nearest-rank rule."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (p for p in TAIL_LADDER if p <= highest):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n - math.ceil(n / 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "defosc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def provenance(args, cycle, nproc: int, extra: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout is not a stable interface
        blas_name = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycle_ops": len(cycle),
        **extra,
    }


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def run_untraced(args, ops, typed_error):
    setup_s, raw_setup_s, cycle = measure_setup(ops, args.workload, args.seed)
    warm_up(ops, args.workload, args.seed, typed_error)
    ledger, clock, elapsed = timed_loop(cycle, args.seconds, typed_error)
    rss = peak_rss_mb()
    times = clock.scaled()
    summary = ledger.summary()
    n = summary["attempted"]
    highest = TAIL_PERCENTILE[args.workload]
    pct, tail_s, beyond = tail(times, highest)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "failed_frac": (summary["failed"] / n, "frac"),
        "typed_error_frac": (summary["typed"] / n, "frac"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "ops": n, "tail_percentile": pct, "tail_samples_beyond": beyond,
        "elapsed_s": elapsed,
        "speed_factor": CAL_REFERENCE_S / statistics.median(clock.cals),
        "raw_setup_s": raw_setup_s,
        "raw_ops_per_s": n / sum(clock.raw),
        "raw_op_p50_ms": 1e3 * statistics.median(clock.raw),
        "raw_op_tail_ms": 1e3 * tail(clock.raw, highest)[1],
    }
    return cycle, summary, metrics, extra


def run_traced(args, ops, spans, typed_error):
    cycle = ops.build(args.workload, args.seed)
    warm_up(ops, args.workload, args.seed, typed_error)
    cycles = TRACE_CYCLES[args.workload]
    ledger = Ledger(cycle)

    start = perf_counter()
    for _ in range(cycles):
        for index, op in enumerate(cycle):
            ledger.record(index, *execute(op, typed_error))
    untraced = perf_counter() - start

    tracer = spans.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        for _ in range(cycles):
            for index, op in enumerate(cycle):
                before = sum(tracer.errors.values())
                value, error = execute(op, typed_error)
                # A refusal no wrapped function raised (argparse, or a check
                # inside cli itself) belongs to the layer the op entered.
                if error and error[0] == "typed" and sum(tracer.errors.values()) == before:
                    tracer.errors[op.entry] += 1
                ledger.record(index, value, error)
        traced = perf_counter() - start
    finally:
        tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    metrics = tracer.metrics(traced / untraced - 1.0)
    extra = {"ops": len(ledger.executions), "trace_cycles": cycles,
             "untraced_s": untraced, "traced_s": traced, "spans_file": spans_path.name}
    return cycle, ledger.summary(), metrics, extra


def pin_to_one_cpu() -> None:
    """Run the benchmark, and the interpreters it starts, on one CPU, so the
    calibration loop and the operations it scales share that CPU's speed."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control on this platform
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-verify", "cli-sweep", "link-limits"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _nproc()
    pin_to_one_cpu()
    defosc = _import_package()
    import ops
    import spans

    typed_error = defosc.DeformedAlgebraError
    if args.trace:
        cycle, summary, metrics, extra = run_traced(args, ops, spans, typed_error)
    else:
        cycle, summary, metrics, extra = run_untraced(args, ops, typed_error)
    prov = provenance(args, cycle, nproc, extra)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {summary['attempted']}  correct {summary['correct']}")
    for stratum, counts in summary["by_stratum"].items():
        print(f"  oracle {stratum:8s} " + "  ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    for problem in summary["problems"]:
        print(f"  {problem}")
    if not args.trace:
        print(f"  tail = p{extra['tail_percentile']:g} of {extra['ops']} ops "
              f"({extra['tail_samples_beyond']} beyond)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(json.dumps({"provenance": prov}))

    OUT.mkdir(exist_ok=True)
    record = {"provenance": prov, "oracle": summary,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
