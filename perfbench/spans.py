"""Per-layer tracing from outside the package.

Tracer.install() replaces each public function of the layer modules with
a wrapper, at every module attribute that binds it (defosc.fock.sf_eval,
defosc.cli.link_table, the package namespace, ...), and restores the
originals on uninstall().  Each wrapped call records a span (name, start,
end, parent) in memory; self time is a span's duration minus its direct
children.  Counts are taken at the same boundaries: calls per function,
evaluations of the (h, g) callables returned by hg_for_*, bytes and
nonzeros of the arrays fock returns, verdicts of verify, and typed errors
by the innermost layer they left.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from dataclasses import fields, is_dataclass, replace
from time import perf_counter

import numpy as np

from defosc.errors import DeformedAlgebraError

# Package module -> layer.  qp belongs to the structure layer; its helpers
# run inside structure spans and are not wrapped themselves.
LAYERS = {
    "defosc.structure": "structure",
    "defosc.fock": "fock",
    "defosc.verify": "verify",
    "defosc.linkage": "linkage",
    "defosc.limits": "limits",
    "defosc.cli": "cli",
}
BINDING_MODULES = ("defosc", *LAYERS)
OBSERVE = "trace.observe"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _attributed(exc: BaseException | None) -> bool:
    # A typed error re-raised as another (sf_eval wraps the recipe's
    # overflow) stays one error, counted where it was first raised.
    while exc is not None:
        if hasattr(exc, "_perfbench_layer"):
            return True
        exc = exc.__cause__ or exc.__context__
    return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self._hg_evals = [0]
        self.levels = 0  # Phi levels requested from the (h, g) recipe
        self._ladder_depth = 0
        self.matrix_bytes = 0
        self.matrix_entries = 0
        self.matrix_nonzeros = 0
        self.verdicts: Counter = Counter()
        self._restore: list = []

    # ----------------------------------------------------------------- install

    def install(self) -> None:
        wrappers = {}
        for module_name, layer in LAYERS.items():
            module = importlib.import_module(module_name)
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module_name
                    and not name.startswith("_")
                ):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}", layer)
        for module_name in BINDING_MODULES:
            module = importlib.import_module(module_name)
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    # ------------------------------------------------------------------- spans

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        is_ladder = name == "fock.build_ladder"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if is_ladder:
                tracer._ladder_depth += 1
            tracer.calls[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except DeformedAlgebraError as exc:
                if not _attributed(exc):
                    exc._perfbench_layer = layer
                    tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent)
                if is_ladder:
                    tracer._ladder_depth -= 1
            result = tracer._observe(name, layer, args, kwargs, result)
            # Counting is not the callee's work: record it as a sibling span
            # so the parent's self time excludes it too.
            tracer.spans.append((OBSERVE, end, perf_counter(), parent))
            return result

        return wrapper

    def _observe(self, name, layer, args, kwargs, result):
        if name.startswith("structure.hg_for_"):
            return replace(result, h=self._counted(result.h), g=self._counted(result.g))
        if name == "structure.sf_from_hg" and not self._ladder_depth:
            self.levels += 1
        elif name == "fock.build_ladder":
            model = _arg(args, kwargs, 0, "model")
            if getattr(model, "variant", None) == "custom-hg":
                self.levels += _arg(args, kwargs, 1, "dim") + 1
        if layer == "fock":
            self._count_arrays(name, result)
        elif layer == "verify" and hasattr(result, "passed"):
            self.verdicts["pass" if result.passed else "fail"] += 1
        return result

    def _counted(self, fn):
        box = self._hg_evals

        def counted(n):
            box[0] += 1
            return fn(n)

        return counted

    def _count_arrays(self, name: str, result) -> None:
        # build_xp returns the ladder's arrays again; count only X and P.
        if isinstance(result, np.ndarray):
            arrays = [result]
        elif is_dataclass(result):
            keep = ("x_op", "p_op") if name == "fock.build_xp" else None
            arrays = [
                getattr(result, f.name)
                for f in fields(result)
                if (keep is None or f.name in keep)
                and isinstance(getattr(result, f.name), np.ndarray)
            ]
        else:
            return
        for array in arrays:
            self.matrix_bytes += array.nbytes
            if array.ndim == 2:
                self.matrix_entries += array.size
                self.matrix_nonzeros += int(np.count_nonzero(array))

    # ----------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            if name != OBSERVE:
                totals[name] += end - start - child_time[index]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                name, start, end, parent = span
                handle.write(json.dumps([name, start, end, parent]) + "\n")

    def metrics(self, overhead_frac: float) -> dict:
        self_ms = {name: 1e3 * value for name, value in self.self_times().items()}
        layer_ms = defaultdict(float)
        for name, value in self_ms.items():
            layer_ms[name.split(".", 1)[0]] += value
        sf_levels = self.levels
        metrics = {
            "structure.sf_from_hg.self_ms": (self_ms.get("structure.sf_from_hg", 0.0), "ms"),
            "structure.hg_evals": (self._hg_evals[0], "count"),
            "structure.hg_evals_per_level": (
                self._hg_evals[0] / sf_levels if sf_levels else 0.0, "count"),
            "structure.sf_eval.calls": (self.calls["structure.sf_eval"], "count"),
            "structure.sf_eval.self_ms": (self_ms.get("structure.sf_eval", 0.0), "ms"),
            "fock.build_ladder.self_ms": (self_ms.get("fock.build_ladder", 0.0), "ms"),
            "fock.build_xp.self_ms": (self_ms.get("fock.build_xp", 0.0), "ms"),
            "fock.hamiltonian.self_ms": (self_ms.get("fock.hamiltonian", 0.0), "ms"),
            "fock.matrix_bytes": (self.matrix_bytes, "B"),
            "fock.nonzero_frac": (
                self.matrix_nonzeros / self.matrix_entries if self.matrix_entries else 0.0,
                "frac"),
            "verify.calls": (
                sum(n for name, n in self.calls.items() if name.startswith("verify.")),
                "count"),
            "verify.self_ms": (layer_ms["verify"], "ms"),
            "verify.pass": (self.verdicts["pass"], "count"),
            "verify.fail": (self.verdicts["fail"], "count"),
            "linkage.link_table.self_ms": (self_ms.get("linkage.link_table", 0.0), "ms"),
            "linkage.check_link_consistency.calls": (
                self.calls["linkage.check_link_consistency"], "count"),
            "linkage.check_link_consistency.self_ms": (
                self_ms.get("linkage.check_link_consistency", 0.0), "ms"),
            "limits.run_limit_suite.self_ms": (
                self_ms.get("limits.run_limit_suite", 0.0), "ms"),
            "cli.main.calls": (self.calls["cli.main"], "count"),
            "cli.main.self_ms": (self_ms.get("cli.main", 0.0), "ms"),
        }
        for layer in LAYERS.values():
            metrics[f"{layer}.self_ms"] = (layer_ms[layer], "ms")
            metrics[f"{layer}.errors"] = (self.errors[layer], "count")
        metrics["trace.spans"] = (sum(1 for s in self.spans if s[0] != OBSERVE), "count")
        metrics["trace.overhead_frac"] = (overhead_frac, "frac")
        return metrics
