"""Per-layer attribution from the benchmark's side: spans, call counts, GC.

Nothing in the package is instrumented.  :class:`Tracer` wraps public entry
points for the duration of a traced unit and restores them afterwards; each
wrapper is installed where the *caller* looks the name up (for example
``convert_fir_to_standard`` on :mod:`repro.core.driver`, which imports it by
name), and the span-wiring check fails a run in which a layer that its
workload exercises never fired.  Call counts come from ``cProfile`` over the
counted units and are grouped by the package that defines each function.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from hermetic import SRC

#: layer -> entry points as ``(module, attribute path)``.  The names are the
#: package's module names, so a reader can find the code a layer covers.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "frontend": (("repro.flang.driver", "FlangCompiler.lower_to_hlfir"),),
    "flang": (("repro.flang.driver", "FlangCompiler.lower_to_fir"),
              ("repro.flang.driver", "FlangCompiler.lower_to_llvm")),
    "core": (("repro.core.driver", "convert_fir_to_standard"),),
    "ir.passes": (("repro.ir.pass_manager", "PassManager.run"),),
    "ir.clone": (("repro.ir.core", "Operation.clone"),),
    "ir.print": (("repro.ir.printer", "print_op"),),
    "machine.execute": (("repro.machine.interpreter", "Interpreter.run_main"),),
    "machine.jit.translate": (("repro.machine.jit", "compile_block"),),
    "machine.perf_model": (("repro.machine.perf", "PerformanceModel.cpu_runtime"),
                           ("repro.machine.perf", "PerformanceModel.gpu_runtime")),
    "harness.tables": tuple(("repro.harness.experiments", name) for name in (
        "table1", "table2", "table3", "table4", "table5",
        "figure3_vectorization")),
    "service.cache.get": (("repro.service.cache", "ArtifactCache.get"),),
    "service.cache.put": (("repro.service.cache", "ArtifactCache.put"),),
    "service.store.get": (("repro.service.sharded", "ShardedStore.get"),),
    "service.store.put": (("repro.service.sharded", "ShardedStore.put"),),
    "service.run_job": (("repro.service.scheduler", "run_job"),),
    "conformance.generate": (("repro.conformance.generator", "generate"),
                             ("repro.conformance.oracle", "generate")),
    "conformance.compare": (("repro.conformance.oracle",
                             "compare_observations"),),
}

#: Packages that ``calls.<package>`` reports; ``builtin`` is C functions and
#: methods, ``other`` all remaining Python.
CALL_GROUPS = ("frontend", "flang", "core", "transforms", "dialects", "ir",
               "machine", "service", "harness", "conformance", "compilers",
               "flows", "workloads", "builtin", "other")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans at layer boundaries, kept in memory, plus gen-2 GC pauses.

    A span's self time is its duration minus the durations of its direct
    child spans; spans nest strictly on one thread, so that is the part of
    the interval no child covers.  A layer re-entered directly from itself
    (``Operation.clone`` recursing into nested ops) is counted as a call
    but stays inside the outer span.
    """

    def __init__(self):
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.events: List[Tuple[str, int, int, int]] = []
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self.op = -1
        self._stack: List[List] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._gc_start = 0

    # ------------------------------------------------------------ spans
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the benchmark opens itself (an op, a unit's close)."""
        self._stack.append([name, time.perf_counter_ns(), 0])
        try:
            yield
        finally:
            self._close()

    def _close(self) -> None:
        end = time.perf_counter_ns()
        name, start, child = self._stack.pop()
        duration = end - start
        if name in self.self_ns:
            self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.events.append((name, start, duration, self.op))

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            stack.append([layer, time.perf_counter_ns(), 0])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return traced

    def _on_gc(self, phase: str, info: Dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner, name = _resolve(module, path)
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ----------------------------------------------------------- export
    def write_chrome_trace(self, path: Path, process_name: str) -> None:
        """All spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
        events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        base = min((start for _, start, _, _ in self.events), default=0)
        for name, start, duration, op in self.events:
            events.append({"ph": "X", "name": name, "cat": name.split(".")[0],
                           "pid": 1, "tid": 1,
                           "ts": (start - base) / 1000.0,
                           "dur": duration / 1000.0, "args": {"op": op}})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def group_calls(entries) -> Dict[str, int]:
    """``cProfile`` entries -> total calls per :data:`CALL_GROUPS`."""
    groups = dict.fromkeys(CALL_GROUPS, 0)
    for entry in entries:
        filename = getattr(entry.code, "co_filename", "~")   # str: builtin
        groups[_group_of(filename)] += entry.callcount
    return groups


def _group_of(filename: str) -> str:
    if filename == "~":
        return "builtin"
    try:
        parts = Path(filename).relative_to(SRC / "repro").parts
    except ValueError:
        return "other"
    return parts[0] if len(parts) > 1 and parts[0] in CALL_GROUPS else "other"


def ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


def per_layer_table(metrics: Dict[str, Tuple[float, str]]) -> str:
    """Human-readable per-op table of the span metrics."""
    lines = [f"{'layer':<24}{'calls/op':>12}{'self ms/op':>14}"]
    for layer in LAYERS:
        lines.append(f"{layer:<24}{metrics[layer + '.calls'][0]:>12.2f}"
                     f"{metrics[layer + '.self_ms'][0]:>14.3f}")
    return "\n".join(lines)
