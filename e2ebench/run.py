"""End-to-end benchmark of the table-regeneration product.

Usage (from the root of the checkout)::

    python3 e2ebench/run.py --workload tables-cold --seed 1 --seconds 4 --trace 0
    python3 e2ebench/run.py --selftest

One process, one client, a closed loop: each op starts when the previous
one returns, in-process with ``max_workers=1``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes a separate traced run that
attributes time and calls to layers.  The last line of standard output is
one JSON object; the exit status is 1 if any output check failed.  See
``e2ebench/README.md`` for the workloads, the metrics and the noise
controls.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from hermetic import OUT, ROOT, WORK  # first: pins env and sys.path

from checks import CheckFailed, check_determinism, check_spans
from layers import CALL_GROUPS, LAYERS, Tracer, group_calls, per_layer_table, ratio
from repro.machine.jit import clear_translation_cache, snapshot_translation_counters
from repro.service.incremental import get_function_store, snapshot_counters
from workloads import WORKLOADS, Workload, fill_store

#: Set-ups per run, spread evenly through the timed phase; ``setup_s`` is
#: their median.  Each set-up is timed as the fastest of ``SETUP_LAUNCHES``
#: back-to-back fresh processes.
SETUP_PROBES = 9
SETUP_LAUNCHES = 3


def reset_process() -> None:
    """Every unit starts from empty process-wide stores and a collected heap."""
    clear_translation_cache()
    get_function_store().clear()
    gc.collect()


class Outcome:
    """What the units of one phase measured and which checks failed."""

    def __init__(self):
        self.latencies: List[float] = []
        self.ops = 0            # ops that returned
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.recompilations = 0
        self.cache = {"hits": 0, "lookups": 0}
        self.function = {"hits": 0, "lookups": 0, "misses": 0}
        self.jit = {"hits": 0, "lookups": 0, "misses": 0}

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(message)


def _lookups(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    delta = {k: after[k] - before[k] for k in after}
    hits = delta["memory_hits"] + delta["disk_hits"]
    return {"hits": hits, "lookups": hits + delta["misses"],
            "misses": delta["misses"]}


def run_unit(workload: Workload, items: List, outcome: Outcome, *,
             probes: Optional["SetupProbes"] = None,
             tracer: Optional[Tracer] = None,
             profiler: Optional[cProfile.Profile] = None) -> None:
    """Run one unit: reset, then one op per item, each checked."""
    reset_process()
    fn_before = snapshot_counters()
    jit_before = snapshot_translation_counters()
    unit = workload.open_unit()
    failed_before = outcome.failed
    for item in items:
        if probes is not None:
            probes.maybe_run()
        unit.ops_run += 1
        outcome.attempted += 1
        if tracer is not None:
            tracer.op += 1
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            if tracer is not None:
                with tracer.span("op"):
                    result = workload.run_op(unit, item)
            else:
                result = workload.run_op(unit, item)
        except Exception as exc:                       # noqa: BLE001
            if profiler is not None:
                profiler.disable()
            outcome.fail(f"op raised {type(exc).__name__}: {exc}")
            continue
        if profiler is not None:
            profiler.disable()
        outcome.latencies.append(time.perf_counter() - started)
        outcome.ops += 1
        try:
            workload.check_op(unit, item, result)
        except CheckFailed as exc:
            outcome.fail(str(exc))
    try:
        if tracer is not None:
            tracer.op = -1
            with tracer.span("unit.close"):
                workload.close_unit(unit)
        else:
            workload.close_unit(unit)
    except CheckFailed as exc:
        # a wrong table cannot be pinned on one op: the whole unit failed
        outcome.fail(str(exc), unit.ops_run - (outcome.failed - failed_before))
    for service in unit.services:
        counters = service.counters()
        outcome.recompilations += counters["recompilations"]
        outcome.cache["hits"] += counters["hits"]
        outcome.cache["lookups"] += counters["lookups"]
    for totals, before, now in (
            (outcome.function, fn_before, snapshot_counters()),
            (outcome.jit, jit_before, snapshot_translation_counters())):
        for key, value in _lookups(before, now).items():
            totals[key] += value


class SetupProbes:
    """Time fresh processes that import and build the workload's service.

    One unrecorded probe runs first: the first start after other work is
    about 10% slower than the ones after it.  The recorded probes then run
    between ops at evenly spaced points of the timed phase, with the phase
    clock paused, so they neither bunch up nor count as op time.
    """

    def __init__(self, workload: Workload, seconds: float, count: int):
        self.workload = workload
        self.seconds = seconds
        self.count = count
        self.times: List[float] = []
        self.launches: List[float] = []
        self.probe()
        self.phase_start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.phase_start - self.paused

    def maybe_run(self) -> None:
        if (len(self.times) < self.count
                and self.elapsed() >= len(self.times) * self.seconds / self.count):
            self.run_one()

    def run_one(self) -> None:
        started = time.perf_counter()
        launches = [self.probe() for _ in range(SETUP_LAUNCHES)]
        self.launches += launches
        self.times.append(min(launches))
        self.paused += time.perf_counter() - started

    def probe(self) -> float:
        """Seconds from launching a probe process until it is ready."""
        store = self.workload.probe_store()
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             self.workload.name, str(store or "")],
            stdout=subprocess.PIPE, text=True, timeout=60)
        words = proc.stdout.split()
        if proc.returncode != 0 or words[:1] != ["ready"]:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        # perf_counter is CLOCK_MONOTONIC, one clock for every process
        return float(words[1]) - started


def tail(latencies: List[float]):
    """(percentile, value, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def counted_unit(workload: Workload, items: List):
    """One unit under cProfile; returns (outcome, profiler entries, calls).

    The total is summed over the profiler's raw entries, one per code
    object: ``pstats`` keys entries by (file, line, name) and keeps only one
    of the dataclass ``__init__`` methods that all read ``<string>:2``.
    Temporary file names are drawn by rejection sampling, so the store's
    writes make a random number of ``getrandbits`` calls unless the name
    generator starts from the same state.
    """
    tempfile._get_candidate_names().rng.seed(0)
    profiler = cProfile.Profile()
    outcome = Outcome()
    run_unit(workload, items, outcome, profiler=profiler)
    entries = profiler.getstats()
    return outcome, entries, sum(entry.callcount for entry in entries)


def prime(workload: Workload) -> Outcome:
    outcome = Outcome()
    run_unit(workload, workload.counted_inputs()[:workload.prime_ops], outcome)
    return outcome


def measure(workload: Workload, seconds: float):
    """Untraced run: timed units, then one counted unit."""
    outcomes = [prime(workload)]
    timed = Outcome()
    probes = SetupProbes(workload, seconds, SETUP_PROBES)
    index = 0
    while index == 0 or probes.elapsed() < seconds:
        run_unit(workload, workload.inputs(index), timed, probes=probes)
        index += 1
    while len(probes.times) < probes.count:
        probes.run_one()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counted, _, calls = counted_unit(workload, workload.counted_inputs())
    outcomes += [timed, counted]

    pct, tail_s, beyond = tail(timed.latencies)
    metrics = {
        "ops_per_s": (timed.ops / sum(timed.latencies), "1/s"),
        "op_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "calls_per_op": (calls / counted.ops, "calls"),
        "setup_s": (statistics.median(probes.times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"timed: {index} unit(s), {timed.ops} ops; op_tail_ms is p{pct} "
             f"({beyond} of {len(timed.latencies)} samples beyond)",
             f"counted: {counted.ops} ops, {calls} calls",
             "setup_s samples: " + ", ".join(f"{t:.4f}" for t in probes.times),
             "setup launches: " + ", ".join(f"{t:.4f}" for t in probes.launches)]
    return metrics, outcomes, notes


def traced(workload: Workload, seconds: float, label: str):
    """Traced run: alternate untraced and traced units, then two counted
    units that must agree exactly."""
    outcomes = [prime(workload)]
    plain, spans = Outcome(), Outcome()
    tracer = Tracer()
    started = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - started < seconds:
        if index % 2 == 0:
            run_unit(workload, workload.inputs(index), plain)
        else:
            tracer.install()
            try:
                run_unit(workload, workload.inputs(index), spans, tracer=tracer)
            finally:
                tracer.uninstall()
        index += 1
    first, entries, calls = counted_unit(workload, workload.counted_inputs())
    second, _, calls_again = counted_unit(workload, workload.counted_inputs())
    outcomes += [plain, spans, first, second]
    try:
        check_determinism(
            {"calls": calls, "recompilations": first.recompilations,
             "jit.translations": first.jit["misses"]},
            {"calls": calls_again, "recompilations": second.recompilations,
             "jit.translations": second.jit["misses"]})
        check_spans(tracer.calls, workload.span_layers)
    except CheckFailed as exc:
        second.fail(str(exc))

    ops = spans.ops or 1
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / ops, "calls")
        metrics[f"{layer}.self_ms"] = (tracer.self_ns[layer] / 1e6 / ops, "ms")
    groups = group_calls(entries)
    for group in CALL_GROUPS:
        metrics[f"calls.{group}"] = (groups[group] / first.ops, "calls")
    metrics["service.cache.hit_ratio"] = (
        ratio(spans.cache["hits"], spans.cache["lookups"]), "ratio")
    metrics["service.function_store.hit_ratio"] = (
        ratio(spans.function["hits"], spans.function["lookups"]), "ratio")
    metrics["machine.jit.hit_ratio"] = (
        ratio(spans.jit["hits"], spans.jit["lookups"]), "ratio")
    metrics["service.recompilations"] = (spans.recompilations / ops, "count")
    metrics["gc.pause_ms"] = (tracer.gc_pause_ns / 1e6 / ops, "ms")
    metrics["gc.collections"] = (tracer.gc_collections / ops, "count")
    traced_rate = spans.ops / sum(spans.latencies)
    plain_rate = plain.ops / sum(plain.latencies)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_pct"] = ((plain_rate / traced_rate - 1) * 100, "%")

    trace_file = OUT / f"trace-{label}.json"
    tracer.write_chrome_trace(trace_file, label)
    notes = [per_layer_table(metrics),
             f"tracing overhead: {metrics['trace.overhead_pct'][0]:.1f}% "
             f"({plain_rate:.3f} ops/s untraced vs {traced_rate:.3f} traced)",
             f"counted: {first.ops} ops, {calls} calls, then {calls_again}",
             f"chrome trace: {trace_file} "
             f"({len(tracer.events)} spans)"]
    return metrics, outcomes, notes


def declared(kind: str) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="prove every check fires on tampered input")
    parser.add_argument("--fill-store", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.fill_store:
        return 1 if fill_store(Path(args.fill_store)) else 0
    if args.selftest:
        import selftest
        return selftest.main()
    if not args.workload:
        parser.error("--workload is required")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.prepare()
        if args.trace:
            label = f"{args.workload}-seed{args.seed}"
            metrics, outcomes, notes = traced(workload, args.seconds, label)
            names = declared("per_layer")
        else:
            metrics, outcomes, notes = measure(workload, args.seconds)
            names = declared("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>18.6f} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name][0],
                                         "unit": metrics[name][1]}
                                  for name in names}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
