#!/usr/bin/env python3
"""Interpreter benchmark: ops/sec for all three engines, to JSON.

Compiles representative Polyhedron and stencil workloads once per flow
(baseline Flang/FIR level and the standard-MLIR flow), then interprets each
module with

* the ``reference`` engine (one op at a time, string-built ``getattr``
  dispatch — the pre-cached-dispatch behaviour),
* the ``compiled`` cached-dispatch engine (per-block compiled thunk lists,
  batched limit checks, pre-fetched stats counters),
* the ``jit`` trace-compiling engine (blocks and structured loop bodies
  translated into generated Python source, run as one code object, with a
  process-level translation cache and an amortization tier that keeps cold
  small blocks on cached dispatch),

and writes wall time, dynamic op counts, ops/sec and the speedups per
(workload, flow) to ``BENCH_interpreter.json`` so CI can track the
performance trajectory.  Every engine is warmed up once untimed and then
timed best-of-N runs on the same module (millisecond-scale rows keep
sampling until a minimum measuring budget accumulates) — the steady state
the compile daemon serves — which also exercises the jit engine's
cross-interpreter translation cache.  Exits
non-zero if any engine disagrees on statistics or program output (all three
must be bit-identical), or if the cached-dispatch engine fails to beat the
reference engine overall.

Each row also measures a **warm start**: the jit engine's persistent
translation store is seeded with one run, then the in-process translation
cache is dropped and the module recompiled from source — a simulated
daemon restart — and the jit engine runs against the store.  The
``warm_hit_rate`` column is the fraction of translation lookups the store
served (1.0 = zero re-translation of previously seen blocks) and
``warm_wall_s`` the steady-state wall time on the warmed cache.

``--check-floor`` additionally fails the run when

* the compiled engine's overall speedup over the reference engine
  regresses below 2.0x,
* the jit engine falls behind cached dispatch on any row
  (``jit_vs_compiled`` < 1.0, with a small measurement-noise allowance —
  rows the amortization tier keeps on cached dispatch sit at ~1.0x by
  design), or
* a warm restart re-translates previously seen blocks
  (``warm_hit_rate`` ≤ 0.9 on any row) or its steady state falls outside
  noise of the in-process translation-cached steady state **overall**
  (``warm_vs_jit_overall`` < 0.8 — per-row ratios are reported but not
  gated: single sub-millisecond rows carry ±20% scheduler jitter).

Usage: ``PYTHONPATH=src python benchmarks/interpreter_bench.py [--quick]
[--check-floor] [output.json]``
"""

import gc
import json
import platform
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone

from repro.core import StandardMLIRCompiler
from repro.flang import FlangCompiler
from repro.machine import Interpreter
from repro.machine import jit as machine_jit
from repro.service.cache import ArtifactCache
from repro.service.jit_store import JitTranslationStore
from repro.service.serialization import stats_to_dict
from repro.workloads import get_workload

#: (workload, interp-param overrides or None) — polyhedron + stencils that
#: spend their time in the interpreter inner loop, not in vectorised numpy.
WORKLOADS = ["ac", "linpk", "tfft", "jacobi", "tra-adv"]
QUICK_WORKLOADS = ["ac", "jacobi"]
DEFAULT_OUTPUT = "BENCH_interpreter.json"
#: best-of-N timing per engine: steady-state dispatch, noise-resistant.
#: Millisecond-scale rows repeat until ``MIN_MEASURE_S`` of samples have
#: accumulated (capped at ``MAX_REPEATS``) — three samples of a 3ms run
#: cannot separate a real regression from scheduler jitter.
REPEATS = 3
MIN_MEASURE_S = 0.15
MAX_REPEATS = 30
#: CI gate: the cached-dispatch engine must stay at least this much faster
#: than the reference engine overall (``--check-floor``).
COMPILED_SPEEDUP_FLOOR = 2.0
#: CI gate: the jit engine must never lose to cached dispatch on a row.
JIT_ROW_FLOOR = 1.0
#: Multiplicative measurement-noise allowance on the row floor.  On tiny
#: workloads the amortization tier deliberately keeps most blocks on
#: cached dispatch, so the two engines run near-identical code and the
#: true ratio sits at ~1.0x — where a strict floor coin-flips on ±5%
#: scheduler jitter even after the back-to-back re-measure.  Real
#: regressions (translation overhead not amortizing) show up far below
#: this band.
JIT_ROW_NOISE = 0.95
#: CI gate: on a simulated warm restart (in-process translation cache
#: dropped, persistent store kept, module rebuilt from source) the jit
#: engine must serve more than this fraction of translation lookups from
#: the store — i.e. re-translate (essentially) nothing it has seen before.
WARM_HIT_RATE_FLOOR = 0.9
#: CI gate: the warm-restart steady state must stay within noise of the
#: in-process translation-cached steady state (the two run identical code
#: objects; only where the translation came from differs).  0.8 absorbs
#: scheduler jitter; a row that still misses it is re-measured once with
#: both sides sampled back-to-back (the original jit sample can be a
#: minute older — a noisy-neighbour burst in between reads as a phantom
#: regression otherwise).
WARM_VS_JIT_TOLERANCE = 0.8


def compile_both(source: str):
    fir = FlangCompiler().compile(source, stop_at="fir").fir_module
    ours = StandardMLIRCompiler(vector_width=4).compile(source).optimised_module
    return {"flang-fir": fir, "ours": ours}


def compile_flow(source: str, flow: str):
    """One flow's module, built fresh (fresh Block objects, fresh uids)."""
    if flow == "flang-fir":
        return FlangCompiler().compile(source, stop_at="fir").fir_module
    return StandardMLIRCompiler(vector_width=4).compile(source).optimised_module


def _steady_jit_best(module) -> float:
    """Best-of-N steady-state jit wall seconds (one untimed warmup run)."""
    return timed_run(module, "jit")[0]


def warm_start_run(source: str, flow: str, baseline_module, jit_s: float,
                   ref_stats, ref_printed):
    """Measure the jit engine across a simulated process restart.

    Seeds an isolated persistent translation store by running the jit
    engine once, then simulates a fresh process: the in-process translation
    cache is dropped, the module is *recompiled from source* (fresh block
    objects — only the structural fingerprint survives), and the jit engine
    runs again against the store.  Returns the translation-hit rate of that
    warm first run, its wall time (which includes loading every stored
    translation), the warm steady-state wall time, and whether output and
    stats stayed bit-identical to the reference engine.

    ``baseline_module``/``jit_s`` are the row's in-process jit measurement.
    When the warm steady state lands outside :data:`WARM_VS_JIT_TOLERANCE`
    of it, both sides are re-measured back-to-back before believing the
    regression: the two loops run identical code objects, so a real gap
    can only come from the measurements being taken in different noise
    environments.
    """
    store_dir = tempfile.mkdtemp(prefix="repro-jit-warm-")
    previous_store = machine_jit.get_translation_store()
    try:
        machine_jit.set_translation_store(
            JitTranslationStore(ArtifactCache(cache_dir=store_dir)))
        machine_jit.clear_translation_cache()
        Interpreter(compile_flow(source, flow), engine="jit").run_main()

        # "restart": translations survive only in the store
        machine_jit.clear_translation_cache()
        module = compile_flow(source, flow)
        before = machine_jit.snapshot_translation_counters()
        interp = Interpreter(module, engine="jit")
        t0 = time.perf_counter()
        interp.run_main()
        first_s = time.perf_counter() - t0
        delta = machine_jit.translation_counters_delta(before)

        identical = (stats_to_dict(interp.stats) == ref_stats
                     and interp.printed == ref_printed)

        steady_s = _steady_jit_best(module)
        if steady_s > jit_s / max(WARM_VS_JIT_TOLERANCE, 1e-9):
            # suspected measurement-environment drift: sample both steady
            # states adjacently and keep each side's best
            jit_s = min(jit_s, _steady_jit_best(baseline_module))
            steady_s = min(steady_s, _steady_jit_best(module))
        return {"hit_rate": delta["hit_rate"], "lookups": delta["lookups"],
                "misses": delta["misses"], "first_s": first_s,
                "steady_s": steady_s, "jit_s": jit_s,
                "identical": identical}
    finally:
        machine_jit.set_translation_store(previous_store)
        machine_jit.clear_translation_cache()
        shutil.rmtree(store_dir, ignore_errors=True)


def timed_run(module, engine: str):
    """Best-of-N wall seconds + the last interpreter instance.

    One untimed warmup run populates the process-level caches (jit
    translations, handler resolution) so every timed sample measures the
    steady state the daemon serves; short rows then keep sampling until
    ``MIN_MEASURE_S`` of wall time has accumulated.

    The collector is drained and disabled around the sampling loop: a
    collection cycle landing inside one engine's loop but not the other's
    reads as a phantom engine-vs-engine regression on short rows.
    """
    Interpreter(module, engine=engine).run_main()
    best = float("inf")
    total = 0.0
    reps = 0
    interp = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while reps < REPEATS or (total < MIN_MEASURE_S and reps < MAX_REPEATS):
            interp = Interpreter(module, engine=engine)
            t0 = time.perf_counter()
            interp.run_main()
            elapsed = time.perf_counter() - t0
            best = min(best, elapsed)
            total += elapsed
            reps += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, interp


def main() -> int:
    argv = sys.argv[1:]
    quick = "--quick" in argv
    check_floor = "--check-floor" in argv
    argv = [a for a in argv if a not in ("--quick", "--check-floor")]
    output = argv[0] if argv else DEFAULT_OUTPUT

    runs = []
    mismatches = 0
    for name in QUICK_WORKLOADS if quick else WORKLOADS:
        source = get_workload(name).source(scaled=True)
        for flow, module in compile_both(source).items():
            ref_s, ref = timed_run(module, "reference")
            new_s, new = timed_run(module, "compiled")
            jit_s, jit = timed_run(module, "jit")
            if jit_s * JIT_ROW_FLOOR > new_s:
                # an apparent sub-floor row on two samples taken seconds
                # apart is usually drift on a shared box — re-measure both
                # engines back-to-back before reporting it
                new_s = min(new_s, timed_run(module, "compiled")[0])
                jit_s = min(jit_s, timed_run(module, "jit")[0])
            warm = warm_start_run(source, flow, module, jit_s,
                                  stats_to_dict(ref.stats), ref.printed)
            ref_stats = stats_to_dict(ref.stats)
            stats_equal = stats_to_dict(new.stats) == ref_stats \
                and stats_to_dict(jit.stats) == ref_stats
            output_equal = ref.printed == new.printed == jit.printed
            if not (stats_equal and output_equal and warm["identical"]):
                mismatches += 1
            total_ops = new.stats.total_ops
            runs.append({
                "workload": name,
                "flow": flow,
                "total_ops": total_ops,
                "wall_s": round(new_s, 4),
                "ops_per_s": round(total_ops / max(new_s, 1e-9)),
                "baseline_wall_s": round(ref_s, 4),
                "baseline_ops_per_s": round(total_ops / max(ref_s, 1e-9)),
                "speedup": round(ref_s / max(new_s, 1e-9), 2),
                "jit_wall_s": round(jit_s, 4),
                "jit_ops_per_s": round(total_ops / max(jit_s, 1e-9)),
                "jit_speedup": round(ref_s / max(jit_s, 1e-9), 2),
                "jit_vs_compiled": round(new_s / max(jit_s, 1e-9), 2),
                # simulated warm restart: persistent translation store kept,
                # in-process cache dropped, module rebuilt from source
                "warm_hit_rate": warm["hit_rate"],
                "warm_lookups": warm["lookups"],
                "warm_first_wall_s": round(warm["first_s"], 4),
                "warm_wall_s": round(warm["steady_s"], 4),
                "warm_vs_compiled":
                    round(new_s / max(warm["steady_s"], 1e-9), 2),
                "warm_jit_wall_s": round(warm["jit_s"], 4),
                "warm_vs_jit":
                    round(warm["jit_s"] / max(warm["steady_s"], 1e-9), 2),
                "stats_equal": stats_equal,
                "output_equal": output_equal,
            })
            ok = stats_equal and output_equal and warm["identical"]
            print(f"{name:10s} {flow:9s} {total_ops:>9} ops  "
                  f"ref {ref_s:6.3f}s  cached {new_s:6.3f}s  "
                  f"jit {jit_s:6.3f}s  "
                  f"cached {runs[-1]['speedup']:5.2f}x  "
                  f"jit/cached {runs[-1]['jit_vs_compiled']:5.2f}x  "
                  f"warm {warm['hit_rate']:4.2f} hit  "
                  f"{'OK' if ok else 'MISMATCH'}")

    best = max(r["speedup"] for r in runs)
    total_ref = sum(r["baseline_wall_s"] for r in runs)
    total_new = sum(r["wall_s"] for r in runs)
    total_jit = sum(r["jit_wall_s"] for r in runs)
    report = {
        "benchmark": "interpreter_bench",
        "quick": quick,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "runs": runs,
        "total_wall_s": round(total_new, 4),
        "total_baseline_wall_s": round(total_ref, 4),
        "total_jit_wall_s": round(total_jit, 4),
        "overall_speedup": round(total_ref / max(total_new, 1e-9), 2),
        "best_speedup": best,
        "jit_overall_speedup": round(total_ref / max(total_jit, 1e-9), 2),
        "jit_vs_compiled_overall": round(total_new / max(total_jit, 1e-9), 2),
        "best_jit_vs_compiled": max(r["jit_vs_compiled"] for r in runs),
        "warm_hit_rate_min": min(r["warm_hit_rate"] for r in runs),
        "warm_total_wall_s": round(sum(r["warm_wall_s"] for r in runs), 4),
        # aggregate over every row: single sub-millisecond rows carry
        # ±20% scheduler jitter that the sum averages out
        "warm_vs_jit_overall":
            round(sum(r["warm_jit_wall_s"] for r in runs)
                  / max(sum(r["warm_wall_s"] for r in runs), 1e-9), 2),
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps({k: v for k, v in report.items() if k != "runs"}, indent=2))

    if mismatches:
        print(f"FAIL: {mismatches} run(s) with engine disagreement",
              file=sys.stderr)
        return 1
    if report["overall_speedup"] <= 1.0:
        print("FAIL: cached-dispatch engine not faster than the reference",
              file=sys.stderr)
        return 1
    if check_floor:
        failed = False
        if report["overall_speedup"] < COMPILED_SPEEDUP_FLOOR:
            print(f"FAIL: compiled-engine speedup "
                  f"{report['overall_speedup']}x regressed below the "
                  f"{COMPILED_SPEEDUP_FLOOR}x floor", file=sys.stderr)
            failed = True
        for run in runs:
            if run["jit_vs_compiled"] < JIT_ROW_FLOOR * JIT_ROW_NOISE:
                print(f"FAIL: jit slower than cached dispatch on "
                      f"{run['workload']}/{run['flow']} "
                      f"({run['jit_vs_compiled']}x < {JIT_ROW_FLOOR}x "
                      f"with {JIT_ROW_NOISE} noise allowance)",
                      file=sys.stderr)
                failed = True
            if run["warm_lookups"] \
                    and run["warm_hit_rate"] <= WARM_HIT_RATE_FLOOR:
                print(f"FAIL: warm-restart translation hit rate "
                      f"{run['warm_hit_rate']} not above "
                      f"{WARM_HIT_RATE_FLOOR} on "
                      f"{run['workload']}/{run['flow']} — previously seen "
                      f"blocks are being re-translated", file=sys.stderr)
                failed = True
        if report["warm_vs_jit_overall"] < WARM_VS_JIT_TOLERANCE:
            print(f"FAIL: warm-restart jit steady state fell behind the "
                  f"in-process translation-cached steady state overall "
                  f"({report['warm_vs_jit_overall']}x < "
                  f"{WARM_VS_JIT_TOLERANCE}x)", file=sys.stderr)
            failed = True
        if failed:
            return 1
    print(f"OK: cached dispatch {report['overall_speedup']}x overall, "
          f"jit {report['jit_overall_speedup']}x overall "
          f"({report['jit_vs_compiled_overall']}x over cached dispatch), "
          f"engines bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
