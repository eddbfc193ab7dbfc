"""The three workloads, each driven through the package's public API only.

A workload turns the run's seed into the inputs of each *unit*, runs one
*op* per input, checks every op's output, and checks the unit as a whole
when it closes.  Every call runs in this process with one worker: no pool,
no daemon.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hermetic import SRC, WORK
from checks import (CheckFailed, check_cells, check_cold_op, check_printed,
                    check_sweep, check_warm_op, load_expected_cells,
                    load_expected_printed, load_sweep_pool)
from repro.service import (ALL_TABLES, ArtifactCache, CompileService,
                           enumerate_jobs, run_tables)

#: Layers each workload must exercise; the span-wiring check enforces it.
_COMPILE_LAYERS = ("frontend", "flang", "core", "ir.passes", "ir.clone",
                   "ir.print", "machine.execute", "service.run_job",
                   "service.cache.get", "service.cache.put")


def unique_table_jobs():
    """The batch API's jobs for every table, one per cache key, in order.

    The jobs returned are fresh objects whose keys are not computed yet:
    a job memoises its key, and computing it is part of the op.
    """
    first = {}
    for index, job in enumerate(enumerate_jobs()):
        first.setdefault(job.safe_key(), index)
    fresh = enumerate_jobs()
    return [fresh[index] for index in first.values()]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _rng(seed: int, unit) -> random.Random:
    return random.Random(f"{seed}:{unit}")


class Unit:
    """State one unit's ops share; ``services`` lists every service built."""

    def __init__(self, store: Optional[Path] = None):
        self.store = store
        self.services: List[CompileService] = []
        self.ops_run = 0
        self.checked: List = []     # inputs whose op passed check_op


class Workload:
    name = ""
    ops_per_unit = 0
    #: The priming unit, which a process runs first and never counts, is
    #: the first ``prime_ops`` inputs of the counted unit.  With the timed
    #: units, every code path the counted unit takes has run before it is
    #: counted, so it pays no one-time lazy imports.
    prime_ops = 1
    span_layers: Tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._stores = 0

    def new_store(self) -> Path:
        self._stores += 1
        path = self.work / f"store-{self._stores}"
        path.mkdir(parents=True)
        return path

    def prepare(self) -> None:
        """One-time preparation before any unit (not measured)."""

    def inputs(self, unit: int) -> List:
        """Inputs of timed unit ``unit``, drawn from the seed."""
        raise NotImplementedError

    def counted_inputs(self) -> List:
        """Inputs of the counted unit.  They are the same for every seed,
        so ``calls_per_op`` is exact across seeds as well as runs."""
        raise NotImplementedError

    def open_unit(self) -> Unit:
        return Unit()

    def run_op(self, unit: Unit, item):
        raise NotImplementedError

    def check_op(self, unit: Unit, item, result) -> None:
        raise NotImplementedError

    def close_unit(self, unit: Unit) -> None:
        """Unit-level checks; the unit's scratch state is released."""

    def probe_store(self) -> Optional[Path]:
        """Store the set-up probe opens (``None``: memory-only)."""
        return None

    @staticmethod
    def build_service(store: Optional[Path]) -> CompileService:
        cache = ArtifactCache(cache_dir=str(store) if store else None)
        return CompileService(cache, max_workers=1)


class TablesCold(Workload):
    """The product's first run: 53 unique jobs into an empty store."""

    name = "tables-cold"
    prime_ops = 3
    span_layers = _COMPILE_LAYERS + ("harness.tables", "machine.perf_model",
                                     "service.store.get", "service.store.put")

    def prepare(self) -> None:
        self.expected = load_expected_cells()
        self.expected_printed = load_expected_printed()
        self.ops_per_unit = len(unique_table_jobs())

    def inputs(self, unit) -> List:
        jobs = unique_table_jobs()
        _rng(self.seed, unit).shuffle(jobs)
        return jobs

    def counted_inputs(self) -> List:
        return unique_table_jobs()

    def open_unit(self) -> Unit:
        unit = Unit(self.new_store())
        unit.services.append(self.build_service(unit.store))
        return unit

    def run_op(self, unit: Unit, job):
        return unit.services[0].submit([job], max_workers=1)

    def check_op(self, unit: Unit, job, report) -> None:
        check_cold_op(report)
        unit.checked.append(job)

    def close_unit(self, unit: Unit) -> None:
        try:
            # what each program printed, fetched as a cache hit
            for job in unit.checked:
                check_printed(job, unit.services[0].execute(job),
                              self.expected_printed)
            if unit.ops_run < self.ops_per_unit:
                return          # priming unit: too few jobs for the tables
            result = run_tables(service=unit.services[0], max_workers=1)
            if result["counters"]["recompilations"] != self.ops_per_unit:
                raise CheckFailed("assembling the tables recompiled a job")
            check_cells(result["tables"], self.expected)
        finally:
            shutil.rmtree(unit.store, ignore_errors=True)

    def probe_store(self) -> Path:
        return self.new_store()


class TablesWarm(Workload):
    """The product's re-run: ``run_tables`` over a store filled elsewhere."""

    name = "tables-warm"
    ops_per_unit = 10
    prime_ops = 3
    span_layers = ("harness.tables", "machine.perf_model",
                   "service.cache.get", "service.store.get")

    def prepare(self) -> None:
        self.expected = load_expected_cells()
        # Filled once per version of the sources and kept between runs.
        # Warm ops only read it; the cold pass that fills it runs in
        # another process and is published by an atomic rename.
        self.store = WORK / f"warm-store-{_source_digest()}"
        if self.store.is_dir():
            return
        fresh = self.new_store()
        subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                        "--fill-store", str(fresh)], check=True,
                       stdout=subprocess.DEVNULL, timeout=170)
        try:
            fresh.rename(self.store)
        except OSError:
            if not self.store.is_dir():
                raise

    def inputs(self, unit) -> List:
        rng = _rng(self.seed, unit)
        return [tuple(rng.sample(ALL_TABLES, len(ALL_TABLES)))
                for _ in range(self.ops_per_unit)]

    def counted_inputs(self) -> List:
        return [ALL_TABLES] * self.ops_per_unit

    def run_op(self, unit: Unit, tables):
        service = self.build_service(self.store)
        unit.services.append(service)
        return run_tables(tables, service=service, max_workers=1)

    def check_op(self, unit: Unit, tables, result) -> None:
        check_warm_op(result)
        check_cells(result["tables"], self.expected)

    def probe_store(self) -> Path:
        return self.store


class ConformanceSweep(Workload):
    """Many small distinct kernels: compilation dominates execution."""

    name = "conformance-sweep"
    prime_ops = 4      # every counted kernel: the timed units draw others
    span_layers = _COMPILE_LAYERS + ("machine.jit.translate",
                                     "conformance.generate",
                                     "conformance.compare")

    def prepare(self) -> None:
        from repro.conformance import run_sweep
        self._run_sweep = run_sweep
        pool = load_sweep_pool()
        self.strata: List[List[int]] = pool["strata"]
        self.known: Dict[str, list] = pool["known_divergences"]
        self.ops_per_unit = len(self.strata)

    def inputs(self, unit) -> List[int]:
        rng = _rng(self.seed, unit)
        kernels = [rng.choice(stratum) for stratum in self.strata]
        rng.shuffle(kernels)
        return kernels

    def counted_inputs(self) -> List[int]:
        # the median-length kernel of every other stratum: a seeded draw
        # would spread calls_per_op by about 6% (IQR over median) across
        # seeds, and four kernels keep the counted unit near 10 s
        return [stratum[len(stratum) // 2] for stratum in self.strata[1::2]]

    def run_op(self, unit: Unit, kernel: int):
        service = self.build_service(None)
        unit.services.append(service)
        return self._run_sweep([kernel], service=service, max_workers=1)

    def check_op(self, unit: Unit, kernel: int, report) -> None:
        check_sweep(report, self.known)


WORKLOADS = {cls.name: cls for cls in (TablesCold, TablesWarm,
                                       ConformanceSweep)}


def fill_store(store: Path) -> int:
    """A cold pass of every table job into ``store``; returns failures."""
    service = Workload.build_service(store)
    return len(service.submit(unique_table_jobs(), max_workers=1).failures)
