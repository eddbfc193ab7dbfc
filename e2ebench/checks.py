"""Output checks.  Each raises :class:`CheckFailed`, which fails the run.

The expected table cells and the lines each table job prints were generated
once on the ``reference`` engine (``make_data.py cells``), never on the
engine under test.  Cells are compared bit for bit through ``float.hex``,
printed output line for line.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Set, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED_CELLS = HERE / "expected_cells.json"
SWEEP_POOL = HERE / "sweep_pool.json"

NAN = "nan"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def cell_text(value: float) -> str:
    return NAN if math.isnan(value) else float(value).hex()


def table_cells(tables: Mapping) -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{table: {row: {column: cell_text}}}`` of ``ExperimentTable``s."""
    return {name: {row.label: {col: cell_text(val)
                               for col, val in row.measured.items()}
                   for row in table.rows}
            for name, table in tables.items()}


def declared_dnc(tables: Mapping) -> Set[Tuple[str, str, str]]:
    """Cells the paper reports as did-not-compile (``None`` in paper data)."""
    return {(name, row.label, col)
            for name, table in tables.items() for row in table.rows
            for col, paper in row.paper.items() if paper is None}


def load_expected_cells() -> Dict:
    return json.loads(EXPECTED_CELLS.read_text())["tables"]


def job_label(job) -> str:
    """A table job's spec without its engine: one label on every engine."""
    spec = job.spec()
    del spec["engine"]
    return json.dumps(spec, sort_keys=True, default=str)


def load_expected_printed() -> Dict[str, List[str]]:
    return json.loads(EXPECTED_CELLS.read_text())["printed"]


def check_cells(tables: Mapping, expected: Mapping) -> None:
    """Every cell bit-identical to ``expected``; NaN only where declared."""
    got = table_cells(tables)
    if sorted(got) != sorted(expected):
        raise CheckFailed(f"tables {sorted(got)} != expected {sorted(expected)}")
    dnc = declared_dnc(tables)
    for name, rows in expected.items():
        if sorted(got[name]) != sorted(rows):
            raise CheckFailed(f"{name}: rows {sorted(got[name])} differ")
        for label, cells in rows.items():
            if sorted(got[name][label]) != sorted(cells):
                raise CheckFailed(f"{name}/{label}: columns differ")
            for col, want in cells.items():
                have = got[name][label][col]
                if have == NAN and (name, label, col) not in dnc:
                    raise CheckFailed(f"{name}/{label}/{col}: undeclared NaN")
                if have != want:
                    raise CheckFailed(f"{name}/{label}/{col}: {have} != "
                                      f"expected {want}")


def check_cold_op(report) -> None:
    """One cold ``submit([job])``: compiled once, nothing failed."""
    if report.failures:
        raise CheckFailed(f"failed artifact: {report.failures[0]}")
    if report.executed != 1 or report.cache_hits != 0:
        raise CheckFailed(f"cold job executed={report.executed} "
                          f"hits={report.cache_hits}")


def check_printed(job, artifact, expected: Mapping[str, List[str]]) -> None:
    """What a table job's program printed, line for line as on reference."""
    label = job_label(job)
    if label not in expected:
        raise CheckFailed(f"no expected output for job {label}")
    if not artifact.ok:
        raise CheckFailed(f"failed artifact: {artifact.error}")
    if list(artifact.printed) != expected[label]:
        raise CheckFailed(f"{artifact.flow}/{artifact.workload} printed "
                          f"{list(artifact.printed)[:3]}, expected "
                          f"{expected[label][:3]}")


def check_warm_op(result: Mapping) -> None:
    """A warm ``run_tables`` recompiles nothing and every lookup hits."""
    counters = result["counters"]
    if counters["recompilations"] or result["batch"].executed:
        raise CheckFailed(f"warm pass recompiled "
                          f"{counters['recompilations']} job(s)")
    if counters["misses"] or counters["hits"] != counters["lookups"]:
        raise CheckFailed(f"warm pass missed {counters['misses']} of "
                          f"{counters['lookups']} lookups")
    if result["batch"].failures:
        raise CheckFailed(f"failed artifact: {result['batch'].failures[0]}")


def load_sweep_pool() -> Dict:
    return json.loads(SWEEP_POOL.read_text())


def check_sweep(report, known: Mapping[str, Iterable]) -> None:
    """Divergences only where the pool records them for that kernel."""
    for kernel in report.divergent:
        allowed = {tuple(d) for d in known.get(str(kernel.seed), ())}
        for div in kernel.divergences:
            if (div.kind, div.left, div.right) not in allowed:
                raise CheckFailed(f"divergence: {div.describe()}")


def check_determinism(first: Mapping[str, int],
                      second: Mapping[str, int]) -> None:
    """Two counted units on the same input must count the same work."""
    for name in sorted(set(first) | set(second)):
        if first.get(name) != second.get(name):
            raise CheckFailed(f"counted units disagree on {name}: "
                              f"{first.get(name)} != {second.get(name)}")


def check_spans(calls: Mapping[str, int], required: Iterable[str]) -> None:
    """Every layer this workload exercises fired at least once."""
    silent = [layer for layer in required if not calls.get(layer)]
    if silent:
        raise CheckFailed(f"span(s) never fired: {', '.join(silent)}")
