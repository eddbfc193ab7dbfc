"""Prove that every output check fires on tampered input.

    python3 e2ebench/run.py --selftest

Each case first runs a check on untampered input, which must pass, then on
a tampered copy, which must raise :class:`checks.CheckFailed`.  Exit
status 0 means every check both accepts good output and rejects bad.
"""

from __future__ import annotations

import copy
import math
from typing import Callable, List

from checks import (CheckFailed, check_cells, check_cold_op,
                    check_determinism, check_printed, check_spans,
                    check_sweep, check_warm_op, job_label,
                    load_expected_cells, load_expected_printed,
                    load_sweep_pool)


def _expected_tables():
    """The expected cells as ``ExperimentTable``s with the paper's data."""
    from repro.harness import paper_data
    from repro.harness.experiments import ExperimentRow, ExperimentTable
    paper = {"table1": paper_data.TABLE1, "table2": paper_data.TABLE2,
             "table3": paper_data.TABLE3}
    tables = {}
    for name, rows in load_expected_cells().items():
        table = ExperimentTable(name, name, [])
        for label, cells in rows.items():
            measured = {col: math.nan if text == "nan" else float.fromhex(text)
                        for col, text in cells.items()}
            table.rows.append(ExperimentRow(
                label, measured, paper.get(name, {}).get(label, {})))
        tables[name] = table
    return tables


def _first_cell(tables, want_nan: bool):
    for table in tables.values():
        for row in table.rows:
            for col, value in row.measured.items():
                if math.isnan(value) == want_nan:
                    return row, col
    raise AssertionError("no such cell")


def _cases() -> List[tuple]:
    from repro.conformance import run_sweep
    from repro.conformance.oracle import Divergence, KernelReport
    from repro.service import BatchReport
    from repro.service.jobs import CompiledArtifact
    from workloads import Workload, unique_table_jobs

    expected = load_expected_cells()
    good_tables = _expected_tables()

    last_digit = copy.deepcopy(good_tables)
    row, col = _first_cell(last_digit, want_nan=False)
    row.measured[col] = math.nextafter(row.measured[col], math.inf)

    # NaN in both the tables and the expected cells, at a cell the paper
    # does not declare did-not-compile: only the NaN rule can reject it
    nan_tables = copy.deepcopy(good_tables)
    row, col = _first_cell(nan_tables, want_nan=False)
    row.measured[col] = math.nan
    table = next(t for t in nan_tables.values() if row in t.rows)
    nan_expected = copy.deepcopy(expected)
    nan_expected[table.name][row.label][col] = "nan"

    printed = load_expected_printed()
    job = unique_table_jobs()[0]
    want = printed[job_label(job)]
    artifact = CompiledArtifact(key="", flow=job.flow,
                                workload=job.workload_name, ok=True,
                                printed=tuple(want))
    misprinted = copy.deepcopy(artifact)
    misprinted.printed = (want[0] + "1",) + tuple(want[1:])

    pool = load_sweep_pool()
    kernel = pool["strata"][0][0]
    report = run_sweep([kernel], service=Workload.build_service(None),
                       max_workers=1)
    diverged = copy.deepcopy(report)
    bad = KernelReport(source="", seed=kernel)
    bad.divergences.append(Divergence("engine-output", "ours@compiled",
                                      "ours@jit", "injected", seed=kernel))
    diverged.divergent.append(bad)

    warm = {"counters": {"recompilations": 0, "misses": 0, "hits": 53,
                         "lookups": 53},
            "batch": BatchReport(submitted=61, unique=53, cache_hits=53)}
    recompiled = copy.deepcopy(warm)
    recompiled["counters"]["recompilations"] = 1
    recompiled["batch"].executed = 1

    counted = {"calls": 29106224, "recompilations": 53, "jit.translations": 0}
    mismatch = dict(counted, calls=counted["calls"] + 1)

    return [
        ("cell changed in its last digit",
         lambda t: check_cells(t, expected), good_tables, last_digit),
        ("undeclared NaN", lambda pair: check_cells(*pair),
         (good_tables, expected), (nan_tables, nan_expected)),
        ("printed line changed",
         lambda a: check_printed(job, a, printed), artifact, misprinted),
        ("failed artifact", check_cold_op,
         BatchReport(submitted=1, unique=1, executed=1),
         BatchReport(submitted=1, unique=1, executed=1,
                     failures=[("jacobi", "RuntimeError: injected")])),
        ("injected divergence",
         lambda r: check_sweep(r, pool["known_divergences"]),
         report, diverged),
        ("warm recompilation", check_warm_op, warm, recompiled),
        ("call-count mismatch", lambda other: check_determinism(counted, other),
         dict(counted), mismatch),
        ("span that never fires",
         lambda calls: check_spans(calls, ["core", "frontend"]),
         {"core": 53, "frontend": 53}, {"core": 0, "frontend": 53}),
    ]


def _fires(check: Callable, value) -> bool:
    try:
        check(value)
    except CheckFailed:
        return True
    return False


def main() -> int:
    failures = 0
    for name, check, good, tampered in _cases():
        accepts, rejects = not _fires(check, good), _fires(check, tampered)
        ok = accepts and rejects
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: good input "
              f"{'accepted' if accepts else 'REJECTED'}, tampered input "
              f"{'rejected' if rejects else 'ACCEPTED'}")
    print(f"selftest: {'passed' if not failures else f'{failures} failed'}")
    return 1 if failures else 0
