"""Regenerate the benchmark's checked-in data files.

    python3 e2ebench/make_data.py cells   # expected_cells.json, reference engine
    python3 e2ebench/make_data.py pool    # sweep_pool.json

``cells`` runs every table once on the one-op ``reference`` interpreter,
which the benchmark never runs, so a defect in the engine under test
(``compiled``) cannot leak into its own expected values.  It records every
table cell and the lines each table job's program prints.  ``pool`` draws
the sweep's kernels from the first generator seeds, stratifies them by
source length and records any divergence the oracle reports for them.
"""

import json
import math
import sys

import hermetic  # noqa: F401  (pins env and sys.path before repro imports)

from checks import (EXPECTED_CELLS, SWEEP_POOL, declared_dnc, job_label,
                    table_cells)
from workloads import Workload, unique_table_jobs

#: Candidate kernels: generator seeds ``0 .. POOL_SIZE - 1``.
POOL_SIZE = 64
#: Source-length strata; a unit of the sweep draws one kernel from each.
STRATA = 8


def make_cells() -> None:
    from repro.service import enumerate_jobs, run_tables
    service = Workload.build_service(None)
    result = run_tables(service=service, max_workers=1, engine="reference")
    tables = result["tables"]
    dnc = declared_dnc(tables)
    for table in tables.values():
        for row in table.rows:
            for col, value in row.measured.items():
                if math.isnan(value) and (table.name, row.label, col) not in dnc:
                    sys.exit(f"undeclared NaN at {table.name}/{row.label}/{col}")
    if result["batch"].failures:
        sys.exit(f"failed jobs: {result['batch'].failures}")
    # every job is a cache hit now
    printed = {job_label(job): list(service.execute(job).printed)
               for job in enumerate_jobs(engine="reference")}
    missing = [job_label(job) for job in unique_table_jobs()
               if job_label(job) not in printed]
    if missing:
        sys.exit(f"no reference job for {missing}")
    EXPECTED_CELLS.write_text(json.dumps(
        {"engine": "reference", "tables": table_cells(tables),
         "printed": printed}, indent=1, sort_keys=True) + "\n")


def make_pool() -> None:
    from repro.conformance import generate, run_sweep
    lengths = {seed: len(generate(seed).source) for seed in range(POOL_SIZE)}
    ordered = sorted(lengths, key=lambda seed: (lengths[seed], seed))
    size = POOL_SIZE // STRATA
    strata = [ordered[i:i + size] for i in range(0, POOL_SIZE, size)]
    known = {}
    for seed in ordered:
        report = run_sweep([seed], service=Workload.build_service(None),
                           max_workers=1)
        for kernel in report.divergent:
            known[str(kernel.seed)] = [[d.kind, d.left, d.right]
                                       for d in kernel.divergences]
    SWEEP_POOL.write_text(json.dumps(
        {"generator_seeds": f"0..{POOL_SIZE - 1}",
         "source_chars": {str(seed): lengths[seed] for seed in ordered},
         "strata": strata, "known_divergences": known},
        indent=1) + "\n")


if __name__ == "__main__":
    {"cells": make_cells, "pool": make_pool}[sys.argv[1]]()
