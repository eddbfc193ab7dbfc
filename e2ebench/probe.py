"""A fresh process that does what a workload's set-up does, then exits.

Set-up is interpreter start, importing what the workload uses, and building
its service; for ``tables-warm`` the service opens the filled store.  The
script then prints ``ready`` and its ``time.perf_counter()``.  ``run.py``
starts it several times per run and reports the median time from launch to
that reading as ``setup_s``: on Linux ``perf_counter`` is CLOCK_MONOTONIC,
one clock for every process.

    python3 e2ebench/probe.py WORKLOAD [STORE_DIR]
"""

import sys
import time
from pathlib import Path

import hermetic  # noqa: F401  (pins env and sys.path before repro imports)

if __name__ == "__main__":
    workload, store = sys.argv[1], (sys.argv[2:] or [""])[0]
    if workload == "conformance-sweep":
        import repro.conformance  # noqa: F401
    else:
        import repro.harness.experiments  # noqa: F401
    from workloads import Workload
    Workload.build_service(Path(store) if store else None)
    print("ready", repr(time.perf_counter()), flush=True)
