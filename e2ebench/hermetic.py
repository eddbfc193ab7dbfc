"""Hermetic start-up shared by every entry point of the benchmark.

Importing this module, before anything from ``repro``, pins the process to
the package in this checkout's ``src`` and to its default configuration:

* every ``REPRO_*`` environment variable is cleared, so a user's cache
  directory, daemon socket, fault plan or job timeout cannot leak in;
* ``REPRO_NO_DAEMON`` is set, so nothing routes through a running daemon;
* bytecode caching is on even under ``PYTHONDONTWRITEBYTECODE``, so a
  set-up probe imports cached bytecode, as a user's second start does,
  instead of compiling every module;
* ``<checkout>/src`` goes first on ``sys.path``, and the process exits with
  status 2 (printing no result) if ``repro`` is missing there;
* the checkout root becomes the working directory.

The variables are cleared in ``os.environ`` so that the set-up probes and
the store-filling process, which are started from here, inherit them.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

#: Root of the checkout: the directory holding ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores; removed by the run that made it.  Paths are
#: relative to the checkout root, which is the working directory, because
#: the package interns every component of a path it builds: an absolute
#: path would make the call count depend on where the checkout lives.
WORK = Path(".e2ebench_work")
#: Chrome trace files of traced runs.
OUT = Path(".e2ebench_out")


def _pin() -> None:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_NO_DAEMON"] = "1"
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    os.chdir(ROOT)
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.find_spec("repro")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or SRC.resolve() not in origin.parents:
        sys.stderr.write(f"e2ebench: package 'repro' not found under {SRC}\n")
        sys.exit(2)


_pin()
