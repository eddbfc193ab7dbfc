"""Sharded on-disk artifact store: hash-prefix fanout + LRU byte budget.

The on-disk layout:

    <cache_dir>/CACHE_FORMAT        layout version marker ("2")
    <cache_dir>/shards/<pp>.json    256 shard files, pp = key[:2]

Each shard file holds every artifact whose cache key starts with its two-hex
prefix, as ``{"format": 2, "entries": {key: {"a": stamp, "p": payload}}}``.
Grouping ~1/256th of the keyspace per file keeps conformance-sweep-scale
stores (tens of thousands of artifacts) out of the
one-inode-per-artifact regime while bounding rewrite cost per store.

Durability rules:

* every shard write goes through write-temp + ``os.replace`` — a concurrent
  reader sees the old shard or the new one, never a torn file;
* a corrupt or truncated shard is a *cache miss*, never an error: it is
  logged once and overwritten wholesale on the next store into it;
* every entry carries a CRC-32 of its payload (``"c"``), verified on read:
  a bit-flipped or partially-written entry inside an otherwise-parseable
  shard reads as a miss too (entries stored before the checksum existed
  are accepted unverified);
* the total on-disk size is bounded by ``byte_budget``: when a store pushes
  the sum of shard-file sizes over budget, least-recently-used entries are
  evicted (across all shards) until the store fits again.

Access stamps are persisted per entry on store; reads refresh them in an
in-memory overlay that is folded into the shard the next time it is
rewritten, so LRU ordering is exact within a process and
least-recently-*stored* across processes.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
import zlib
from pathlib import Path
from threading import Lock
from typing import Any, Dict, Optional

from . import faults

logger = logging.getLogger(__name__)

#: On-disk layout version of the sharded layout this module implements,
#: written to ``CACHE_FORMAT``.  Version 1, a one-file-per-artifact tree,
#: is not read: its keys predate the current ``KEY_SCHEMA_VERSION``, so
#: every artifact in it would be a miss anyway.
SHARDED_FORMAT = 2

#: Number of shard files (two hex digits of the SHA-256 key).
SHARD_COUNT = 256

#: Default eviction budget: plenty for every table + a long conformance
#: sweep, small enough that a forgotten daemon cannot fill a disk.
DEFAULT_BYTE_BUDGET = 256 * 1024 * 1024

#: Environment variable overriding the default byte budget.
BYTE_BUDGET_ENV = "REPRO_CACHE_BUDGET"


def budget_from_env(default: int = DEFAULT_BYTE_BUDGET) -> int:
    """Resolve the byte budget from ``$REPRO_CACHE_BUDGET`` (0 = unbounded).

    Accepts plain bytes or a ``K``/``M``/``G`` suffix (``"64M"``).
    """
    raw = os.environ.get(BYTE_BUDGET_ENV)
    if not raw:
        return default
    try:
        return parse_byte_size(raw)
    except ValueError:
        logger.warning("ignoring unparseable %s=%r", BYTE_BUDGET_ENV, raw)
        return default


def parse_byte_size(text: str) -> int:
    """``"256M"`` -> 268435456; bare integers are bytes; 0 disables."""
    text = text.strip()
    scale = 1
    if text and text[-1].upper() in "KMG":
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}[text[-1].upper()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not a byte size: {text!r}")
    if value < 0:
        raise ValueError(f"byte size must be >= 0, got {value}")
    return value * scale


class ShardedStore:
    """Disk tier of the artifact cache: 256 shards, atomic writes, LRU."""

    def __init__(self, cache_dir: str, *,
                 byte_budget: Optional[int] = None):
        self._dir = Path(cache_dir).expanduser()
        self._shards = self._dir / "shards"
        self._shards.mkdir(parents=True, exist_ok=True)
        self.byte_budget = (budget_from_env() if byte_budget is None
                            else byte_budget)
        self._lock = Lock()
        #: read-side access stamps not yet persisted, folded in on rewrite
        self._touched: Dict[str, int] = {}
        #: cached shard-file sizes (prefix -> bytes), kept current on write
        self._sizes: Dict[str, int] = {}
        self._clock = int(time.time() * 1000)
        self.evictions = 0
        self.corrupt_shards = 0
        self.corrupt_entries = 0
        self._adopt_marker()
        for path in self._shards.glob("*.json"):
            try:
                self._sizes[path.stem] = path.stat().st_size
            except OSError:
                pass

    # ---------------------------------------------------------------- layout
    @property
    def directory(self) -> Path:
        return self._dir

    def _shard_path(self, prefix: str) -> Path:
        return self._shards / f"{prefix}.json"

    @staticmethod
    def _prefix(key: str) -> str:
        return key[:2]

    def _adopt_marker(self) -> None:
        marker = self._dir / "CACHE_FORMAT"
        try:
            known = marker.read_text().strip()
        except OSError:
            known = None
        if known != str(SHARDED_FORMAT):
            marker.write_text(f"{SHARDED_FORMAT}\n")

    def _stamp(self) -> int:
        self._clock = max(self._clock + 1, int(time.time() * 1000))
        return self._clock

    # ------------------------------------------------------------- shard I/O
    @staticmethod
    def _entry_crc(payload: Any) -> int:
        return zlib.crc32(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")).encode("utf-8"))

    def _load_shard(self, prefix: str) -> Dict[str, Dict[str, Any]]:
        """Entries of one shard; corrupt/truncated files read as empty."""
        path = self._shard_path(prefix)
        try:
            faults.maybe_raise("sharded.read.error", key=prefix,
                               exc_type=OSError)
            with path.open("r", encoding="utf-8") as fh:
                blob = json.load(fh)
            entries = blob["entries"]
            if not isinstance(entries, dict):
                raise ValueError("entries is not a mapping")
            return entries
        except FileNotFoundError:
            return {}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # no lock here: callers may already hold it, and a GIL-atomic
            # counter increment is all the accounting needs
            self.corrupt_shards += 1
            logger.warning("treating corrupt cache shard %s as empty (%s)",
                           path, exc)
            return {}

    def _write_shard(self, prefix: str,
                     entries: Dict[str, Dict[str, Any]]) -> None:
        """Atomically publish one shard (or remove it when empty)."""
        path = self._shard_path(prefix)
        if not entries:
            try:
                path.unlink()
            except OSError:
                pass
            self._sizes.pop(prefix, None)
            return
        for key in entries:
            if key in self._touched:
                entries[key]["a"] = max(entries[key].get("a", 0),
                                        self._touched.pop(key))
        blob = json.dumps({"format": SHARDED_FORMAT, "entries": entries},
                          separators=(",", ":"))
        # Injected torn write: publish a truncated blob, exactly what a
        # crash midway through a non-atomic write would leave behind.  The
        # durability contract makes this a miss on the next read, so the
        # chaos sweep can prove the store never serves a torn artifact.
        published = faults.corrupt_payload("sharded.write.torn", blob,
                                           key=prefix)
        fd, tmp = tempfile.mkstemp(dir=str(self._shards), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(published)
            os.replace(tmp, path)
            self._sizes[prefix] = len(published.encode("utf-8"))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -------------------------------------------------------------- requests
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._load_shard(self._prefix(key)).get(key)
        if entry is None:
            return None
        entry = faults.corrupt_payload("sharded.payload.corrupt", entry,
                                       key=key)
        payload = entry.get("p") if isinstance(entry, dict) else None
        if not isinstance(payload, dict):
            self.corrupt_entries += 1
            return None
        crc = entry.get("c")
        if crc is not None and crc != self._entry_crc(payload):
            self.corrupt_entries += 1
            logger.warning("dropping cache entry %s: checksum mismatch", key)
            return None
        with self._lock:
            self._touched[key] = self._stamp()
        return payload

    def contains(self, key: str) -> bool:
        return key in self._load_shard(self._prefix(key))

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        prefix = self._prefix(key)
        with self._lock:
            entries = self._load_shard(prefix)
            entries[key] = {"a": self._stamp(), "p": payload,
                            "c": self._entry_crc(payload)}
            self._write_shard(prefix, entries)
        self._evict_to_budget()

    # -------------------------------------------------------------- eviction
    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    def _evict_to_budget(self) -> None:
        """Drop least-recently-used entries until the store fits the budget.

        Only runs when the cached shard sizes exceed the budget, so the
        common under-budget store never pays the full-scan cost.
        """
        if not self.byte_budget or self.total_bytes() <= self.byte_budget:
            return
        with self._lock:
            if self.total_bytes() <= self.byte_budget:
                return
            shards: Dict[str, Dict[str, Dict[str, Any]]] = {}
            ranked = []  # (stamp, prefix, key)
            for path in sorted(self._shards.glob("*.json")):
                prefix = path.stem
                entries = self._load_shard(prefix)
                shards[prefix] = entries
                for key, entry in entries.items():
                    stamp = max(entry.get("a", 0), self._touched.get(key, 0))
                    ranked.append((stamp, prefix, key))
            ranked.sort()
            dirty = set()
            over = self.total_bytes() - self.byte_budget
            for stamp, prefix, key in ranked:
                if over <= 0:
                    break
                entry = shards[prefix].pop(key)
                # size accounting per entry: its JSON footprint in the shard
                over -= len(json.dumps(entry, separators=(",", ":"))) + \
                    len(key) + 4
                dirty.add(prefix)
                self.evictions += 1
            for prefix in dirty:
                self._write_shard(prefix, shards[prefix])

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        return {"disk_bytes": self.total_bytes(),
                "evictions": self.evictions,
                "corrupt_shards": self.corrupt_shards,
                "corrupt_entries": self.corrupt_entries,
                "byte_budget": self.byte_budget}


__all__ = ["ShardedStore", "SHARDED_FORMAT", "SHARD_COUNT",
           "DEFAULT_BYTE_BUDGET", "BYTE_BUDGET_ENV", "budget_from_env",
           "parse_byte_size"]
