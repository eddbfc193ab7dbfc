"""Content-addressed artifact cache: in-memory LRU tier over a disk store.

Artifacts are JSON payloads addressed by the SHA-256 of their job's key
material (see :mod:`repro.service.jobs`).  The disk tier is the sharded
store of :mod:`repro.service.sharded`:

    <cache_dir>/CACHE_FORMAT        format version marker
    <cache_dir>/shards/<pp>.json    256 shard files, pp = key[:2]

Keys embed a schema salt (:data:`repro.service.jobs.KEY_SCHEMA_VERSION`),
so bumping the salt invalidates every previously persisted artifact without
touching the store; ``CACHE_FORMAT`` records the on-disk *layout* instead.
Corrupt or truncated shards are treated as misses and overwritten on the
next store, so a killed run can never poison the cache, and the disk
footprint is bounded by an LRU byte budget (``byte_budget`` /
``$REPRO_CACHE_BUDGET``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Any, Dict, Optional

from . import faults
from .sharded import DEFAULT_BYTE_BUDGET, SHARDED_FORMAT, ShardedStore

#: On-disk layout version (distinct from the key schema salt).
CACHE_FORMAT = SHARDED_FORMAT

#: Default size of the in-memory LRU tier (artifacts, not bytes).
DEFAULT_MEMORY_ENTRIES = 1024


@dataclass
class CacheCounters:
    """Hit/miss accounting, exposed unchanged on the service."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {"memory_hits": self.memory_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores,
                "hits": self.hits, "lookups": self.lookups}


class ArtifactCache:
    """Two-tier content-addressed cache.

    ``cache_dir=None`` keeps the cache purely in memory (still shared across
    every adapter instance in the process); with a directory, artifacts also
    persist across process invocations in the sharded disk store.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 byte_budget: Optional[int] = None):
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._memory_entries = max(0, memory_entries)
        self._lock = Lock()
        self.counters = CacheCounters()
        self._store: Optional[ShardedStore] = None
        if cache_dir:
            self._store = ShardedStore(cache_dir, byte_budget=byte_budget)

    # ------------------------------------------------------------------ info
    @property
    def cache_dir(self) -> Optional[Path]:
        return self._store.directory if self._store is not None else None

    @property
    def store(self) -> Optional[ShardedStore]:
        return self._store

    @property
    def persistent(self) -> bool:
        return self._store is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ---------------------------------------------------------------- lookup
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                self.counters.memory_hits += 1
                return payload
        if self._store is not None:
            payload = self._store.get(key)
            # Injected corruption *above* the store's checksum: what a bad
            # deserialisation or a foreign writer would produce.  Consumers
            # (scheduler, daemon, function/jit stores) must treat any
            # malformed payload as a miss, never trust it.
            payload = faults.corrupt_payload("cache.payload.corrupt",
                                             payload, key=key)
            if payload is not None:
                with self._lock:
                    self.counters.disk_hits += 1
                    self._promote(key, payload)
                return payload
        with self._lock:
            self.counters.misses += 1
        return None

    def contains(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self._store is not None and self._store.contains(key)

    # ----------------------------------------------------------------- store
    def put(self, key: str, payload: Dict[str, Any],
            durable: bool = True) -> None:
        """Store ``payload`` in both tiers.

        ``durable=False`` keeps the entry in the in-memory LRU tier only —
        used for state that must not outlive this process, such as a
        timeout-driven quarantine that a differently-loaded machine should
        re-attempt from scratch.
        """
        with self._lock:
            self.counters.stores += 1
            self._promote(key, payload)
        if durable and self._store is not None:
            self._store.put(key, payload)

    def _promote(self, key: str, payload: Dict[str, Any]) -> None:
        """Insert into the LRU tier (caller holds the lock)."""
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    # ----------------------------------------------------------------- admin
    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    def stats(self) -> Dict[str, int]:
        """Counters plus disk-tier accounting (bytes, evictions)."""
        merged = self.counters.as_dict()
        if self._store is not None:
            merged.update(self._store.stats())
        return merged


__all__ = ["ArtifactCache", "CacheCounters", "CACHE_FORMAT",
           "DEFAULT_MEMORY_ENTRIES", "DEFAULT_BYTE_BUDGET"]
