"""Content-addressed cache for process-chain stage artifacts.

Every stage output is stored under a digest of (stage name, upstream
artifact digests, stage parameters).  Because keys chain - a slice key
contains the orient key, which contains the resolve key, and so on up
to the CAD model's content hash - a cached artifact can be reused by
*any* run whose upstream world is identical, which is exactly what a
settings grid search produces: tessellation is orientation-independent,
so nine (resolution x orientation) attempts need only three
tessellations.

The cache also keeps per-stage hit/miss/timing counters so consumers
(the ``sweep`` CLI, benchmarks, the counterfeiter simulator) can report
where time went and what the cache saved.
"""

from __future__ import annotations

import enum
import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import observability as obs


def digest_parts(*parts: Any) -> str:
    """SHA-256 hex digest of an arbitrary tree of primitive values.

    Accepts strings, bytes, numbers, booleans, ``None``, enums (hashed
    by class and value) and nested tuples/lists/dicts of those.  The
    encoding is injective over this domain (every value is tagged and
    length-framed), so distinct parameter tuples cannot collide by
    concatenation.
    """
    h = hashlib.sha256()
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def _feed(h, value: Any) -> None:
    if value is None:
        h.update(b"\x00n")
    elif isinstance(value, bool):
        h.update(b"\x00b1" if value else b"\x00b0")
    elif isinstance(value, int):
        data = str(value).encode()
        h.update(b"\x00i" + len(data).to_bytes(4, "little") + data)
    elif isinstance(value, float):
        data = value.hex().encode()
        h.update(b"\x00f" + len(data).to_bytes(4, "little") + data)
    elif isinstance(value, str):
        data = value.encode()
        h.update(b"\x00s" + len(data).to_bytes(4, "little") + data)
    elif isinstance(value, bytes):
        h.update(b"\x00y" + len(value).to_bytes(4, "little") + value)
    elif isinstance(value, enum.Enum):
        _feed(h, type(value).__name__)
        _feed(h, value.value)
    elif isinstance(value, (tuple, list)):
        h.update(b"\x00t" + len(value).to_bytes(4, "little"))
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        h.update(b"\x00d" + len(items).to_bytes(4, "little"))
        for k, v in items:
            _feed(h, k)
            _feed(h, v)
    else:
        raise TypeError(
            f"cannot digest value of type {type(value).__name__}; "
            "stage key functions must return primitive trees"
        )


@dataclass
class StageStats:
    """Counters for one stage of the chain."""

    hits: int = 0
    misses: int = 0
    run_s: float = 0.0
    saved_s: float = 0.0

    @property
    def runs(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.runs if self.runs else 0.0

    def copy(self) -> "StageStats":
        return StageStats(self.hits, self.misses, self.run_s, self.saved_s)


@dataclass
class CacheStats:
    """Per-stage counters, in stage execution order.

    Besides the per-stage hit/miss/timing table, two cache-level
    counters make storage-layer degradation observable (ISSUE 3):
    ``integrity_failures`` counts on-disk entries that failed their
    digest or deserialization check and were quarantined;
    ``store_failures`` counts writes that could not be persisted (full
    disk, unpicklable artifact) and silently degraded to memory-only
    caching.

    The data-plane counters (ISSUE 7) account how stored bytes actually
    reached the process: ``zero_copy_hits`` counts disk loads served
    through the ``.npy``-segment layout (grids memory-mapped, never
    unpickled), ``mmap_bytes`` the array bytes those mappings cover,
    and ``pickle_bytes`` the bytes that still went through
    ``pickle.loads`` (headers, plain-pickle fallback entries).
    """

    stages: "OrderedDict[str, StageStats]" = field(default_factory=OrderedDict)
    integrity_failures: int = 0
    store_failures: int = 0
    zero_copy_hits: int = 0
    mmap_bytes: int = 0
    pickle_bytes: int = 0

    def stage(self, name: str) -> StageStats:
        if name not in self.stages:
            self.stages[name] = StageStats()
        return self.stages[name]

    @property
    def total_hits(self) -> int:
        return sum(s.hits for s in self.stages.values())

    @property
    def total_misses(self) -> int:
        return sum(s.misses for s in self.stages.values())

    @property
    def total_run_s(self) -> float:
        return sum(s.run_s for s in self.stages.values())

    @property
    def total_saved_s(self) -> float:
        return sum(s.saved_s for s in self.stages.values())

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            OrderedDict((k, v.copy()) for k, v in self.stages.items()),
            integrity_failures=self.integrity_failures,
            store_failures=self.store_failures,
            zero_copy_hits=self.zero_copy_hits,
            mmap_bytes=self.mmap_bytes,
            pickle_bytes=self.pickle_bytes,
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Sum another table's counters into this one (in place).

        Used to combine the per-worker statistics of a parallel sweep
        into one report; returns ``self`` for chaining.
        """
        for name, stats in other.stages.items():
            mine = self.stage(name)
            mine.hits += stats.hits
            mine.misses += stats.misses
            mine.run_s += stats.run_s
            mine.saved_s += stats.saved_s
        self.integrity_failures += other.integrity_failures
        self.store_failures += other.store_failures
        self.zero_copy_hits += other.zero_copy_hits
        self.mmap_bytes += other.mmap_bytes
        self.pickle_bytes += other.pickle_bytes
        return self

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-serializable per-stage counters (for machine-readable
        benchmark reports and run manifests).

        The ``_cache`` block is always present (ISSUE 4 bugfix): it
        used to be omitted when both failure counters were zero, which
        gave ``BENCH_pipeline.json`` consumers an unstable schema -
        "counter is zero" and "counter is missing" are different facts.
        """
        table: Dict[str, Dict[str, float]] = {
            name: {
                "hits": s.hits,
                "misses": s.misses,
                "run_s": s.run_s,
                "saved_s": s.saved_s,
            }
            for name, s in self.stages.items()
        }
        table["_cache"] = {
            "integrity_failures": self.integrity_failures,
            "store_failures": self.store_failures,
            "zero_copy_hits": self.zero_copy_hits,
            "mmap_bytes": self.mmap_bytes,
            "pickle_bytes": self.pickle_bytes,
        }
        return table

    def render(self) -> List[str]:
        """Human-readable per-stage table (for ``--stats`` output)."""
        lines = [
            f"{'stage':12s} {'runs':>5s} {'hits':>5s} {'misses':>7s} "
            f"{'hit rate':>9s} {'compute(s)':>11s} {'saved(s)':>9s}"
        ]
        for name, s in self.stages.items():
            lines.append(
                f"{name:12s} {s.runs:>5d} {s.hits:>5d} {s.misses:>7d} "
                f"{s.hit_rate:>8.0%} {s.run_s:>11.3f} {s.saved_s:>9.3f}"
            )
        lines.append(
            f"{'total':12s} {self.total_hits + self.total_misses:>5d} "
            f"{self.total_hits:>5d} {self.total_misses:>7d} "
            f"{(self.total_hits / max(1, self.total_hits + self.total_misses)):>8.0%} "
            f"{self.total_run_s:>11.3f} {self.total_saved_s:>9.3f}"
        )
        if self.integrity_failures:
            lines.append(
                f"cache integrity failures (quarantined + recomputed): "
                f"{self.integrity_failures}"
            )
        if self.store_failures:
            lines.append(
                f"cache store failures (degraded to memory-only): "
                f"{self.store_failures}"
            )
        if self.zero_copy_hits:
            lines.append(
                f"zero-copy disk reads: {self.zero_copy_hits} "
                f"({self.mmap_bytes} B mmapped, "
                f"{self.pickle_bytes} B unpickled)"
            )
        return lines


class StageCache:
    """Content-addressed store for stage artifacts with counters.

    The artifact store is unbounded: it holds one sweep's (or one
    fleet's) working set.
    """

    #: Decoded-value working set kept per cache: repeated hits on a
    #: packed entry return the *same* decoded object instead of paying
    #: ``unpack`` again (safe because stages must not mutate cached
    #: artifacts - documented on :class:`~repro.pipeline.stage.Stage`).
    DECODED_MAX_ENTRIES = 32
    #: Bound on memoized derived products (fingerprints, assessments).
    DERIVED_MAX_ENTRIES = 512

    def __init__(self):
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._decoded: "OrderedDict[str, Any]" = OrderedDict()
        self._derived: "OrderedDict[str, Any]" = OrderedDict()
        self.stats = CacheStats()
        #: Per-stage count of hits served by :meth:`_load`'s slower
        #: tier rather than memory (always empty without one).
        self.disk_hits: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all stored artifacts (counters are kept)."""
        self._entries.clear()
        self._decoded.clear()
        self._derived.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    # -- decoded / derived memos --------------------------------------------

    def _decode(
        self, key: str, stored: Any, unpack: Optional[Callable[[Any], Any]]
    ) -> Any:
        """Decode a stored entry, memoizing the result per content key.

        Entries without a codec are returned as stored (they *are* the
        artifact).  Packed entries pay ``unpack`` once; further hits on
        the same key share the decoded object, which is what lets
        instance-level memos downstream (fingerprint hash state,
        surface-disruption area) survive across cache hits.
        """
        if unpack is None:
            return stored
        value = self._decoded.get(key)
        if value is not None:
            self._decoded.move_to_end(key)
            return value
        value = unpack(stored)
        self._remember_decoded(key, value)
        return value

    def _remember_decoded(self, key: str, value: Any) -> None:
        self._decoded[key] = value
        while len(self._decoded) > self.DECODED_MAX_ENTRIES:
            self._decoded.popitem(last=False)

    def derived_get(self, key: str) -> Any:
        """Uncounted memo of content-addressed *derived* products
        (outcome fingerprints, assessments): values that are pure
        functions of already-digested artifacts, so re-deriving them
        for an identical content key is pure overhead.  Returns ``None``
        when absent; never touches the stage counters."""
        value = self._derived.get(key)
        if value is not None:
            self._derived.move_to_end(key)
        return value

    def derived_put(self, key: str, value: Any) -> None:
        self._derived[key] = value
        while len(self._derived) > self.DERIVED_MAX_ENTRIES:
            self._derived.popitem(last=False)

    def fetch(
        self,
        stage_name: str,
        key: str,
        unpack: Optional[Callable[[Any], Any]] = None,
    ) -> Tuple[Any, bool]:
        """Uncounted lookup: ``(artifact, found)`` without accounting.

        Used by the stage-granular scheduler to *materialize* a node's
        upstream inputs, as opposed to *executing* the node itself.  A
        fetch deliberately touches neither the hit/miss counters nor a
        ``cache.get`` span: the per-stage stats keep meaning "stage
        executions", so span-derived totals and report counters agree
        exactly (the ISSUE 4 invariant) no matter how many times an
        artifact is re-read as somebody's input.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            stored = self._entries[key]
            return self._decode(key, stored, unpack), True
        return None, False

    # -- slower tier (none here; see DiskStageCache) -----------------------

    def _load(self, stage_name: str, key: str) -> Tuple[Any, bool]:
        """``(stored, found)`` from the tier behind memory."""
        return None, False

    def _store(self, stage_name: str, key: str, value: Any) -> bool:
        """Persist a stored entry to the tier behind memory; returns
        whether it was persisted."""
        return False

    def get_or_run(
        self,
        stage_name: str,
        key: str,
        fn: Callable[[], Any],
        pack: Optional[Callable[[Any], Any]] = None,
        unpack: Optional[Callable[[Any], Any]] = None,
    ) -> Tuple[Any, bool]:
        """Return ``(artifact, was_hit)`` for one stage execution.

        Lookups go memory, then :meth:`_load`, then compute.  On a
        miss, ``fn`` runs, its wall time is charged to the stage and
        the entry goes to memory and :meth:`_store`; on a hit the
        stage's mean miss time is credited to ``saved_s`` as the
        estimate of compute avoided.

        ``pack``/``unpack`` (see :class:`~repro.pipeline.stage.Stage`)
        encode the artifact for storage and restore it on hits; every
        tier holds the packed form, and the freshly computed value is
        always returned as-is.
        """
        stats = self.stats.stage(stage_name)
        with obs.span("cache.get", stage=stage_name, key=key[:12]):
            if key in self._entries:
                self._entries.move_to_end(key)
                stats.hits += 1
                if stats.misses:
                    stats.saved_s += stats.run_s / stats.misses
                obs.annotate(hit=True, tier="memory")
                stored = self._entries[key]
                return self._decode(key, stored, unpack), True
            stored, found = self._load(stage_name, key)
            if found:
                stats.hits += 1
                self.disk_hits[stage_name] = self.disk_hits.get(stage_name, 0) + 1
                if stats.misses:
                    stats.saved_s += stats.run_s / stats.misses
                obs.annotate(hit=True, tier="disk")
                self._entries[key] = stored
                return self._decode(key, stored, unpack), True

            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
            stats.run_s += elapsed
            stats.misses += 1
            obs.annotate(hit=False, tier="compute", run_s=elapsed)
            stored = pack(value) if pack is not None else value
            self._entries[key] = stored
            if pack is not None:
                self._remember_decoded(key, value)
            self._store(stage_name, key, stored)
            return value, False


def stats_delta(before: CacheStats, after: CacheStats) -> CacheStats:
    """Counters accumulated between two snapshots of a shared cache.

    Lets a consumer that shares a long-lived cache (the counterfeiter
    simulator, a scheduler worker running many node tasks on one disk
    cache) report exactly the work of *its* run.
    """
    delta = CacheStats()
    for name, stats in after.stages.items():
        prior = before.stages.get(name)
        entry = delta.stage(name)
        entry.hits = stats.hits - (prior.hits if prior else 0)
        entry.misses = stats.misses - (prior.misses if prior else 0)
        entry.run_s = stats.run_s - (prior.run_s if prior else 0.0)
        entry.saved_s = stats.saved_s - (prior.saved_s if prior else 0.0)
    delta.integrity_failures = after.integrity_failures - before.integrity_failures
    delta.store_failures = after.store_failures - before.store_failures
    delta.zero_copy_hits = after.zero_copy_hits - before.zero_copy_hits
    delta.mmap_bytes = after.mmap_bytes - before.mmap_bytes
    delta.pickle_bytes = after.pickle_bytes - before.pickle_bytes
    return delta
