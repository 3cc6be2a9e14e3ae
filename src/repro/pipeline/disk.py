"""On-disk content-addressed stage cache, shareable across processes.

The in-memory :class:`~repro.pipeline.cache.StageCache` is one
process's working set; a parallel sweep needs its workers to share
stage artifacts.  :class:`DiskStageCache` layers a content-addressed
file store under a cache directory on top of the in-memory cache:
artifacts live at ``<root>/<stage>/<digest>.pkl``, written atomically
(temp file + ``os.replace``), so concurrent workers racing on the same
digest can only ever publish identical bytes-for-the-same-key files -
last writer wins and no reader sees a partial pickle.

Values holding large ndarrays use the **NumPy-native payload layout**
(ISSUE 7, :mod:`repro.pipeline.payload`): the arrays are split out into
raw ``<digest>.seg<i>.npy`` files beside a small ``<digest>.pkl``
header, each with its own SHA-256 sidecar computed *while streaming the
bytes out* (no second hashing pass).  Warm reads then memory-map the
segments (``np.load(mmap_mode="r")``) instead of copying them through
``pickle.loads`` - the zero-copy path counted by
``CacheStats.zero_copy_hits`` / ``mmap_bytes`` / ``pickle_bytes``.
Values without qualifying arrays keep the legacy single-pickle layout,
so old cache directories read unchanged and new ones degrade cleanly.
Segments are published before their header, so a visible header always
implies visible, verifiable segments.

The disk tier is also **tamper evident** (ISSUE 3, Table 1's STL-stage
"verify file hashes" mitigation applied to our own supply chain): every
payload carries a SHA-256 sidecar (``<digest>.pkl.sha256``, written
*before* the payload so a visible payload always has its digest on
disk).  ``_load`` verifies the payload bytes against the sidecar before
unpickling; an entry that fails verification - truncated, bit-flipped,
or missing its sidecar - is moved to ``<root>/quarantine/`` and counted
in :attr:`CacheStats.integrity_failures`, never served and never left
in place to poison the next reader.  Store failures (full disk,
unpicklable artifact) likewise degrade to memory-only caching but are
now counted in :attr:`CacheStats.store_failures` instead of vanishing.

Lookups go memory first, then disk (populating memory), then compute.
Both tiers count as cache *hits* in the stage counters; disk hits are
additionally tallied per stage in :attr:`disk_hits` so sweeps can
report how much crossed process boundaries.

The finalize memo (:meth:`derived_put`) is persisted too, one small
entry per cell under ``<root>/__finalize__/``, through the same
verified store.  A memo entry is a verdict - a forged one would pass a
sabotaged print as clean - so it gets exactly the sidecar check and
quarantine of every stage artifact; its trust boundary is the cache
directory's write permission.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

from repro import faults
from repro import observability as obs
from repro.pipeline import payload
from repro.pipeline.cache import StageCache
from repro.pipeline.resilience import CacheIntegrityError
from repro.supplychain.integrity import file_digest

#: Name of the quarantine directory under the cache root.
QUARANTINE_DIR = "quarantine"

#: Pseudo-stage directory for shared *root* objects (the CAD model a
#: sweep fans out over).  Roots are published by the parent and resolved
#: by digest in workers (handle-passing), never counted as stage runs.
ROOTS_STAGE = "__roots__"

#: Pseudo-stage directory of the persisted finalize memo: one
#: ``(fingerprint, assessment)`` entry per
#: :func:`~repro.pipeline.report.finalize_key`, read back only by a
#: resumed fleet job.
FINALIZE_STAGE = "__finalize__"


class DiskStageCache(StageCache):
    """A :class:`StageCache` backed by content-addressed, hash-verified files.

    Parameters
    ----------
    root:
        Cache directory; created if missing.  Safe to share between
        processes and across runs - keys are content digests, so stale
        entries are simply never addressed again.
    """

    def __init__(self, root: os.PathLike):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, stage_name: str, key: str) -> Path:
        return self.root / stage_name / f"{key}.pkl"

    def _digest_path(self, stage_name: str, key: str) -> Path:
        return self.root / stage_name / f"{key}.pkl.sha256"

    def _segment_path(self, stage_name: str, key: str, index: int) -> Path:
        return self.root / stage_name / f"{key}.seg{index}.npy"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def quarantined(self) -> Tuple[Path, ...]:
        """Quarantined payload files, oldest first."""
        if not self.quarantine_root.is_dir():
            return ()
        entries = [
            p for p in self.quarantine_root.iterdir() if p.suffix == ".pkl"
        ]
        return tuple(sorted(entries, key=lambda p: p.stat().st_mtime))

    # -- disk tier -----------------------------------------------------------

    def _load(self, stage_name: str, key: str) -> Tuple[Any, bool]:
        path = self._path(stage_name, key)
        faults.tamper_file(f"cache.load.{stage_name}", path)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None, False
        try:
            self._verify(stage_name, key, data)
            obj = pickle.loads(data)
            if payload.is_segmented_header(obj):
                value = self._load_segments(stage_name, key, obj)
                self.stats.zero_copy_hits += 1
                self.stats.pickle_bytes += len(data)
                return value, True
            self.stats.pickle_bytes += len(data)
            return obj, True
        except (CacheIntegrityError, pickle.UnpicklingError, EOFError,
                AttributeError, IndexError, ImportError, KeyError,
                ValueError, OSError):
            # A tampered, truncated or undecodable entry must neither
            # be served nor left in place to re-fail every future
            # lookup: quarantine it (header *and* segments) and
            # recompute.
            self._quarantine(stage_name, key)
            self.stats.integrity_failures += 1
            obs.event("cache.integrity_failure", stage=stage_name,
                      key=key[:12])
            obs.inc("cache.integrity_failures")
            return None, False

    def _load_segments(self, stage_name: str, key: str, header: dict) -> Any:
        """Verify and memory-map every ``.npy`` segment of a header.

        The grids never pass through ``pickle.loads``: verification
        streams the file bytes through SHA-256 and the data itself is
        mapped read-only, so a warm read costs one hash pass over the
        page cache instead of a hash pass *plus* a heap copy.
        """
        arrays = []
        mapped = 0
        for index in range(int(header["segments"])):
            seg = self._segment_path(stage_name, key, index)
            faults.tamper_file(f"cache.load.{stage_name}", seg)
            sidecar = Path(f"{seg}.sha256")
            try:
                expected = sidecar.read_text().strip()
            except OSError as exc:
                raise CacheIntegrityError(
                    str(seg), "segment digest sidecar missing"
                ) from exc
            actual = payload.hash_file(seg)
            if actual != expected:
                raise CacheIntegrityError(
                    str(seg),
                    f"segment sha256 mismatch "
                    f"(expected {expected[:12]}..., "
                    f"got {actual[:12]}...)",
                )
            array = payload.load_npy_mmap(seg)
            mapped += array.nbytes
            arrays.append(array)
        self.stats.mmap_bytes += mapped
        obs.annotate(zero_copy=True, mmap_bytes=mapped)
        return payload.restore_arrays(header["skeleton"], arrays)

    def _verify(self, stage_name: str, key: str, data: bytes) -> None:
        digest_path = self._digest_path(stage_name, key)
        try:
            expected = digest_path.read_text().strip()
        except OSError as exc:
            raise CacheIntegrityError(
                str(self._path(stage_name, key)), "digest sidecar missing"
            ) from exc
        actual = file_digest(data)
        if actual != expected:
            raise CacheIntegrityError(
                str(self._path(stage_name, key)),
                f"sha256 mismatch (expected {expected[:12]}..., "
                f"got {actual[:12]}...)",
            )

    def _quarantine(self, stage_name: str, key: str) -> None:
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        stage_dir = self.root / stage_name
        # Every file of the entry goes: header, sidecars and any .npy
        # segments - a partially quarantined entry would re-fail (or
        # worse, half-serve) on the next lookup.
        sources = sorted(stage_dir.glob(f"{key}.*")) if stage_dir.is_dir() else []
        for source in sources:
            target = self.quarantine_root / f"{stage_name}-{source.name}"
            try:
                os.replace(source, target)
            except OSError:
                # Cross-device or racing quarantine: removal is enough -
                # the entry must just not be re-read.
                try:
                    os.unlink(source)
                except OSError:
                    pass

    def _store(self, stage_name: str, key: str, value: Any) -> bool:
        path = self._path(stage_name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with obs.span("cache.store", stage=stage_name, key=key[:12]):
            try:
                faults.fire(f"cache.store.{stage_name}")
                skeleton, arrays = payload.extract_arrays(value)
                if arrays:
                    # Segments first (each streamed + hashed in one
                    # pass), the pickled header last: a reader that can
                    # see the header can see every segment it names.
                    total = 0
                    for index, array in enumerate(arrays):
                        total += self._write_segment(
                            self._segment_path(stage_name, key, index), array
                        )
                    data = pickle.dumps(
                        payload.make_header(skeleton, len(arrays)),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                else:
                    total = 0
                    data = pickle.dumps(
                        value, protocol=pickle.HIGHEST_PROTOCOL
                    )
                # Digest sidecar lands first: any reader that can see the
                # payload can verify it (a payload without its sidecar is
                # treated as tampering).
                self._write_atomic(
                    self._digest_path(stage_name, key),
                    (file_digest(data) + "\n").encode(),
                )
                self._write_atomic(path, data)
                obs.annotate(
                    ok=True, bytes=len(data) + total, segments=len(arrays)
                )
                return True
            except (OSError, pickle.PicklingError, TypeError, AttributeError,
                    ValueError):
                # An artifact that cannot be persisted (or a full disk)
                # degrades to memory-only caching rather than failing the
                # run - but observably (ISSUE 3: no silent swallowing).
                self.stats.store_failures += 1
                obs.annotate(ok=False)
                return False

    def _write_segment(self, path: Path, array) -> int:
        """Stream one array to ``path`` in ``.npy`` format, publishing
        its SHA-256 sidecar (computed during the write) before the
        segment itself becomes visible.  Returns bytes written."""
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                digest, nbytes = payload.write_npy(fh, array)
            self._write_atomic(
                Path(f"{path}.sha256"), (digest + "\n").encode()
            )
            os.replace(tmp, path)
            return nbytes
        except (OSError, ValueError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _write_atomic(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- lookup --------------------------------------------------------------

    def fetch(
        self,
        stage_name: str,
        key: str,
        unpack: Optional[Callable[[Any], Any]] = None,
    ) -> Tuple[Any, bool]:
        """As :meth:`StageCache.fetch`, falling back to the (verified)
        disk tier.  Input materialization stays outside the hit/miss
        counters and outside ``cache.get`` spans - it emits its own
        ``cache.fetch`` span instead - but a tampered entry found on the
        way is still quarantined and counted in ``integrity_failures``.
        """
        value, found = super().fetch(stage_name, key, unpack=unpack)
        if found:
            return value, found
        with obs.span("cache.fetch", stage=stage_name, key=key[:12]):
            stored, found = self._load(stage_name, key)
            if not found:
                obs.annotate(hit=False)
                return None, False
            self._entries[key] = stored
            obs.annotate(hit=True)
            return self._decode(key, stored, unpack), True

    def derived_put(self, key: str, value: Any) -> None:
        """As :meth:`StageCache.derived_put`, also persisting the entry
        under :data:`FINALIZE_STAGE` for a later resumed run."""
        super().derived_put(key, value)
        self._store(FINALIZE_STAGE, key, value)

    # -- shared roots (handle-passing) --------------------------------------

    def put_root(self, key: str, value: Any) -> bool:
        """Publish a shared root object (e.g. the sweep's CAD model)
        under its content digest so workers can resolve it from the
        shared cache instead of receiving the full payload over the
        task pipe.  Returns False when the root could not be persisted
        (callers then fall back to inline payload-passing).  Uncounted:
        roots are transport, not stage executions.
        """
        self._entries[key] = value
        if (self.root / ROOTS_STAGE / f"{key}.pkl").exists():
            return True
        return self._store(ROOTS_STAGE, key, value)

    def get_root(self, key: str) -> Any:
        """Resolve a published root by digest (memory, then verified
        disk); ``None`` when absent or quarantined."""
        value, found = self.fetch(ROOTS_STAGE, key)
        return value if found else None
