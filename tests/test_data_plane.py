"""Zero-copy artifact data plane (ISSUE 7): npy-segment cache payloads
and handle-passing workers.

Unit tests for the payload codec and the disk cache's segment layout
run unconditionally.  The sweep-level chaos test (a worker kill against
handle-passing) is gated behind ``OBFUSCADE_FAULTS=1`` like the rest of
the chaos suite.
"""

import hashlib
import os
import pickle

import numpy as np
import pytest

from repro import faults
from repro.cad import COARSE
from repro.faults import FaultPlan, FaultSpec
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import DiskStageCache, ParallelSweep, ROOTS_STAGE
from repro.pipeline import payload
from repro.printer.orientation import PrintOrientation
from repro.slicer.gcode import generate_gcode
from repro.slicer.slicer import slice_mesh
from repro.slicer.toolpath import (
    ToolpathStack,
    generate_toolpaths,
    pack_toolpaths,
    unpack_toolpaths,
)

from conftest import placed_mesh

chaos = pytest.mark.skipif(
    os.environ.get("OBFUSCADE_FAULTS") != "1",
    reason="chaos suite; enable with OBFUSCADE_FAULTS=1",
)

GRID_RESOLUTIONS = (COARSE,)
GRID_ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def baseline(protected):
    """Fault-free serial, memory-cache-only fingerprints."""
    report = ParallelSweep(jobs=1).run(
        protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
        assess=assess_print,
    )
    assert report.ok
    return {(c.resolution, c.orientation): c.fingerprint for c in report.cells}


def _fingerprints(report):
    return {(c.resolution, c.orientation): c.fingerprint for c in report.cells}


def _grid_value():
    """A stage value large enough that its arrays become segments."""
    return {
        "grid": np.arange(4096, dtype=np.float64).reshape(64, 64),
        "mask": np.zeros((128, 64), dtype=bool) | (np.arange(64) % 3 == 0),
        "cell_mm": 0.1,
        "name": "plate",
    }


class TestPayloadCodec:
    def test_extract_restore_roundtrip(self):
        value = {
            "a": np.arange(2048, dtype=np.float64),
            "nested": (np.ones((80, 80), dtype=np.uint8), "label"),
            "small": np.arange(3),  # below the segment threshold
            "scalar": 7,
        }
        skeleton, arrays = payload.extract_arrays(value)
        assert len(arrays) == 2  # only the big arrays segment
        back = payload.restore_arrays(skeleton, arrays)
        np.testing.assert_array_equal(back["a"], value["a"])
        np.testing.assert_array_equal(back["nested"][0], value["nested"][0])
        assert back["nested"][1] == "label"
        np.testing.assert_array_equal(back["small"], value["small"])
        assert back["scalar"] == 7

    def test_no_arrays_means_no_segments(self):
        skeleton, arrays = payload.extract_arrays({"k": [1, 2, 3]})
        assert arrays == []
        assert payload.restore_arrays(skeleton, arrays) == {"k": [1, 2, 3]}

    def test_header_is_recognizable(self):
        skeleton, arrays = payload.extract_arrays(_grid_value())
        header = payload.make_header(skeleton, len(arrays))
        assert payload.is_segmented_header(header)
        assert not payload.is_segmented_header({"plain": "dict"})

    def test_write_npy_streams_the_hash(self, tmp_path):
        array = np.arange(2048, dtype=np.float64)
        target = tmp_path / "seg.npy"
        with open(target, "wb") as fh:
            digest, nbytes = payload.write_npy(fh, array)
        assert nbytes == target.stat().st_size
        assert digest == payload.hash_file(target)
        assert digest == hashlib.sha256(target.read_bytes()).hexdigest()
        np.testing.assert_array_equal(payload.load_npy_mmap(target), array)


class TestSegmentedDiskLayout:
    def test_arrays_land_as_npy_segments(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.get_or_run("deposit", "k1", _grid_value)
        stage_dir = tmp_path / "deposit"
        segments = sorted(stage_dir.glob("k1.seg*.npy"))
        assert len(segments) == 2
        assert (stage_dir / "k1.pkl").exists()
        for seg in segments:
            assert (stage_dir / (seg.name + ".sha256")).exists()

    def test_warm_read_is_mmap_backed(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        warm = DiskStageCache(tmp_path)
        value, hit = warm.get_or_run("deposit", "k1", _grid_value)
        assert hit
        np.testing.assert_array_equal(value["grid"], _grid_value()["grid"])
        np.testing.assert_array_equal(value["mask"], _grid_value()["mask"])
        assert value["cell_mm"] == 0.1 and value["name"] == "plate"
        # The big arrays came back as read-only memory maps, not copies.
        assert isinstance(value["grid"], np.memmap)
        assert not value["grid"].flags.writeable
        assert warm.stats.zero_copy_hits == 1
        assert warm.stats.mmap_bytes > 0
        assert warm.stats.pickle_bytes > 0  # the header is still pickled

    def test_non_array_values_stay_plain_pickle(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("stage", "k1", lambda: "text")
        warm = DiskStageCache(tmp_path)
        value, hit = warm.get_or_run("stage", "k1", lambda: "other")
        assert hit and value == "text"
        assert list((tmp_path / "stage").glob("k1.seg*")) == []
        assert warm.stats.zero_copy_hits == 0
        assert warm.stats.pickle_bytes > 0

    def test_tampered_segment_quarantined_and_recomputed(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        seg = sorted((tmp_path / "deposit").glob("k1.seg*.npy"))[0]
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF
        seg.write_bytes(bytes(data))

        fresh = DiskStageCache(tmp_path)
        value, hit = fresh.get_or_run("deposit", "k1", _grid_value)
        assert not hit
        np.testing.assert_array_equal(value["grid"], _grid_value()["grid"])
        assert fresh.stats.integrity_failures == 1
        # The tampered generation moved to quarantine; the recompute
        # republished a clean one that a later instance reads verified.
        quarantined = list((tmp_path / "quarantine").glob("**/*k1.*"))
        assert any(q.name.endswith(".npy") for q in quarantined)
        later = DiskStageCache(tmp_path)
        value, hit = later.get_or_run("deposit", "k1", _grid_value)
        assert hit
        np.testing.assert_array_equal(value["grid"], _grid_value()["grid"])
        assert later.stats.integrity_failures == 0

    def test_missing_sidecar_is_an_integrity_failure(self, tmp_path):
        DiskStageCache(tmp_path).get_or_run("deposit", "k1", _grid_value)
        sidecar = sorted((tmp_path / "deposit").glob("k1.seg*.sha256"))[0]
        sidecar.unlink()
        fresh = DiskStageCache(tmp_path)
        _, hit = fresh.get_or_run("deposit", "k1", _grid_value)
        assert not hit
        assert fresh.stats.integrity_failures == 1


class TestToolpathSegments:
    """The toolpath stage's columns as verified, mmapped segments."""

    @pytest.fixture(scope="class")
    def compute(self):
        from repro.pipeline.chain import ProcessChain

        settings = ProcessChain().settings
        model = Obfuscator(seed=7).protect_tensile_bar().model
        slices = slice_mesh(placed_mesh(model, COARSE, PrintOrientation.XY), settings)
        return lambda: generate_toolpaths(slices, settings)

    @staticmethod
    def _get(cache, compute):
        return cache.get_or_run(
            "toolpath", "k1", compute, pack=pack_toolpaths, unpack=unpack_toolpaths
        )

    def test_fresh_instance_maps_the_stack(self, tmp_path, compute):
        stack, hit = self._get(DiskStageCache(tmp_path), compute)
        assert not hit
        warm = DiskStageCache(tmp_path)
        loaded, hit = self._get(warm, compute)
        assert hit and isinstance(loaded, ToolpathStack)
        # The columns are read-only views of the mapped segments.
        assert not loaded.points.flags.owndata
        assert not loaded.points.flags.writeable
        assert warm.stats.zero_copy_hits == 1
        assert warm.stats.mmap_bytes >= loaded.points.nbytes
        assert generate_gcode(loaded).text == generate_gcode(stack).text

    def test_flipped_segment_byte_is_quarantined(self, tmp_path, compute):
        stack, _ = self._get(DiskStageCache(tmp_path), compute)
        segments = sorted((tmp_path / "toolpath").glob("k1.seg*.npy"))
        assert segments
        seg = max(segments, key=lambda p: p.stat().st_size)  # the points
        data = bytearray(seg.read_bytes())
        data[len(data) // 2] ^= 0x01
        seg.write_bytes(bytes(data))

        fresh = DiskStageCache(tmp_path)
        again, hit = self._get(fresh, compute)
        assert not hit
        assert fresh.stats.integrity_failures == 1
        assert any(
            q.name.endswith(".npy")
            for q in (tmp_path / "quarantine").glob("toolpath-k1.*")
        )
        assert generate_gcode(again).text == generate_gcode(stack).text

    def test_stage_key_carries_the_codec_tag(self):
        from repro.pipeline.chain import ProcessChain

        stage = ProcessChain().by_name["toolpath"]
        assert stage.pack is pack_toolpaths and stage.unpack is unpack_toolpaths
        assert stage.key(None)[-1] == "columns"


class TestSharedRoots:
    def test_put_get_root_across_instances(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        root = {"model": np.arange(1024, dtype=np.float64), "name": "bar"}
        assert cache.put_root("digest123", root)
        other = DiskStageCache(tmp_path)
        resolved = other.get_root("digest123")
        np.testing.assert_array_equal(resolved["model"], root["model"])
        assert resolved["name"] == "bar"

    def test_put_root_is_idempotent_and_uncounted(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        assert cache.put_root("k", "value")
        assert cache.put_root("k", "value")
        assert cache.stats.total_hits == 0
        assert cache.stats.total_misses == 0
        assert (tmp_path / ROOTS_STAGE / "k.pkl").exists()

    def test_missing_root_resolves_to_none(self, tmp_path):
        assert DiskStageCache(tmp_path).get_root("absent") is None


class TestSweepEquivalence:
    """mmap-vs-pickle and handle-vs-inline must not shift a fingerprint."""

    def test_disk_cache_sweep_matches_memory_only(
        self, protected, baseline, tmp_path
    ):
        report = ParallelSweep(
            jobs=1, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert _fingerprints(report) == baseline
        # Serial runs have no worker pipe to account for.
        assert report.transport is None

        # The warm repeat answers from mmap-backed segment reads and
        # still reproduces every fingerprint bit-for-bit.
        warm = ParallelSweep(
            jobs=1, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert warm.ok
        assert _fingerprints(warm) == baseline
        assert warm.stats.zero_copy_hits > 0
        assert warm.stats.mmap_bytes > 0

    def test_parallel_handle_passing_matches_serial(
        self, protected, baseline, tmp_path
    ):
        report = ParallelSweep(
            jobs=2, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert _fingerprints(report) == baseline
        transport = report.transport
        assert transport is not None and transport.tasks > 0
        # Every task carried a model handle, never the model inline,
        # and nothing the size of a voxel grid crossed the pipe.
        assert transport.inline_tasks == 0
        assert transport.handle_tasks == transport.tasks
        assert transport.max_task_bytes <= 65536


@chaos
class TestChaosDataPlane:
    def test_worker_death_under_handle_passing(
        self, protected, baseline, tmp_path
    ):
        """A killed worker loses its in-flight handles, not correctness."""
        faults.install(FaultPlan(
            (FaultSpec("worker", "kill-worker", times=1),),
            scratch=str(tmp_path / "scratch"),
        ))
        report = ParallelSweep(
            jobs=2, cache_dir=str(tmp_path / "cache")
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert report.ok
        assert report.pool_rebuilds >= 1
        assert _fingerprints(report) == baseline
        # Transport accounting survives the rebuild (the lost task's
        # bytes are dropped with its future, never double-counted).
        assert report.transport is not None
        assert report.transport.inline_tasks == 0
