"""Tests for the parallel sweep executor and the on-disk stage cache.

The contract of ``--jobs N`` (ISSUE: parallel sweep determinism): a
parallel sweep is a pure wall-clock optimization.  Cell order, artifact
content (checked as :func:`outcome_fingerprint` hashes), quality
verdicts and per-stage accounting totals must all be identical to the
serial sweep; the workers' shared :class:`DiskStageCache` must survive
process and run boundaries.
"""

import pickle

import numpy as np
import pytest

from repro.cad import COARSE, StlResolution
from repro.obfuscade.attack import CounterfeiterSimulator
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import DiskStageCache, ParallelSweep, outcome_fingerprint
from repro.printer.artifact import pack_artifact, unpack_artifact
from repro.printer.orientation import PrintOrientation

MID = StlResolution(name="Mid", angle_deg=20.0, deviation_fraction=0.0012)
GRID_RESOLUTIONS = (COARSE, MID)
GRID_ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)
#: Per-run chain stages (``validate`` is opt-in and not part of a sweep).
SWEEP_STAGES = (
    "tessellate", "seam", "resolve", "orient",
    "slice", "toolpath", "gcode", "firmware", "deposit",
)


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def serial_report(protected):
    return ParallelSweep(jobs=1).run(
        protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS, assess=assess_print
    )


@pytest.fixture(scope="module")
def sweep_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def parallel_report(protected, sweep_cache_dir):
    return ParallelSweep(jobs=4, cache_dir=sweep_cache_dir).run(
        protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS, assess=assess_print
    )


class TestParallelSweepDeterminism:
    """jobs=4 must reproduce the serial sweep exactly."""

    def test_cells_in_grid_order(self, serial_report, parallel_report):
        expected = [
            (r.name, o.value)
            for r in GRID_RESOLUTIONS
            for o in GRID_ORIENTATIONS
        ]
        for report in (serial_report, parallel_report):
            assert [(c.resolution, c.orientation) for c in report.cells] == expected

    def test_fingerprints_match_serial(self, serial_report, parallel_report):
        serial = [c.fingerprint for c in serial_report.cells]
        parallel = [c.fingerprint for c in parallel_report.cells]
        assert serial == parallel
        # Distinct process settings produce distinct prints.
        assert len(set(serial)) == len(serial)

    def test_assessments_match_serial(self, serial_report, parallel_report):
        for ours, theirs in zip(parallel_report.cells, serial_report.cells):
            assert ours.assessment.grade is theirs.assessment.grade
            assert ours.assessment.score == theirs.assessment.score

    def test_merged_stats_consistent(self, serial_report, parallel_report):
        """Per-stage totals equal node executions, in both modes.

        The stage-granular scheduler plans orientation-independent
        stages once per resolution fleet-wide, so - unlike the old
        cell-granular executor, where workers could race-duplicate a
        tessellation - the accounting is exact and identical in serial
        and parallel runs: a cold sweep is all misses, one per
        scheduled node.
        """
        n_cells = len(GRID_RESOLUTIONS) * len(GRID_ORIENTATIONS)
        shared = ("tessellate", "resolve")
        for report in (serial_report, parallel_report):
            for stage in SWEEP_STAGES:
                stats = report.stats.stages[stage]
                expected = (
                    len(GRID_RESOLUTIONS) if stage in shared else n_cells
                )
                assert stats.hits + stats.misses == expected, stage
                assert stats.hits == 0, stage  # cold sweep
            assert report.scheduler is not None
            assert report.scheduler.stages["tessellate"].requested == n_cells
            assert (
                report.scheduler.stages["tessellate"].executed
                == len(GRID_RESOLUTIONS)
            )

    def test_wall_clock_recorded(self, serial_report, parallel_report):
        assert serial_report.wall_s > 0
        assert parallel_report.wall_s > 0
        assert serial_report.jobs == 1
        assert parallel_report.jobs == 4

    def test_rerun_on_shared_cache_is_all_hits(
        self, protected, parallel_report, sweep_cache_dir
    ):
        """The disk cache outlives the sweep: a rerun computes nothing."""
        rerun = ParallelSweep(jobs=2, cache_dir=sweep_cache_dir).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert rerun.stats.total_misses == 0
        assert [c.fingerprint for c in rerun.cells] == [
            c.fingerprint for c in parallel_report.cells
        ]

    def test_empty_grid(self, protected):
        report = ParallelSweep(jobs=4).run(protected.model, (), ())
        assert report.cells == []
        assert report.stats.total_hits == report.stats.total_misses == 0

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ParallelSweep(jobs=0)
        with pytest.raises(ValueError):
            CounterfeiterSimulator(jobs=0)


class TestCounterfeiterParallel:
    def test_parallel_attack_matches_serial(self, protected, serial_report):
        """``CounterfeiterSimulator(jobs=2)`` grades the grid identically."""
        result = CounterfeiterSimulator(
            resolutions=GRID_RESOLUTIONS,
            orientations=GRID_ORIENTATIONS,
            jobs=2,
        ).attack(protected)
        assert result.n_attempts == len(serial_report.cells)
        serial_rows = [
            (c.resolution, c.orientation,
             c.assessment.grade.value, c.assessment.score)
            for c in serial_report.cells
        ]
        parallel_rows = [row[:4] for row in result.summary_rows()]
        assert parallel_rows == serial_rows
        assert result.cache_stats is not None
        assert result.cache_stats.total_misses > 0


class TestDiskStageCache:
    def test_hit_across_instances(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return {"value": 42}

        first = DiskStageCache(tmp_path)
        value, hit = first.get_or_run("stage", "k1", compute)
        assert value == {"value": 42} and not hit

        second = DiskStageCache(tmp_path)
        value, hit = second.get_or_run("stage", "k1", compute)
        assert value == {"value": 42} and hit
        assert len(calls) == 1
        assert second.disk_hits == {"stage": 1}
        # Memory tier now populated: a third lookup is not a disk hit.
        second.get_or_run("stage", "k1", compute)
        assert second.disk_hits == {"stage": 1}

    def test_atomic_files_only(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        for i in range(5):
            cache.get_or_run("stage", f"k{i}", lambda i=i: i)
        files = list((tmp_path / "stage").iterdir())
        payloads = [f for f in files if f.suffix == ".pkl"]
        sidecars = [f for f in files if f.name.endswith(".pkl.sha256")]
        assert len(payloads) == 5
        # Every payload is published with its digest sidecar; nothing
        # else (no temp files) is left behind.
        assert {p.name + ".sha256" for p in payloads} == {s.name for s in sidecars}
        assert len(files) == 10

    def test_corrupt_entry_recomputes(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        cache.get_or_run("stage", "k1", lambda: "good")
        (tmp_path / "stage" / "k1.pkl").write_bytes(b"not a pickle")
        fresh = DiskStageCache(tmp_path)
        value, hit = fresh.get_or_run("stage", "k1", lambda: "recomputed")
        assert value == "recomputed" and not hit

    def test_unpicklable_value_degrades_to_memory(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        value, hit = cache.get_or_run("stage", "k1", lambda: (x for x in ()))
        assert not hit
        # Memory tier still serves it; the disk file simply never landed.
        _, hit = cache.get_or_run("stage", "k1", lambda: None)
        assert hit
        assert DiskStageCache(tmp_path).get_or_run(
            "stage", "k1", lambda: "again"
        ) == ("again", False)

    def test_packed_form_stored_on_disk(self, tmp_path):
        cache = DiskStageCache(tmp_path)
        value, hit = cache.get_or_run(
            "stage", "k1", lambda: 21,
            pack=lambda v: {"doubled": v * 2},
            unpack=lambda d: d["doubled"] // 2,
        )
        assert value == 21 and not hit
        with open(tmp_path / "stage" / "k1.pkl", "rb") as fh:
            assert pickle.load(fh) == {"doubled": 42}
        # Both the memory tier and a fresh disk read unpack on hit.
        assert cache.get_or_run(
            "stage", "k1", lambda: 0, unpack=lambda d: d["doubled"] // 2
        ) == (21, True)
        assert DiskStageCache(tmp_path).get_or_run(
            "stage", "k1", lambda: 0,
            unpack=lambda d: d["doubled"] // 2,
        ) == (21, True)


class TestArtifactCodec:
    """pack_artifact/unpack_artifact: the deposit stage's cache codec."""

    def test_roundtrip_is_exact(self, split_coarse_xy):
        artifact = split_coarse_xy.artifact
        restored = unpack_artifact(pack_artifact(artifact))
        for grid in ("model", "support", "weak", "voids"):
            got = getattr(restored, grid)
            assert np.array_equal(got, getattr(artifact, grid))
            assert got.dtype == bool
            assert got.shape == artifact.model.shape
            # The decode is a bool view of unpacked bits: every byte
            # must be a canonical 0/1 so bool arithmetic stays exact.
            assert got.view(np.uint8).max(initial=0) <= 1
        assert restored.model_volume_mm3 == artifact.model_volume_mm3
        assert restored.void_volume_mm3 == artifact.void_volume_mm3
        assert restored.weight_g == artifact.weight_g
        assert np.array_equal(restored.origin, artifact.origin)
        assert restored.metadata == artifact.metadata
        assert restored.seam is artifact.seam

    def test_packed_grids_are_eightfold_smaller(self, split_coarse_xy):
        artifact = split_coarse_xy.artifact
        packed = pack_artifact(artifact)
        raw_bytes = artifact.model.nbytes
        packed_bytes = packed["grids"]["model"].nbytes
        assert packed_bytes <= raw_bytes // 8 + 1

    def test_fingerprint_survives_roundtrip(self, split_coarse_xy):
        """The codec cannot change what a sweep reports having printed."""
        outcome = split_coarse_xy
        before = outcome_fingerprint(outcome)
        restored = unpack_artifact(pack_artifact(outcome.artifact))

        class _Shim:
            artifact = restored
            gcode = outcome.gcode
            firmware = outcome.firmware

        assert outcome_fingerprint(_Shim()) == before


class TestSweepCli:
    def test_jobs_matches_serial_output(self, capsys):
        argv_tail = [
            "--seed", "7",
            "--resolutions", "coarse",
            "--orientations", "x-y,x-z",
        ]
        from repro.cli import main

        rc_serial = main(["sweep", *argv_tail])
        serial_out = capsys.readouterr().out
        rc_parallel = main(["sweep", *argv_tail, "--jobs", "2"])
        parallel_out = capsys.readouterr().out

        assert rc_parallel == rc_serial
        assert "(jobs=2)" in parallel_out
        rows = lambda out: [
            line for line in out.splitlines() if line.startswith("  ")
        ]
        assert rows(parallel_out) == rows(serial_out)

    def test_rejects_bad_jobs(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
