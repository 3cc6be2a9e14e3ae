"""Resume: a crashed sweep must not recompute finished cells.

Every finished cell's verdict ``(fingerprint, assessment)`` is
persisted in the disk cache's finalize memo (``<cache-dir>/__finalize__``)
as it lands.  A ``resume`` sweep over the same cache directory cuts
every such cell off at fleet admission and computes only the rest.  The
cut-off cells must be indistinguishable (fingerprints, assessments,
grid order) from recomputed ones, and a memo entry is a verdict, so a
damaged one is quarantined and recomputed, never served.

Several test names predate the memo: they were written against the
sweep journal it replaced, and assert the same resume facts.
"""

import json
import shutil

import pytest

from repro.cad import COARSE
from repro.obfuscade.attack import CounterfeiterSimulator
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import (
    DiskStageCache,
    FleetJob,
    FleetScheduler,
    ParallelSweep,
    PipelineConfigError,
    ProcessChain,
    StageCache,
)
from repro.pipeline.disk import FINALIZE_STAGE
from repro.pipeline.scheduler import ChainConfig
from repro.printer.orientation import PrintOrientation

GRID_RESOLUTIONS = (COARSE,)
GRID_ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


def _sweep(protected, cache_dir, orientations=GRID_ORIENTATIONS, **kwargs):
    return ParallelSweep(cache_dir=str(cache_dir), **kwargs).run(
        protected.model, GRID_RESOLUTIONS, orientations,
        assess=assess_print,
    )


@pytest.fixture(scope="module")
def finished_run(protected, tmp_path_factory):
    """One serial sweep over a cache dir; its memo backs every test."""
    cache_dir = tmp_path_factory.mktemp("finished") / "cache"
    report = _sweep(protected, cache_dir, jobs=1)
    assert report.ok
    return report, cache_dir


@pytest.fixture(scope="module")
def partial_cache(protected, tmp_path_factory):
    """A run that crashed after its first cell: only x-y finished."""
    cache_dir = tmp_path_factory.mktemp("partial") / "cache"
    assert _sweep(
        protected, cache_dir, (PrintOrientation.XY,), jobs=1
    ).ok
    return cache_dir


def _copy(cache_dir, tmp_path):
    """A private copy of a module-scoped cache dir, safe to damage."""
    return shutil.copytree(cache_dir, tmp_path / "cache")


def _memo_files(cache_dir):
    return sorted((cache_dir / FINALIZE_STAGE).glob("*.pkl"))


def _fingerprints(report):
    return [c.fingerprint for c in report.cells]


class TestSweepResume:
    def test_journal_written_per_completed_cell(self, finished_run):
        """One verified memo entry per finished cell, holding its
        verdict."""
        report, cache_dir = finished_run
        files = _memo_files(cache_dir)
        assert len(files) == len(report.cells)
        cache = DiskStageCache(cache_dir)
        verdicts = [cache._load(FINALIZE_STAGE, f.stem) for f in files]
        assert all(found for _, found in verdicts)
        assert {memo[0] for memo, _ in verdicts} == set(
            _fingerprints(report)
        )
        assert all(
            f.with_name(f.name + ".sha256").is_file() for f in files
        )

    def test_resume_replays_without_recomputing(self, protected, finished_run):
        report, cache_dir = finished_run
        resumed = _sweep(protected, cache_dir, jobs=1, resume=True)
        assert resumed.scheduler.cutoff_cells == len(report.cells)
        # Nothing ran: the chain never computed a single stage.
        assert resumed.stats.total_misses == 0
        assert resumed.stats.total_hits == 0
        assert resumed.stats.integrity_failures == 0
        assert _fingerprints(resumed) == _fingerprints(report)
        for ours, theirs in zip(resumed.cells, report.cells):
            assert ours.assessment.grade is theirs.assessment.grade
            assert ours.assessment.score == theirs.assessment.score

    def test_partial_journal_recomputes_the_rest(
        self, protected, finished_run, partial_cache, tmp_path
    ):
        report, _ = finished_run
        cache_dir = _copy(partial_cache, tmp_path)
        resumed = _sweep(protected, cache_dir, jobs=1, resume=True)
        assert resumed.scheduler.cutoff_cells == 1
        assert resumed.stats.total_misses > 0
        assert _fingerprints(resumed) == _fingerprints(report)
        # The recomputed cell was persisted: a second resume is total.
        again = _sweep(protected, cache_dir, jobs=1, resume=True)
        assert again.scheduler.cutoff_cells == 2

    def test_multi_worker_resume_skips_replayed_cells_nodes(
        self, protected, finished_run, partial_cache, tmp_path
    ):
        """Resume across a worker pool: cut-off cells are never
        expanded into the fleet, so it plans (and counts) only the
        missing cell's nodes."""
        report, _ = finished_run
        cache_dir = _copy(partial_cache, tmp_path)
        resumed = _sweep(protected, cache_dir, jobs=2, resume=True)
        assert resumed.scheduler.cutoff_cells == 1
        assert _fingerprints(resumed) == _fingerprints(report)
        # Only the missing cell was planned: one tessellate request,
        # no dedup partner (the cut-off cell never reached the fleet).
        tess = resumed.scheduler.stages["tessellate"]
        assert tess.requested == 1
        assert tess.scheduled == tess.executed == 1
        assert tess.deduped == 0

    def test_tampered_journal_record_recomputed(
        self, protected, finished_run, tmp_path
    ):
        """A flipped byte in a memo entry costs one recompute, never a
        poisoned verdict."""
        report, _ = finished_run
        cache_dir = _copy(finished_run[1], tmp_path)
        target = _memo_files(cache_dir)[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))

        resumed = _sweep(protected, cache_dir, jobs=1, resume=True)
        assert resumed.scheduler.cutoff_cells == 1
        assert _fingerprints(resumed) == _fingerprints(report)
        # The rejection is accounted for, not silently skipped.
        assert resumed.stats.integrity_failures == 1
        assert (cache_dir / "quarantine" /
                f"{FINALIZE_STAGE}-{target.name}").is_file()
        # The recomputed verdict was persisted again.
        assert target.is_file()

    def test_journal_without_key_rejects_everything(
        self, protected, finished_run, tmp_path
    ):
        """Memo entries separated from their digest sidecars serve
        nothing: every cell is recomputed and every rejection counted."""
        report, _ = finished_run
        cache_dir = _copy(finished_run[1], tmp_path)
        for sidecar in (cache_dir / FINALIZE_STAGE).glob("*.sha256"):
            sidecar.unlink()

        resumed = _sweep(protected, cache_dir, jobs=1, resume=True)
        assert resumed.scheduler.cutoff_cells == 0
        assert resumed.stats.integrity_failures == len(report.cells)
        assert _fingerprints(resumed) == _fingerprints(report)

    def test_resume_requires_journal(self, protected):
        """Resume reads the memo from a cache dir, so it needs one."""
        with pytest.raises(PipelineConfigError):
            ParallelSweep(jobs=1, resume=True)
        with pytest.raises(PipelineConfigError):
            CounterfeiterSimulator(resume=True).attack(protected)
        fleet = FleetScheduler(StageCache())
        with pytest.raises(PipelineConfigError):
            fleet.admit(FleetJob(
                "j", protected.model, [(COARSE, PrintOrientation.XY)],
                ChainConfig.of(ProcessChain()), resume=True,
            ))
        with pytest.raises(ValueError):
            CounterfeiterSimulator(jobs=0)

    def test_journal_ignores_foreign_configuration(
        self, protected, finished_run, tmp_path
    ):
        """Memo keys content-address the outcome artifacts, which
        depend on the chain configuration: a memo written under
        different settings resumes nothing."""
        cache_dir = _copy(finished_run[1], tmp_path)
        resumed = ParallelSweep(
            ProcessChain(plate_margin_mm=7.5),
            jobs=1, cache_dir=str(cache_dir), resume=True,
        ).run(
            protected.model, GRID_RESOLUTIONS, (PrintOrientation.XY,),
            assess=assess_print,
        )
        assert resumed.scheduler.cutoff_cells == 0
        assert resumed.stats.total_misses > 0


class TestResumeCli:
    def test_sweep_resume_matches_first_run(self, capsys, tmp_path):
        from repro.cli import main

        cache = tmp_path / "cache"
        argv = [
            "sweep", "--seed", "7",
            "--resolutions", "coarse", "--orientations", "x-y,x-z",
            "--cache-dir", str(cache),
        ]
        rc_first = main(argv)
        first_out = capsys.readouterr().out
        rc_resumed = main([*argv, "--resume"])
        resumed_out = capsys.readouterr().out

        assert rc_resumed == rc_first
        rows = lambda out: [
            line for line in out.splitlines() if line.startswith("  ")
        ]
        assert rows(resumed_out) == rows(first_out)
        manifest = json.loads((cache / "sweep-manifest.json").read_text())
        assert manifest["scheduler"]["fleet"]["cutoff_cells"] == 2

    def test_resume_requires_journal_or_cache_dir(self, capsys):
        """--resume needs --cache-dir, and --journal is gone."""
        from repro.cli import main

        assert main(["sweep", "--resume"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--journal", "sweep.jsonl"])
        assert exc.value.code == 2
