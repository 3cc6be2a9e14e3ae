"""Checkpoint/resume: a crashed sweep must not recompute finished cells.

ISSUE 3 tentpole part 4: the sweep executor journals every completed
cell; ``resume`` replays intact records and recomputes only the rest.
The replayed cells must be indistinguishable (fingerprints,
assessments, grid order) from recomputed ones.
"""

import pytest

from repro.cad import COARSE
from repro.obfuscade.attack import CounterfeiterSimulator
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import (
    ParallelSweep,
    PipelineConfigError,
    ProcessChain,
    SweepJournal,
)
from repro.printer.orientation import PrintOrientation

GRID_RESOLUTIONS = (COARSE,)
GRID_ORIENTATIONS = (PrintOrientation.XY, PrintOrientation.XZ)


def _copy_key_sidecar(source, dest):
    """Move a journal's per-run HMAC key alongside a copied journal."""
    SweepJournal(dest).key_path.write_text(
        SweepJournal(source).key_path.read_text()
    )


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


@pytest.fixture(scope="module")
def journaled_run(protected, tmp_path_factory):
    """One serial sweep that wrote a journal; reused by every test."""
    journal = tmp_path_factory.mktemp("journal") / "sweep.jsonl"
    report = ParallelSweep(jobs=1, journal_path=str(journal)).run(
        protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
        assess=assess_print,
    )
    assert report.ok
    return report, journal


class TestSweepResume:
    def test_journal_written_per_completed_cell(self, journaled_run):
        report, journal = journaled_run
        assert journal.is_file()
        entries = SweepJournal(journal).load()
        assert len(entries) == len(report.cells)
        fingerprints = {c.fingerprint for c in report.cells}
        assert {c.fingerprint for c in entries.values()} == fingerprints

    def test_resume_replays_without_recomputing(self, protected, journaled_run):
        report, journal = journaled_run
        resumed = ParallelSweep(
            jobs=1, journal_path=str(journal), resume=True
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert resumed.resumed == len(report.cells)
        # Nothing ran: the chain never computed a single stage.
        assert resumed.stats.total_misses == 0
        assert resumed.stats.total_hits == 0
        assert [c.fingerprint for c in resumed.cells] == [
            c.fingerprint for c in report.cells
        ]
        assert all(c.resumed for c in resumed.cells)
        for ours, theirs in zip(resumed.cells, report.cells):
            assert ours.assessment.grade is theirs.assessment.grade
            assert ours.assessment.score == theirs.assessment.score

    def test_partial_journal_recomputes_the_rest(
        self, protected, journaled_run, tmp_path
    ):
        report, journal = journaled_run
        partial = tmp_path / "partial.jsonl"
        # Keep only the first record: the crash happened at cell 2.
        # Records are HMAC'd under a per-run secret, so the key sidecar
        # travels with the journal (as it would after a real crash).
        first_line = journal.read_text().splitlines()[0]
        partial.write_text(first_line + "\n")
        _copy_key_sidecar(journal, partial)

        resumed = ParallelSweep(
            jobs=1, journal_path=str(partial), resume=True
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert resumed.resumed == 1
        assert resumed.stats.total_misses > 0
        assert [c.fingerprint for c in resumed.cells] == [
            c.fingerprint for c in report.cells
        ]
        assert [c.resumed for c in resumed.cells] == [True, False]
        # The recomputed cell was re-journaled: a second resume is total.
        assert len(SweepJournal(partial).load()) == 2

    def test_multi_worker_resume_skips_replayed_cells_nodes(
        self, protected, journaled_run, tmp_path
    ):
        """Resume across a worker pool: replayed cells are never
        expanded into the merged execution graph, so the scheduler
        plans (and counts) only the missing cells' nodes."""
        report, journal = journaled_run
        partial = tmp_path / "partial.jsonl"
        first_line = journal.read_text().splitlines()[0]
        partial.write_text(first_line + "\n")
        _copy_key_sidecar(journal, partial)

        resumed = ParallelSweep(
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            journal_path=str(partial),
            resume=True,
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert resumed.resumed == 1
        assert [c.fingerprint for c in resumed.cells] == [
            c.fingerprint for c in report.cells
        ]
        assert [c.resumed for c in resumed.cells] == [True, False]
        # Only the missing cell was planned: one tessellate request,
        # no dedup partner (the replayed cell never reached the graph).
        tess = resumed.scheduler.stages["tessellate"]
        assert tess.requested == 1
        assert tess.scheduled == tess.executed == 1
        assert tess.deduped == 0

    def test_tampered_journal_record_recomputed(
        self, protected, journaled_run, tmp_path
    ):
        """A flipped byte in a record costs one recompute, never a
        poisoned replay."""
        report, journal = journaled_run
        tampered = tmp_path / "tampered.jsonl"
        lines = journal.read_text().splitlines()
        lines[0] = lines[0].replace(
            lines[0][len(lines[0]) // 2], "A", 1
        )
        tampered.write_text("\n".join(lines) + "\n")
        _copy_key_sidecar(journal, tampered)

        resumed = ParallelSweep(
            jobs=1, journal_path=str(tampered), resume=True
        ).run(
            protected.model, GRID_RESOLUTIONS, GRID_ORIENTATIONS,
            assess=assess_print,
        )
        assert resumed.resumed <= 1
        assert [c.fingerprint for c in resumed.cells] == [
            c.fingerprint for c in report.cells
        ]
        # The rejection is accounted for, not silently skipped.
        assert resumed.journal_rejected + resumed.journal_dropped >= 1

    def test_journal_without_key_rejects_everything(
        self, protected, journaled_run, tmp_path
    ):
        """A journal separated from its key sidecar replays nothing:
        without the per-run secret no record can be authenticated, and
        none is ever unpickled."""
        report, journal = journaled_run
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text(journal.read_text())

        j = SweepJournal(orphan)
        assert j.load() == {}
        assert j.rejected_lines == len(report.cells)

    def test_resume_requires_journal(self):
        with pytest.raises(PipelineConfigError):
            ParallelSweep(jobs=1, resume=True)
        with pytest.raises(ValueError):
            CounterfeiterSimulator(jobs=0)

    def test_journal_ignores_foreign_configuration(
        self, protected, journaled_run
    ):
        """Cell keys content-address model + chain configuration: a
        journal written under different settings resumes nothing."""
        _, journal = journaled_run
        resumed = ParallelSweep(
            ProcessChain(plate_margin_mm=7.5),
            jobs=1, journal_path=str(journal), resume=True,
        ).run(
            protected.model, GRID_RESOLUTIONS, (PrintOrientation.XY,),
            assess=assess_print,
        )
        assert resumed.resumed == 0
        assert resumed.stats.total_misses > 0


class TestResumeCli:
    def test_sweep_resume_matches_first_run(self, capsys, tmp_path):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "--seed", "7",
            "--resolutions", "coarse", "--orientations", "x-y,x-z",
            "--cache-dir", cache,
        ]
        rc_first = main(argv)
        first_out = capsys.readouterr().out
        rc_resumed = main([*argv, "--resume"])
        resumed_out = capsys.readouterr().out

        assert rc_resumed == rc_first
        assert (tmp_path / "cache" / "sweep-journal.jsonl").is_file()
        rows = lambda out: [
            line for line in out.splitlines() if line.startswith("  ")
        ]
        assert rows(resumed_out) == rows(first_out)

    def test_resume_requires_journal_or_cache_dir(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--resume"]) == 2
        assert "--resume requires" in capsys.readouterr().err
