"""Integration tests for repro.obfuscade.attack (the headline claim).

These print the protected bar under a settings grid; the grid search is
the paper's central security argument, so it runs as a real end-to-end
simulation (a few seconds per cell).
"""

import json
from pathlib import Path

import pytest

from repro.cad import COARSE, FINE
from repro.obfuscade.attack import CounterfeiterSimulator
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import QualityGrade
from repro.printer import PrintOrientation

#: Per-cell fingerprints and grades the benchmark checks its runs against.
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def attack_result():
    protected = Obfuscator(seed=7).protect_tensile_bar()
    sim = CounterfeiterSimulator()
    return protected, sim.attack(protected)


class TestHeadlineClaim:
    def test_genuine_only_under_key(self, attack_result):
        """The paper's abstract: high quality manufacturing is restricted
        to a unique set of processing settings and conditions."""
        protected, result = attack_result
        assert result.key_only_success
        assert result.successful  # the key itself does succeed

    def test_full_grid_attempted(self, attack_result):
        _, result = attack_result
        assert result.n_attempts == 6  # 3 resolutions x 2 orientations

    def test_counterfeits_are_defective(self, attack_result):
        _, result = attack_result
        for attempt in result.attempts:
            if not attempt.matches_key:
                assert attempt.report.grade is not QualityGrade.GENUINE

    def test_success_rate(self, attack_result):
        _, result = attack_result
        assert result.success_rate == pytest.approx(2.0 / 6.0)

    def test_best_counterfeit_quality_poor(self, attack_result):
        _, result = attack_result
        best_counterfeit = max(
            (a.report.score for a in result.attempts if not a.matches_key),
            default=0.0,
        )
        assert best_counterfeit < 0.5

    def test_summary_rows_shape(self, attack_result):
        _, result = attack_result
        rows = result.summary_rows()
        assert len(rows) == 6
        for resolution, orientation, grade, score, matches in rows:
            assert resolution in {"Coarse", "Fine", "Custom"}
            assert orientation in {"x-y", "x-z"}
            assert 0.0 <= score <= 1.0


class TestCustomGrids:
    def test_restricted_grid(self):
        protected = Obfuscator(seed=7).protect_tensile_bar()
        sim = CounterfeiterSimulator(
            resolutions=(COARSE,), orientations=(PrintOrientation.XZ,)
        )
        result = sim.attack(protected)
        assert result.n_attempts == 1
        assert not result.successful
        assert result.key_only_success  # vacuously: no genuine prints


class TestOneExecutionPath:
    """A search runs as a fleet job at any ``jobs`` value."""

    def test_jobs_1_matches_reference_fingerprints(self):
        """The inline search reproduces the committed per-cell
        fingerprints and grades of the benchmark's fixed bar."""
        expected = json.loads(REFERENCE.read_text())["service_model"]["cells"]
        result = CounterfeiterSimulator(
            resolutions=(COARSE, FINE), orientations=(PrintOrientation.XY,)
        ).attack(Obfuscator(0).protect_tensile_bar())
        grades = {
            f"{a.resolution}/{a.orientation}": a.report.grade.value
            for a in result.attempts
        }
        got = {
            name: (cell.fingerprint, grades[name])
            for cell in result.report.cells
            for name in [f"{cell.resolution}/{cell.orientation}"]
        }
        assert got == {
            name: (expected[name]["fingerprint"], expected[name]["grade"])
            for name in ("Coarse/x-y", "Fine/x-y")
        }

    def test_cache_dir_is_used_at_jobs_1(self, tmp_path):
        """``cache_dir`` holds the search's stage artifacts whatever
        ``jobs`` is, so a fresh simulator on it recomputes nothing."""
        protected = Obfuscator(seed=7).protect_tensile_bar()
        grid = dict(resolutions=(COARSE,), orientations=(PrintOrientation.XY,))
        CounterfeiterSimulator(cache_dir=str(tmp_path), **grid).attack(protected)
        stored = {p.parent.name for p in tmp_path.glob("*/*.pkl")}
        assert {"tessellate", "slice", "deposit"} <= stored
        warm = CounterfeiterSimulator(
            cache_dir=str(tmp_path), **grid
        ).attack(protected)
        assert warm.cache_stats.total_misses == 0
        assert warm.cache_stats.total_hits > 0
