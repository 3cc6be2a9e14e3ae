"""The chain's stage list and the stage-granular sweep scheduler.

The process chain is one tuple of stages in execution order, and sweeps
run on the fleet scheduler, which merges the cells into one node set
and executes shared upstream nodes exactly once.

The acceptance test at the bottom is the PR's contract: a cold
3-resolution x 3-orientation sweep produces outcome fingerprints
bit-identical to the legacy per-cell executor - serially and across a
pool - while executing exactly 3 tessellate and 3 resolve nodes,
proved by scheduler counters rather than cache-hit luck.
"""

import pytest

from repro.cad import COARSE, StlResolution
from repro.obfuscade.obfuscator import Obfuscator
from repro.obfuscade.quality import assess_print
from repro.pipeline import (
    ChainArtifacts,
    FleetJob,
    FleetScheduler,
    ParallelSweep,
    ProcessChain,
    StageCache,
    outcome_fingerprint,
)
from repro.pipeline.scheduler import ChainConfig
from repro.printer.orientation import PrintOrientation

RESOLUTIONS = (
    COARSE,
    StlResolution(name="Mid", angle_deg=20.0, deviation_fraction=0.0012),
    StlResolution(name="Loose", angle_deg=25.0, deviation_fraction=0.0016),
)
ORIENTATIONS = (
    PrintOrientation.XY,
    PrintOrientation.XZ,
    PrintOrientation.YZ,
)
N_CELLS = len(RESOLUTIONS) * len(ORIENTATIONS)


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


def _chain_stages():
    chain = ProcessChain()
    return chain, [stage.name for stage in chain.stages]


class TestStageGraphValidation:
    """The chain's stage tuple is a valid execution order: unique names,
    no stage shadowing the model root, no dangling or cyclic inputs, and
    every stage declared after the stages it reads."""

    def test_duplicate_stage_name(self):
        chain, names = _chain_stages()
        assert len(set(names)) == len(names)
        assert set(chain.by_name) == set(names)
        for stage in chain.stages:
            assert chain.by_name[stage.name] is stage

    def test_stage_shadowing_a_root(self):
        _, names = _chain_stages()
        assert "model" not in names

    def test_dangling_dependency(self):
        chain, names = _chain_stages()
        for stage in chain.stages:
            assert stage.inputs
            for name in stage.inputs:
                assert name == "model" or name in names, (
                    f"{stage.name!r} depends on {name!r}"
                )

    def test_dependency_cycle(self):
        """No stage reaches itself through its inputs."""
        chain, _ = _chain_stages()

        def upstream(name, seen):
            for dep in chain.by_name[name].inputs:
                if dep != "model" and dep not in seen:
                    seen.add(dep)
                    upstream(dep, seen)
            return seen

        for stage in chain.stages:
            assert stage.name not in upstream(stage.name, set())

    def test_compatible_graph_orders_topologically(self):
        """Every input is the model or a stage declared earlier, so the
        declared order is the order a topological sort produces."""
        chain, names = _chain_stages()
        for position, stage in enumerate(chain.stages):
            for name in stage.inputs:
                assert name == "model" or name in names[:position], (
                    f"{stage.name!r} reads {name!r} before it runs"
                )
        done = {"model"}
        order = []
        pending = list(chain.stages)
        while pending:
            ready = next(s for s in pending if set(s.inputs) <= done)
            pending.remove(ready)
            order.append(ready.name)
            done.add(ready.name)
        assert order == names


class TestChainArtifacts:
    def test_typed_store_round_trip(self):
        artifacts = ChainArtifacts()
        assert artifacts.get("tessellate") is None
        artifacts.set("tessellate", "sentinel")
        assert artifacts.tessellate == "sentinel"
        assert artifacts.get("tessellate") == "sentinel"

    def test_unknown_artifact_name_fails_loudly(self):
        artifacts = ChainArtifacts()
        with pytest.raises(KeyError, match="unknown chain artifact"):
            artifacts.get("tesselate")  # the classic typo
        with pytest.raises(KeyError, match="unknown chain artifact"):
            artifacts.set("tesselate", object())


class TestExecutionGraphPlanning:
    """Admitting N x M cells dedupes orientation-independent nodes at
    plan time, before anything executes."""

    def test_shared_stages_scheduled_once_per_resolution(self, protected):
        config = ChainConfig.of(ProcessChain())
        fleet = FleetScheduler(StageCache(), jobs=1)
        grid = [(r, o) for r in RESOLUTIONS for o in ORIENTATIONS]
        job = fleet.admit(FleetJob("plan", protected.model, grid, config))
        counters = job.counters
        for name in ("tessellate", "resolve"):
            stage = counters.stages[name]
            assert stage.requested == N_CELLS
            assert stage.scheduled == len(RESOLUTIONS)
            assert stage.deduped == N_CELLS - len(RESOLUTIONS)
            assert stage.executed == 0
        # Orientation-dependent stages stay one node per cell.
        seam = counters.stages["seam"]
        assert seam.scheduled == N_CELLS and seam.deduped == 0
        # The opt-in validate stage is not part of a sweep.
        assert "validate" not in counters.stages
        assert counters.total_requested == (
            counters.total_scheduled + counters.total_deduped
        )
        assert fleet.cancel("plan")
        assert not fleet.has_work()
        fleet.shutdown()


class TestSchedulerEquivalence:
    """Scheduler output is bit-identical to running each cell through
    :meth:`ProcessChain.run` (the ``PrintJob`` path), while shared
    nodes execute once."""

    @pytest.fixture(scope="class")
    def legacy_fingerprints(self, protected):
        chain = ProcessChain()
        return [
            outcome_fingerprint(
                chain.run(protected.model, resolution, orientation)
            )
            for resolution in RESOLUTIONS
            for orientation in ORIENTATIONS
        ]

    @pytest.fixture(scope="class")
    def serial_report(self, protected):
        return ParallelSweep(jobs=1).run(
            protected.model, RESOLUTIONS, ORIENTATIONS, assess=assess_print
        )

    def test_serial_scheduler_matches_legacy(
        self, serial_report, legacy_fingerprints
    ):
        assert [
            c.fingerprint for c in serial_report.cells
        ] == legacy_fingerprints

    def test_shared_nodes_execute_once_fleet_wide(self, serial_report):
        counters = serial_report.scheduler
        stages = counters.stages
        for name in ("tessellate", "resolve"):
            assert stages[name].requested == N_CELLS
            assert stages[name].scheduled == len(RESOLUTIONS)
            assert stages[name].deduped == N_CELLS - len(RESOLUTIONS)
            assert stages[name].executed == len(RESOLUTIONS)
        # Orientation-dependent stages stay one node per cell.
        assert stages["seam"].scheduled == N_CELLS
        assert stages["seam"].deduped == 0
        # The opt-in validate stage is not part of a sweep.
        assert "validate" not in stages
        assert counters.total_requested == (
            counters.total_scheduled + counters.total_deduped
        )
        # Scheduling is exact, so a cold sweep's cache misses equal the
        # scheduled node count - no racing duplicate computes.
        assert (
            serial_report.stats.stages["tessellate"].misses
            == len(RESOLUTIONS)
        )
        assert serial_report.stats.stages["tessellate"].hits == 0

    def test_parallel_scheduler_matches_legacy(
        self, protected, legacy_fingerprints, tmp_path
    ):
        report = ParallelSweep(jobs=2, cache_dir=str(tmp_path)).run(
            protected.model, RESOLUTIONS, ORIENTATIONS, assess=assess_print
        )
        assert [c.fingerprint for c in report.cells] == legacy_fingerprints
        stages = report.scheduler.stages
        for name in ("tessellate", "resolve"):
            assert stages[name].executed == len(RESOLUTIONS)
