"""The typed stage graph and the stage-granular sweep scheduler.

ISSUE 6 tentpole: the process chain is a declarative, validated
:class:`~repro.pipeline.graph.StageGraph` (construction rejects cycles,
dangling dependencies and artifact-contract mismatches), and sweeps run
on the fleet scheduler, which merges the cells into one node set and
executes shared upstream nodes exactly once.

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
    ArtifactContract,
    ChainArtifacts,
    FleetJob,
    FleetScheduler,
    ParallelSweep,
    PipelineConfigError,
    ProcessChain,
    StageCache,
    StageGraph,
    StageGraphError,
    outcome_fingerprint,
)
from repro.pipeline.scheduler import ChainConfig
from repro.pipeline.stage import Stage
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


def _stage(name, inputs=(), produces=None, expects=None):
    """A minimal stage declaration for graph-validation tests."""
    return Stage(
        name,
        tuple(inputs),
        run=lambda ctx: name,
        key=lambda ctx: (),
        produces=produces,
        expects=dict(expects or {}),
    )


@pytest.fixture(scope="module")
def protected():
    return Obfuscator(seed=7).protect_tensile_bar()


class TestStageGraphValidation:
    """Every malformed graph fails at construction, never mid-sweep."""

    def test_errors_are_configuration_errors(self):
        assert issubclass(StageGraphError, PipelineConfigError)

    def test_duplicate_stage_name(self):
        with pytest.raises(StageGraphError, match="duplicate stage name"):
            StageGraph((_stage("a", ("model",)), _stage("a", ("model",))))

    def test_stage_shadowing_a_root(self):
        with pytest.raises(StageGraphError, match="shadows a root"):
            StageGraph((_stage("model"),))

    def test_dangling_dependency(self):
        with pytest.raises(StageGraphError, match="depends on 'ghost'"):
            StageGraph((_stage("a", ("ghost",)),))

    def test_contract_for_non_input(self):
        with pytest.raises(StageGraphError, match="not one of its inputs"):
            StageGraph((
                _stage(
                    "a",
                    ("model",),
                    expects={"b": ArtifactContract((int,))},
                ),
            ))

    def test_dependency_cycle(self):
        with pytest.raises(StageGraphError, match="dependency cycle"):
            StageGraph((_stage("a", ("b",)), _stage("b", ("a",))))

    def test_producer_consumer_contract_mismatch(self):
        with pytest.raises(StageGraphError, match="contract mismatch"):
            StageGraph((
                _stage("a", ("model",), produces=ArtifactContract((int,))),
                _stage(
                    "b", ("a",),
                    expects={"a": ArtifactContract((str,))},
                ),
            ))

    def test_optional_producer_needs_tolerant_consumer(self):
        """A producer that may emit None cannot feed a consumer whose
        contract forbids it."""
        with pytest.raises(StageGraphError, match="contract mismatch"):
            StageGraph((
                _stage(
                    "a", ("model",),
                    produces=ArtifactContract((int,), optional=True),
                ),
                _stage(
                    "b", ("a",),
                    expects={"a": ArtifactContract((int,))},
                ),
            ))

    def test_compatible_graph_orders_topologically(self):
        contract = ArtifactContract((int,))
        graph = StageGraph((
            _stage("late", ("early",), expects={"early": contract}),
            _stage("early", ("model",), produces=contract),
        ))
        assert [s.name for s in graph.order] == ["early", "late"]

    def test_check_output_enforces_producer_contract(self):
        stage = _stage("a", ("model",), produces=ArtifactContract((int,)))
        graph = StageGraph((stage,))
        graph.check_output(stage, 3)  # admitted
        with pytest.raises(StageGraphError, match="produced str"):
            graph.check_output(stage, "not an int")
        with pytest.raises(StageGraphError, match="produced None"):
            graph.check_output(stage, None)


class TestArtifactContract:
    def test_admits(self):
        contract = ArtifactContract((int,))
        assert contract.admits(3)
        assert not contract.admits("3")
        assert not contract.admits(None)
        assert ArtifactContract((int,), optional=True).admits(None)

    def test_accepts_subclasses(self):
        assert ArtifactContract((object,)).accepts(ArtifactContract((int,)))
        assert not ArtifactContract((int,)).accepts(
            ArtifactContract((object,))
        )

    def test_describe(self):
        assert ArtifactContract((int,)).describe() == "int"
        assert (
            ArtifactContract((int,), optional=True).describe()
            == "Optional[int]"
        )


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
