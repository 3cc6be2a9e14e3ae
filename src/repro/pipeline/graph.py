"""The typed stage graph and the single node-execution boundary.

The paper's Fig. 1 process chain is a DAG of stages, each a place where
files get produced, cached, tampered with or sabotaged (Table 1).  The
engine used to hard-wire one linear chain and scatter its cross-cutting
concerns - fault injection, span tracing, cache get/store, typed error
wrapping - across call sites in ``chain.py`` and ``parallel.py``.  This
module makes the graph first-class:

:class:`StageGraph`
    A validated, declarative description of the chain: stage inputs
    form the edges, and construction rejects duplicate names, dangling
    dependencies, cycles, and producer/consumer artifact-contract
    mismatches (:class:`~repro.pipeline.stage.ArtifactContract`).  The
    validation happens once, when a :class:`~repro.pipeline.chain.ProcessChain`
    is built - not at run N of a sweep.

:func:`run_stage`
    The one boundary through which every graph-node execution goes,
    serial chain runs and scheduler workers alike.  It interposes, in
    order: the stage's fault-injection site, the ``stage.<name>`` trace
    span, the content-addressed cache lookup, the artifact-contract
    check on fresh computes, and the :class:`StageError` wrapping that
    gives failures chain coordinates.  These interposition points are
    exactly where Table 1's per-stage mitigations (hash verification,
    geometry review, anomaly detection) would attach in a production
    deployment - see DESIGN.md §3.5.

:class:`SchedulerStats`
    Per-stage requested/scheduled/deduped/executed counters of the
    fleet scheduler (:mod:`repro.pipeline.fleet`), which merges sweep
    cells into one ``(stage name, content digest)`` node set: they
    prove in run manifests that work shared across cells - tessellate
    and resolve depend only on the resolution - ran exactly once,
    instead of leaving it to cache-hit luck.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro import observability as obs
from repro.pipeline.cache import digest_parts
from repro.pipeline.resilience import CellTimeout, PipelineConfigError, StageError
from repro.pipeline.stage import Stage

#: Name of the implicit root artifact every chain hangs off.
MODEL_ROOT = "model"


class StageGraphError(PipelineConfigError):
    """A stage graph that cannot be executed: duplicate or dangling
    stage names, a dependency cycle, or an artifact-contract mismatch
    between a producer and one of its consumers.  Raised at graph
    construction time, never mid-sweep."""


class StageGraph:
    """A validated DAG of :class:`~repro.pipeline.stage.Stage` objects.

    Parameters
    ----------
    stages:
        The stage declarations.  Declaration order is preserved
        wherever the topological order leaves a choice, so the engine's
        execution order (and therefore its stats-table order) is
        stable.
    roots:
        Names of artifacts provided by the caller rather than produced
        by a stage (the CAD ``"model"``).

    Attributes
    ----------
    stages:
        The declared stages, in declaration order.
    order:
        The stages in topological execution order.
    by_name:
        Stage lookup by name.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        roots: Tuple[str, ...] = (MODEL_ROOT,),
    ):
        self.stages: Tuple[Stage, ...] = tuple(stages)
        self.roots: Tuple[str, ...] = tuple(roots)
        self.by_name: Dict[str, Stage] = {}
        for stage in self.stages:
            if stage.name in self.roots:
                raise StageGraphError(
                    f"stage {stage.name!r} shadows a root artifact"
                )
            if stage.name in self.by_name:
                raise StageGraphError(f"duplicate stage name {stage.name!r}")
            self.by_name[stage.name] = stage
        self._check_dangling()
        self._check_contracts()
        self.order: Tuple[Stage, ...] = self._topological_order()

    # -- validation ----------------------------------------------------------

    def _check_dangling(self) -> None:
        for stage in self.stages:
            for name in stage.inputs:
                if name not in self.by_name and name not in self.roots:
                    raise StageGraphError(
                        f"stage {stage.name!r} depends on {name!r}, which "
                        "is neither a stage nor a root artifact"
                    )
            for name in stage.expects:
                if name not in stage.inputs:
                    raise StageGraphError(
                        f"stage {stage.name!r} declares a contract for "
                        f"{name!r}, which is not one of its inputs"
                    )

    def _check_contracts(self) -> None:
        for consumer in self.stages:
            for name, expected in consumer.expects.items():
                producer = self.by_name.get(name)
                if producer is None or producer.produces is None:
                    continue  # root input, or producer declares nothing
                if not expected.accepts(producer.produces):
                    raise StageGraphError(
                        f"artifact contract mismatch on edge "
                        f"{name!r} -> {consumer.name!r}: producer emits "
                        f"{producer.produces.describe()}, consumer "
                        f"expects {expected.describe()}"
                    )

    def _topological_order(self) -> Tuple[Stage, ...]:
        placed = set(self.roots)
        remaining = list(self.stages)
        order: List[Stage] = []
        while remaining:
            for stage in remaining:
                if all(name in placed for name in stage.inputs):
                    order.append(stage)
                    placed.add(stage.name)
                    remaining.remove(stage)
                    break
            else:
                cycle = ", ".join(repr(s.name) for s in remaining)
                raise StageGraphError(
                    f"dependency cycle among stages: {cycle}"
                )
        return tuple(order)

    # -- queries -------------------------------------------------------------

    def check_output(self, stage: Stage, value: Any) -> None:
        """Enforce ``stage.produces`` on a freshly computed artifact."""
        contract = stage.produces
        if contract is None or contract.admits(value):
            return
        got = "None" if value is None else type(value).__name__
        raise StageGraphError(
            f"stage {stage.name!r} produced {got}, violating its "
            f"contract {contract.describe()}"
        )

    def node_digest(
        self, stage: Stage, ctx: Any, digests: Dict[str, str]
    ) -> str:
        """Content address of one stage execution: the stage name, its
        inputs' digests (chaining all the way up to the model's content
        hash) and its parameter key."""
        return digest_parts(
            stage.name,
            tuple(digests[name] for name in stage.inputs),
            stage.key(ctx),
        )


def run_stage(
    cache,
    stage: Stage,
    digest: str,
    ctx: Any,
    cell: str,
    graph: Optional[StageGraph] = None,
) -> Tuple[Any, bool, float]:
    """Execute one graph node; returns ``(artifact, cache_hit, seconds)``.

    The single node-execution boundary (ISSUE 6 tentpole): fault
    injection, span tracing, cache get/store, artifact-contract
    enforcement and typed error wrapping all live here, so the serial
    chain and the sweep scheduler cannot drift apart in what a "stage
    execution" means.  Exactly one ``cache.get`` span and one stage
    hit-or-miss is accounted per call - the invariant the observability
    layer's span-derived totals rely on.
    """

    def _compute():
        faults.fire(stage.fault_site, context=cell)
        value = stage.run(ctx)
        if graph is not None:
            graph.check_output(stage, value)
        return value

    start = time.perf_counter()
    with obs.span(
        f"stage.{stage.name}", stage=stage.name, digest=digest[:12], cell=cell
    ):
        try:
            value, hit = cache.get_or_run(
                stage.name, digest, _compute,
                pack=stage.pack, unpack=stage.unpack,
            )
        except CellTimeout:
            # A wall-clock budget expiring mid-stage is a property of
            # the *cell*, not of this stage's inputs: let the sweep
            # executor attribute it.
            raise
        except StageError:
            raise
        except Exception as exc:
            # Typed failure with chain coordinates (ISSUE 3): which
            # stage died, computing which content address.
            raise StageError(stage.name, digest, exc) from exc
        obs.annotate(cache_hit=hit)
    return value, hit, time.perf_counter() - start


# -- scheduler counters -------------------------------------------------------


@dataclass
class NodeCounters:
    """Per-stage node accounting of one job's merged node set."""

    #: Stage executions the cells asked for (one per cell per stage).
    requested: int = 0
    #: Distinct graph nodes actually placed in the schedule.
    scheduled: int = 0
    #: Requests folded into an already-scheduled node.
    deduped: int = 0
    #: Nodes the scheduler ran to completion (fleet-wide; a node
    #: re-executed after a failure split counts again).
    executed: int = 0


@dataclass
class SchedulerStats:
    """One job's scheduling counters, in stage execution order.

    The proof obligation of the stage-granular scheduler: a cold
    3-resolution x 3-orientation sweep must show
    ``tessellate.scheduled == 3`` (and 3 executions), not nine requests
    that happened to hit a racing cache.
    """

    stages: "OrderedDict[str, NodeCounters]" = field(
        default_factory=OrderedDict
    )
    #: Stage requests folded into a node another *job* created (stays
    #: 0 for a sweep, which is a fleet of one job).
    cross_job_deduped: int = 0
    #: Finished node results delivered to a consuming job that did not
    #: execute them (fleet fan-out; counts per receiving job).
    fanout_results: int = 0
    #: Nodes released unexecuted because every claiming job cancelled.
    cancelled_nodes: int = 0
    #: Cells resolved at admission from the fleet's finalize memo
    #: (early cutoff): they claim no node, so no stage counter above
    #: sees them.
    cutoff_cells: int = 0

    def stage(self, name: str) -> NodeCounters:
        if name not in self.stages:
            self.stages[name] = NodeCounters()
        return self.stages[name]

    @property
    def total_requested(self) -> int:
        return sum(c.requested for c in self.stages.values())

    @property
    def total_scheduled(self) -> int:
        return sum(c.scheduled for c in self.stages.values())

    @property
    def total_deduped(self) -> int:
        return sum(c.deduped for c in self.stages.values())

    @property
    def total_executed(self) -> int:
        return sum(c.executed for c in self.stages.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for manifests and benchmark reports.

        ``dedupe`` is always true (node merging is not optional); it
        stays for manifest-schema stability."""
        return {
            "dedupe": True,
            "fleet": {
                "cross_job_deduped": self.cross_job_deduped,
                "fanout_results": self.fanout_results,
                "cancelled_nodes": self.cancelled_nodes,
                "cutoff_cells": self.cutoff_cells,
            },
            "stages": {
                name: {
                    "requested": c.requested,
                    "scheduled": c.scheduled,
                    "deduped": c.deduped,
                    "executed": c.executed,
                }
                for name, c in self.stages.items()
            },
            "totals": {
                "requested": self.total_requested,
                "scheduled": self.total_scheduled,
                "deduped": self.total_deduped,
                "executed": self.total_executed,
            },
        }

    def render(self) -> List[str]:
        """Human-readable table for ``--stats`` output."""
        lines = [
            f"{'scheduler':12s} {'requested':>9s} {'scheduled':>9s} "
            f"{'deduped':>8s} {'executed':>8s}"
        ]
        for name, c in self.stages.items():
            lines.append(
                f"{name:12s} {c.requested:>9d} {c.scheduled:>9d} "
                f"{c.deduped:>8d} {c.executed:>8d}"
            )
        lines.append(
            f"{'total':12s} {self.total_requested:>9d} "
            f"{self.total_scheduled:>9d} {self.total_deduped:>8d} "
            f"{self.total_executed:>8d}"
        )
        if (self.cross_job_deduped or self.fanout_results
                or self.cancelled_nodes or self.cutoff_cells):
            lines.append(
                f"fleet: {self.cross_job_deduped} cross-job deduped, "
                f"{self.fanout_results} results fanned out, "
                f"{self.cancelled_nodes} nodes cancelled, "
                f"{self.cutoff_cells} cells cut off"
            )
        return lines
