"""The single node-execution boundary and the scheduler's node counters.

The paper's Fig. 1 process chain is one fixed sequence of stages
(:attr:`~repro.pipeline.chain.ProcessChain.stages`, declared in
execution order), each a place where files get produced, cached,
tampered with or sabotaged (Table 1).  Serial chain runs and the fleet
scheduler execute those stages as graph nodes through this module:

:func:`node_digest`
    A node's content address: the stage name, its inputs' digests and
    its parameter key.

:func:`run_stage`
    The one boundary through which every node execution goes, serial
    chain runs and scheduler workers alike.  It interposes, in order:
    the stage's fault-injection site, the ``stage.<name>`` trace span,
    the content-addressed cache lookup, and the :class:`StageError`
    wrapping that gives failures chain coordinates.  These
    interposition points are exactly where Table 1's per-stage
    mitigations (hash verification, geometry review, anomaly
    detection) would attach in a production deployment - see
    DESIGN.md §3.5.

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
from typing import Any, Dict, List, Tuple

from repro import faults
from repro import observability as obs
from repro.pipeline.cache import digest_parts
from repro.pipeline.resilience import CellTimeout, StageError
from repro.pipeline.stage import Stage


def node_digest(stage: Stage, ctx: Any, digests: Dict[str, str]) -> str:
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
) -> Tuple[Any, bool, float]:
    """Execute one graph node; returns ``(artifact, cache_hit, seconds)``.

    The single node-execution boundary: fault injection, span tracing,
    cache get/store and typed error wrapping all live here, so the
    serial chain and the sweep scheduler cannot drift apart in what a
    "stage execution" means.  Exactly one ``cache.get`` span and one stage
    hit-or-miss is accounted per call - the invariant the observability
    layer's span-derived totals rely on.
    """

    def _compute():
        faults.fire(stage.fault_site, context=cell)
        return stage.run(ctx)

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
