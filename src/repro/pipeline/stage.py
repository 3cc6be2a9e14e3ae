"""The stage abstraction of the staged process chain.

A :class:`Stage` is one box of the paper's Fig. 1 process chain made
explicit: a named, pure transformation from upstream artifacts to one
output artifact, plus a key function describing which run parameters
invalidate that output.  The engine (:mod:`repro.pipeline.chain`)
derives each stage's content address as::

    sha256(stage name, upstream artifact digests..., key(ctx))

so a stage whose upstream world and parameters are unchanged is never
recomputed, no matter which run asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class ArtifactContract:
    """Typed contract over one stage artifact.

    A producing stage declares what it emits (``produces``); a consuming
    stage declares what it requires of each input (``expects``).  The
    :class:`~repro.pipeline.graph.StageGraph` checks producer/consumer
    compatibility at construction time, and the node-execution boundary
    checks every freshly computed artifact against its producer's
    contract - so a stage that silently starts returning the wrong
    artifact type fails loudly at the graph, not three stages later
    with an ``AttributeError`` inside the slicer.

    Attributes
    ----------
    types:
        Acceptable artifact classes (``isinstance`` semantics).
    optional:
        Whether ``None`` is a legal artifact.  The seam stage, for
        example, produces ``None`` for models without a split feature.
    """

    types: Tuple[type, ...]
    optional: bool = False

    def admits(self, value: Any) -> bool:
        if value is None:
            return self.optional
        return isinstance(value, self.types)

    def accepts(self, other: "ArtifactContract") -> bool:
        """Whether every artifact admitted by ``other`` satisfies us.

        Used for producer/consumer matching: a consumer accepts a
        producer when the producer's types are each a subclass of some
        accepted type, and the consumer tolerates ``None`` whenever the
        producer may emit it.
        """
        if other.optional and not self.optional:
            return False
        return all(
            issubclass(produced, self.types) for produced in other.types
        )

    def describe(self) -> str:
        names = "|".join(t.__name__ for t in self.types)
        return f"Optional[{names}]" if self.optional else names


@dataclass(frozen=True)
class Stage:
    """One pure step of the process chain.

    Attributes
    ----------
    name:
        Stable identifier; part of the cache key and the stats tables.
    inputs:
        Names of the upstream stages (or the ``"model"`` root) whose
        artifact digests chain into this stage's key.  Listing an
        input both orders the graph and makes the key content-derived.
    run:
        Pure function from the chain context to the stage artifact.
        It may read upstream artifacts via ``ctx.artifact(name)`` but
        must not mutate them - cached artifacts are shared across runs.
    key:
        Function from the chain context to a tree of primitives: the
        stage *parameters* (resolution, orientation, slicer settings,
        machine, ...) that select among otherwise-identical inputs.
    pack / unpack:
        Optional codec applied at the cache boundary: ``pack`` encodes
        the artifact into a compact form for storage, ``unpack``
        restores it on a hit.  ``unpack(pack(x))`` must reproduce
        ``x`` exactly.  Used by stages whose artifacts hold large
        arrays, so the disk tier stores them as mmappable segments:
        the G-code stage exposes its move-table columns, the deposit
        stage its already row-packed voxel grids (references, no copy,
        so every cache tier shares the artifact's own buffers).
    produces:
        Contract over this stage's own artifact; checked against every
        fresh compute and against downstream consumers' ``expects``.
        ``None`` (default) declares nothing and checks nothing.
    expects:
        Per-input contracts, keyed by input name.  Inputs without an
        entry (including the ``"model"`` root) are unconstrained.
    """

    name: str
    inputs: Tuple[str, ...]
    run: Callable[[Any], Any]
    key: Callable[[Any], tuple]
    pack: Optional[Callable[[Any], Any]] = None
    unpack: Optional[Callable[[Any], Any]] = None
    produces: Optional[ArtifactContract] = None
    expects: Dict[str, ArtifactContract] = field(default_factory=dict)

    @property
    def fault_site(self) -> str:
        """Injection-hook name of this stage's compute boundary.

        The engine calls :func:`repro.faults.fire` with this site
        before every cache-miss execution, so chaos tests can target
        ``stage.tessellate``, ``stage.*``, etc.
        """
        return f"stage.{self.name}"


@dataclass(frozen=True)
class StageExecution:
    """Record of one stage execution within a single chain run."""

    name: str
    digest: str
    cache_hit: bool
    seconds: float
