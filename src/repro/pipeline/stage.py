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

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple


@dataclass(frozen=True)
class Stage:
    """One pure step of the process chain.

    Attributes
    ----------
    name:
        Stable identifier; part of the cache key and the stats tables.
    inputs:
        Names of the upstream stages (or the ``"model"`` root) whose
        artifact digests chain into this stage's key; each must be
        declared before this stage in
        :attr:`~repro.pipeline.chain.ProcessChain.stages`.
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
    """

    name: str
    inputs: Tuple[str, ...]
    run: Callable[[Any], Any]
    key: Callable[[Any], tuple]
    pack: Optional[Callable[[Any], Any]] = None
    unpack: Optional[Callable[[Any], Any]] = None

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
