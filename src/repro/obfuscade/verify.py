"""Genuine-part identification by embedded-feature inspection.

"A further benefit of our ObfusCADe protection strategy is that it
allows identification of genuine parts by checking the presence or lack
of these embedded features" (paper Sec. 1).  The authenticator plays
the role of a CT/ultrasound inspection station: it probes the printed
artifact's voxel volume for the signatures the designer embedded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.printer.artifact import PrintedArtifact, VoxelMaterial


@dataclass(frozen=True)
class FeatureExpectation:
    """One signature the authenticator looks for.

    ``kind`` is ``"seam"`` (a fused spline-split plane: weak-bond voxels
    present but no open voids) or ``"sphere_cavity"`` (an embedded
    sphere region holding support material or, after washing, nothing).
    """

    kind: str
    center_mm: Optional[np.ndarray] = None
    radius_mm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("seam", "sphere_cavity", "sphere_solid"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind.startswith("sphere") and (
            self.center_mm is None or self.radius_mm is None
        ):
            raise ValueError("sphere expectations need a center and radius")


@dataclass
class AuthenticationReport:
    """Outcome of inspecting one physical part."""

    genuine: bool
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def explain(self) -> str:
        lines = [f"verdict: {'GENUINE' if self.genuine else 'NOT GENUINE'}"]
        lines += [f"  [ok] {c}" for c in self.checks]
        lines += [f"  [fail] {f}" for f in self.failures]
        return "\n".join(lines)


class PartAuthenticator:
    """Inspects printed parts for the designer's embedded signatures."""

    def __init__(self, expectations: Sequence[FeatureExpectation]):
        if not expectations:
            raise ValueError("authenticator needs at least one expected feature")
        self.expectations = list(expectations)

    def inspect(self, artifact: PrintedArtifact) -> AuthenticationReport:
        """Run every expectation; genuine means all pass."""
        checks: List[str] = []
        failures: List[str] = []
        for exp in self.expectations:
            ok, message = self._check(artifact, exp)
            (checks if ok else failures).append(message)
        return AuthenticationReport(genuine=not failures, checks=checks, failures=failures)

    def _check(self, artifact: PrintedArtifact, exp: FeatureExpectation):
        if exp.kind == "seam":
            return self._check_seam(artifact)
        if exp.kind == "sphere_cavity":
            return self._check_sphere(artifact, exp, want_model=False)
        return self._check_sphere(artifact, exp, want_model=True)

    @staticmethod
    def _check_seam(artifact: PrintedArtifact):
        """A genuine part carries the fused seam: weak-bond voxels along
        a surface, without open voids (which would mean a bad print)."""
        n_weak = artifact.voxel_count("weak")
        n_void = artifact.voxel_count("voids")
        if n_weak == 0 and n_void == 0:
            return False, "no split-seam signature found (feature absent)"
        if n_void > 0:
            return (
                False,
                f"seam present but unfused ({n_void} void voxels): defective print",
            )
        return True, f"fused split seam detected ({n_weak} bridged voxels)"

    @staticmethod
    def _check_sphere(artifact: PrintedArtifact, exp: FeatureExpectation, want_model: bool):
        center = np.asarray(exp.center_mm, dtype=float)
        radius = float(exp.radius_mm)
        mask = artifact.sphere_mask(center, radius)
        fractions = artifact.region_fractions(mask)
        model_frac = fractions[VoxelMaterial.MODEL]

        # The probed sphere must lie inside the scanned volume at all:
        # compare the in-grid mask volume against the analytic volume.
        expected_mm3 = 4.0 / 3.0 * np.pi * (0.85 * radius) ** 3
        got_mm3 = float(mask.sum()) * artifact.voxel_volume_mm3
        if got_mm3 < 0.8 * expected_mm3:
            return (
                False,
                f"probe region extends outside the artifact volume "
                f"({got_mm3:.1f} of {expected_mm3:.1f} mm^3 scanned)",
            )

        # The feature must sit *inside* the part: the shell around the
        # probed sphere must be solid, otherwise the probe is simply
        # outside the artifact and "no material" means nothing.
        shell = artifact.sphere_mask(center, radius * 1.4) & ~artifact.sphere_mask(
            center, radius * 1.05, shrink=1.0
        )
        shell_model = artifact.region_fractions(shell)[VoxelMaterial.MODEL]
        if shell_model < 0.5:
            return (
                False,
                f"probe location not enclosed by the part "
                f"(shell only {shell_model:.0%} model material)",
            )

        if want_model:
            if model_frac > 0.9:
                return True, f"sphere region solid ({model_frac:.0%} model material)"
            return False, f"sphere region not solid ({model_frac:.0%} model material)"
        if model_frac < 0.1:
            filler = (
                "support material"
                if fractions[VoxelMaterial.SUPPORT] > fractions[VoxelMaterial.EMPTY]
                else "empty (washed)"
            )
            return True, f"sphere cavity present ({filler})"
        return False, f"sphere cavity missing ({model_frac:.0%} model material)"
