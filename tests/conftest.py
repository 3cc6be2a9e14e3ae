"""Shared fixtures.

Print simulations cost seconds each, so everything derived from a
print job is session-scoped and shared across test modules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cad import (
    COARSE,
    FINE,
    BaseExtrudeFeature,
    BasePrismFeature,
    CadModel,
    EmbeddedSphereFeature,
    SphereStyle,
    SplineSplitFeature,
    TensileBarSpec,
    default_split_spline,
    tensile_bar_profile,
)
from repro.mesh import TriangleMesh
from repro.printer import PrintJob, PrintOrientation


@pytest.fixture(scope="session")
def tetra() -> TriangleMesh:
    """The smallest watertight mesh: a unit tetrahedron."""
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
    )
    faces = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    return TriangleMesh(vertices, faces)


@pytest.fixture(scope="session")
def unit_cube() -> TriangleMesh:
    """A watertight unit cube centred at the origin."""
    from repro.supplychain.attacks import _axis_cube

    return _axis_cube(np.zeros(3), 1.0)


@pytest.fixture(scope="session")
def bar_spec() -> TensileBarSpec:
    return TensileBarSpec()


@pytest.fixture(scope="session")
def intact_bar(bar_spec) -> CadModel:
    return CadModel(
        "intact-bar",
        [BaseExtrudeFeature(tensile_bar_profile(bar_spec), bar_spec.thickness)],
    )


@pytest.fixture(scope="session")
def split_bar(bar_spec) -> CadModel:
    return CadModel(
        "split-bar",
        [
            BaseExtrudeFeature(tensile_bar_profile(bar_spec), bar_spec.thickness),
            SplineSplitFeature(default_split_spline(bar_spec)),
        ],
    )


def sphere_model(style: SphereStyle, removal: bool) -> CadModel:
    return CadModel(
        f"prism-{style.value}-{'removal' if removal else 'noremoval'}",
        [
            BasePrismFeature((25.4, 12.7, 12.7)),
            EmbeddedSphereFeature((0.0, 0.0, 0.0), 3.175, style, removal),
        ],
    )


@pytest.fixture(scope="session")
def print_job() -> PrintJob:
    return PrintJob()


@pytest.fixture(scope="session")
def split_coarse_xy(print_job, split_bar):
    return print_job.print_model(split_bar, COARSE, PrintOrientation.XY)


@pytest.fixture(scope="session")
def split_coarse_xz(print_job, split_bar):
    return print_job.print_model(split_bar, COARSE, PrintOrientation.XZ)


@pytest.fixture(scope="session")
def split_fine_xy(print_job, split_bar):
    return print_job.print_model(split_bar, FINE, PrintOrientation.XY)


@pytest.fixture(scope="session")
def intact_coarse_xy(print_job, intact_bar):
    return print_job.print_model(intact_bar, COARSE, PrintOrientation.XY)


@pytest.fixture(scope="session")
def intact_coarse_xz(print_job, intact_bar):
    return print_job.print_model(intact_bar, COARSE, PrintOrientation.XZ)


@pytest.fixture(scope="session")
def sphere_removal_solid_print(print_job):
    return print_job.print_model(sphere_model(SphereStyle.SOLID, True), FINE)


@pytest.fixture(scope="session")
def sphere_noremoval_solid_print(print_job):
    return print_job.print_model(sphere_model(SphereStyle.SOLID, False), FINE)




@pytest.fixture(scope="session")
def randomized_bar_201() -> CadModel:
    """The seed-201 randomized-spline bar (real slicer-input corpus)."""
    from repro.obfuscade.obfuscator import Obfuscator

    return Obfuscator(seed=201).protect_tensile_bar(randomize=True).model


def placed_mesh(model: CadModel, resolution, orientation) -> TriangleMesh:
    """``model`` as the process chain slices it: tessellated at
    ``resolution``, coincident faces resolved, oriented onto the plate
    and shifted by the plate margin."""
    from repro.pipeline.chain import PLATE_MARGIN_MM
    from repro.printer.orientation import place_on_plate
    from repro.slicer.coincident import resolve_coincident_faces

    mesh = resolve_coincident_faces(model.export_stl(resolution).mesh)
    oriented = place_on_plate([mesh], orientation)[0]
    return oriented.translated(np.array([PLATE_MARGIN_MM, PLATE_MARGIN_MM, 0.0]))
