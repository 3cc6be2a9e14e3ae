"""Protecting a complex industrial part (paper Sec. 3.1, closing notes).

"Real engineering designs often include complex and multi-component
systems ... Addition of one or more surfaces for security and
identification purposes in such complex models is possible with minimal
chance of detection."

This example protects a custom machine-lever profile (lines + arcs, not
the lab dogbone) with a spline split placed across its web, prints it
under the key and off-key, and shows the outsourcing analysis that
motivates protecting it at all.

Run:  python examples/protect_industrial_part.py
"""

import numpy as np

from repro import COARSE, FINE, PrintJob, PrintOrientation, assess_print
from repro.cad.profile import ArcSegment, LineSegment, Profile
from repro.geometry.spline import CubicSpline2
from repro.obfuscade import Obfuscator
from repro.supplychain.actors import typical_outsourced_chain


def lever_profile() -> Profile:
    """A 70 x 24 mm machine-lever outline: two bosses joined by a web."""
    half_pi = np.pi / 2.0
    return Profile(
        [
            # Left boss (radius 12 around (-28, 0)), traversed CCW from
            # its top to its bottom around the outside.
            ArcSegment((-28.0, 0.0), 12.0, half_pi, 3 * half_pi),
            # Bottom web edge, tapering toward the small boss.
            LineSegment((-28.0, -12.0), (28.0, -8.0)),
            # Right boss (radius 8 around (28, 0)).
            ArcSegment((28.0, 0.0), 8.0, -half_pi, half_pi),
            # Top web edge back to the left boss.
            LineSegment((28.0, 8.0), (-28.0, 12.0)),
        ],
        name="machine-lever",
    )


def web_split_spline() -> CubicSpline2:
    """A shallow, wavy S-curve crossing the lever web bottom to top.

    Endpoints sit exactly on the two straight web edges (from the edge
    equations of :func:`lever_profile`).  The *shape* matters: a steep,
    gentle curve leaves the x-z orientation printable (we audited it -
    see below); stretching the curve along the part and adding waves
    makes the wall lie along the layers when printed on edge, closing
    that hole.  Feature design is part of using ObfusCADe.
    """

    def bottom_y(x):
        return -12.0 + (x + 28.0) / 14.0

    def top_y(x):
        return 8.0 + (28.0 - x) / 14.0

    x0, x1 = -22.0, 16.0
    return CubicSpline2(
        np.array(
            [
                [x0, bottom_y(x0)],
                [-14.0, -4.0],
                [-5.0, 1.5],
                [4.0, -3.0],
                [10.0, 2.0],
                [x1, top_y(x1)],
            ]
        )
    )


def main() -> None:
    print("outsourcing analysis of the production chain:")
    for line in typical_outsourced_chain().summary():
        print("  " + line)
    print()

    protected = Obfuscator().protect_profile(
        lever_profile(), thickness=6.0, spline=web_split_spline(), name="lever"
    )
    print(f"protected part : {protected.describe()}")
    bodies = protected.model.bodies()
    print(f"bodies in part : {len(bodies)} (split is invisible in the solid view)")
    print()

    # Audit the feature the way a designer should: run the attacker's
    # own grid search before shipping the file.
    from repro.obfuscade import CounterfeiterSimulator

    job = PrintJob()
    audit = CounterfeiterSimulator(chain=job.chain).attack(protected)
    print("design audit (the counterfeiter's grid, run by the designer):")
    for resolution, orientation, grade, score, matches in audit.summary_rows():
        marker = "  <-- key" if matches else ""
        print(f"  {resolution:8s} {orientation:5s} {grade:20s} {score:5.2f}{marker}")
    print(f"  key-unique: {audit.key_only_success}")
    print()
    assert audit.key_only_success

    genuine = assess_print(
        job.print_model(protected.model, FINE, PrintOrientation.XY)
    )
    fake = assess_print(
        job.print_model(protected.model, COARSE, PrintOrientation.XZ)
    )
    print(f"licensed print (Fine, x-y)  : {genuine.grade.value}, score {genuine.score:.2f}")
    print(f"counterfeit (Coarse, x-z)   : {fake.grade.value}, score {fake.score:.2f}")
    print()
    assert genuine.score > 0.9
    assert fake.score < 0.6
    print(
        "The same spline-split mechanism that protected the lab dogbone\n"
        "protects an arbitrary profile - hidden in the web of a lever,\n"
        "wrapped around the part's own curves."
    )


if __name__ == "__main__":
    main()
