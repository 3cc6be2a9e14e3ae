"""Named process settings: the words the CLI and the job service accept.

One vocabulary for every front end, so a ``sweep`` flag and a service
request that name the same setting always mean the same thing.
"""

from __future__ import annotations

from repro.cad.resolution import COARSE, FINE, custom_resolution
from repro.printer.machines import DIMENSION_ELITE, OBJET30_PRO
from repro.printer.orientation import PrintOrientation

RESOLUTIONS = {
    "coarse": COARSE,
    "fine": FINE,
    "custom": custom_resolution(),
}
ORIENTATIONS = {o.value: o for o in PrintOrientation}
MACHINES = {"fdm": DIMENSION_ELITE, "polyjet": OBJET30_PRO}
