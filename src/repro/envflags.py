"""One boolean parser for every ``OBFUSCADE_*`` environment switch.

The repo grew environment toggles one at a time (``OBFUSCADE_FAULTS``,
``OBFUSCADE_BENCH_SMOKE``), and each invented its own truthiness test.
The worst of them treated *any* value except ``""``/``"0"`` as on - so
``OBFUSCADE_FAULTS=false`` left fault injection armed.  All switches
now parse through :func:`env_flag`:

* ``1`` / ``true`` / ``yes`` / ``on``  -> ``True``
* ``0`` / ``false`` / ``no`` / ``off`` -> ``False``
* unset or empty                       -> the switch's default
* anything else                        -> the default, with a one-time
  :class:`EnvFlagWarning` naming the variable and the junk value
  (silently guessing either way would reintroduce the original bug).

Matching is case-insensitive and whitespace-tolerant.  This module is a
leaf (stdlib only) so every layer - pipeline, faults, benchmarks, the
service - can use it without import cycles.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Set, Tuple

#: Values parsed as ``True`` (lowercased, stripped).
TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Values parsed as ``False`` (lowercased, stripped).
FALSY = frozenset({"0", "false", "no", "off"})


class EnvFlagWarning(UserWarning):
    """An ``OBFUSCADE_*`` switch carried an unparseable value."""


#: (name, raw value) pairs already warned about - a switch read on a
#: hot path (every fault site) must not spam one warning per read.
_warned: Set[Tuple[str, str]] = set()


def parse_flag(raw: Optional[str], default: bool = False,
               name: str = "?") -> bool:
    """Parse one boolean-ish string; ``None``/empty means ``default``."""
    if raw is None:
        return default
    value = raw.strip().lower()
    if not value:
        return default
    if value in TRUTHY:
        return True
    if value in FALSY:
        return False
    if (name, raw) not in _warned:
        _warned.add((name, raw))
        warnings.warn(
            f"{name}={raw!r} is not a recognised boolean "
            f"(use one of {sorted(TRUTHY)} / {sorted(FALSY)}); "
            f"treating it as {default}",
            EnvFlagWarning,
            stacklevel=3,
        )
    return default


def env_flag(name: str, default: bool = False) -> bool:
    """The boolean value of environment switch ``name``.

    Unset and empty both mean ``default``, so exporting an empty
    variable never flips a feature on.  Junk values warn once per
    distinct (name, value) pair and fall back to ``default``.
    """
    return parse_flag(os.environ.get(name), default=default, name=name)
