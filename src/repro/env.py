"""The one reader of the ``REPRO_*`` environment variables.

Every knob that can be set from the environment resolves as *argument >
environment > default*: the owning module calls :func:`env_flag` or
:func:`env_choice` only when its caller left the argument ``None``. An
unset or empty variable means the default; a value the knob does not
list (``REPRO_LOCKDEP=false``) raises instead of being read as on or
off. The variables and their defaults are tabulated in README.md,
"Configuration reference".
"""

from __future__ import annotations

import os
from typing import Sequence


def env_choice(name: str, allowed: Sequence[str], default: str) -> str:
    """The value of ``name``, validated against ``allowed``."""
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    if raw not in allowed:
        raise ValueError(f"{name}={raw!r}: expected one of {list(allowed)}")
    return raw


def env_flag(name: str, default: bool) -> bool:
    """The on/off variable ``name``: ``1`` is on, ``0`` is off."""
    return env_choice(name, ("0", "1"), "1" if default else "0") == "1"
