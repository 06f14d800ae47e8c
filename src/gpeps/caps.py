"""Memory budget for dense objects, counted in complex amplitudes.

Every dense object that grows with the lattice or the representation is
counted against the cap before it is allocated, and only through
:func:`check_amplitudes`: one contracted state, the stack of twisted
states, a projector pass (the stack, its normalized copy and one basis per
requested step), the live stacks of ``gpeps sweep``, the dense site map and
the regrouping Gram matrix.  A count above the cap raises
:class:`DimensionOverflow` (exit 3).
"""

from __future__ import annotations

import os

from .errors import DimensionOverflow

DEFAULT_MAX_AMPLITUDES = 2**26
ENV_VAR = "GPEPS_MAX_AMPLITUDES"


def max_amplitudes() -> int:
    """The amplitude cap: the ``GPEPS_MAX_AMPLITUDES`` variable, else the default."""
    env = os.environ.get(ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_MAX_AMPLITUDES


def check_amplitudes(count: int, what: str) -> None:
    """Raise :class:`DimensionOverflow` when ``what`` needs more than the cap."""
    cap = max_amplitudes()
    if count > cap:
        raise DimensionOverflow(f"{what} needs {count} amplitudes (cap {cap})")
