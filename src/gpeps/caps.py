"""Memory budget for dense objects, counted in complex amplitudes."""

from __future__ import annotations

import os

DEFAULT_MAX_AMPLITUDES = 2**26
ENV_VAR = "GPEPS_MAX_AMPLITUDES"


def max_amplitudes() -> int:
    """The amplitude cap: the ``GPEPS_MAX_AMPLITUDES`` variable, else the default."""
    env = os.environ.get(ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_MAX_AMPLITUDES
