"""Deterministic random-number helpers.

Every stochastic component of the library (synthetic workloads, router
inputs, pruning tasks) takes either an explicit ``numpy.random.Generator``
or an integer seed.  This module centralises generator construction so that
all experiments are reproducible run-to-run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

DEFAULT_SEED = 0x5A3D  # "SAMD"


def new_rng(seed: int | np.random.Generator | None = None
            ) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), a non-negative
    integer seed, or ``None`` for the library-wide default seed.  Never
    uses global numpy state.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    elif seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    return np.random.default_rng(seed)
