"""Reference FIFO: the general closed form of the Lindley recurrence.

The hybrid engine resolves its fluid eras with
:func:`repro.sim.fluid.fifo_uniform_ramps`, which exploits equally
spaced arrivals of equal work to stay O(1) in memory.
:func:`fifo_completions` below is the general closed form for arbitrary
arrival times and works.  No engine calls it;
``tests/sim/test_fifo_reconstruction.py`` checks both it and the ramps
against a real ``RateServer`` and the ramps against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def fifo_completions(
    arrivals: Sequence[float],
    works: Sequence[float],
    rate: float,
    busy_until: float = 0.0,
) -> np.ndarray:
    """Vectorized FIFO completion times for arbitrary arrival schedules.

    With cumulative service ``P[k] = sum(works[:k+1]) / rate``, job ``k``
    completes at

    ``C[k] = P[k] + max(busy_until, max_{i <= k}(arrivals[i] - P[i-1]))``

    -- the inner max is the start of the busy period job ``k`` belongs
    to.
    """
    a = np.asarray(arrivals, dtype=np.float64)
    w = np.asarray(works, dtype=np.float64)
    if a.ndim != 1 or a.shape != w.shape:
        raise ValueError("arrivals and works must be matching 1-d sequences")
    if a.size == 0:
        return np.empty(0, dtype=np.float64)
    if not rate > 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if (np.diff(a) < 0).any():
        raise ValueError("arrivals must be nondecreasing")
    if not (w > 0).all():
        raise ValueError("works must be > 0")
    cum = np.cumsum(w) / rate
    prev = np.empty_like(cum)
    prev[0] = 0.0
    prev[1:] = cum[:-1]
    busy_start = np.maximum.accumulate(a - prev)
    return cum + np.maximum(busy_until, busy_start)
