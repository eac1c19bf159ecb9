"""Closed-form FIFO response times: the fluid side of the hybrid engine.

The discrete kernel simulates every job; that caps a campaign run at
~10^5-10^6 requests.  Between fault transitions, though, nothing about a
FIFO :class:`~repro.sim.resources.RateServer` at a constant rate is
discrete: each response time follows from the Lindley recurrence
``D[j] = max(0, D[j-1] - gap[j]) + s[j]``, which has a closed form.

:func:`fifo_uniform_ramps` specializes it to equally spaced arrivals of
equal work, the shape of a campaign workload's arrival stream.  Every
response time then lies on at most two arithmetic ramps (a saturated or
draining queue, then the flat underloaded tail), each a
``(first, step, count)`` segment, so the cost does not grow with the
arrival count.  :class:`~repro.core.hybrid.HybridRunner` calls it once
per replica group in every fluid era, keeps the segments until the run
ends, and carries each member's backlog across era boundaries as
``busy_until``.  ``tests/sim/test_fifo_reconstruction.py``
checks the ramps against the general closed form for arbitrary arrival
times and works, and both against a real ``RateServer`` on random
overload and drain schedules: 1e-9 relative, with work conserved
exactly.

Rates are constant within a call.  The hybrid runner brackets every
rate change with an exact discrete window, so no fluid era spans one.
"""

from __future__ import annotations

import math
from typing import List

__all__ = ["fifo_uniform_ramps"]


def fifo_uniform_ramps(
    a0: float,
    spacing: float,
    count: int,
    work: float,
    rate: float,
    busy_until: float = 0.0,
) -> List[tuple]:
    """Exact FIFO response times for equally-spaced deterministic arrivals.

    ``count`` jobs of ``work`` units arrive at ``a0, a0 + spacing, ...``
    at a FIFO server of constant ``rate`` that is busy with earlier
    obligations until ``busy_until``.  With ``s = work / rate`` the
    response recurrence ``D[j] = max(0, D[j-1] - spacing) + s`` has a
    closed form: writing ``x[j] = D[j] - s`` and ``c = s - spacing``,

    * ``x[0] = max(0, busy_until - a0)``;
    * while the server stays busy, ``x[j] = x[0] + j * c`` (an arithmetic
      ramp: saturated if ``c >= 0``, draining if ``c < 0``);
    * once a draining queue empties, ``x[j] = 0`` (the flat underloaded
      tail at exactly ``s``).

    Returns at most two ``(first, step, count)`` segments covering all
    ``count`` responses in arrival order.  These are the *same float
    values* the discrete kernel produces up to one accumulation ulp per
    chained completion, which is what lets the hybrid engine stay inside
    its 1e-9 equivalence budget in the queueing regime.
    """
    if count <= 0:
        return []
    if not rate > 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if not work > 0.0:
        raise ValueError(f"work must be > 0, got {work}")
    if count > 1 and not spacing > 0.0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    s = work / rate
    x0 = busy_until - a0
    if x0 < 0.0:
        x0 = 0.0
    c = s - spacing
    if x0 <= 0.0 and c <= 0.0:
        # Never queued: the underloaded flat regime.
        return [(s, 0.0, count)]
    if c >= 0.0:
        # Saturated (or critically loaded with initial backlog): the
        # busy period never ends within this batch.
        return [(s + x0, c, count)]
    # Draining: the ramp shrinks by ``spacing - s`` per arrival until the
    # initial backlog is gone, then the tail is flat at ``s``.
    n_ramp = int(math.ceil(x0 / -c))
    while n_ramp > 0 and x0 + (n_ramp - 1) * c <= 0.0:
        n_ramp -= 1
    if n_ramp >= count:
        return [(s + x0, c, count)]
    out: List[tuple] = []
    if n_ramp > 0:
        out.append((s + x0, c, n_ramp))
    out.append((s, 0.0, count - n_ramp))
    return out
