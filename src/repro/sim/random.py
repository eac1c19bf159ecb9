"""Deterministic, named random-number seeds.

Experiments in this library compare scheduling policies against each other
*under the same fault schedule*.  If the workload and the fault injector
shared one RNG, changing the workload would perturb the faults and the
comparison would be meaningless.  :func:`derive_seed` therefore gives
each named stream its own stable seed, derived from a single root seed:

    fault_rng = random.Random(derive_seed(42, "faults/disk3"))
    workload_rng = random.Random(derive_seed(42, "workload"))

The same ``(seed, name)`` pair always yields the same sequence, regardless
of creation order or of which other streams exist.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed for ``name`` under ``root_seed``.

    Uses SHA-256 rather than ``hash()`` so results do not depend on
    ``PYTHONHASHSEED`` or the interpreter version.
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")
