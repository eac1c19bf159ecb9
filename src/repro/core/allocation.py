"""Work allocation: split integer work units by per-component weights.

:func:`apportion` is the largest-remainder split behind NOW-Sort's
partitioning (:mod:`repro.cluster.sort`): equal weights are the
fail-stop illusion (everyone gets the same share), weights proportional
to estimated rates are the paper's scenario-2 design.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["apportion"]


def apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` integer units by ``weights`` (largest remainder).

    Weights must be nonnegative with a positive sum.  The result sums to
    exactly ``total``.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be >= 0")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must sum to > 0")
    ideal = [total * w / weight_sum for w in weights]
    shares = [int(x) for x in ideal]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: ideal[i] - shares[i], reverse=True
    )
    for i in by_remainder[: total - sum(shares)]:
        shares[i] += 1
    return shares
