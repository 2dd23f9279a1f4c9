"""Exact top-N enumeration of joint-assignment tuples.

Each joint i has a descending-value candidate list; a pose picks one
candidate index per joint and scores as the sum of the picked values.

The classic view (Lawler 1972; Murty 1968) recursively partitions the
Cartesian product of per-joint candidate sets: emit the best pose, then
repeatedly emit the best second-best across live subsets and split that
subset into the part containing the new pose and the remainder.

n_best_poses walks the same order with the pivot-successor rule, which
needs no subsets: a pose's successors increment one index at a joint q
at or after its pivot (the joint its parent changed; 0 for the all-zero
pose), and their pivot is q. Every pose has exactly one parent -- itself
with its last non-zero index decremented -- which never ranks after it,
so a heap keyed on (-score, indices) pops poses in the canonical order
without duplicates.

Ordering is total and deterministic: poses sort by descending score,
ties by ascending index tuple. A brute-force enumeration with the same
key yields the identical output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .geometry import check_count

# Each pose costs about 20 us and a heap entry: through infer, 8,192 poses
# take about 0.3 s and 120 MB on a 17-joint frame.
MAX_POSES = 8192


@dataclass(frozen=True)
class PoseAssignment:
    """One candidate index per joint plus the summed score."""

    indices: tuple[int, ...]
    score: float


def check_pose_count(n) -> None:
    """ValueError unless n is an integer in [1, MAX_POSES]."""
    check_count(n, "number of candidate poses", high=MAX_POSES)


def n_best_poses(values, n: int) -> list[PoseAssignment]:
    """The n highest-scoring poses over the full candidate product, best first.

    values: per joint, a descending sequence of candidate scores.
    Returns fewer than n poses when the product set is smaller than n.
    n is checked by check_pose_count.
    """
    check_pose_count(n)
    values = [np.asarray(v, dtype=np.float64).tolist() for v in values]
    if any(len(v) == 0 for v in values):
        raise ValueError("every joint needs at least one candidate")
    sizes = [len(v) for v in values]
    m = len(values)
    tops_after = [tuple(v[0] for v in values[q + 1 :]) for q in range(m)]
    first = (0,) * m
    # scores are plain left-to-right sums, the order the test oracles use
    heap = [(-reduce(add, (v[0] for v in values), 0.0), first, 0)]
    results = []
    while heap and len(results) < n:
        neg_score, indices, pivot = heapq.heappop(heap)
        results.append(PoseAssignment(indices, -neg_score))
        # left-to-right partial sums of the popped pose, shared by its
        # successors; joints after the pivot sit at index 0
        prefix = reduce(add, (values[q][indices[q]] for q in range(pivot)), 0.0)
        for q in range(pivot, m):
            k = indices[q] + 1
            if k < sizes[q]:
                total = reduce(add, tops_after[q], prefix + values[q][k])
                child = indices[:q] + (k,) + indices[q + 1 :]
                heapq.heappush(heap, (-total, child, q))
            prefix += values[q][indices[q]]
    return results
