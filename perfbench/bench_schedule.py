"""Seeded load shapes: BFS depth, Zipf popularity, open-loop schedules.

Everything here is a pure function of its arguments and a seed, so the
same seed always yields the same page order and the same operation
sequence.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable


def bfs_depths(roots: Iterable[Hashable],
               neighbours: Callable[[Hashable], Iterable[Hashable]]
               ) -> dict:
    """Breadth-first link distance of every node reachable from
    ``roots`` (depth 0)."""
    depths: dict = {}
    queue: deque = deque()
    for root in roots:
        if root not in depths:
            depths[root] = 0
            queue.append(root)
    while queue:
        node = queue.popleft()
        for nxt in neighbours(node):
            if nxt not in depths:
                depths[nxt] = depths[node] + 1
                queue.append(nxt)
    return depths


def rank_by(keys: dict, seed: int) -> list:
    """Items ordered by ascending sort key, ties shuffled by ``seed``.

    Rank 1 (the first item) is the most popular under :func:`zipf_weights`.
    """
    rng = random.Random(seed)
    items = sorted(keys, key=str)
    rng.shuffle(items)
    return sorted(items, key=lambda item: keys[item])  # stable sort


def zipf_weights(n: int, exponent: float = 1.0) -> list[float]:
    """Unnormalized Zipf weights for ranks 1..n."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


@dataclass(frozen=True)
class Op:
    """One scheduled operation of an open loop.

    ``due`` is seconds after the loop's start.  A read names the page
    it fetches; an update carries its ordinal among the run's updates
    (the workload turns that into a concrete mutation).
    """

    index: int
    due: float
    kind: str  # "read" | "update"
    url: str = ""
    update_no: int = -1


def update_slots(n_ops: int, update_every: int) -> range:
    """Indices of the updates among ``n_ops`` operations: the middle
    one of each block of ``update_every``."""
    return range(update_every // 2, n_ops, update_every)


def open_loop_schedule(ranked_urls: list[str], rate: float, n_ops: int,
                       update_every: int, seed: int) -> list[Op]:
    """``n_ops`` operations arriving at ``rate`` per second.

    Arrivals are evenly spaced.  Every ``update_every``-th operation
    (the middle one of each block) is an update, so updates are evenly
    spaced too; the rest read a page drawn by ``seed`` from
    ``ranked_urls`` with Zipf weights.
    """
    if rate <= 0 or update_every < 1:
        raise ValueError("rate and update_every must be positive")
    rng = random.Random(seed)
    weights = zipf_weights(len(ranked_urls))
    slots = update_slots(n_ops, update_every)
    ops: list[Op] = []
    updates = 0
    for index in range(n_ops):
        due = index / rate
        if index in slots:
            ops.append(Op(index, due, "update", update_no=updates))
            updates += 1
        else:
            url = rng.choices(ranked_urls, weights=weights)[0]
            ops.append(Op(index, due, "read", url=url))
    return ops


def tiered_order(items: Iterable, tier_of: Callable[[object], int],
                 seed: int) -> list:
    """Items grouped by ascending tier, seeded order within each tier."""
    rng = random.Random(seed)
    items = sorted(items, key=str)
    rng.shuffle(items)
    return sorted(items, key=tier_of)  # stable: keeps the shuffle
