"""Fixed host work that gauges how fast the machine runs right now.

``run.py`` times it in a fresh process before every pass of a timed run
and scales the run's host times by the median (``measure.speed_scaled``).
It uses none of the program, so a change to the program cannot move it.
Its mix follows the program's: a large graph of small Python objects
reached in random order, like the serving engine's request state, then
dense boolean masks built with numpy, like ``repro.masks``.

    python3 perfbench/reference.py      # prints {"reference_s": ...}
"""

from __future__ import annotations

import json
import time

import numpy as np

NODES = 200_000
STEPS = 200_000
MASK_SIDES = (512, 1024, 2048, 2048)


class _Node:
    __slots__ = ("hits", "weight", "links")

    def __init__(self, weight: int, links: list[int]):
        self.hits = 0
        self.weight = weight
        self.links = links


def reference_work() -> int:
    nodes = [_Node(3 * i, [i, i + 1]) for i in range(NODES)]
    table = {7 * i: node for i, node in enumerate(nodes)}
    acc, j = 0, 1
    for _ in range(STEPS):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        node = table[7 * (j % NODES)]
        node.hits += 1
        acc += node.weight + len(node.links)
    for side in MASK_SIDES:
        acc += int(np.tril(np.ones((side, side), dtype=bool)).sum())
    return acc


def main() -> None:
    t0 = time.perf_counter()
    reference_work()
    print(json.dumps({"reference_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
