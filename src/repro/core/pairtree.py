"""Binary sum tree over per-junction rate pairs, repaired lazily.

Kinetic Monte Carlo needs two operations per event: the total rate and
a categorical draw.  The conventional solver recomputes every rate
anyway, so an O(J) cumulative sum costs nothing extra; the adaptive
solver touches only a handful of junctions per event, and an O(J)
cumsum would put a floor under its speedup.  This tree keeps the
junction pair-sums ``fw[j] + bw[j]`` as the leaves of a heap-ordered
complete binary tree (node ``i`` has children ``2i`` and ``2i + 1``,
the root is node 1, and every internal node holds the sum of its two
children): draws are O(log J), which is what lets the measured Fig. 6
speedup keep growing with circuit size.

Repair is lazy.  :meth:`PairRateTree.update` only writes the leaf and
marks it dirty; :attr:`~PairRateTree.total` and
:meth:`~PairRateTree.sample` first repair the union of the dirty
leaves' ancestors, one level at a time from the bottom.  An event that
recomputes ~25 neighbouring junctions of c1908 then rewrites ~50
internal nodes instead of the ~300 an eager per-update path repair
would.  The result is bit-identical to eager repair: either way every
internal node ends as the sum of its two children's *final* values
(eagerly, its last rewrite comes after its subtree's last leaf
update), and one floating-point addition of the same two operands
always gives the same bits.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np


class PairRateTree:
    """Sampling tree over ``fw[j] + bw[j]`` junction rate pairs."""

    def __init__(self, fw: np.ndarray, bw: np.ndarray):
        self._n = len(fw)
        self._size = 1
        self._depth = 0
        while self._size < self._n:
            self._size *= 2
            self._depth += 1
        # plain Python floats: scalar index/update is several times
        # faster than numpy element access in the per-event hot path
        self._tree = [0.0] * (2 * self._size)
        # tree positions of leaves written since the last repair
        self._dirty: list[int] = []
        self.rebuild(fw, bw)

    # ------------------------------------------------------------------
    def rebuild(self, fw: np.ndarray, bw: np.ndarray) -> None:
        """Recompute the whole tree from fresh rate arrays (O(J))."""
        values = np.zeros(self._size)
        values[: self._n] = fw + bw
        tree = self._tree
        tree[self._size:] = values.tolist()
        for i in range(self._size - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]
        self._dirty.clear()

    def update(self, j: int, pair_rate: float) -> None:
        """Set junction ``j``'s pair rate; its path is repaired by the
        next :attr:`total` or :meth:`sample`."""
        i = self._size + j
        self._tree[i] = pair_rate
        self._dirty.append(i)

    def _repair(self) -> None:
        """Recompute the ancestors of every dirty leaf, level by level."""
        tree = self._tree
        level: Collection[int] = self._dirty
        self._dirty = []
        # every node of a level has the same depth: ``height`` levels
        # remain above it
        height = self._depth
        while height and len(level) > 1:
            level = {i >> 1 for i in level}
            for i in level:
                tree[i] = tree[2 * i] + tree[2 * i + 1]
            height -= 1
        if height:
            # one path left: walk it up to the root
            (i,) = level
            while i > 1:
                i >>= 1
                tree[i] = tree[2 * i] + tree[2 * i + 1]

    @property
    def total(self) -> float:
        """Total rate over all junction pairs."""
        if self._dirty:
            self._repair()
        return float(self._tree[1])

    def sample(self, target: float) -> tuple[int, float]:
        """Find the junction whose cumulative interval contains
        ``target``; returns ``(junction, residual within its pair)``."""
        if self._dirty:
            self._repair()
        i = 1
        tree = self._tree
        size = self._size
        while i < size:
            left = tree[2 * i]
            if target < left:
                i = 2 * i
            else:
                target -= left
                i = 2 * i + 1
        j = i - size
        if j >= self._n:  # numerical edge: walk back into range
            j = self._n - 1
            target = min(target, tree[size + j])
        return j, float(target)
