"""Reference definitions over decoded trees and whole local-time fields.

The package reads everything it needs off the contour and its corner index;
these are the direct tree and field constructions that the tests check it
against, and the label-order symmetrization of surplus graphs behind the
profile weights ``samplers.ws_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from surplus_lab.lattice_paths import HeightProfile, LabeledTree, LatticeExcursion, PlaneTree
from surplus_lab.local_time import bf_per_index, corner_index
from surplus_lab.samplers import RootedGraph

# -- plane trees ------------------------------------------------------------------


def lukasiewicz_of_tree(t: PlaneTree) -> list[int]:
    """Depth-first walk stepping by (number of children - 1); ends at -1."""
    s = [0]
    for v in _preorder(t):
        s.append(s[-1] + len(t.children[v]) - 1)
    return s


def _preorder(t: PlaneTree) -> Iterator[int]:
    stack = [0]
    while stack:
        v = stack.pop()
        yield v
        stack.extend(reversed(t.children[v]))


def preorder_index(t: PlaneTree) -> list[int]:
    """Position of each vertex in the depth-first (preorder) vertex order."""
    pos = [0] * (t.n + 1)
    for k, v in enumerate(_preorder(t)):
        pos[v] = k
    return pos


def plane_tree_profile(t: PlaneTree) -> HeightProfile:
    """Counts of vertices at each distance from the root of a plane tree."""
    z = [0] * (max(t.depth) + 1)
    for d in t.depth:
        z[d] += 1
    return HeightProfile(tuple(z))


def tree_adjacency(tree: PlaneTree, extra_edges=()) -> list[list[int]]:
    """Neighbour lists of a plane tree plus extra edges given as vertex pairs."""
    adj = [list(kids) for kids in tree.children]
    for v in range(1, tree.n + 1):
        adj[v].append(tree.parent[v])
    for u, v in extra_edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


# -- local-time fields ------------------------------------------------------------


class LocalTimeField:
    """Occupation counts of a lattice path at every integer time and level."""

    __slots__ = ("values", "counts")

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        self.values = values
        self.counts = counts  # shape (T+1, y_max+2), cumulative in t

    @classmethod
    def of(cls, path) -> "LocalTimeField":
        values = path.values if hasattr(path, "values") else np.asarray(path, dtype=np.int64)
        if values.min() < 0:
            raise ValueError("local-time fields are built for nonnegative paths")
        t_max = len(values) - 1
        y_max = int(values.max())
        onehot = np.zeros((t_max + 1, y_max + 2), dtype=np.int64)
        onehot[np.arange(t_max + 1), values] = 1
        return cls(values, np.cumsum(onehot, axis=0))

    @property
    def t_max(self) -> int:
        return self.counts.shape[0] - 1

    def lattice(self, t: int, y: int) -> int:
        """Visit count at integer time and level; zero outside the level range."""
        if not 0 <= t <= self.t_max:
            raise ValueError(f"time {t} outside [0, {self.t_max}]")
        if y < 0 or y >= self.counts.shape[1]:
            return 0
        return int(self.counts[t, y])


def corner_weight_telescope(f: LatticeExcursion) -> tuple[int, int, int]:
    """Evaluate the telescoping local-time identity for the breadth-first total.

    Returns ``(telescoped_sum, bf_total, boundary)`` where ``telescoped_sum``
    is ``sum_i [L(2n, f(i)) - L(i-1, f(i)) + L(2n, f(i)-1) - L(i-1, f(i)-1)]``
    over interior corners.  The sum counts the terminal time at level 0 once
    for every corner at height 1, which the corner-weight sets exclude, so
    ``telescoped_sum = bf_total + boundary`` with
    ``boundary = #{1 <= i <= 2n-1 : f(i) = 1}``.
    """
    field = LocalTimeField.of(f)
    vals = f.values.tolist()
    two_n = len(vals) - 1
    tele = 0
    for i in range(1, two_n):
        h = vals[i]
        tele += field.lattice(two_n, h) - field.lattice(i - 1, h)
        tele += field.lattice(two_n, h - 1) - field.lattice(i - 1, h - 1)
    boundary = sum(1 for i in range(1, two_n) if vals[i] == 1)
    return tele, int(bf_per_index(corner_index(f.values)).sum()), boundary


# -- breadth-first symmetrization of labeled graphs ---------------------------------


@dataclass(frozen=True)
class SymmetrizeResult:
    sbf: LabeledTree
    sbar: LabeledTree | None  # None encodes the degenerate (empty) outcome
    surplus_pairs: tuple[tuple[int, int], ...]
    swapped: tuple[bool, ...]


def bfs_spanning_tree(graph: RootedGraph) -> LabeledTree:
    """Breadth-first spanning tree exploring neighbors in increasing label order."""
    adj = graph.adjacency()
    parent = [0] * (graph.n + 1)
    seen = [False] * (graph.n + 1)
    seen[graph.root] = True
    queue = [graph.root]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
    if not all(seen[1:]):
        raise ValueError("graph is not connected")
    return LabeledTree(graph.n, graph.root, parent)


def symmetrize(graph: RootedGraph, gen: np.random.Generator | None = None) -> SymmetrizeResult:
    """Label-order BFS tree plus the randomized height-balancing swap.

    Each surplus edge joins vertices whose heights differ by at most one; an
    equal-height edge is kept as is, a one-step edge re-parents its deeper
    endpoint with probability 1/2.  When two surplus edges have deeper
    endpoints within one level of each other the symmetrized tree is the
    degenerate (empty) outcome, encoded as ``sbar=None``.
    """
    sbf = bfs_spanning_tree(graph)
    heights = sbf.heights()
    tree_edges = {tuple(sorted((v, sbf.parent[v]))) for v in range(1, graph.n + 1)
                  if v != graph.root}
    pairs = []
    for u, v in sorted(graph.edges - frozenset(tree_edges)):
        hu, hv = heights[u], heights[v]
        if abs(hu - hv) > 1:
            raise AssertionError("breadth-first tree left a surplus edge spanning 2+ levels")
        if hu == hv:
            pairs.append((min(u, v), max(u, v)))
        elif hu == hv + 1:
            pairs.append((u, v))
        else:
            pairs.append((v, u))
    pairs.sort()
    if graph.surplus != len(pairs):
        raise AssertionError("surplus edge count mismatch")
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if abs(heights[pairs[a][0]] - heights[pairs[b][0]]) <= 1:
                return SymmetrizeResult(sbf, None, tuple(pairs), ())
    parent = list(sbf.parent)
    swapped = []
    for i, j in pairs:
        if heights[i] == heights[j]:
            swapped.append(False)
            continue
        if gen is None:
            raise ValueError("swaps require a random stream")
        do_swap = bool(gen.integers(2))
        if do_swap:
            parent[i] = j
        swapped.append(do_swap)
    sbar = LabeledTree(graph.n, graph.root, parent)
    return SymmetrizeResult(sbf, sbar, tuple(pairs), tuple(swapped))


def degenerate_tuple_bound(profile: HeightProfile, n: int, s: int) -> int:
    """Size bound on height-colliding surplus tuples: 3 s (s-1) 2^s n^(s-1) (max z)^(s+1)."""
    zmax = max(profile.z)
    return 3 * s * (s - 1) * 2 ** s * n ** (s - 1) * zmax ** (s + 1)


def count_degenerate_tuples(tree: LabeledTree, s: int) -> int:
    """Brute count of ordered s-tuples of admissible pairs with a height collision."""
    heights = tree.heights()
    n = tree.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j and 0 <= heights[i] - heights[j] <= 1]
    count = 0
    for tup in product(pairs, repeat=s):
        if any(abs(heights[tup[a][0]] - heights[tup[b][0]]) <= 1
               for a in range(s) for b in range(a + 1, s)):
            count += 1
    return count
