"""Lattice paths, plane trees, labeled trees, and the conversions among them.

Conventions used throughout the package:

* An *excursion* of half-length ``n`` is a +-1 path ``f(0..2n)`` with
  ``f(0) = f(2n) = 0`` and strictly positive interior values.  These are
  exactly the contour functions of plane trees on ``n + 1`` vertices whose
  root has degree one.
* A *bridge* is a +-1 path from 0 to -1, given by its steps.  The Vervaat
  transform rotates a bridge at its first global minimum into a path that
  stays nonnegative until its last step; with a root step attached that is
  an excursion (:func:`vervaat_excursion`).
* Corners of a plane tree are indexed by contour time: corner ``i`` (for
  ``1 <= i <= 2n - 1``) is the corner passed at time ``i``, at the vertex
  visited at time ``i``, so its height is ``f(i)``.  The root corner
  (time 0) is never an insertion site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Size cap for exhaustive enumeration of excursions.
ENUMERATION_CAP = 12


class EnumerationCapExceeded(ValueError):
    """Raised when an exhaustive enumeration would exceed its size cap."""


def _as_int_array(values: Sequence[int]) -> np.ndarray:
    """A read-only int64 copy, so the caller's own array stays writeable and unshared."""
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _same_path(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes()  # both int64 vectors: equal bytes, equal paths


class LatticeExcursion:
    """A +-1 contour path of half-length ``n``: the encoding of a plane tree."""

    __slots__ = ("values", "n")

    def __init__(self, values: Sequence[int], validate: bool = True):
        arr = _as_int_array(values)
        if len(arr) % 2 != 1 or len(arr) < 3:
            raise ValueError("excursion must have odd length 2n+1 with n >= 1")
        self.values = arr
        self.n = (len(arr) - 1) // 2
        if validate:
            if arr[0] != 0 or arr[-1] != 0:
                raise ValueError("excursion must start and end at 0")
            if np.count_nonzero(np.abs(arr[1:] - arr[:-1]) != 1):
                raise ValueError("excursion steps must be +-1")
            if np.count_nonzero(arr[1:-1] <= 0):
                raise ValueError("excursion interior must be strictly positive")

    @classmethod
    def _of_own(cls, values: np.ndarray) -> "LatticeExcursion":
        """The excursion of a valid int64 path that no caller holds, kept uncopied."""
        exc = object.__new__(cls)
        values.setflags(write=False)
        exc.values, exc.n = values, (len(values) - 1) // 2
        return exc

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeExcursion) and _same_path(self.values, other.values)

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"LatticeExcursion({list(self.values)})"

    def as_tuple(self) -> tuple:
        return tuple(int(v) for v in self.values)

    def max_height(self) -> int:
        return int(self.values.max())

    def steps_string(self) -> str:
        return "".join("U" if d > 0 else "D" for d in np.diff(self.values))

    @classmethod
    def from_steps(cls, text: str) -> "LatticeExcursion":
        vals = [0]
        for ch in text.strip():
            if ch == "U":
                vals.append(vals[-1] + 1)
            elif ch == "D":
                vals.append(vals[-1] - 1)
            else:
                raise ValueError(f"invalid step character {ch!r}")
        return cls(vals)

    def to_parens(self) -> str:
        """The coded tree as nested parentheses: ``(`` per up-step, ``)`` per down-step."""
        return self.steps_string().replace("U", "(").replace("D", ")")

    @classmethod
    def from_parens(cls, text: str) -> "LatticeExcursion":
        return cls.from_steps(text.strip().replace("(", "U").replace(")", "D"))


class PlaneTree:
    """Rooted ordered tree with root of degree one, vertices numbered in contour order.

    ``parent[v]`` is the parent of vertex ``v`` (``parent[0] = -1`` for the
    root), ``children[v]`` lists children left to right, ``vertex_at_time[t]``
    is the vertex visited at contour time ``t``, and ``depth[v]`` is the
    distance from the root.
    """

    __slots__ = ("n", "parent", "children", "vertex_at_time", "depth")

    def __init__(self, parent, children, vertex_at_time, depth):
        self.parent = parent
        self.children = children
        self.vertex_at_time = vertex_at_time
        self.depth = depth
        self.n = len(parent) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneTree) and self.parent == other.parent and \
            self.children == other.children

    def __hash__(self) -> int:
        return hash(tuple(self.parent))

    def __repr__(self) -> str:
        return f"PlaneTree(parens={contour_of_tree(self).to_parens()!r})"

    def num_vertices(self) -> int:
        return self.n + 1

    def height(self) -> int:
        return max(self.depth)

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == 0 else 1)


def tree_of_contour(f: LatticeExcursion) -> PlaneTree:
    """Decode the plane tree whose contour function is ``f``."""
    vals = f.values.tolist()
    two_n = len(vals) - 1
    parent = [-1]
    children: list[list[int]] = [[]]
    depth = [0]
    vertex_at_time = [0] * (two_n + 1)
    stack = [0]
    nxt = 1
    for t in range(1, two_n + 1):
        if vals[t] > vals[t - 1]:
            parent.append(stack[-1])
            children.append([])
            children[stack[-1]].append(nxt)
            depth.append(vals[t])
            vertex_at_time[t] = nxt
            stack.append(nxt)
            nxt += 1
        else:
            stack.pop()
            vertex_at_time[t] = stack[-1]
    return PlaneTree(parent, children, vertex_at_time, depth)


def contour_of_tree(t: PlaneTree) -> LatticeExcursion:
    """Contour excursion of a plane tree; inverse of :func:`tree_of_contour`."""
    vals = [0]
    # iterative contour walk: (vertex, next-child pointer)
    stack = [(0, 0)]
    while stack:
        v, k = stack[-1]
        if k < len(t.children[v]):
            stack[-1] = (v, k + 1)
            c = t.children[v][k]
            vals.append(t.depth[c])
            stack.append((c, 0))
        else:
            stack.pop()
            if stack:
                vals.append(t.depth[stack[-1][0]])
    return LatticeExcursion(vals, validate=False)


@dataclass(frozen=True)
class HeightProfile:
    """Vertex counts per height: ``z[k]`` vertices at distance ``k`` from the root."""

    z: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.z)

    def __getitem__(self, k: int) -> int:
        return self.z[k] if 0 <= k < len(self.z) else 0


class LabeledTree:
    """Rooted tree on labels ``1..n``; ``parent[v] = 0`` marks the root."""

    __slots__ = ("n", "root", "parent")

    def __init__(self, n: int, root: int, parent: list[int]):
        self.n = n
        self.root = root
        self.parent = parent
        if parent[root] != 0:
            raise ValueError("root must have parent 0")

    def __eq__(self, other) -> bool:
        return isinstance(other, LabeledTree) and self.root == other.root and \
            self.parent == other.parent

    def __hash__(self) -> int:
        return hash((self.root, tuple(self.parent)))

    def __repr__(self) -> str:
        return f"LabeledTree(n={self.n}, root={self.root}, parent={self.parent[1:]})"

    def edges(self) -> set[frozenset]:
        return {frozenset((v, self.parent[v])) for v in range(1, self.n + 1) if v != self.root}

    def heights(self) -> list[int]:
        """Distance from the root per label (index 0 unused).

        Pointer doubling: after ``k`` rounds ``anc[v]`` is the ancestor
        ``2^k`` steps up (or the root) and ``d[v]`` the distance to it, so
        ``log2 n`` rounds reach the root from every label of a tree.
        """
        anc = np.array(self.parent, dtype=np.int64)
        anc[self.root] = self.root
        d = np.ones(self.n + 1, dtype=np.int64)
        d[0] = d[self.root] = 0
        for _ in range((self.n - 1).bit_length()):
            d += d[anc]
            anc = anc[anc]
        if (anc[1:] != self.root).any():
            raise ValueError("parent array is not a tree rooted at root")
        h = d.tolist()
        h[0] = -1
        return h


def height_profile(t: LabeledTree) -> HeightProfile:
    """Counts of vertices at each distance from the root."""
    depths = np.array(t.heights()[1:], dtype=np.int64)
    return HeightProfile(tuple(np.bincount(depths).tolist()))


def vervaat_excursion(steps) -> LatticeExcursion:
    """The excursion of half-length ``n`` that the cycle lemma gives a bridge.

    ``steps`` are the ``2n - 1`` +-1 steps of a bridge from 0 to -1, ``n - 1``
    of them up; they are not checked.  Read cyclically from just after the
    first minimum ``m`` of their partial sums ``c`` (Vervaat's transform), they
    stay nonnegative until the last step; with the root step attached that is
    ``0, c[k:] - m + 1, c[:k+1] - m``, where ``k`` is the position of the
    minimum.  All ``2n - 1`` cyclic shifts of a bridge give the same excursion,
    so a uniform bridge gives a uniform excursion.
    """
    c = np.add.accumulate(steps)
    k = int(c.argmin())
    low = int(c[k])
    two_n = len(c) + 1
    values = np.empty(two_n + 1, dtype=np.int64)
    values[0] = 0
    np.add(c[k:], 1 - low, out=values[1:two_n - k])
    np.subtract(c[:k + 1], low, out=values[two_n - k:])
    return LatticeExcursion._of_own(values)


def enumerate_excursions(n: int) -> list[LatticeExcursion]:
    """All contour excursions of half-length ``n``; there are Catalan(n-1) of them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    out: list[LatticeExcursion] = []
    # interior = 1 + Dyck path of length 2n-2
    path = [0] * (2 * n + 1)
    path[1] = 1
    path[2 * n - 1] = 1

    def extend(t: int) -> None:
        if t == 2 * n - 1:
            if path[t - 1] == 2:
                out.append(LatticeExcursion(list(path), validate=False))
            return
        h = path[t - 1]
        remaining = (2 * n - 1) - t
        if h + 1 - 1 <= remaining:
            path[t] = h + 1
            extend(t + 1)
        if h - 1 >= 1 and h - 1 - 1 <= remaining:
            path[t] = h - 1
            extend(t + 1)

    if n == 1:
        return [LatticeExcursion([0, 1, 0], validate=False)]
    extend(2)
    return out


def catalan(k: int) -> int:
    """The k-th Catalan number."""
    from math import comb

    return comb(2 * k, k) // (k + 1)


def excursion_count(n: int) -> int:
    """Number of contour excursions of half-length n: (1/n) * C(2n-2, n-1)."""
    from math import comb

    return comb(2 * n - 2, n - 1) // n
