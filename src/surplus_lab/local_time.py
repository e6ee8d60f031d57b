"""Occupation counts, corner weights for the tilted ensembles, and the coded tree.

For an excursion ``f`` of half-length ``n``:

* ``L(f; y) = #{0 <= j <= 2n : f(j) = y}`` counts the visits to level ``y``
  (:func:`level_occupancy`).
* The breadth-first weight of corner ``i`` counts the later corners at the
  same height or one level below:
  ``B(f; i) = #{j in [max(i,1), 2n-1] : f(j) in {f(i), f(i)-1}}``.
* The depth-first weight counts the later corners incident to ancestors of
  the corner's vertex: ``D(f; i) = #{j in [i, 2n-1] : f(j) = min f[i..j] >= 1}``.

Totals ``B(f)`` and ``D(f)`` sum the per-corner weights over all of
``i = 0..2n``; the boundary corners contribute zero.

Every corner set is read off one sorted corner index, the interior corners
ordered by (level, time) (:func:`corner_index`).  A level is one block of the
index, and the corners of a level from a time on are a run of that block.  For an
interior corner ``j`` let ``q(j)`` be the last time before ``j`` at level
``f(j) - 1`` (``q(j) = 0`` when ``f(j) = 1``).  Then:

* the breadth-first partners of ``i`` are the run of its block from ``i`` on,
  then the run of the block one level down from ``i`` on, so ``B(f; i)`` is
  two gathers;
* ``j`` is a depth-first partner of ``i`` exactly when ``q(j) < i <= j``, so
  ``D(f; i) = #{j : q(j) < i <= j}`` and ``D(f) = sum_j (j - q(j))``.

Let ``m = 2n - 1`` be the number of interior corners and ``down(k)`` the
position of the first corner one level below index position ``k`` after it.  A
corner at position ``k`` and level ``y`` has ``B(f; k) = (start(y+1) - k) +
(start(y) - down(k))``, where ``start(y)`` opens level ``y``'s block.  The block
bounds sum to ``m^2`` and the positions to ``m(m-1)/2``, so the breadth-first
total is ``B(f) = m(m+1)/2 - sum_k down(k)``; likewise ``D(f) = m(m+1)/2 -
sum_j q(j)``.

The same index names the vertices of the coded tree (:func:`contour_tree`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lattice_paths import LatticeExcursion


def level_occupancy(f: LatticeExcursion) -> np.ndarray:
    """Visit counts per level at the terminal time (no field construction)."""
    return np.bincount(f.values)


class CornerIndex(NamedTuple):
    """The interior corners sorted by (level, time).

    The ``k``-th corner has time ``times[k]``, level ``levels[k]`` and
    ``q[k] = q(times[k])``; ``down[k]`` is the position of the first corner one
    level down after it.  ``start[y]`` is the position of level ``y``'s first
    corner, and ``pos[t]`` the position of time ``t`` (``-1`` at the boundary
    times).  ``down`` is nondecreasing: a level's block points into the block
    one level below it.
    """

    times: np.ndarray
    levels: np.ndarray
    start: np.ndarray
    q: np.ndarray
    down: np.ndarray
    pos: np.ndarray


def corner_index(values) -> CornerIndex:
    """One stable sort by level, then ``q`` by a forward fill: ``q(j) = j - 1``
    after an up-step, and after a down-step the path stayed above ``f(j)`` since
    the previous corner at that level, which has the same ``q``."""
    values = np.asarray(values, dtype=np.int64)
    interior = values[1:-1]
    span = len(values)  # heights stay below span / 2, so below 2^15 when span < 2^16
    # the time before each corner, in index order
    before = interior.astype(np.int16 if span < 2 ** 16 else np.int32).argsort(kind="stable")
    times = before + 1
    counts = np.bincount(interior)
    start = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add.accumulate(counts, out=start[1:])
    rank = np.arange(len(times))
    up = interior > values[:-2]  # the step into each interior time, in time order
    q = before[np.maximum.accumulate(rank * up[before])]  # from the block's last up-step
    pos = np.empty(span, dtype=np.int64)
    pos[times] = rank
    pos[0] = pos[-1] = -1  # pos[0] = -1: q = 0 has no corner below
    return CornerIndex(times, interior[before], start, q, pos[q] + 1, pos)


def vertex_times(values) -> np.ndarray:
    """The time of each vertex's up-step in the tree a contour codes, 0 for the root:
    vertex ``k`` is created by the ``k``-th up-step, so its depth is ``f(times[k])``."""
    values = np.asarray(values, dtype=np.int64)
    return np.concatenate([[0], np.flatnonzero(values[1:] > values[:-1]) + 1])


def contour_tree(values, index: CornerIndex) -> tuple[np.ndarray, np.ndarray]:
    """``(at, parent)`` of the tree a contour codes, read off its corner index: ``at[t]`` is
    the vertex visited at time ``t``, at an interior time the one created by the up-step at
    ``q(t) + 1``; ``parent[k]`` is the vertex visited just before vertex ``k``'s up-step
    (``-1`` for the root).  ``index`` is :func:`corner_index` of ``values``."""
    values = np.asarray(values, dtype=np.int64)
    ups = np.cumsum(values[1:] > values[:-1])  # ups[t]: the up-steps up to time t + 1
    at = np.zeros(len(values), dtype=np.int64)  # the boundary times visit the root
    at[index.times] = ups[index.q]
    times = vertex_times(values)
    parent = at[times - 1]  # times[0] - 1 = -1 reads the root's last visit
    parent[0] = -1
    return at, parent


def bf_per_index(index: CornerIndex) -> np.ndarray:
    """All breadth-first corner weights ``B(f; i)``, ``i = 0..2n``, off the corner index of
    ``f``: the corners from ``i`` on at its level plus those one level down."""
    out = np.zeros(len(index.pos), dtype=np.int64)
    same = index.start[index.levels + 1] - np.arange(len(index.times))
    out[index.times] = same + index.start[index.levels] - index.down
    return out


def corner_total(index: CornerIndex, mode: str) -> int:
    """The total ``B(f)`` (``mode="bf"``) or ``D(f)`` (``"df"``) off the corner index of ``f``
    in closed form, ``m(m+1)/2`` less the sum of ``down`` or of ``q`` over the ``m`` corners."""
    m = len(index.times)
    return m * (m + 1) // 2 - int((index.down if mode == "bf" else index.q).sum())


def df_per_index(index: CornerIndex) -> np.ndarray:
    """All depth-first corner weights ``D(f; i)``, ``i = 0..2n``, off the corner index of
    ``f``: ``#{j : q(j) < i} - #{j : j < i}``, one difference array."""
    span = len(index.pos)
    return np.cumsum(np.bincount(index.q + 1, minlength=span)
                     - np.bincount(index.times + 1, minlength=span))


class Functional(NamedTuple):
    raw: float
    scaled: float


def sq_localtime_functional(f: LatticeExcursion) -> Functional:
    """Sum of squared terminal level counts, with its (2n)^{-3/2} scaling."""
    occ = level_occupancy(f)
    raw = float(int(occ @ occ))  # below 2^53: the float that summing the squares in floats gives
    two_n = 2 * f.n
    return Functional(raw, raw / two_n ** 1.5)


def inverse_height_functional(f: LatticeExcursion) -> Functional:
    """Sum of reciprocal interior heights, with its (2n)^{-1/2} scaling."""
    interior = f.values[1:-1].astype(np.float64)
    raw = float(np.sum(1.0 / interior)) if len(interior) else 0.0
    two_n = 2 * f.n
    return Functional(raw, raw / two_n ** 0.5)


def area_functional(f: LatticeExcursion) -> Functional:
    """Trapezoid area under the path, the sum of its values since both ends are 0; scaled
    value is 2*area/(2n)^{3/2}."""
    raw = float(int(f.values.sum()))
    two_n = 2 * f.n
    return Functional(raw, 2.0 * raw / two_n ** 1.5)
