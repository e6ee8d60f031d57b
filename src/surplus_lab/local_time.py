"""Discrete local-time fields and the corner weights used by the tilted ensembles.

For an excursion ``f`` of half-length ``n``:

* ``L(f; t, y)`` counts visits ``#{0 <= j <= t : f(j) = y}`` at integer
  times and levels.
* The breadth-first weight of corner ``i`` counts the later corners at the
  same height or one level below:
  ``B(f; i) = #{j in [max(i,1), 2n-1] : f(j) in {f(i), f(i)-1}}``.
* The depth-first weight counts the later corners incident to ancestors of
  the corner's vertex: ``D(f; i) = #{j in [i, 2n-1] : f(j) = min f[i..j] >= 1}``.

Totals ``B(f)`` and ``D(f)`` sum the per-corner weights over all of
``i = 0..2n``; the boundary corners contribute zero.

Both weights are read off one sorted corner index, the interior corners
ordered by (level, time).  For an interior corner ``j`` let ``q(j)`` be the
last time before ``j`` at level ``f(j) - 1`` (``q(j) = 0`` when
``f(j) = 1``).  Then:

* ``B(f; i)`` is a same-level count, the corners from ``i`` on at level
  ``f(i)``, plus a count one level down, those from ``i`` on at ``f(i) - 1``;
* ``j`` is a depth-first partner of ``i`` exactly when ``q(j) < i <= j``, so
  ``D(f; i) = #{j : q(j) < i <= j}`` and ``D(f) = sum_j (j - q(j))``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lattice_paths import LatticeExcursion


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


def level_occupancy(f) -> np.ndarray:
    """Visit counts per level at the terminal time (no field construction)."""
    values = f.values if hasattr(f, "values") else np.asarray(f, dtype=np.int64)
    return np.bincount(values)


class _CornerIndex(NamedTuple):
    """The interior corners sorted by (level, time): the ``k``-th has time
    ``times[k]``, level ``levels[k]`` and ``q[k] = q(times[k])``; ``down[k]`` is
    the position of the first corner one level down after it, and ``start[y]``
    the position of level ``y``'s first corner."""

    times: np.ndarray
    levels: np.ndarray
    start: np.ndarray
    q: np.ndarray
    down: np.ndarray

    def bf_weights(self) -> np.ndarray:
        """``B(f; i)``: the corners from ``i`` on at its level plus those one level down."""
        out = np.zeros(len(self.times) + 2, dtype=np.int64)
        same = self.start[self.levels + 1] - np.arange(len(self.times))
        out[self.times] = same + self.start[self.levels] - self.down
        return out

    def df_weights(self) -> np.ndarray:
        """``D(f; i) = #{j : q(j) < i} - #{j : j < i}``, one difference array."""
        span = len(self.times) + 2
        return np.cumsum(np.bincount(self.q + 1, minlength=span)
                         - np.bincount(self.times + 1, minlength=span))


def _corner_index(values) -> _CornerIndex:
    """One stable sort by level, then ``q`` by a forward fill: ``q(j) = j - 1``
    after an up-step, and after a down-step the path stayed above ``f(j)`` since
    the previous corner at that level, which has the same ``q``."""
    values = np.asarray(values, dtype=np.int64)
    interior = values[1:-1]
    top = int(interior.max())
    times = np.argsort(interior.astype(np.int16 if top < 2 ** 15 else np.int32),
                       kind="stable") + 1
    levels = values[times]
    start = np.zeros(top + 2, dtype=np.int64)
    np.cumsum(np.bincount(interior, minlength=top + 1), out=start[1:])
    rank = np.arange(len(times))
    q = (times - 1)[np.maximum.accumulate(np.where(values[times - 1] < levels, rank, 0))]
    pos = np.empty(len(values), dtype=np.int64)
    pos[0] = -1  # q = 0 at level one: no corner one level down
    pos[times] = rank
    return _CornerIndex(times, levels, start, q, pos[q] + 1)


def bf_per_index(values) -> np.ndarray:
    """All breadth-first corner weights ``B(f; i)``, ``i = 0..2n``."""
    return _corner_index(values).bf_weights()


def df_per_index(values) -> np.ndarray:
    """All depth-first corner weights ``D(f; i)``, ``i = 0..2n``."""
    return _corner_index(values).df_weights()


def corner_window(f: LatticeExcursion, levels, lo: int, hi: int) -> np.ndarray:
    """Interior corners in ``[lo, hi)`` at each of ``levels`` in turn, ascending within a level.

    The admissible-corner sets of the breadth-first and unicellular gluings
    are all of this form: one or two adjacent levels, read in a time window.
    """
    lo = max(lo, 1)
    window = f.values[lo:min(hi, 2 * f.n)]
    return np.concatenate([np.flatnonzero(window == y) for y in levels]) + lo


def bf_index_set(f: LatticeExcursion, i: int) -> list[int]:
    """Corners ``j >= max(i, 1)``, ``j <= 2n-1`` at height ``f(i)`` or ``f(i)-1``."""
    h = int(f.values[i])
    return sorted(corner_window(f, (h, h - 1), i, 2 * f.n).tolist())


def df_index_set(f: LatticeExcursion, i: int) -> list[int]:
    """Corners ``j >= i`` at which the running minimum from ``i`` is attained (and >= 1)."""
    vals = f.values.tolist()
    return [j for j in range(max(i, 1), len(vals) - 1) if vals[j] == min(vals[i:j + 1])]


class Functional(NamedTuple):
    raw: float
    scaled: float


def sq_localtime_functional(f: LatticeExcursion) -> Functional:
    """Sum of squared terminal level counts, with its (2n)^{-3/2} scaling."""
    occ = level_occupancy(f)
    raw = float(np.sum(occ.astype(np.float64) ** 2))
    two_n = 2 * f.n
    return Functional(raw, raw / two_n ** 1.5)


def inverse_height_functional(f: LatticeExcursion) -> Functional:
    """Sum of reciprocal interior heights, with its (2n)^{-1/2} scaling."""
    interior = f.values[1:-1].astype(np.float64)
    raw = float(np.sum(1.0 / interior)) if len(interior) else 0.0
    two_n = 2 * f.n
    return Functional(raw, raw / two_n ** 0.5)


def area_functional(f: LatticeExcursion) -> Functional:
    """Trapezoid area under the path; scaled value is 2*area/(2n)^{3/2}."""
    vals = f.values.astype(np.float64)
    raw = float((vals[:-1] + vals[1:]).sum() / 2.0)
    two_n = 2 * f.n
    return Functional(raw, 2.0 * raw / two_n ** 1.5)


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
    return tele, int(bf_per_index(f.values).sum()), boundary
