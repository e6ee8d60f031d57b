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


def bf_per_index(values: list[int]) -> list[int]:
    """Backward sweep computing all breadth-first corner weights in O(n)."""
    two_n = len(values) - 1
    cnt = [0] * (max(values) + 2)
    out = [0] * (two_n + 1)
    for i in range(two_n - 1, 0, -1):
        h = values[i]
        cnt[h] += 1
        out[i] = cnt[h] + cnt[h - 1]
    return out


def df_per_index(values: list[int]) -> list[int]:
    """Backward sweep computing all depth-first corner weights in O(n).

    Maintains, per level, the number of later times at which the running
    minimum from the current time sits at that level; stepping left past an
    up-step kills the level above.
    """
    two_n = len(values) - 1
    live = [0] * (max(values) + 2)
    total = 0
    out = [0] * (two_n + 1)
    for i in range(two_n - 1, 0, -1):
        h = values[i]
        if values[i + 1] == h + 1:
            total -= live[h + 1]
            live[h + 1] = 0
        live[h] += 1
        total += 1
        out[i] = total
    return out


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
    return sorted(t for ts in df_level_sets(f, i).values() for t in ts)


def df_level_sets(f: LatticeExcursion, i: int) -> dict[int, list[int]]:
    """The depth-first partner corners of ``i`` bucketed by their level.

    Level ``y`` holds the revisit times of the depth-``y`` ancestor of the
    corner's vertex, i.e. the times ``u >= i`` with ``f(u) = y`` and
    ``min f[i..u] >= y``.
    """
    vals = f.values
    two_n = len(vals) - 1
    buckets: dict[int, list[int]] = {}
    runmin = int(vals[i])
    for j in range(max(i, 1), two_n):
        v = int(vals[j])
        if v < runmin:
            runmin = v
        if runmin < 1:
            break
        if v == runmin:
            buckets.setdefault(v, []).append(j)
    return buckets


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
    total = int(np.sum(np.array(bf_per_index(vals))))
    return tele, total, boundary
