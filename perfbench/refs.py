"""Reference computations made apart from surplus-lab.

Every output check of the benchmark compares the program's files against
one of these helpers or against a property the method must have.  None of
them imports ``surplus_lab``: each is written from the definition it
checks, and :func:`selfcheck` tries each one on exhaustive small cases
before any output is judged by it.
"""

from __future__ import annotations

import json
from itertools import product
from math import comb, log, pi, sqrt
from pathlib import Path

import numpy as np


# -- excursions ---------------------------------------------------------------


def redraw_excursion(seed: int, stream: tuple, n: int):
    """Uniform excursion of half-length ``n`` drawn on ``(seed, stream)``.

    The same draw the program's replicate makes on that stream: a uniform
    arrangement of ``n-1`` up and ``n`` down steps, rotated after its first
    global minimum (cycle lemma), with a root step in front.  Returns the
    heights ``f(0..2n)`` and the generator, positioned after the draw.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    gen = np.random.Generator(np.random.PCG64(ss))
    if n == 1:
        return np.array([0, 1, 0]), gen
    steps = gen.permutation(np.concatenate([np.ones(n - 1, dtype=np.int64),
                                            -np.ones(n, dtype=np.int64)]))
    walk = np.concatenate([[0], np.cumsum(steps)])
    low = int(np.argmin(walk))
    steps = np.concatenate([steps[low:], steps[:low]])
    return np.concatenate([[0], 1 + np.concatenate([[0], np.cumsum(steps)])]), gen


def all_excursions(n: int) -> list[tuple[int, ...]]:
    """Every excursion of half-length ``n`` that stays positive inside (0, 2n)."""
    out = []
    for bits in product((1, -1), repeat=2 * n - 2):
        heights = [0, 1]
        for b in bits:
            heights.append(heights[-1] + b)
            if heights[-1] < 1:
                break
        else:
            if heights[-1] == 1:
                out.append(tuple(heights + [0]))
    return out


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# -- corner weights, counted from their definitions ------------------------------


def bf_total(f) -> int:
    """B(f): pairs ``1 <= i <= j <= 2n-1`` with ``f(j)`` in ``{f(i), f(i)-1}``."""
    h = np.asarray(f, dtype=np.int64)[1:-1]
    later = np.triu(np.ones((len(h), len(h)), dtype=bool))
    hit = (h[None, :] == h[:, None]) | (h[None, :] == h[:, None] - 1)
    return int(np.count_nonzero(hit & later))


def df_total(f) -> int:
    """D(f): pairs ``i <= j`` of interior times with ``f(j) = min f[i..j]``."""
    h = np.asarray(f, dtype=np.int64)[1:-1]
    total = 0
    for i in range(len(h)):
        run_min = np.minimum.accumulate(h[i:])
        total += int(np.count_nonzero(h[i:] == run_min))
    return total


def inverse_height_sum(f) -> float:
    return float(sum(1.0 / x for x in np.asarray(f)[1:-1].tolist()))


def mean_scaled_area(n: int) -> float:
    """Exact mean of ``2 * area / (2n)^{3/2}`` over excursions of half-length ``n``.

    The interior of the excursion is one level above a Dyck path of
    half-length ``m = n - 1``, whose heights summed over all such paths are
    ``4^m - C(2m+1, m)``; the trapezoid area is the sum of interior heights.
    """
    m = n - 1
    height_sum = (2 * n - 1) + (4 ** m - comb(2 * m + 1, m)) / catalan(m)
    return 2.0 * height_sum / (2 * n) ** 1.5


# -- weighted laws ----------------------------------------------------------------


def kish_ess(weights) -> float:
    w = np.asarray(weights, dtype=np.float64)
    return float(w.sum() ** 2 / np.sum(w * w))


def weighted_ks(xa, wa, xb, wb) -> float:
    """Sup distance of two weighted empirical CDFs, both read at every atom."""
    grid = np.union1d(xa, xb)

    def cdf(x, w):
        order = np.argsort(x, kind="stable")
        x = np.asarray(x, dtype=np.float64)[order]
        cum = np.cumsum(np.asarray(w, dtype=np.float64)[order])
        cum /= cum[-1]
        idx = np.searchsorted(x, grid, side="right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)

    return float(np.max(np.abs(cdf(xa, wa) - cdf(xb, wb))))


def ks_critical(m: float, n: float, alpha: float) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value at level ``alpha``."""
    return sqrt(-log(alpha / 2.0) / 2.0) * sqrt((m + n) / (m * n))


# -- graphs -------------------------------------------------------------------------


def spanning_trees(n: int, edges) -> int:
    """Matrix-tree count from a floating log-determinant, rounded."""
    if n == 1:
        return 1
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u - 1, u - 1] += 1
        lap[v - 1, v - 1] += 1
        lap[u - 1, v - 1] -= 1
        lap[v - 1, u - 1] -= 1
    sign, logdet = np.linalg.slogdet(lap[1:, 1:])
    return int(round(np.exp(logdet))) if sign > 0 else 0


def is_connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {1}, [1]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


# -- maps stored as rotation systems ---------------------------------------------------


def map_shape(data: dict) -> dict:
    """Vertices, edges, faces, genus and root degree of a stored rotation system.

    ``data["rotation"]`` lists the cycles of the rotation ``sigma`` and
    ``data["involution"]`` gives ``alpha``; faces are the orbits of
    ``h -> sigma(alpha(h))`` and the genus follows from Euler's formula.
    """
    alpha = list(data["involution"])
    cycles = data["rotation"]
    sigma = [0] * len(alpha)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[a] = b
    seen = [False] * len(alpha)
    faces = 0
    for h0 in range(len(alpha)):
        if not seen[h0]:
            faces += 1
            h = h0
            while not seen[h]:
                seen[h] = True
                h = sigma[alpha[h]]
    vertices, edges = len(cycles), len(alpha) // 2
    chi = vertices - edges + faces
    root_cycle = next(c for c in cycles if data["root"] in c)
    return {"vertices": vertices, "edges": edges, "faces": faces,
            "genus": (2 - chi) / 2, "root_degree": len(root_cycle)}


def plane_tree_rotation(f) -> dict:
    """A rotation system of the plane tree with contour ``f`` (root of degree one)."""
    around: dict[int, list[int]] = {0: []}
    alpha: list[int] = []
    stack = [0]
    for t in range(1, len(f)):
        if f[t] > f[t - 1]:
            child = len(around)
            down, up = len(alpha), len(alpha) + 1
            alpha += [up, down]
            around[stack[-1]].append(down)
            around[child] = [up]
            stack.append(child)
        else:
            stack.pop()
    root = around[0][0]
    return {"involution": alpha, "rotation": list(around.values()), "root": root}


# -- exhaustive small cases ----------------------------------------------------------------


def selfcheck() -> list[str]:
    """Failures of the reference helpers on exhaustive small cases (empty when sound)."""
    bad = []
    for n in range(1, 7):
        if len(all_excursions(n)) != catalan(n - 1):
            bad.append(f"excursion generator at n={n}")
    maps_s1 = {n: sum(bf_total(f) for f in all_excursions(n)) for n in range(1, 6)}
    if maps_s1[1] != 1 or maps_s1[2] != 5:
        bad.append(f"sum of B(f) gives {maps_s1[1]}, {maps_s1[2]} maps at n=1, 2")
    for n in range(1, 6):
        if sum(df_total(f) for f in all_excursions(n)) != maps_s1[n]:
            bad.append(f"sum of D(f) differs from sum of B(f) at n={n}")
    for m in range(1, 8):
        paths = all_excursions(m + 1)
        exact = sum(sum(f[1:-1]) for f in paths) / len(paths)
        if abs(mean_scaled_area(m + 1) - 2.0 * exact / (2 * m + 2) ** 1.5) > 1e-12:
            bad.append(f"closed-form excursion area at n={m + 1}")
    for n in range(2, 9):
        complete = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        if spanning_trees(n, complete) != n ** (n - 2):
            bad.append(f"log-determinant misses Cayley's formula at n={n}")
    for k in range(3, 40):
        cycle = [(i, i % k + 1) for i in range(1, k + 1)]
        if spanning_trees(k, cycle) != k:
            bad.append(f"log-determinant misses the {k}-cycle")
    for n in range(1, 6):
        for f in all_excursions(n):
            shape = map_shape(plane_tree_rotation(f))
            if (shape["faces"], shape["genus"], shape["vertices"], shape["root_degree"]) \
                    != (1, 0, n + 1, 1):
                bad.append(f"face counter on plane tree {f}")
    if kish_ess(np.ones(17)) != 17.0 or weighted_ks([1, 2], [1, 1], [1, 2], [2, 2]) != 0.0:
        bad.append("Kish ESS or KS distance on equal laws")
    return bad


def load_json(path: Path):
    return json.loads(path.read_text())


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


SQRT_PI_OVER_2 = sqrt(pi / 2.0)
