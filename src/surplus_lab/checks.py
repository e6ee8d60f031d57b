"""Identity suites: bijections, counts, gluing dichotomies, fiber counts, and the seeded
Monte Carlo checks of the radius invariance, the local-time/area identity and Lemma 3.

Each suite returns a :class:`SuiteResult`, one named row per check, so the CLI and the
acceptance tests share a single implementation of every identity.  A suite's signature
declares the ``verify`` options it reads and their defaults.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from math import sqrt

import numpy as np

from .estimators import decoration_gap_estimates, gap_trend_steps, jeulin_check, um_count_identity
from .lattice_paths import (
    EnumerationCapExceeded,
    catalan,
    enumerate_excursions,
    excursion_count,
    vervaat_excursion,
)
from .local_time import contour_tree, corner_index, vertex_times
from .maps import (
    PermutationPairing,
    all_pairings,
    bf_explore,
    bfs_distances,
    df_explore,
    enumerate_admissible,
    entangled_pairings,
    insert_edges,
    is_entangled,
    metric_from_root,
    unicellular_glue,
)
from .samplers import (
    RngStream,
    decoration_count,
    enumerate_maps,
    enumerate_surplus_graphs,
    range_rows,
    replicate_rows,
    sample_uniform_excursion,
    sample_corners_bf,
    tree_profile_of_labels,
    w1_weight,
)


@dataclass
class SuiteResult:
    """Checks as ``(label, ok, detail, value, line)``.  ``ok`` is a verdict, or ``None`` for
    a row that only reports its ``value``; ``line`` replaces the label and detail on the
    verdict's printed line."""

    name: str
    checks: list[tuple] = field(default_factory=list)

    def add(self, label: str, ok: bool | None, detail="", value="", line: str = "") -> None:
        self.checks.append((label, None if ok is None else bool(ok), detail, value, line))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, *_ in self.checks if ok is not None)

    def rows(self) -> list[list]:
        """``[check, value, detail, ok]`` rows; an exact check has no value, and a row
        with no verdict leaves ``ok`` empty."""
        return [[label, value, detail, "" if ok is None else int(ok)]
                for label, ok, detail, value, _ in self.checks]

    def lines(self) -> list[str]:
        """One ``PASS`` or ``FAIL`` line per verdict."""
        return [f"{'PASS' if ok else 'FAIL'} {self.name}:"
                + (line or label + (f" [{detail}]" if detail else ""))
                for label, ok, detail, _, line in self.checks if ok is not None]


# The fewest (excursion, exploration) items per process a bijection cell starts.  An item
# costs about 0.9 ms at k = 4, j = 1 and 40 ms at k = 5, j = 2, against about 3.5 ms for a
# fork, so the cells with k <= 3 (at most four items) run in this process and the ten
# items at k = 4 split in two.
MIN_BIJECTION_RANGE = 5
# The fewest excursions per process the gluing dichotomy starts: an excursion costs about
# 9 ms at k = 5, so the 14 there fork and the 5 at k = 4 (about 2 ms each) do not.
MIN_DICHOTOMY_RANGE = 7
# The largest n the bijection suite runs at each surplus s.  A map costs about 64 us in one
# process, so each cap keeps a run to about a minute on one CPU: the suite builds 565k maps
# at n = 7, s = 2 (2.8 million at n = 8), 405k at n = 5, s = 3 and 85k at n = 3, s = 4.
BIJECTION_CAPS = {1: 8, 2: 7, 3: 5, 4: 3}


def bijection_suite(n: int = 5, s: int = 2) -> SuiteResult:
    """Exploration/insertion round trips and the three-way count equality.

    Each (k, j) cell runs its items in chunks on every CPU (:func:`range_rows`).  An item
    is an excursion with k up-steps and one exploration, breadth-first and depth-first in
    turn.  A chunk sends back each item's round-trip verdict and, for each map it built,
    the exploration that built it and the map's canonical key as one ``uint8`` row.  The
    key's entries are half-edges, fewer than 2(k + j) <= 18 under :data:`BIJECTION_CAPS`,
    which this suite checks before it starts."""
    if s < 1:  # with no surplus edge the suite would check nothing
        raise ValueError(f"s must be >= 1, got {s}")
    if n > BIJECTION_CAPS.get(s, 0):  # refused here, not after the smaller cells have run
        raise EnumerationCapExceeded(f"n={n}, s={s} too large for the bijection suite, whose "
                                     f"largest n per s is {BIJECTION_CAPS}")
    res = SuiteResult("bijection")
    modes = (("bf", bf_explore), ("df", df_explore))
    for k in range(1, n + 1):
        excursions = enumerate_excursions(k)
        for j in range(1, s + 1):
            width = 4 * (k + j)  # the half-edges of an alpha key and then of a sigma key

            def cell(start, stop):
                verdicts, flags, keys = [], [], []
                for item in range(start, stop):
                    f, (mode, explore) = excursions[item // 2], modes[item % 2]
                    ok = True
                    for xi in enumerate_admissible(f, j, mode):
                        m = insert_edges(f, xi)
                        alpha_key, sigma_key = m.canonical_key()
                        keys.append(bytes(alpha_key + sigma_key))
                        flags.append(item % 2)
                        f2, xi2 = explore(m)
                        ok = ok and f2 == f and xi2 == xi
                    verdicts.append(ok)
                return [verdicts, np.array(flags, dtype=np.uint8),
                        np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, width)]

            verdicts, flags, keys = range_rows(2 * len(excursions), cell, MIN_BIJECTION_RANGE)
            keys = keys.view(f"V{width}").ravel()  # one bytes scalar a row: np.unique sorts it fast
            built = []
            for side, (mode, _) in enumerate(modes):
                ours = keys[flags == side]
                built.append(np.unique(ours))  # a key built twice shows as a shortfall
                res.add(f"{mode}-roundtrip-n{k}-s{j}",
                        verdicts[side::2].all() and len(built[side]) == len(ours),
                        f"{len(built[side])} maps")
            res.add(f"same-map-set-n{k}-s{j}", np.array_equal(*built),
                    f"bf={len(built[0])} df={len(built[1])}")
    return res


def count_suite(n: int = 10) -> SuiteResult:
    """Excursion counts against the closed form, plus the first map counts."""
    res = SuiteResult("counts")
    for k in range(1, n + 1):
        expected = excursion_count(k)
        got = len(enumerate_excursions(k))
        res.add(f"excursions-n{k}", got == expected, f"{got} vs {expected}")
        res.add(f"catalan-n{k}", expected == catalan(k - 1))
    res.add("maps-n1-s1", len(enumerate_maps(1, 1)) == 1)
    res.add("maps-n2-s1", len(enumerate_maps(2, 1)) == 5)
    return res


def w1_suite(n: int = 6) -> SuiteResult:
    """Symmetrized-tree weights summed over all rooted labeled trees equal
    the rooted unit-surplus graph count, for 2 <= k <= n.

    The trees on [k] are read as their ``k^(k-1)`` label sequences, whose level
    counts :func:`tree_profile_of_labels` walks off as :func:`sample_tree_profile`
    draws them: each tree shape arises from as many sequences as labeled trees."""
    if n < 2:  # the first size checked is 2
        raise ValueError(f"n must be >= 2, got {n}")
    res = SuiteResult("w1")
    for k in range(2, n + 1):
        rhs = len(enumerate_surplus_graphs(k, 1))  # first, as it refuses a k above its cap
        profiles = Counter(tree_profile_of_labels(labels, k)
                           for labels in product(range(1, k + 1), repeat=k - 1))
        trees = sum(profiles.values())
        total = sum(count * w1_weight(profile) for profile, count in profiles.items())
        res.add(f"tree-count-n{k}", trees == k ** (k - 1), f"{trees}")
        res.add(f"w1-sum-n{k}", total == rhs, f"{total} vs {rhs}")
        if k == 3:
            res.add("w1-n3-value", total == 3, f"{total}")
    return res


def psi_suite(n: int = 5) -> SuiteResult:
    """Corner-tuple totals match the brute count of distinct-corner unicellular maps, for
    2 <= k <= n."""
    if n < 2:  # the first size checked is 2
        raise ValueError(f"n must be >= 2, got {n}")
    res = SuiteResult("psi")
    for k in range(2, n + 1):
        lhs, rhs = um_count_identity(k)
        res.add(f"identity-n{k}", lhs == rhs, f"{lhs} vs {rhs}")
        if k == 2:
            res.add("n2-zero", lhs == 0)
        if k == 3:
            res.add("n3-value", lhs == 3, f"{lhs}")
    return res


def vervaat_suite(n: int = 6) -> SuiteResult:
    """Every step vector with k up-steps and k + 1 down-steps, rotated by
    :func:`vervaat_excursion` as :func:`sample_uniform_excursion` rotates its draws,
    lands on an excursion, each of the Catalan(k) excursions with 2k + 1 preimages:
    a uniform bridge gives a uniform excursion.  Capped at n = 8."""
    if n > 8:
        raise EnumerationCapExceeded(f"n={n} exceeds enumeration cap 8")
    res = SuiteResult("vervaat")
    for k in range(1, n + 1):
        fibers = Counter()
        total = 0
        for ups in combinations(range(2 * k + 1), k):
            steps = np.full(2 * k + 1, -1, dtype=np.int64)
            steps[list(ups)] = 1
            total += 1
            f = vervaat_excursion(steps)
            if f.values[1:-1].min() <= 0:
                res.add(f"shape-n{k}", False, f"non-shape image {f.as_tuple()}")
                break
            fibers[f.values.tobytes()] += 1
        else:
            res.add(f"fiber-size-n{k}", set(fibers.values()) == {2 * k + 1},
                    f"{len(fibers)} shapes x {2 * k + 1}")
            res.add(f"shape-count-n{k}", len(fibers) == catalan(k), f"{len(fibers)}")
            res.add(f"bridge-count-n{k}", total == (2 * k + 1) * catalan(k))
    return res


def sg_suite() -> SuiteResult:
    """Pinned small entangled-pairing facts and order-convention agreement."""
    res = SuiteResult("sg")
    s1 = entangled_pairings(1)
    res.add("g1-unique", [str(p) for p in s1] == ["(1,3)(2,4)"], ",".join(map(str, s1)))
    res.add("g1-excludes-nested", not is_entangled(PermutationPairing(((1, 2), (3, 4)))))
    res.add("g1-excludes-disjoint", not is_entangled(PermutationPairing(((1, 4), (2, 3)))))
    ex1 = PermutationPairing.parse("(1,7)(2,5)(3,8)(4,6)")
    ex2 = PermutationPairing.parse("(1,3)(2,4)(5,7)(6,8)")
    res.add("g2-example-1", is_entangled(ex1))
    res.add("g2-example-2", is_entangled(ex2))
    first = {p for p in all_pairings(8) if is_entangled(PermutationPairing(p), "pairing-first")}
    second = {p for p in all_pairings(8) if is_entangled(PermutationPairing(p), "cycle-first")}
    res.add("g2-order-agreement", first == second, f"|S_(2)|={len(first)}")
    res.add("g2-examples-in-set", ex1.transpositions in first and ex2.transpositions in first)
    return res


def gluing_dichotomy_suite(n: int = 5) -> SuiteResult:
    """Gluing dichotomy: one face exactly when the pairing is entangled, for every genus-one
    gluing of every excursion with 3 <= k <= n up-steps.  The excursions of each size run
    in chunks on every CPU (:func:`range_rows`).  Capped at n = 8, about 2.1 million
    gluings; n = 9 would glue about 12.3 million times."""
    if n < 3:  # the first size with four corners to glue is 3
        raise ValueError(f"n must be >= 3, got {n}")
    if n > 8:
        raise EnumerationCapExceeded(f"n={n} exceeds enumeration cap 8")
    res = SuiteResult("dichotomy")
    g = 1
    pairings = [PermutationPairing(p) for p in all_pairings(4 * g)]
    entangled = {p.transpositions for p in entangled_pairings(g)}
    for k in range(3, n + 1):
        excursions = enumerate_excursions(k)

        def glue(start, stop):
            verdicts, tested = [], 0
            for f in excursions[start:stop]:
                ok = True
                for corners in combinations(range(1, 2 * k), 4 * g):
                    for pairing in pairings:
                        m, unicellular = unicellular_glue(f, pairing, corners)
                        tested += 1
                        if unicellular != (pairing.transpositions in entangled):
                            ok = False
                        genus = m.genus()
                        if genus not in (0, 1):
                            ok = False
                        if unicellular and genus != 1:
                            ok = False
                verdicts.append(ok)
            return [verdicts, [tested]]

        verdicts, tested = range_rows(len(excursions), glue, MIN_DICHOTOMY_RANGE)
        res.add(f"dichotomy-n{k}", verdicts.all(), f"{tested.sum()} gluings")
    return res


def _root_distances(at, parent, chord) -> list[int]:
    """Breadth-first distances from the root in the tree of :func:`contour_tree` plus the
    edge joining the vertices visited at the two contour times of ``chord``."""
    adj: list[list[int]] = [[] for _ in parent]
    edges = list(enumerate(parent.tolist()))[1:] + [tuple(at[list(chord)].tolist())]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return bfs_distances(adj, 0)


def radius_invariance_suite(n: int = 1000, reps: int = 10_000,
                            seed: int = 20_240_501) -> SuiteResult:
    """Map radius equals exploration-tree height; ball volumes match level counts
    (every map with n <= 4, then sampled maps), a breadth-first search against the
    contour, where vertex ``k`` sits at the height of the ``k``-th up-step.  The sampled
    maps run in replicate chunks on every CPU (:func:`replicate_rows`)."""
    res = SuiteResult("radius")
    for k in range(1, 5):
        for s in range(0, 3):
            ok = True
            for m in enumerate_maps(k, s):
                f = bf_explore(m)[0]
                metric = metric_from_root(m)
                depths = np.bincount(f.values[vertex_times(f.values)]).tolist()
                if metric.radius != f.max_height() or list(metric.level_counts) != depths:
                    ok = False
            res.add(f"enumerated-n{k}-s{s}", ok)
    # sampled maps: decorate uniform trees with one surplus edge, one 0/1 verdict each
    def verdicts(gens, _):
        out = []
        for gen in gens:
            exc = sample_uniform_excursion(n, gen)
            index = corner_index(exc.values)
            (chord,), _ = sample_corners_bf(index, 1, gen)
            dist = _root_distances(*contour_tree(exc.values, index), chord)
            depths = np.bincount(exc.values[vertex_times(exc.values)]).tolist()
            out.append(max(dist) == exc.max_height() and np.bincount(dist).tolist() == depths)
        return [out]

    sampled, = replicate_rows(reps, RngStream(seed), verdicts)
    res.add(f"sampled-n{n}-x{reps}", bool(sampled.all()))
    return res


def decoration_count_suite(n: int = 5) -> SuiteResult:
    """Closed-form decoration counts against exhaustive enumeration."""
    res = SuiteResult("decoration-count")
    for mode in ("bf", "df"):
        for s in (1, 2):
            res.add(f"{mode}-s{s}-n<={n}",
                    all(decoration_count(f, s, mode) == len(enumerate_admissible(f, s, mode))
                        for k in range(1, n + 1) for f in enumerate_excursions(k)))
    return res


def jeulin_suite(n: int = 2000, reps: int = 10_000, seed: int = 7,
                 threshold: float | None = None) -> SuiteResult:
    """The squared-occupancy law against twice the area law (:func:`jeulin_check`), within
    a KS ``threshold``; by default the level of 0.05 at 10^4 replicates, carried to
    ``reps``, which is below 1 only above 25 replicates."""
    threshold = 0.05 * sqrt(10_000 / reps) if threshold is None else threshold
    if threshold >= 1:  # a KS distance never exceeds 1, so the check could not fail
        raise ValueError(f"threshold must be < 1, got {threshold} at reps={reps}")
    res = SuiteResult("jeulin")
    stats = jeulin_check(n, reps, RngStream(seed))
    res.add("jeulin-ks", stats.ks <= threshold, threshold, stats.ks,
            f"ks n={n} reps={reps} ks={stats.ks:.5f} threshold={threshold}")
    res.add("jeulin-mean-sq", None, value=stats.mean_sq)
    res.add("jeulin-mean-area", None, value=stats.mean_area)
    return res


def lemma3_suite(s: int = 2, reps: int = 400, seed: int = 7) -> SuiteResult:
    """Lemma 3: the scaled decoration-count gap is nonincreasing in n, for both exploration
    orders.  A row per size holds the mean gap and its standard error, and the verdict of
    the step to that size (:func:`gap_trend_steps`)."""
    if s < 2:  # below two surplus edges the gap is identically 0 and the suite checks nothing
        raise ValueError(f"s must be >= 2, got {s}")
    res = SuiteResult("lemma3")
    for stream, mode in enumerate(("bf", "df")):
        ests = decoration_gap_estimates((50, 100, 200, 400), s, reps,
                                        RngStream(seed).substream(stream), mode)
        steps = [(ok, f"{mode}-step n={a.n}->{b.n} {a.mean:.6f}->{b.mean:.6f} slack={slack:.6f}")
                 for a, b, slack, ok in gap_trend_steps(ests)]
        for est, (ok, line) in zip(ests, [(None, ""), *steps]):
            res.add(f"{mode}-gap-n{est.n}", ok, est.se, est.mean, line)
    return res
