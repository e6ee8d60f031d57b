"""Rooted combinatorial maps, their explorations, and unicellular gluings.

A map is stored as a rotation system on dense half-edge ids: ``sigma[h]`` is
the next half-edge clockwise around the origin vertex of ``h``, ``alpha[h]``
is the opposite half-edge, and a distinguished root half-edge marks the root
vertex (required to have degree one).  Faces are the orbits of
``h -> sigma[alpha[h]]``, matching a contour walk that always turns to the
next edge after the one it arrived by; a plane tree then has exactly one
face.  Genus comes from Euler's formula.

Surplus edges are recorded against the contour excursion of a spanning plane
tree as a decoration: a list of corner indices (contour times) plus small
integer tags that order parallel insertions sharing a corner.
``insert_edges`` builds the map of a decorated excursion in one pass over the
contour.  The breadth-first and depth-first explorations invert it with one
shared contour walk of the map, which reads the excursion and the decoration
together: breadth-first hands the walk its spanning tree, depth-first lets the
walk choose the tree as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, islice, permutations, product
from operator import itemgetter

import numpy as np

from .lattice_paths import EnumerationCapExceeded, LatticeExcursion, PlaneTree
from .local_time import corner_index

SG_CAP = 3
TUPLE_ENUMERATION_CAP = 10  # largest n for genus >= 2 tuple counts, which enumerate the tuples
_CANONICAL_ORDER = itemgetter(0, 2, 1)  # decoration pairs (i1, k1, i2, k2) sort by (i1, i2, k1)


def _orbits(perm) -> tuple[list[list[int]], list[int]]:
    """The cycles of a permutation of ``0..len-1``, each walked from its smallest
    element, in increasing order of that element; and each element's cycle number."""
    label = [-1] * len(perm)
    cycles = []
    for h0 in range(len(perm)):
        if label[h0] < 0:
            cyc = []
            h = h0
            while label[h] < 0:
                label[h] = len(cycles)
                cyc.append(h)
                h = perm[h]
            cycles.append(cyc)
    return cycles, label


class RootedMap:
    """Rooted map on half-edges 0..2E-1 with clockwise rotations."""

    __slots__ = ("sigma", "alpha", "root", "origin", "_cycles")

    def __init__(self, sigma, alpha, root: int, check: bool = True):
        self.sigma = list(sigma)
        self.alpha = list(alpha)
        self.root = root
        self._cycles, self.origin = _orbits(self.sigma)
        if check:
            self._check()

    # -- structure -------------------------------------------------------

    def _check(self):
        n_half = len(self.sigma)
        if n_half % 2:
            raise ValueError("odd number of half-edges")
        if sorted(self.sigma) != list(range(n_half)):
            raise ValueError("rotation is not a permutation")
        if len(self.alpha) != n_half:
            raise ValueError("involution length mismatch")
        for h in range(n_half):
            if self.alpha[h] == h or self.alpha[self.alpha[h]] != h:
                raise ValueError("involution is not fixed-point-free")
        if not 0 <= self.root < n_half:
            raise ValueError("root half-edge out of range")
        # connectivity: half-edges reachable via sigma and alpha
        seen = [False] * n_half
        stack = [self.root]
        seen[self.root] = True
        count = 0
        while stack:
            h = stack.pop()
            count += 1
            for g in (self.sigma[h], self.alpha[h]):
                if not seen[g]:
                    seen[g] = True
                    stack.append(g)
        if count != n_half:
            raise ValueError("map is not connected")
        if self.degree(self.origin[self.root]) != 1:
            raise ValueError("root vertex must have degree one")

    @property
    def num_vertices(self) -> int:
        return len(self._cycles)

    @property
    def num_half_edges(self) -> int:
        return len(self.sigma)

    @property
    def num_edges(self) -> int:
        return self.num_half_edges // 2

    @property
    def n(self) -> int:
        """Number of non-root vertices."""
        return self.num_vertices - 1

    @property
    def surplus(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def degree(self, v: int) -> int:
        return sum(1 for h in range(self.num_half_edges) if self.origin[h] == v)

    def rotation_cycles(self) -> list[list[int]]:
        """The vertex rotations, as computed once at construction; do not mutate."""
        return self._cycles

    # -- faces and genus ---------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Orbits of the face permutation (rotation after the involution)."""
        return _orbits([self.sigma[a] for a in self.alpha])[0]

    def genus(self) -> int:
        chi = self.num_vertices - self.num_edges + len(self.faces())
        if chi % 2:
            raise ValueError("odd Euler characteristic: corrupt map")
        return (2 - chi) // 2

    def is_unicellular(self) -> bool:
        return len(self.faces()) == 1

    # -- identity ----------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Renumber half-edges by a deterministic root-first traversal.

        Two rooted maps are isomorphic exactly when their keys agree: the
        traversal order is determined by the structure and the root alone.
        """
        order: dict[int, int] = {}
        rev: list[int] = []
        root_v = self.origin[self.root]
        vqueue = [(root_v, self.root)]
        seen_v = {root_v}
        qi = 0
        while qi < len(vqueue):
            _, start = vqueue[qi]
            qi += 1
            h = start
            while True:
                order[h] = len(rev)
                rev.append(h)
                back = self.alpha[h]
                w = self.origin[back]
                if w not in seen_v:
                    seen_v.add(w)
                    vqueue.append((w, back))
                h = self.sigma[h]
                if h == start:
                    break
        new_alpha = tuple(order[self.alpha[g]] for g in rev)
        new_sigma = tuple(order[self.sigma[g]] for g in rev)
        return (new_alpha, new_sigma)

    def __eq__(self, other) -> bool:
        return isinstance(other, RootedMap) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"RootedMap(V={self.num_vertices}, E={self.num_edges}, genus={self.genus()})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "s": self.surplus,
            "root": self.root,
            "involution": list(self.alpha),
            "rotation": self.rotation_cycles(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RootedMap":
        try:
            alpha = list(data["involution"])
            cycles = data["rotation"]
            root = data["root"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"map JSON missing field: {exc}") from exc
        n_half = len(alpha)
        flat = [h for cyc in cycles for h in cyc]
        if sorted(flat) != list(range(n_half)):
            raise ValueError("rotation cycles are not a permutation of the half-edges")
        sigma = [0] * n_half
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                sigma[a] = b
        m = cls(sigma, alpha, root)
        if "n" in data and data["n"] != m.n:
            raise ValueError("half-edge data inconsistent with declared n")
        if "s" in data and data["s"] != m.surplus:
            raise ValueError("half-edge data inconsistent with declared s")
        return m


# -- decorations ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleCorners:
    """Corner indices and insertion tags recording surplus edges against a tree.

    ``indices[2j], indices[2j+1]`` are the contour times of the two corners
    joined by the j-th surplus edge, with the earlier corner first; ``tags``
    order parallel insertions sharing a corner (tag 1 sits furthest from the
    corner's reference edge, larger tags closer).
    """

    mode: str  # "bf" or "df"
    indices: tuple[int, ...]
    tags: tuple[int, ...]

    @classmethod
    def from_tagged(cls, mode: str, tagged) -> "AdmissibleCorners":
        """The decoration of ``(i1, k1, i2, k2)`` quadruples, in their canonical order."""
        tagged = sorted(tagged, key=_CANONICAL_ORDER)
        return cls(mode, tuple(x for p in tagged for x in (p[0], p[2])),
                   tuple(x for p in tagged for x in (p[1], p[3])))

    @property
    def s(self) -> int:
        return len(self.indices) // 2

    def pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        return [
            ((self.indices[2 * j], self.tags[2 * j]), (self.indices[2 * j + 1], self.tags[2 * j + 1]))
            for j in range(self.s)
        ]

    def validate(self, f: LatticeExcursion) -> None:
        vals = f.values
        two_n = 2 * f.n
        if len(self.indices) != len(self.tags) or len(self.indices) % 2:
            raise ValueError("indices and tags must have even equal length")
        if self.mode not in ("bf", "df"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for i in self.indices:
            if not 1 <= i <= two_n - 1:
                raise ValueError(f"corner index {i} outside [1, {two_n - 1}]")
        prev = None
        for (i1, k1), (i2, k2) in self.pairs():
            if i1 > i2 or (i1 == i2 and k1 >= k2):
                raise ValueError("pair not in canonical order")
            if self.mode == "bf":
                if vals[i2] not in (vals[i1], vals[i1] - 1):
                    raise ValueError(f"corner pair ({i1},{i2}) violates the height rule")
            else:
                if min(vals[i1:i2 + 1]) != vals[i2]:
                    raise ValueError(f"corner {i2} is not at an ancestor of corner {i1}")
            key = (i1, i2, k1)
            if prev is not None and key <= prev:
                raise ValueError("pairs not sorted canonically")
            prev = key
        # tags within each equal-index block form a permutation of 1..block size
        blocks: dict[int, list[int]] = {}
        for i, k in zip(self.indices, self.tags):
            blocks.setdefault(i, []).append(k)
        for i, ks in blocks.items():
            if sorted(ks) != list(range(1, len(ks) + 1)):
                raise ValueError(f"tags at corner {i} are not a permutation of 1..{len(ks)}")


# -- edge insertion -------------------------------------------------------------


def insert_edges(f: LatticeExcursion, corners: AdmissibleCorners, validate: bool = True) -> RootedMap:
    """The map of the tree coded by ``f`` plus one edge per decoration pair.

    One pass over the contour: the ``k``-th up-step creates vertex ``k``,
    whose edge to its parent has down-half ``2k-2`` and up-half ``2k-1``, and
    corner ``i`` sits just before the half leaving the walk at time ``i``.  A
    vertex's rotation lists its departures in contour order, closed at its
    up-half, and each corner's inserted halves enter it just before that
    corner's departure, by increasing tag.  Inverse of the matching
    exploration.
    """
    if validate and corners.s:
        corners.validate(f)
    vals = f.values.tolist()
    two_n = len(vals) - 1
    runs: dict[int, list[tuple[int, int]]] = {}
    for h, (i, k) in enumerate(zip(corners.indices, corners.tags), start=two_n):
        runs.setdefault(i, []).append((k, h))
    sigma = [0] * (two_n + 2 * corners.s)
    last = [0]  # last half so far in each vertex's rotation, which starts at its up-half
    # (the root's at half 0, so the first step closes the root's rotation)
    stack = [0]
    for t in range(two_n):
        v = stack[-1]
        if t in runs:
            for _, h in sorted(runs[t]):
                sigma[last[v]] = h
                last[v] = h
        if vals[t + 1] > vals[t]:
            h = len(last) * 2 - 2
            sigma[last[v]] = h
            last[v] = h
            last.append(h + 1)
            stack.append(len(last) - 1)
        else:
            sigma[last[v]] = 2 * v - 1
            stack.pop()
    alpha = [h ^ 1 for h in range(len(sigma))]
    return RootedMap(sigma, alpha, root=0, check=validate)


# -- explorations -------------------------------------------------------------


def _require_msns(m: RootedMap) -> None:
    if m.degree(m.origin[m.root]) != 1:
        raise ValueError("exploration requires a root vertex of degree one")


def _bf_tree_halves(m: RootedMap) -> set[int]:
    """Half-edges of the breadth-first spanning tree (rotation-order scan)."""
    tree = {m.root, m.alpha[m.root]}
    visited = {m.origin[m.root], m.origin[m.alpha[m.root]]}
    queue = [m.root]
    qi = 0
    while qi < len(queue):
        e = queue[qi]
        qi += 1
        back = m.alpha[e]
        h = m.sigma[back]
        while h != back:
            w = m.origin[m.alpha[h]]
            if w not in visited:
                visited.add(w)
                tree.add(h)
                tree.add(m.alpha[h])
                queue.append(h)
            h = m.sigma[h]
    return tree


def _contour_walk(m: RootedMap, mode: str, tree: set[int]):
    """The contour of a spanning tree inside ``m`` and the decoration of the rest.

    At each time the walk rotates from the twin of the half it arrived by and
    skips the non-tree halves; a skipped half sits at the previous time's
    corner, tagged by its 1-based place in the skipped run.  The walk then
    steps up to a new vertex or down to a visited one.  Breadth-first passes
    its whole tree; depth-first passes an empty set and grows the tree on the
    way: a half whose far endpoint is unvisited joins it with its twin.
    """
    sigma, alpha, origin = m.sigma, m.alpha, m.origin
    grow = mode == "df"
    visited = [False] * m.num_vertices
    visited[origin[m.root]] = True
    vals = [0]
    found: dict[int, tuple[int, int]] = {}  # surplus half -> (corner, tag)
    h = m.root
    for t in range(1, 2 * m.n + 1):
        tag = 0
        while h not in tree:
            if grow and not visited[origin[alpha[h]]]:
                tree.update((h, alpha[h]))
                break
            tag += 1
            found[h] = (t - 1, tag)
            h = sigma[h]
        w = origin[alpha[h]]
        vals.append(vals[-1] - 1 if visited[w] else vals[-1] + 1)
        visited[w] = True
        h = sigma[alpha[h]]
    exc = LatticeExcursion(vals)
    xi = AdmissibleCorners.from_tagged(
        mode, [a + found[alpha[h]] for h, a in found.items() if a < found[alpha[h]]])
    xi.validate(exc)
    return exc, xi


def bf_explore(m: RootedMap) -> tuple[LatticeExcursion, AdmissibleCorners]:
    """Contour of the breadth-first spanning tree and the decoration that recovers ``m``."""
    _require_msns(m)
    return _contour_walk(m, "bf", _bf_tree_halves(m))


def df_explore(m: RootedMap) -> tuple[LatticeExcursion, AdmissibleCorners]:
    """Contour of the depth-first spanning tree and the decoration that recovers ``m``."""
    _require_msns(m)
    return _contour_walk(m, "df", set())


# -- enumeration of decorations ----------------------------------------------


def admissible_pairs(f: LatticeExcursion, mode: str) -> list[tuple[int, int]]:
    """All ordered corner pairs (i1 <= i2) a single surplus edge may join, sorted.

    Read off one corner index: a breadth-first ``i`` pairs with the run of its
    level's block from ``i`` on and the run one level down from ``i`` on; a
    depth-first ``j`` pairs with every ``i`` in ``(q(j), j]``.
    """
    index = corner_index(f.values)
    times = index.times.tolist()
    if mode == "df":
        return sorted((i, j) for j, q in zip(times, index.q.tolist()) for i in range(q + 1, j + 1))
    runs = zip(index.start[index.levels + 1].tolist(), index.down.tolist(),
               index.start[index.levels].tolist())
    return sorted((times[k], times[m]) for k, (end, down, below) in enumerate(runs)
                  for m in chain(range(k, end), range(down, below)))


def enumerate_admissible(f: LatticeExcursion, s: int, mode: str) -> list[AdmissibleCorners]:
    """All decorations of the tree coded by ``f`` with ``s`` surplus edges, in canonical form."""
    if f.n > 8 or s > 4:
        raise EnumerationCapExceeded(f"n={f.n}, s={s} too large for decoration enumeration")
    if s == 0:
        return [AdmissibleCorners(mode, (), ())]
    pairs = admissible_pairs(f, mode)
    out: set[tuple] = set()
    for multi in combinations_with_replacement(range(len(pairs)), s):
        chosen = [pairs[i] for i in multi]
        ends: dict[int, list[tuple[int, int]]] = {}
        for j, side in product(range(s), (0, 1)):
            ends.setdefault(chosen[j][side], []).append((j, side))
        blocks = list(ends.values())  # each corner's ends take a permutation of its tags
        for perms in product(*(permutations(range(1, len(b) + 1)) for b in blocks)):
            tag_of = {end: k for block, perm in zip(blocks, perms) for end, k in zip(block, perm)}
            tagged = [(i1, tag_of[j, 0], i2, tag_of[j, 1]) for j, (i1, i2) in enumerate(chosen)]
            if all(i1 != i2 or k1 < k2 for i1, k1, i2, k2 in tagged):  # loops in tag order
                out.add(tuple(sorted(tagged, key=_CANONICAL_ORDER)))
    result = [AdmissibleCorners.from_tagged(mode, tagged) for tagged in sorted(out)]
    for xi in result:
        xi.validate(f)
    return result


# -- metric observables --------------------------------------------------------


def adjacency(m: RootedMap) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(m.num_vertices)]
    for h in range(m.num_half_edges):
        adj[m.origin[h]].append(m.origin[m.alpha[h]])
    return adj


def tree_adjacency(tree: PlaneTree, extra_edges=()) -> list[list[int]]:
    """Neighbour lists of a plane tree plus extra edges given as vertex pairs."""
    adj = [list(kids) for kids in tree.children]
    for v in range(1, tree.n + 1):
        adj[v].append(tree.parent[v])
    for u, v in extra_edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(adj: list[list[int]], start: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    nxt.append(v)
        frontier = nxt
    return dist


@dataclass(frozen=True)
class RootMetric:
    distances: tuple[int, ...]
    radius: int
    level_counts: tuple[int, ...]  # vertices at each distance from the root


def metric_from_root(m: RootedMap) -> RootMetric:
    """Graph distances from the root vertex, with radius and level counts."""
    dist = bfs_distances(adjacency(m), m.origin[m.root])
    radius = max(dist)
    levels = [0] * (radius + 1)
    for d in dist:
        levels[d] += 1
    return RootMetric(tuple(dist), radius, tuple(levels))


# -- entangled pairings -------------------------------------------------------


@dataclass(frozen=True)
class PermutationPairing:
    """A fixed-point-free involution of [4g] written as 2g canonical transpositions."""

    transpositions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flat = [x for t in self.transpositions for x in t]
        size = 2 * len(self.transpositions)
        if sorted(flat) != list(range(1, size + 1)):
            raise ValueError("transpositions must partition 1..4g")
        if len(self.transpositions) % 2:
            raise ValueError("a pairing of [4g] needs an even number of transpositions")
        canon = canonical_transpositions(self.transpositions)
        if canon != self.transpositions:
            object.__setattr__(self, "transpositions", canon)

    @property
    def g(self) -> int:
        return len(self.transpositions) // 2

    def partner_array(self) -> list[int]:
        out = [0] * (4 * self.g + 1)
        for a, b in self.transpositions:
            out[a] = b
            out[b] = a
        return out

    def __str__(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.transpositions)

    @classmethod
    def parse(cls, text: str) -> "PermutationPairing":
        parts = text.replace(" ", "").strip()
        if not parts.startswith("(") or not parts.endswith(")"):
            raise ValueError(f"cannot parse pairing {text!r}")
        trans = []
        for chunk in parts[1:-1].split(")("):
            a, b = chunk.split(",")
            trans.append((int(a), int(b)))
        return cls(canonical_transpositions(trans))


def canonical_transpositions(trans) -> tuple[tuple[int, int], ...]:
    pairs = tuple(sorted((min(a, b), max(a, b)) for a, b in trans))
    return pairs


def is_entangled(pairing: PermutationPairing, order: str = "pairing-first") -> bool:
    """True when composing with the full cycle (1,2,...,4g) yields a single cycle.

    ``order`` selects which permutation applies first; the two orders always
    agree (the composites are conjugate) and both are exposed so the
    agreement can be asserted.
    """
    size = 4 * pairing.g
    partner = pairing.partner_array()
    if order == "pairing-first":
        nxt = [0] * (size + 1)
        for i in range(1, size + 1):
            nxt[i] = partner[i] % size + 1
    elif order == "cycle-first":
        nxt = [0] * (size + 1)
        for i in range(1, size + 1):
            nxt[i] = partner[i % size + 1]
    else:
        raise ValueError(f"unknown composition order {order!r}")
    seen = 1
    cur = nxt[1]
    while cur != 1:
        cur = nxt[cur]
        seen += 1
        if seen > size:
            raise RuntimeError("composition is not a permutation")
    return seen == size


def entangled_pairings(g: int, cap: int = SG_CAP) -> list[PermutationPairing]:
    """All pairings of [4g] whose gluing leaves a single face (one boundary cycle)."""
    if g < 1:
        raise ValueError(f"genus must be >= 1 (got g={g})")
    if g > cap:
        raise EnumerationCapExceeded(f"g={g} exceeds pairing cap {cap}")
    out = []
    for pairing in all_pairings(4 * g):
        p = PermutationPairing(pairing)
        if is_entangled(p):
            out.append(p)
    return out


def all_pairings(size: int):
    """Perfect matchings of 1..size as canonical transposition tuples."""
    items = list(range(1, size + 1))

    def rec(rest: list[int]):
        if not rest:
            yield ()
            return
        a = rest[0]
        for idx in range(1, len(rest)):
            b = rest[idx]
            tail = rest[1:idx] + rest[idx + 1:]
            for sub in rec(tail):
                yield ((a, b),) + sub

    yield from rec(items)


# -- unicellular gluing ---------------------------------------------------------


def glue_decoration(pairing: PermutationPairing, corners) -> AdmissibleCorners:
    """Decoration that joins increasing corners ``r_1 < ... < r_4g`` per the pairing."""
    corners = tuple(corners)
    if len(corners) != 4 * pairing.g:
        raise ValueError("need exactly 4g corners")
    if any(corners[i] >= corners[i + 1] for i in range(len(corners) - 1)):
        raise ValueError("corners must be strictly increasing")
    return AdmissibleCorners.from_tagged(
        "bf", [(corners[a - 1], 1, corners[b - 1], 1) for a, b in pairing.transpositions])


def glue_heights_ok(f: LatticeExcursion, pairing: PermutationPairing, corners) -> bool:
    """Whether every glued pair drops by at most one level (first corner higher)."""
    corners = tuple(corners)
    vals = f.values
    for a, b in pairing.transpositions:
        if not 0 <= vals[corners[a - 1]] - vals[corners[b - 1]] <= 1:
            return False
    return True


def unicellular_glue(f: LatticeExcursion, pairing: PermutationPairing,
                     corners) -> tuple[RootedMap, bool]:
    """Glue ``4g`` corners of the tree coded by ``f`` in pairs; report unicellularity.

    When :func:`glue_heights_ok` holds, the glued map's breadth-first
    exploration returns ``f`` with this decoration.
    """
    xi = glue_decoration(pairing, corners)
    m = insert_edges(f, xi, validate=False)
    return m, m.is_unicellular()


# -- admissible corner tuples for unicellular gluings ---------------------------


def pairing_tuple_count(f: LatticeExcursion, pairing: PermutationPairing) -> int:
    """Number of increasing corner tuples gluable along ``pairing``.

    Counts tuples ``r_1 < ... < r_4g`` in ``[1, 2n-1]`` such that each glued
    pair of corners drops by zero or one level.  Genus one sums
    :func:`genus_one_terms`; higher genus walks the tuples without keeping them.
    """
    if pairing.g == 1:
        return genus_one_terms(f).total
    return sum(1 for _ in enumerate_pairing_tuples(f, pairing))


def pairing_tuple(f: LatticeExcursion, pairing: PermutationPairing, k: int) -> tuple[int, ...]:
    """The ``k``-th gluable corner tuple of ``pairing`` in lexicographic order."""
    return next(islice(enumerate_pairing_tuples(f, pairing), k, None))


@dataclass(frozen=True)
class GenusOneTerms:
    """Gluable quadruples of the pairing (1,3)(2,4), grouped by their third corner.

    ``per_r3[r3]`` counts the quadruples with third corner ``r3``;
    :meth:`per_r2` splits that count by the second corner.
    """

    values: np.ndarray
    prefix: np.ndarray  # prefix[y, t]: corners at level y with time <= t
    suffix: np.ndarray  # suffix[y, t]: corners at level y with time >= t
    per_r3: np.ndarray

    @property
    def total(self) -> int:
        return sum(self.per_r3.tolist())

    def per_r2(self, r3: int) -> np.ndarray:
        """Entry ``r2 - 1`` counts the quadruples with second corner ``r2`` and third ``r3``.

        ``r1 < r2`` must sit at level ``f(r3)`` or ``f(r3)+1``, and ``r4 > r3``
        at level ``f(r2)`` or ``f(r2)-1``.
        """
        h, pc, sc = self.values, self.prefix, self.suffix
        a = pc[h[r3], 0:r3 - 1] + pc[h[r3] + 1, 0:r3 - 1]
        r2_levels = h[1:r3]
        return a * (sc[r2_levels, r3 + 1] + sc[r2_levels - 1, r3 + 1])


def genus_one_terms(f: LatticeExcursion) -> GenusOneTerms:
    """The O(n^2) pass behind both the genus-one count and its uniform draw."""
    vals = f.values
    two_n = 2 * f.n
    ind = np.zeros((int(vals.max()) + 2, two_n + 1), dtype=np.int64)
    ind[vals[1:two_n], np.arange(1, two_n)] = 1
    pc = np.cumsum(ind, axis=1)
    sc = np.cumsum(ind[:, ::-1], axis=1)[:, ::-1]
    terms = GenusOneTerms(vals, pc, sc, np.zeros(two_n, dtype=np.int64))
    for r3 in range(3, two_n - 1):
        terms.per_r3[r3] = terms.per_r2(r3).sum()
    return terms


def enumerate_pairing_tuples(f: LatticeExcursion, pairing: PermutationPairing):
    """Every increasing gluable corner tuple, one at a time, in lexicographic order.

    This is O(n^{4g}); genus two and above raise
    :class:`EnumerationCapExceeded` above ``n = TUPLE_ENUMERATION_CAP``.
    """
    if pairing.g > 1 and f.n > TUPLE_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"genus-{pairing.g} tuple counts enumerate the tuples and are capped at "
            f"n<={TUPLE_ENUMERATION_CAP} (got n={f.n})")
    vals = f.values.tolist()
    two_n = len(vals) - 1
    size = 4 * pairing.g
    close_at = {b: a for a, b in pairing.transpositions}
    chosen = [0] * (size + 1)
    candidates = [None, iter(range(1, two_n - size + 1))] + [None] * (size - 1)
    pos = 1  # the position being filled; candidates[pos] holds its untried corners
    while pos:
        for t in candidates[pos]:
            if pos in close_at and not 0 <= vals[chosen[close_at[pos]]] - vals[t] <= 1:
                continue
            chosen[pos] = t
            if pos == size:
                yield tuple(chosen[1:])
            else:
                pos += 1
                candidates[pos] = iter(range(t + 1, two_n - size + pos))
                break
        else:
            pos -= 1
