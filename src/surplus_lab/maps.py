"""Rooted combinatorial maps, their explorations, and unicellular gluings.

A map is built from, and stored as, its rotation cycles on dense half-edge
ids, one list of half-edges in clockwise order per vertex, with ``alpha[h]``
the opposite half-edge and a distinguished root half-edge marking the root
vertex (required to have degree one): ``RootedMap(cycles, alpha, root)`` is
the one constructor, which insertion and loading both call.  The rotation
system ``sigma[h]``, the next half-edge clockwise around the origin vertex of
``h``, and ``origin[h]`` are derived from the cycles together on first read.
Faces are the orbits of ``h -> sigma[alpha[h]]``, matching a contour walk
that always turns to the next edge after the one it arrived by; a plane tree
then has exactly one face.  Genus comes from Euler's formula.

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
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, islice, permutations, product
from operator import eq, itemgetter

import numpy as np

from .lattice_paths import EnumerationCapExceeded, LatticeExcursion
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
            c = len(cycles)
            cyc = []
            h = h0
            while label[h] < 0:
                label[h] = c
                cyc.append(h)
                h = perm[h]
            cycles.append(cyc)
    return cycles, label


class RootedMap:
    """Rooted map on half-edges 0..2E-1 with clockwise rotations.

    ``cycles[v]`` lists the half-edges leaving vertex ``v`` in clockwise order, and
    ``alpha[h]`` is the twin of ``h``.  The map keeps the cycles as given and derives
    ``sigma`` and ``origin`` from them together on first read; ``check`` validates it.
    """

    __slots__ = ("sigma", "alpha", "root", "origin", "_cycles")

    def __init__(self, cycles: list[list[int]], alpha: list[int], root: int, check: bool = True):
        self._cycles, self.alpha, self.root = cycles, alpha, root
        if check:
            self._check()

    def __getattr__(self, name: str):
        # reached only when a slot is unset: the first read of sigma or origin derives
        # both, and later reads are plain slot reads
        if name not in ("sigma", "origin"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._derive()
        return getattr(self, name)

    def _derive(self) -> None:
        """``sigma`` and ``origin`` in one pass over the rotation cycles."""
        sigma = [0] * len(self.alpha)
        origin = [0] * len(self.alpha)
        for v, cyc in enumerate(self._cycles):
            prev = cyc[-1]
            for h in cyc:
                sigma[prev] = h
                origin[h] = v
                prev = h
        self.sigma, self.origin = sigma, origin

    # -- structure -------------------------------------------------------

    def _check(self):
        """Raise ``ValueError`` unless this is a connected map with a degree-one root.  The
        cycles are checked first, so ``sigma`` and ``origin`` are derived only from a partition."""
        cycles, alpha, root = self._cycles, self.alpha, self.root
        if not (type(cycles) is list and set(map(type, cycles)) <= {list} and all(cycles)):
            raise ValueError("rotation must be a list of non-empty lists, one cycle per vertex")
        halves = [*chain.from_iterable(cycles)]
        if not (type(alpha) is list and type(root) is int and set(map(type, halves + alpha)) <= {int}):
            raise ValueError("rotation cycles and involution must be int lists, and root an int")
        n_half = len(halves)
        identity = list(range(n_half))
        if sorted(halves) != identity:
            raise ValueError("rotation cycles are not a permutation of the half-edges")
        if n_half % 2:
            raise ValueError("odd number of half-edges")
        if len(alpha) != n_half:
            raise ValueError("involution length mismatch")
        if sorted(alpha) != identity:
            raise ValueError("involution is not a permutation of the half-edges")
        if any(map(eq, alpha, identity)) or [alpha[a] for a in alpha] != identity:
            raise ValueError("involution is not fixed-point-free")
        if not 0 <= root < n_half:
            raise ValueError("root half-edge out of range")
        self._derive()
        origin = self.origin
        # connectivity: vertices reachable from the root's across edges
        seen = [False] * len(cycles)
        stack = [origin[root]]
        seen[stack[0]] = True
        count = 0
        while stack:
            count += 1
            for h in cycles[stack.pop()]:
                w = origin[alpha[h]]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if count != len(cycles):
            raise ValueError("map is not connected")
        if self.degree(origin[root]) != 1:
            raise ValueError("root vertex must have degree one")

    @property
    def num_vertices(self) -> int:
        return len(self._cycles)

    @property
    def num_half_edges(self) -> int:
        return len(self.alpha)

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
        """The length of ``v``'s rotation cycle: the half-edges leaving ``v``."""
        return len(self._cycles[v])

    def rotation_cycles(self) -> list[list[int]]:
        """The vertex rotations as built; do not mutate.  Insertion and loading walk each
        from its smallest half, in increasing order of that half."""
        return self._cycles

    # -- faces and genus ---------------------------------------------------

    def faces(self) -> list[list[int]]:
        """Orbits of the face permutation (rotation after the involution)."""
        sigma = self.sigma
        return _orbits([sigma[a] for a in self.alpha])[0]

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
        sigma, alpha, origin = self.sigma, self.alpha, self.origin
        order = [0] * len(sigma)
        rev: list[int] = []
        seen_v = [False] * len(self._cycles)
        seen_v[origin[self.root]] = True
        starts = [self.root]
        for start in starts:  # grows as the walk meets new vertices
            h = start
            while True:
                order[h] = len(rev)
                rev.append(h)
                back = alpha[h]
                w = origin[back]
                if not seen_v[w]:
                    seen_v[w] = True
                    starts.append(back)
                h = sigma[h]
                if h == start:
                    break
        return tuple([order[alpha[g]] for g in rev]), tuple([order[sigma[g]] for g in rev])

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
        """The map of :meth:`to_json_dict`; a ``ValueError`` for any other data.

        The rotation cycles may come in any order, each from any of its halves; the map
        keeps them each walked from its smallest half, in increasing order of that half."""
        if not isinstance(data, dict):
            raise ValueError(f"map JSON is a {type(data).__name__}, not an object")
        try:
            alpha, cycles, root = data["involution"], data["rotation"], data["root"]
        except KeyError as exc:
            raise ValueError(f"map JSON missing field: {exc}") from exc
        m = cls(cycles, alpha, root)
        if "n" in data and data["n"] != m.n:
            raise ValueError("half-edge data inconsistent with declared n")
        if "s" in data and data["s"] != m.surplus:
            raise ValueError("half-edge data inconsistent with declared s")
        turned = [cyc[i:] + cyc[:i] for cyc in cycles for i in [cyc.index(min(cyc))]]
        return cls(sorted(turned), alpha, root, check=False)


# -- decorations ------------------------------------------------------------


def _split_ends(tagged) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices and the tags of ``(i1, k1, i2, k2)`` quadruples, in the order given."""
    ends = tuple(chain.from_iterable(tagged))  # index, tag, index, tag, ...
    return ends[::2], ends[1::2]


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
        return cls(mode, *_split_ends(sorted(tagged, key=_CANONICAL_ORDER)))

    @property
    def s(self) -> int:
        return len(self.indices) // 2

    def validate(self, f: LatticeExcursion) -> None:
        """Raise ``ValueError`` unless this is a canonical decoration of the tree coded by ``f``.

        The rules, in the order checked:

        * ``indices`` and ``tags`` have one even length, and the mode is "bf" or "df";
        * every index is an insertion corner, in ``[1, 2n-1]``;
        * each pair is ordered: ``i1 < i2``, or ``i1 == i2`` with ``k1 < k2``;
        * breadth-first, ``f(i2)`` is ``f(i1)`` or ``f(i1) - 1`` (the height rule);
          depth-first, ``f(i2)`` is the minimum of ``f`` on ``[i1, i2]``, so the
          vertex of corner ``i2`` is an ancestor of that of ``i1``;
        * the pairs strictly increase in ``(i1, i2, k1)``;
        * the tags at each corner are a permutation of ``1..`` its number of ends.
        """
        indices, tags = self.indices, self.tags
        two_n = 2 * f.n
        if len(indices) != len(tags) or len(indices) % 2:
            raise ValueError("indices and tags must have even equal length")
        if self.mode not in ("bf", "df"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for i in indices:
            if not 1 <= i <= two_n - 1:
                raise ValueError(f"corner index {i} outside [1, {two_n - 1}]")
        vals = f.values.tolist()
        bf = self.mode == "bf"
        prev = None
        for j in range(0, len(indices), 2):
            i1, i2, k1 = indices[j], indices[j + 1], tags[j]
            if i1 > i2 or (i1 == i2 and k1 >= tags[j + 1]):
                raise ValueError("pair not in canonical order")
            if bf:
                if not 0 <= vals[i1] - vals[i2] <= 1:
                    raise ValueError(f"corner pair ({i1},{i2}) violates the height rule")
            elif min(vals[i1:i2 + 1]) != vals[i2]:
                raise ValueError(f"corner {i2} is not at an ancestor of corner {i1}")
            key = (i1, i2, k1)
            if prev is not None and key <= prev:
                raise ValueError("pairs not sorted canonically")
            prev = key
        # sorted by corner, each corner's tags must read 1, 2, ...; name the first bad corner
        ends = sorted(zip(indices, tags))
        bad = [i for (i, k), (i0, k0) in zip(ends, [(0, 0)] + ends)
               if k != (k0 + 1 if i == i0 else 1)]
        if bad:
            i = min(bad, key=indices.index)
            raise ValueError(f"tags at corner {i} are not a permutation of 1..{indices.count(i)}")


# -- edge insertion -------------------------------------------------------------


def insert_edges(f: LatticeExcursion, corners: AdmissibleCorners, validate: bool = True) -> RootedMap:
    """The map of the tree coded by ``f`` plus one edge per decoration pair.

    One pass over the contour: the ``k``-th up-step creates vertex ``k``,
    whose edge to its parent has down-half ``2k-2`` and up-half ``2k-1``, and
    corner ``i`` sits just before the half leaving the walk at time ``i``.  A
    vertex's rotation starts at its up-half, its smallest half, and lists its
    departures in contour order; each corner's inserted halves enter it just
    before that corner's departure, by increasing tag.  The walk appends each
    half to the rotation of the vertex on top of its path, so each rotation comes
    out walked from its smallest half, in increasing order of that half, and the
    map keeps them as built.  Inverse of the matching exploration.
    """
    if validate and (corners.indices or corners.tags):
        corners.validate(f)
    vals = f.values.tolist()
    two_n = len(vals) - 1
    n_half = two_n + len(corners.indices)
    # inserted halves (corner, tag, half) in rotation order, then a sentinel at the last time
    ends = sorted(zip(corners.indices, corners.tags, range(two_n, n_half)))
    ends.append((two_n, 0, None))
    # the rotations in vertex-creation order, each started at its vertex's up-half, and the
    # path of rotations from the root's; the first step puts half 0 into the root's
    top: list[int] = []
    cycles, path = [top], [top]
    h = 0  # down-half of the next new vertex
    t = 0
    steps = zip(vals, vals[1:])
    for corner, _, g in ends:
        for y0, y1 in islice(steps, corner - t):
            if y1 > y0:
                top.append(h)
                top = [h + 1]
                cycles.append(top)
                path.append(top)
                h += 2
            else:
                path.pop()
                top = path[-1]
        top.append(g)
        t = corner
    top.pop()  # the sentinel
    alpha = [0] * n_half
    alpha[::2] = range(1, n_half, 2)
    alpha[1::2] = range(0, n_half, 2)
    return RootedMap(cycles, alpha, 0, check=validate)


# -- explorations -------------------------------------------------------------


def _require_msns(m: RootedMap) -> None:
    if m.degree(m.origin[m.root]) != 1:
        raise ValueError("exploration requires a root vertex of degree one")


def _bf_tree_halves(m: RootedMap) -> set[int]:
    """Half-edges of the breadth-first spanning tree (rotation-order scan)."""
    sigma, alpha, origin = m.sigma, m.alpha, m.origin
    tree = {m.root, alpha[m.root]}
    visited = [False] * m.num_vertices
    visited[origin[m.root]] = visited[origin[alpha[m.root]]] = True
    queue = [m.root]
    for e in queue:  # grows as the scan meets new vertices
        back = alpha[e]
        h = sigma[back]
        while h != back:
            w = origin[alpha[h]]
            if not visited[w]:
                visited[w] = True
                tree.update((h, alpha[h]))
                queue.append(h)
            h = sigma[h]
    return tree


def _contour_walk(m: RootedMap, mode: str, tree: set[int]):
    """The contour of a spanning tree inside ``m`` and the decoration of the rest.

    At each time the walk rotates from the twin of the half it arrived by and
    skips the non-tree halves; a skipped half sits at that time's corner,
    tagged by its 1-based place in the skipped run.  The walk then steps up
    to a new vertex or down to a visited one.  Breadth-first passes its whole
    tree; depth-first passes an empty set and grows the tree on the way: a
    half whose far endpoint is unvisited joins it with its twin.
    """
    sigma, alpha, origin = m.sigma, m.alpha, m.origin
    grow = mode == "df"
    visited = [False] * m.num_vertices
    visited[origin[m.root]] = True
    vals = [0]
    y = 0
    found: dict[int, tuple[int, int]] = {}  # surplus half -> (corner, tag)
    h = m.root
    for t in range(2 * m.n):
        tag = 0
        while h not in tree:
            if grow and not visited[origin[alpha[h]]]:
                tree.update((h, alpha[h]))
                break
            tag += 1
            found[h] = (t, tag)
            h = sigma[h]
        back = alpha[h]
        w = origin[back]
        y += -1 if visited[w] else 1
        visited[w] = True
        vals.append(y)
        h = sigma[back]
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
    """All decorations of the tree coded by ``f`` with ``s`` surplus edges, in canonical form.

    They are not validated here: :func:`insert_edges` is the one check a decoration passes."""
    if f.n > 8 or s > 4:
        raise EnumerationCapExceeded(f"n={f.n}, s={s} too large for decoration enumeration")
    if s == 0:
        return [AdmissibleCorners(mode, (), ())]
    pairs = admissible_pairs(f, mode)
    out: set[tuple] = set()
    for chosen in combinations_with_replacement(pairs, s):
        ends = [i for pair in chosen for i in pair]  # end 2j + side is a side of pair j
        blocks: dict[int, list[int]] = {}
        for e, i in enumerate(ends):
            blocks.setdefault(i, []).append(e)
        # each corner's ends take a permutation of its tags; a lone end takes tag 1
        shared = [b for b in blocks.values() if len(b) > 1]
        tags = [1] * len(ends)
        for perms in product(*(permutations(range(1, len(b) + 1)) for b in shared)):
            for block, perm in zip(shared, perms):
                for e, k in zip(block, perm):
                    tags[e] = k
            tagged = [(ends[e], tags[e], ends[e + 1], tags[e + 1]) for e in range(0, len(ends), 2)]
            if all(i1 != i2 or k1 < k2 for i1, k1, i2, k2 in tagged):  # loops in tag order
                out.add(tuple(sorted(tagged, key=_CANONICAL_ORDER)))
    return [AdmissibleCorners(mode, *_split_ends(tagged)) for tagged in sorted(out)]


# -- metric observables --------------------------------------------------------


def adjacency(m: RootedMap) -> list[list[int]]:
    """Each vertex's neighbours, one per half-edge leaving it, in rotation order."""
    origin, alpha = m.origin, m.alpha
    return [[origin[alpha[h]] for h in cyc] for cyc in m.rotation_cycles()]


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


@cache
def entangled_pairings(g: int) -> tuple[PermutationPairing, ...]:
    """All pairings of [4g] whose gluing leaves a single face (one boundary cycle), built
    once per process."""
    if g < 1:
        raise ValueError(f"genus must be >= 1 (got g={g})")
    if g > SG_CAP:
        raise EnumerationCapExceeded(f"g={g} exceeds pairing cap {SG_CAP}")
    return tuple(p for p in map(PermutationPairing, all_pairings(4 * g)) if is_entangled(p))


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


def unicellular_glue(f: LatticeExcursion, pairing: PermutationPairing,
                     corners) -> tuple[RootedMap, bool]:
    """Glue ``4g`` corners of the tree coded by ``f`` in pairs; report unicellularity.

    When every glued pair drops by zero or one level, first corner higher, the
    glued map's breadth-first exploration returns ``f`` with this decoration.  The
    corners must lie in ``[1, 2n-1]``: the root corner is never an insertion site.
    """
    corners = tuple(corners)
    xi = glue_decoration(pairing, corners)  # checks the count and the strict increase
    if corners and not (corners[0] >= 1 and corners[-1] <= 2 * f.n - 1):
        raise ValueError(f"glued corners must lie in [1, {2 * f.n - 1}], got {corners}")
    m = insert_edges(f, xi, validate=False)
    return m, m.is_unicellular()


# -- admissible corner tuples for unicellular gluings ---------------------------


def pairing_tuple_count(f: LatticeExcursion, pairing: PermutationPairing) -> int:
    """Number of increasing corner tuples gluable along ``pairing``.

    Counts tuples ``r_1 < ... < r_4g`` in ``[1, 2n-1]`` such that each glued
    pair of corners drops by zero or one level.  Genus one sums
    :func:`genus_one_counts`; higher genus walks the tuples without keeping them.
    """
    if pairing.g == 1:
        return sum(genus_one_counts(f).tolist())
    return sum(1 for _ in enumerate_pairing_tuples(f, pairing))


def pairing_tuple(f: LatticeExcursion, pairing: PermutationPairing, k: int) -> tuple[int, ...]:
    """The ``k``-th gluable corner tuple of ``pairing`` in lexicographic order."""
    return next(islice(enumerate_pairing_tuples(f, pairing), k, None))


def genus_one_counts(f: LatticeExcursion) -> np.ndarray:
    """Gluable quadruples ``r1 < r2 < r3 < r4`` of the pairing (1,3)(2,4), by third corner.

    Entry ``t`` counts the quadruples with ``r3 = t``: ``f(r1) - f(t)`` and ``f(r2) - f(r4)``
    lie in {0, 1}.  One sweep over contour time keeps the corners passed and still ahead at
    each level, and ``pairs[y, x]``, the pairs ``r1 < r2`` passed with ``f(r2) = x`` and
    ``f(r1)`` in {y, y+1}; a corner at level ``h`` closes the pairs of row ``h`` with the
    corners ahead at ``x`` or ``x - 1``, then opens its pairs as a second corner.  This is
    O(n·max f) time and O(max f ** 2) memory.
    """
    two_n = 2 * f.n
    interior = f.values[1:two_n]
    top = int(f.values.max())
    before = np.zeros(top + 2, dtype=np.int64)  # a spare zero above the top level
    after = np.bincount(interior, minlength=top + 1)
    pairs = np.zeros((top + 1, top + 1), dtype=np.int64)
    per_r3 = np.zeros(two_n, dtype=np.int64)
    for t, h in enumerate(interior.tolist(), start=1):
        after[h] -= 1
        per_r3[t] = pairs[h, 1:] @ (after[1:] + after[:-1])
        pairs[:, h] += before[:-1] + before[1:]
        before[h] += 1
    return per_r3


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
