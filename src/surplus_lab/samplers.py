"""Exact samplers, exhaustive enumerators, and tilted weighted ensembles.

Sampling is driven by :class:`RngStream`: a master seed plus a tuple of
stream indices, expanded through ``numpy``'s ``SeedSequence`` spawning so
that (seed, stream) fully determines every draw and distinct streams are
statistically independent.  Each sampler takes the ``np.random.Generator`` of
one stream.  Ensemble replicate ``r`` always uses substream ``r``, so results
do not depend on evaluation order.  An ensemble seeds its
replicates' streams in one pass (:meth:`RngStream.generators`): the
``SeedSequence`` hash of the shared (seed, path) prefix is run once and its
last word, ``r``, is mixed in for all replicates at once in 32-bit integer
arithmetic.  Each stream is the one ``SeedSequence`` itself gives, which
:meth:`RngStream.generator` still builds and the tests compare against.

Loops run their items in contiguous ranges on every CPU the process may use
(:func:`range_rows`): on Linux each range after the first goes to a forked
worker.  The runner draws nothing; :func:`replicate_rows` is the seeded loop
over it, whose workers seed only their own substreams.  Six loops use it:
the estimators' ensembles, the sampled maps of the radius suite and the
draw-and-write loops of ``sample map`` and ``sample crum`` through
:func:`replicate_rows`, and, with no random stream, the (size, surplus) cells
of the bijection suite and the gluings of the dichotomy suite.  Outputs do
not depend on how many CPUs there are, and ``taskset -c 0`` runs one process.

Tilted laws are realized by self-normalized importance sampling from the
uniform proposal: excursions are drawn uniformly and carry weights
``B(f)^s`` (breadth-first), ``D(f)^s`` (depth-first), or the number of
gluable corner tuples (unicellular), so that weighted averages estimate
expectations under the corresponding tilted law.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable, Iterator

import numpy as np

from .lattice_paths import (
    EnumerationCapExceeded,
    HeightProfile,
    LabeledTree,
    LatticeExcursion,
    vervaat_excursion,
)
from .local_time import (CornerIndex, bf_per_index, corner_index, corner_total, df_per_index,
                         vertex_times)
from .maps import (
    AdmissibleCorners,
    RootedMap,
    bfs_distances,
    enumerate_admissible,
    entangled_pairings,
    genus_one_counts,
    insert_edges,
    pairing_tuple,
    pairing_tuple_count,
)


class DegenerateEnsembleError(ValueError):
    """All importance weights vanished; the tilted law is unreachable at this size."""


# -- reproducible stream derivation -------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Master seed plus a stream path; (seed, path) determines all draws."""

    seed: int
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(indices))

    def generators(self, count: int, start: int = 0) -> Iterator[np.random.Generator]:
        """``substream(r).generator()`` for ``r = start..count-1``, seeded in one pass."""
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_FixedSeed)  # here, so that importing leaves numpy.random out
        generator, pcg64 = np.random.Generator, np.random.PCG64
        for state in _pcg64_seeds(self.seed, self.path, count, start):
            yield generator(pcg64(_FixedSeed(state)))


class _FixedSeed:
    """Hands ``PCG64`` the state words that :func:`_pcg64_seeds` computed for it."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """``SeedSequence``'s hashmix: each call steps the hash constant by ``mult``."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _pcg64_seeds(seed: int, path: tuple[int, ...], count: int, start: int = 0) -> np.ndarray:
    """The four ``uint64`` words that ``SeedSequence(seed, spawn_key=path + (r,))`` hands
    ``PCG64``, one row per ``start <= r < count``.  The entropy is the seed's 32-bit words
    (low word first, padded to four), then each path entry's, then ``r``.  The pool is
    mixed from all words but the last once; ``r`` is mixed into every row at once in uint64
    arithmetic, masked to 32 bits, and ``generate_state`` draws eight 32-bit words per row."""
    entries = [int(seed), *map(int, path)]
    if min(entries) < 0 or not 0 <= start <= count <= 2 ** 32:
        raise ValueError(f"seed {seed}, path {path}, start {start} and count {count} must be "
                         "nonnegative, the start at most the count and the count at most 2^32")
    words = [[v >> b & _MASK32 for b in range(0, max(v.bit_length(), 1), 32)] for v in entries]
    entropy = words[0] + [0] * (4 - len(words[0])) + [w for ws in words[1:] for w in ws]

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    r = np.arange(start, count, dtype=np.uint64)
    pool = [mix(np.uint64(p), hashmix(r)) for p in pool]
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [draw(pool[k % 4]) for k in range(8)]
    return np.stack([state[k] | state[k + 1] << 32 for k in range(0, 8, 2)], axis=1)


# -- item ranges on every CPU ---------------------------------------------------------

# The fewest items a range is given, by default.  Forking the interpreter with numpy
# loaded, its pipe and its reaping cost about 3.5 ms on a 2-CPU x86-64 host, the time of
# about 90 replicates of a tilted ensemble at small n (about 40 us each), so a shorter range
# gains nothing from a worker of its own.  A caller whose replicates cost more passes its
# own minimum: the draw-and-write loops of ``sample map`` and ``sample crum`` spend at least
# about 0.5 ms on each replicate, file included (3 ms on a map at n = 1000), and pass
# ``MIN_SAMPLE_RANGE``.
MIN_FORKED_RANGE = 100
MIN_SAMPLE_RANGE = 8


def range_rows(count: int, rows: Callable[[int, int], list[np.ndarray]],
               min_range: int = MIN_FORKED_RANGE) -> list[np.ndarray]:
    """``rows`` over items ``0..count-1``, each array of its list concatenated in item order.

    ``rows(start, stop)`` runs the items of one contiguous range and returns a list of
    arrays, each read with its own dtype (numbers, booleans or text, never objects), whose
    first axis follows them; an array may leave out rows, and one with no rows may have
    any shape.  The ranges are one per CPU the process may use, each at least
    ``min_range`` long; on Linux the parent forks a worker for each range after the
    first, runs the first itself and reads the workers' arrays over pipes.  When item
    ``r``'s rows depend on ``r`` alone, the result does not depend on how many CPUs there
    are, and ``taskset -c 0`` runs one process.  A worker's exception is raised again here
    with its type, and every worker is reaped before the call returns.  Nothing here draws
    at random: :func:`replicate_rows` seeds the ranges of a replicate loop.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    ranges = min(cpus, count // min_range) if hasattr(os, "fork") else 1
    if ranges <= 1:
        return _range_rows(rows, 0, count)
    bounds = [count * k // ranges for k in range(ranges + 1)]
    workers = []  # (pid, read end of its pipe), or None for a range this process runs
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            workers.append(_fork_range(rows, start, stop))
        parts = [_range_rows(rows, 0, bounds[1])]
        for start, stop, worker in zip(bounds[1:-1], bounds[2:], workers):
            parts.append(_read_range(*worker) if worker else _range_rows(rows, start, stop))
    except BaseException:
        import signal

        for pid, _ in filter(None, workers):
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in filter(None, workers):
            os.close(fd)
            os.waitpid(pid, 0)
    return [np.concatenate([a for a in arrays if len(a)] or arrays[:1]) for arrays in zip(*parts)]


def replicate_rows(reps: int, rng: RngStream,
                   rows: Callable[[Iterator[np.random.Generator], int], list[np.ndarray]],
                   min_range: int = MIN_FORKED_RANGE) -> list[np.ndarray]:
    """``rows`` over the generators of replicates ``0..reps-1``, in the ranges of
    :func:`range_rows`.

    ``rows`` is handed the generators ``rng.substream(r).generator()`` of one contiguous
    range of replicates, seeded in that range's process, and the first replicate ``r`` of
    the range.  Replicate ``r`` draws only from substream ``r``, so the result does not
    depend on how many CPUs there are.
    """
    return range_rows(reps, lambda start, stop: rows(rng.generators(stop, start), start),
                      min_range)


def _range_rows(rows, start: int, stop: int) -> list[np.ndarray]:
    return [np.asarray(a) for a in rows(start, stop)]


def _fork_range(rows, start: int, stop: int) -> tuple[int, int] | None:
    """A forked worker that writes ``rows`` of items ``start..stop-1`` to a pipe, pickled
    as ``(arrays, None)`` or ``(None, (exception, traceback))``, dumped whole before the one
    write.  ``None`` when the process cannot fork."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # at a process limit the range runs in the parent
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as out:
            try:
                result = pickle.dumps((_range_rows(rows, start, stop), None))
            except BaseException as exc:  # the parent raises it
                import traceback

                trace = traceback.format_exc()
                try:
                    result = pickle.dumps((None, (exc, trace)))
                except Exception:  # an exception that does not pickle is sent as its text
                    text = RuntimeError(f"{type(exc).__name__}: {exc}")
                    result = pickle.dumps((None, (text, trace)))
            out.write(result)
    finally:
        os._exit(0)  # never back into the caller's code, and no exit handlers or flushes


def _read_range(pid: int, fd: int) -> list[np.ndarray]:
    """The arrays a forked worker wrote, once it has closed its pipe."""
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    if not chunks:
        raise ChildProcessError(f"range worker {pid} ended with no result")
    arrays, error = pickle.loads(b"".join(chunks))  # bytes that this program's own worker wrote
    if error:
        exc, trace = error
        raise exc from RuntimeError(f"in the worker for this range:\n{trace}")
    return arrays


# -- uniform samplers -----------------------------------------------------------


def sample_uniform_excursion(n: int, gen: np.random.Generator) -> LatticeExcursion:
    """Uniform contour excursion of half-length ``n``: one shuffle of ``n - 1`` up-steps
    and ``n`` down-steps gives a uniform bridge from 0 to -1, which
    :func:`vervaat_excursion` rotates at its first minimum (the cycle lemma)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = np.empty(2 * n - 1, dtype=np.int64)
    steps[:n - 1] = 1
    steps[n - 1:] = -1
    gen.shuffle(steps)
    return vervaat_excursion(steps)


def prufer_decode(code, n: int, root: int) -> LabeledTree:
    """The labeled tree on [n] with Prüfer code ``code`` (n-2 labels), rooted at ``root``.

    The decode writes the parent array rooted at ``n``: each removed leaf
    hangs from its code entry and the last leaf from ``n``.  Reversing the
    parent pointers on the path from ``root`` to ``n`` then re-roots it.
    """
    code = np.asarray(code, dtype=np.int64)
    degree = (np.bincount(code, minlength=n + 1) + 1).tolist()
    code = code.tolist()
    parent = [0] * (n + 1)
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in code:
        parent[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = n
    below, v = 0, root
    while v:
        up = parent[v]
        parent[v] = below
        below, v = v, up
    return LabeledTree(n, root, parent)


def sample_labeled_tree(n: int, gen: np.random.Generator) -> LabeledTree:
    """Uniform over the ``n^(n-1)`` rooted labeled trees on [n].

    :func:`sample_surplus_graph` draws its spanning tree here; a height
    profile alone comes from :func:`sample_tree_profile`, with no tree.
    """
    if n == 1:
        return LabeledTree(1, 1, [0, 0])
    root = int(gen.integers(1, n + 1))
    code = gen.integers(1, n + 1, size=n - 2) if n > 2 else ()
    return prufer_decode(code, n, root)


def sample_tree_profile(n: int, gen: np.random.Generator) -> HeightProfile:
    """Height profile of a uniform rooted labeled tree on [n], drawn without the tree.

    Without its labels such a tree is a Poisson(1) Galton–Watson tree
    conditioned on ``n`` vertices.  The child counts of ``n - 1`` uniform
    labels in [n] are Poisson(1) counts conditioned on summing to ``n - 1``;
    see :func:`tree_profile_of_labels` for the walk that turns them into levels.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tree_profile_of_labels(gen.integers(1, n + 1, size=n - 1), n)


def tree_profile_of_labels(labels, n: int) -> HeightProfile:
    """Level counts of the tree that ``n - 1`` labels in [n] encode.

    Label ``v`` occurring ``c_v`` times gives vertex ``v`` that many children.
    The Łukasiewicz walk of the counts ends at -1; rotated to start after
    its first minimum (the cycle lemma), the counts are those of a tree in
    breadth-first order, whose vertices ``[lo, hi)`` of one generation have
    children ``[hi, 1 + cum[hi - 1])``.  Each tree shape arises from
    ``n! / prod(c_v!)`` label sequences, as many as rooted labeled trees have
    that shape, so uniform labels give the profile law of uniform trees.
    """
    counts = np.bincount(labels, minlength=n + 1)[1:]
    k = int(np.add.accumulate(counts - 1).argmin()) + 1
    # the loop reads one entry per generation, as a Python int through a memoryview
    cum = np.add.accumulate(np.concatenate((counts[k:], counts[:k]))).data
    z, lo, hi = [], 0, 1
    while lo < n:
        z.append(hi - lo)
        lo, hi = hi, 1 + cum[hi - 1]
    return HeightProfile(tuple(z))


# -- corner samplers --------------------------------------------------------------


def _weighted_index(cum: np.ndarray, gen: np.random.Generator) -> int:
    """An index drawn in proportion to the weights whose float64 running sums are ``cum``."""
    u = gen.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))


def _pairs_to_decoration(mode: str, pairs: list[tuple[int, int]]) -> AdmissibleCorners:
    """Canonical tags for sampled corner pairs: blocks ordered by sorted pair position."""
    next_tag: dict[int, int] = {}
    tagged = []
    for i1, i2 in sorted(pairs):
        k1 = next_tag[i1] = next_tag.get(i1, 0) + 1
        k2 = next_tag[i2] = next_tag.get(i2, 0) + 1
        tagged.append((i1, k1, i2, k2))
    return AdmissibleCorners.from_tagged(mode, tagged)


def sample_corners_bf(index: CornerIndex, s: int, gen: np.random.Generator) -> AdmissibleCorners:
    """Independent corner pairs of the excursion with corner ``index``: first index by
    weight, partner uniform at the same height or one below.  The partners of ``i`` are its
    level's block of the corner index from ``i`` on, then the block one level down from
    ``i`` on."""
    per_index = bf_per_index(index)
    if int(per_index.sum()) == 0:
        raise DegenerateEnsembleError("breadth-first corner weight vanished")
    cum = np.cumsum(per_index, dtype=np.float64)
    pairs = []
    for _ in range(s):
        i1 = _weighted_index(cum, gen)
        pairs.append((i1, _bf_partner(index, i1, int(gen.integers(int(per_index[i1]))))))
    return _pairs_to_decoration("bf", pairs)


def _bf_partner(index: CornerIndex, i: int, u: int) -> int:
    """The ``u``-th breadth-first partner of corner ``i``, in the order given above."""
    k = int(index.pos[i])
    same = int(index.start[index.levels[k] + 1]) - k
    return int(index.times[k + u if u < same else int(index.down[k]) + u - same])


def sample_corners_df(index: CornerIndex, s: int, gen: np.random.Generator) -> AdmissibleCorners:
    """Independent corner pairs of the excursion with corner ``index``: first index by
    weight, then an ancestor level by its revisit count, then a uniform revisit time.  The
    partners of ``i`` are the corners ``j >= i`` with ``q(j) < i``, by (level, time)."""
    per_index = df_per_index(index)
    if int(per_index.sum()) == 0:
        raise DegenerateEnsembleError("depth-first corner weight vanished")
    cum = np.cumsum(per_index, dtype=np.float64)
    pairs = []
    for _ in range(s):
        i1 = _weighted_index(cum, gen)
        partners = (index.times >= i1) & (index.q < i1)
        times, levels = index.times[partners], index.levels[partners]
        y = levels[int(gen.integers(len(times)))]
        lo, hi = np.searchsorted(levels, (y, y + 1)).tolist()
        pairs.append((i1, int(times[lo + int(gen.integers(hi - lo))])))
    return _pairs_to_decoration("df", pairs)


def unicellular_terms(f: LatticeExcursion, g: int):
    """The genus-``g`` pairings, their gluable-tuple counts and, at genus one,
    the :func:`genus_one_counts` behind the single count (``None`` above it)."""
    pairings = entangled_pairings(g)
    if g == 1:
        per_r3 = genus_one_counts(f)
        return pairings, [sum(per_r3.tolist())], per_r3
    return pairings, [pairing_tuple_count(f, p) for p in pairings], None


def sample_unicellular_decoration(f: LatticeExcursion, g: int, gen: np.random.Generator,
                                  terms=None):
    """A pairing, its heights, and a gluable increasing corner tuple.

    The pairing is drawn with probability proportional to its tuple count and
    the tuple uniformly among the gluable ones, which makes the heights
    follow their section counts and the corners conditionally uniform.
    ``terms`` is :func:`unicellular_terms` of ``f``, for a caller that holds
    it already.
    """
    pairings, totals, counted = unicellular_terms(f, g) if terms is None else terms
    grand = sum(totals)
    if grand == 0:
        raise DegenerateEnsembleError(f"no gluable corner tuples at n={f.n}, g={g}")
    u = int(gen.integers(grand))
    choice = 0
    while u >= totals[choice]:
        u -= totals[choice]
        choice += 1
    pairing = pairings[choice]
    if g == 1:
        corners = _sample_tuple_genus_one(f, counted, gen)
    else:
        corners = pairing_tuple(f, pairing, int(gen.integers(totals[choice])))
    vals = f.values
    heights = tuple(int(vals[corners[a - 1]]) for a, b in pairing.transpositions)
    return pairing, heights, corners


def _sample_tuple_genus_one(f: LatticeExcursion, per_r3: np.ndarray, gen: np.random.Generator):
    """Uniform gluable quadruple for the genus-one pairing (1,3)(2,4), drawn by third corner,
    then second, from level counts: ``r1 < r2`` sits at level ``f(r3)`` or ``f(r3)+1``, and
    ``r4 > r3`` at level ``f(r2)`` or ``f(r2)-1``."""
    vals = f.values
    r3 = _weighted_index(np.cumsum(per_r3, dtype=np.float64), gen)
    r2 = 1 + _weighted_index(np.cumsum(_genus_one_per_r2(f, r3), dtype=np.float64), gen)
    h3, h2 = int(vals[r3]), int(vals[r2])
    below = _times_at(vals, (h3, h3 + 1), 1, r2)
    above = _times_at(vals, (h2, h2 - 1), r3 + 1, 2 * f.n)
    r1 = int(below[gen.integers(len(below))])
    return (r1, r2, r3, int(above[gen.integers(len(above))]))


def _genus_one_per_r2(f: LatticeExcursion, r3: int) -> np.ndarray:
    """Entry ``r2 - 1`` counts the gluable quadruples with second corner ``r2`` and third
    ``r3``: the first corners in ``[1, r2)`` times the fourth corners after ``r3``."""
    vals = f.values
    h3 = vals[r3]
    first = (vals[1:r3 - 1] == h3) | (vals[1:r3 - 1] == h3 + 1)
    firsts = np.concatenate(([0], np.cumsum(first)))
    ahead = np.bincount(vals[r3 + 1:2 * f.n], minlength=len(vals))
    seconds = vals[1:r3]
    return firsts * (ahead[seconds] + ahead[seconds - 1])


def _times_at(vals: np.ndarray, levels, lo: int, hi: int) -> np.ndarray:
    """The times in ``[lo, hi)`` at each of ``levels`` in turn, ascending within a level."""
    return np.concatenate([np.flatnonzero(vals[lo:hi] == y) + lo for y in levels])


# -- exact decoration counts ---------------------------------------------------


def _terms(f: LatticeExcursion, s: int, mode: str):
    """The pair count ``P``, the pair ends at each corner of ``f``'s index (a loop has two)
    and, at ``s = 2``, their sum of squares ``e·e``.  A breadth-first corner's ends are the
    index positions from its partners one level down, ``down[k]``, to the corners a level up
    before it, plus its loop's second end; since ``down`` is nondecreasing, the first corner
    a level up after position ``k`` is at ``#{k' : down[k'] <= k}``.  A depth-first ``j`` is
    first end of a pair with each ``j' >= j`` with ``q(j') < j`` and second end with each of
    ``(q(j), j]``: ``#{j' : q(j') < j} + 1 - q(j)`` ends in all."""
    if not 0 <= s <= 2:
        raise ValueError("decoration counts are implemented for s <= 2; "
                         "use enumerate_admissible for more")
    if s == 0:
        return 0, None, 0
    index = corner_index(f.values)
    m = len(index.times)
    if mode == "bf":
        ends = np.add.accumulate(np.bincount(index.down, minlength=m)) + 1 - index.down
    else:
        ends = np.add.accumulate(np.bincount(index.q, minlength=m))[index.times - 1] + 1 - index.q
    if s == 2 and int(ends.max()) ** 2 * len(ends) >= 2 ** 63:
        raise ValueError(f"decoration count at n={len(index.pos) // 2} overflows 64-bit integers")
    return int(ends.sum()) // 2, ends, int(ends @ ends) if s == 2 else 0


def decoration_count(f: LatticeExcursion, s: int, mode: str) -> int:
    """Exact number of canonical decorations with ``s`` surplus edges (s <= 2) of an
    excursion, from :func:`_terms`: 1, ``P``, or ``(P^2 + P + e·e)/2``,
    the sum of ``C(P, 2)`` (two distinct pairs), ``2P`` (a doubled pair) and ``C(e_c, 2)``
    over the corners ``c`` (two ends at one corner)."""
    pairs, _, sq = _terms(f, s, mode)
    return (1, pairs, (pairs * pairs + pairs + sq) // 2)[s]


def decoration_count_gap(f: LatticeExcursion, s: int, mode: str) -> int:
    """Exact value of ``s! * (decoration count) - (pair count)^s`` for s <= 2: 0 unless
    ``s = 2``, where it is ``P + e·e``."""
    pairs, _, sq = _terms(f, s, mode)
    return pairs + sq if s == 2 else 0


# -- weighted ensembles -----------------------------------------------------------


def tilt_weight(total: int, s: int, mode: str, n: int, scale: Fraction = Fraction(1)) -> float:
    """The tilt weight ``total ** s``, times an exact ``scale``, rounded once to a float;
    a ``ValueError`` if it overflows."""
    try:
        return total ** s * scale.numerator / scale.denominator
    except OverflowError:
        raise ValueError(f"the {mode} tilt weight {total}^{s} overflows a float at n={n}, "
                         f"s={s}; use a smaller s or n") from None


@dataclass
class WeightedEnsemble:
    """Samples of named functionals with importance weights from a tilted run."""

    mode: str
    tilt: int
    weights: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if len(w) == 0 or not np.all(np.isfinite(w)) or np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be finite, nonnegative, with a positive entry")
        self.weights = w

    @property
    def reps(self) -> int:
        return len(self.weights)

    def ess(self) -> float:
        w = self.weights
        return float(w.sum() ** 2 / np.sum(w ** 2))

    def estimate(self, name: str):
        """Self-normalized mean and delta-method standard error of a column."""
        w = self.weights
        x = self.columns[name]
        wsum = w.sum()
        est = (w * x.T).T.sum(axis=0) / wsum
        resid = x - est
        se = np.sqrt(np.sum((w * resid.T).T ** 2, axis=0)) / wsum
        if np.ndim(est) == 0:
            return float(est), float(se)
        return est, se


class TiltSample:
    """Per-replicate lazy bundle shared by ensemble functionals.

    Distances are read off the contour, with no tree decode and no graph
    search.  Vertex ``k`` is created at the ``k``-th up-step, so its depth is
    the contour value there; the tree distance between contour times
    ``a <= b`` is ``f(a) + f(b) - 2 min f[a..b]``.  Breadth-first and
    unicellular decorations only join corners whose heights differ by at most
    one, so the surplus edges never shorten a distance to the root.
    """

    def __init__(self, exc: LatticeExcursion, gen: np.random.Generator, mode: str, tilt: int):
        self.exc = exc
        self.gen = gen
        self.mode = mode
        self.tilt = tilt
        self._index = None  # the corner index behind a bf or df weight and its chords
        self._times = None
        self._chords = None
        self._weight = None
        self._um_terms = None

    def weight(self) -> float:
        if self._weight is None:
            if self.mode == "um":
                self._um_terms = unicellular_terms(self.exc, self.tilt)
                self._weight = float(sum(self._um_terms[1]))
            elif self.mode not in ("bf", "df"):
                raise ValueError(f"unknown tilt mode {self.mode!r}")
            elif self.tilt == 0:
                self._weight = 1.0  # B^0 = D^0 = 1
            else:
                self._weight = tilt_weight(corner_total(self._corners(), self.mode), self.tilt,
                                           self.mode, self.exc.n)
        return self._weight

    def _corners(self) -> CornerIndex:
        if self._index is None:
            self._index = corner_index(self.exc.values)
        return self._index

    def chords(self) -> list[tuple[int, int]]:
        """Sampled surplus edges as contour-time pairs (corner decoration applied once)."""
        if self._chords is None:
            if self.weight() == 0.0:
                raise DegenerateEnsembleError("cannot decorate a zero-weight sample")
            if self.mode == "um":
                pairing, _, corners = sample_unicellular_decoration(self.exc, self.tilt, self.gen,
                                                                    self._um_terms)
                self._chords = [(corners[a - 1], corners[b - 1]) for a, b in pairing.transpositions]
            else:
                sample = sample_corners_bf if self.mode == "bf" else sample_corners_df
                xi = sample(self._corners(), self.tilt, self.gen)
                self._chords = [(xi.indices[2 * j], xi.indices[2 * j + 1]) for j in range(xi.s)]
        return self._chords

    def _vertex_times(self) -> np.ndarray:
        """Contour time at which each vertex is first visited (its up-step)."""
        if self._times is None:
            self._times = vertex_times(self.exc.values)
        return self._times

    def distances_from_root(self) -> np.ndarray:
        """Graph distance from the root to each vertex: its contour depth."""
        if self.mode == "df":
            raise ValueError("depth-first surplus edges can shorten root distances")
        return self.exc.values[self._vertex_times()]

    def graph_distance(self, a: int, b: int) -> int:
        """Distance between vertices ``a`` and ``b`` in the tree plus the chords.

        Tree distances among the terminal times (``a``, ``b`` and the chord
        ends) come from contour minima; a Floyd-Warshall pass over the
        terminals, with each chord of length 1, closes them into graph
        distances.
        """
        times = self._vertex_times()
        chords = self.chords()
        terms = [times[a], times[b]] + [t for pair in chords for t in pair]
        vals = self.exc.values
        k = len(terms)
        dist = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(i + 1, k):
                lo, hi = sorted((terms[i], terms[j]))
                dist[i, j] = dist[j, i] = vals[lo] + vals[hi] - 2 * vals[lo:hi + 1].min()
        for j in range(len(chords)):
            u, v = 2 + 2 * j, 3 + 2 * j
            dist[u, v] = dist[v, u] = min(dist[u, v], 1)
        for m in range(k):
            np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :], out=dist)
        return int(dist[0, 1])


def tilted_ensemble(n: int, tilt: int, mode: str, reps: int, rng: RngStream,
                    functionals: dict[str, Callable[[TiltSample], object]]) -> WeightedEnsemble:
    """Self-normalized importance-sampling run against the uniform excursion law.

    ``functionals`` maps column names to callables evaluated on the lazy
    per-replicate sample; evaluation order follows dict order, which pins the
    consumption of the replicate's random stream.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if mode not in ("bf", "df", "um"):
        raise ValueError(f"unknown tilt mode {mode!r}")

    def rows(gens, _):
        weights, values = [], {name: [] for name in functionals}
        for gen in gens:
            sample = TiltSample(sample_uniform_excursion(n, gen), gen, mode, tilt)
            weights.append(weight := sample.weight())
            # zero-weight samples cannot always be decorated; their values never matter
            if weight > 0:
                for name, fn in functionals.items():
                    values[name].append(fn(sample))
        return [weights, *values.values()]

    weights, *positive = replicate_rows(reps, rng, rows)
    if not np.any(weights > 0):
        raise DegenerateEnsembleError(f"all {reps} weights vanished (mode={mode}, n={n})")
    columns = {}
    for name, vals in zip(functionals, positive):
        columns[name] = np.zeros((reps, *vals.shape[1:]))
        columns[name][weights > 0] = vals
    return WeightedEnsemble(mode=mode, tilt=tilt, weights=weights, columns=columns)


# -- maps: enumeration and uniform sampling ---------------------------------------


def enumerate_maps(n: int, s: int) -> list[RootedMap]:
    """All rooted maps with n+1 vertices, surplus s, and a degree-one root, by breadth-first
    decoration."""
    from .lattice_paths import enumerate_excursions

    if n > 5 or s > 2:
        raise EnumerationCapExceeded(f"map enumeration capped at n<=5, s<=2 (got n={n}, s={s})")
    out = []
    seen = set()
    for f in enumerate_excursions(n):
        for xi in enumerate_admissible(f, s, "bf"):
            m = insert_edges(f, xi)
            key = m.canonical_key()
            if key in seen:
                raise RuntimeError("decoration enumeration produced duplicate maps")
            seen.add(key)
            out.append(m)
    return out


def sample_map_decoration(n: int, s: int, gen: np.random.Generator
                          ) -> tuple[LatticeExcursion, AdmissibleCorners, float]:
    """One weighted draw of (excursion, decoration) whose weighted law over glued maps
    is exactly uniform, at every ``s``.

    :func:`sample_corners_bf` draws ``s`` independent pairs of a uniform excursion, each
    admissible pair with probability ``1/B(f)``; the ends at each corner holding ends of
    two or more pairs then take a uniform order, a loop's ends kept in tag order.  With
    ``n_c`` ends at corner ``c`` and ``L`` loops, each decoration comes from ``s!`` draws
    (its pairs in each order), each of probability ``2^L / (B(f)^s prod_c n_c!)``, so the
    weight ``B(f)^s prod_c n_c! / (s! 2^L)`` gives it mass 1: the collision-weight identity
    ``#dec(f, s) = (1/s!) sum over ordered s-tuples of pairs of prod_c n_c! / 2^L``.
    """
    exc = sample_uniform_excursion(n, gen)
    if s == 0:
        return exc, AdmissibleCorners("bf", (), ()), 1.0
    index = corner_index(exc.values)
    xi = sample_corners_bf(index, s, gen)
    ends, tags = xi.indices, list(xi.tags)  # end 2j + side is a side of pair j
    at_corner: dict[int, list[int]] = {}
    for e, i in enumerate(ends):
        at_corner.setdefault(i, []).append(e)
    collisions = 1
    for block in at_corner.values():
        collisions *= factorial(len(block))
        if block[0] // 2 != block[-1] // 2:  # ends of two or more pairs take a uniform order
            for e, k in zip(block, gen.permutation(len(block)).tolist()):
                tags[e] = k + 1
    loops = 0
    for j in range(0, 2 * s, 2):
        if ends[j] == ends[j + 1]:  # a loop keeps its ends in tag order
            loops += 1
            tags[j:j + 2] = sorted(tags[j:j + 2])
    weight = tilt_weight(corner_total(index, "bf"), s, "bf", n,
                         Fraction(collisions, factorial(s) << loops))
    tagged = zip(ends[::2], tags[::2], ends[1::2], tags[1::2])
    return exc, AdmissibleCorners.from_tagged("bf", tagged), weight


def sample_uniform_map(n: int, s: int, gen: np.random.Generator) -> tuple[RootedMap, float]:
    """One weighted map draw; see :func:`sample_map_decoration` for the law."""
    exc, xi, weight = sample_map_decoration(n, s, gen)
    return insert_edges(exc, xi, validate=False), weight


# -- labeled graphs with surplus -----------------------------------------------------


@dataclass(frozen=True)
class RootedGraph:
    """Rooted simple connected labeled graph on vertex set 1..n."""

    n: int
    root: int
    edges: frozenset

    @property
    def surplus(self) -> int:
        return len(self.edges) - self.n + 1

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def enumerate_surplus_graphs(n: int, s: int) -> list[RootedGraph]:
    """All rooted connected simple graphs on [n] with surplus s."""
    if n > 6 or s > 2:
        raise EnumerationCapExceeded(f"graph enumeration capped at n<=6, s<=2 (got n={n}, s={s})")
    all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    out = []
    for subset in combinations(all_pairs, n - 1 + s):
        edges = frozenset(subset)
        if -1 not in bfs_distances(RootedGraph(n, 1, edges).adjacency(), 1)[1:]:
            out.extend(RootedGraph(n, root, edges) for root in range(1, n + 1))
    return out


def spanning_tree_count(n: int, edges) -> int:
    """Exact number of spanning trees of the multigraph on [n] with ``edges``.

    Disconnected graphs give 0, and loops are ignored.  Pruning leaves keeps
    the count, so τ(G) = τ(2-core): an empty core gives 1 and a core that is
    one cycle gives its length.  Otherwise each path of degree-2 core vertices
    between kernel vertices (core degree >= 3) is series-reduced to one kernel
    edge of length ℓ, and τ = Π ℓ_e · det(reduced kernel Laplacian with
    conductances 1/ℓ_e), as in Janson, Knuth, Łuczak & Pittel (1993).  A loop
    path contributes its ℓ and no Laplacian entry.  The kernel of a surplus-s
    graph has at most 2(s-1) vertices, so the cost is O(n + s³).
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for eid, (u, v) in enumerate(edges):
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    if -1 in bfs_distances([[w for w, _ in nbrs] for nbrs in adj], 1)[1:]:
        return 0
    deg = [len(nbrs) for nbrs in adj]
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    while leaves:
        v = leaves.pop()
        deg[v] = 0
        for w, _ in adj[v]:
            if deg[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    leaves.append(w)
    core = [v for v in range(1, n + 1) if deg[v] >= 2]
    kernel = {v: i for i, v in enumerate(v for v in core if deg[v] >= 3)}
    if not kernel:
        return max(len(core), 1)
    lap = [[Fraction(0)] * len(kernel) for _ in kernel]
    scale = 1
    walked: set[int] = set()
    for a, ia in kernel.items():
        for w, first in adj[a]:
            if deg[w] < 2 or first in walked:
                continue
            length, prev, cur = 1, first, w
            while deg[cur] == 2:
                cur, prev = next((x, e) for x, e in adj[cur] if deg[x] >= 2 and e != prev)
                length += 1
            walked.update((first, prev))
            scale *= length
            ib = kernel[cur]
            if ia != ib:
                conductance = Fraction(1, length)
                lap[ia][ia] += conductance
                lap[ib][ib] += conductance
                lap[ia][ib] -= conductance
                lap[ib][ia] -= conductance
    return int(scale * _det([row[1:] for row in lap[1:]]))


def _det(m: list[list[Fraction]]) -> Fraction:
    """Determinant of a positive definite matrix (consumed), by elimination.

    A reduced Laplacian of a connected graph is positive definite, so no pivot vanishes.
    """
    det = Fraction(1)
    for k, row in enumerate(m):
        det *= row[k]
        for other in m[k + 1:]:
            factor = other[k] / row[k]
            for j in range(k, len(m)):
                other[j] -= factor * row[j]
    return det


def _pair_rank(n: int, u, v):
    """Lexicographic rank of the pair ``u < v`` among all pairs of [n]."""
    return (u - 1) * (2 * n - u) // 2 + v - u - 1


def sample_surplus_graph(n: int, s: int, gen: np.random.Generator) -> tuple[RootedGraph, float]:
    """Weighted draw targeting the uniform rooted surplus-s graph law.

    Proposal: uniform rooted labeled tree plus ``s`` uniform distinct
    non-tree edges; weight ``1 / (number of spanning trees)`` corrects the
    multiplicity with which each graph arises.  The non-tree edges are drawn
    as ranks k among the lexicographically ordered non-tree pairs: the k-th
    free rank skips past the sorted ranks of the tree edges and is unranked
    to its pair, so no list of the O(n²) free pairs is built.
    """
    tree = sample_labeled_tree(n, gen)
    tree_edges = {_edge(v, tree.parent[v]) for v in range(1, n + 1) if v != tree.root}
    free = n * (n - 1) // 2 - (n - 1)
    if free < s:
        raise DegenerateEnsembleError(f"no simple graph on {n} vertices with surplus {s}")
    extra = []
    if s:
        ks = gen.choice(free, size=s, replace=False)
        parent = np.asarray(tree.parent, dtype=np.int64)
        kids = np.flatnonzero(parent)
        ends = parent[kids]
        taken = np.sort(_pair_rank(n, np.minimum(kids, ends), np.maximum(kids, ends)))
        # free ranks below taken[i]: taken[i] - i; the k-th free rank is k plus
        # the number of taken ranks with at most k free ranks below them
        ranks = ks + np.searchsorted(taken - np.arange(len(taken)), ks, side="right")
        firsts = np.arange(1, n)
        u = np.searchsorted(_pair_rank(n, firsts, firsts + 1), ranks, side="right")
        v = ranks - _pair_rank(n, u, u + 1) + u + 1
        extra = list(zip(u.tolist(), v.tolist()))
    edges = frozenset(tree_edges | set(extra))
    graph = RootedGraph(n, tree.root, edges)
    return graph, 1.0 / spanning_tree_count(n, edges)


# -- height-profile weights -------------------------------------------------------


def w1_weight(profile: HeightProfile) -> Fraction:
    """Weight of a rooted labeled tree among surplus-one symmetrized trees.

    Counts same-height vertex pairs plus half the count of one-step pairs
    excluding parents: summing it over all rooted labeled trees on [n] gives
    the number of rooted connected unit-surplus graphs on [n].
    """
    return ws_weight(profile, 1)


def ws_weight(profile: HeightProfile, s: int) -> Fraction:
    """Multi-surplus analog of :func:`w1_weight` over level tuples with gaps >= 2.

    The level terms are kept doubled, ``z_l (z_l - 1) + z_l (z_{l-1} - 1)``,
    so the sum runs on integers and is divided by ``2^s`` once.
    """
    if s == 0:
        return Fraction(1)
    z = profile.z
    terms = [0] * len(z)
    for level in range(1, len(z)):
        terms[level] = z[level] * (z[level] - 1) + z[level] * (z[level - 1] - 1)
    # prev[l] = sum over j levels ending exactly at l, consecutive gaps >= 2
    prev = terms
    for _ in range(2, s + 1):
        cur = [0] * len(z)
        pref = 0
        for level in range(2, len(z)):
            pref += prev[level - 2]
            cur[level] = terms[level] * pref
        prev = cur
    return Fraction(sum(prev), 2 ** s)
