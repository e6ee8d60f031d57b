"""Samplers: exact laws at small sizes, weights, ensembles, determinism."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, sqrt
import os
import time

import numpy as np
import pytest

from surplus_lab.lattice_paths import (
    HeightProfile,
    LatticeExcursion,
    enumerate_excursions,
    height_profile,
    tree_of_contour,
)
from surplus_lab.local_time import bf_per_index, corner_index, df_per_index
from surplus_lab.maps import (
    adjacency,
    bfs_distances,
    insert_edges,
    metric_from_root,
    unicellular_glue,
)
from surplus_lab import checks, local_time, maps, samplers
from surplus_lab.samplers import (
    DegenerateEnsembleError,
    WeightedEnsemble,
    RngStream,
    RootedGraph,
    TiltSample,
    decoration_count,
    decoration_count_gap,
    enumerate_maps,
    enumerate_surplus_graphs,
    prufer_decode,
    sample_corners_bf,
    sample_corners_df,
    sample_labeled_tree,
    sample_map_decoration,
    sample_surplus_graph,
    sample_tree_profile,
    sample_unicellular_decoration,
    sample_uniform_excursion,
    spanning_tree_count,
    tilted_ensemble,
    tree_profile_of_labels,
    w1_weight,
    ws_weight,
)

from glue_reference import glue_heights_ok
from path_reference import bridge_excursion, sample_uniform_bridge
from tree_reference import (
    count_degenerate_tuples,
    degenerate_tuple_bound,
    symmetrize,
    tree_adjacency,
)
from test_local_time import df_level_sets, oracle_df_set

CHI2_CRIT = {8: 20.090, 13: 27.688}  # 1% upper tail, by degrees of freedom


def bf_total(f) -> int:
    return int(bf_per_index(corner_index(f.values)).sum())


def df_total(f) -> int:
    return int(df_per_index(corner_index(f.values)).sum())


def three_sigma(p: float, n: int) -> float:
    return 3.0 * sqrt(p * (1 - p) / n)


class TestUniformExcursion:
    def test_n1_point_mass(self):
        rng = RngStream(0)
        for r in range(5):
            assert sample_uniform_excursion(1, rng.substream(r).generator()).as_tuple() == (0, 1, 0)

    def test_n3_binomial(self):
        rng = RngStream(101)
        reps = 30_000
        c = Counter(sample_uniform_excursion(3, rng.substream(r).generator()).as_tuple()
                    for r in range(reps))
        assert set(c) == {f.as_tuple() for f in enumerate_excursions(3)}
        for v in c.values():
            assert abs(v / reps - 0.5) < three_sigma(0.5, reps)

    def test_chi2_uniform_f5(self):
        rng = RngStream(202)
        reps = 50_000
        c = Counter(sample_uniform_excursion(5, rng.substream(r).generator()).as_tuple()
                    for r in range(reps))
        assert len(c) == 14
        expected = reps / 14.0
        chi2 = sum((v - expected) ** 2 / expected for v in c.values())
        assert chi2 < CHI2_CRIT[13]

    @pytest.mark.parametrize("n", [*range(1, 13), 1000, 2000])
    def test_draw_matches_bridge_reference(self, n):
        # the same excursion as the Vervaat rotation of the uniform bridge, from the same
        # random calls: the generators end in the same state
        for r in range(40 if n <= 12 else 5):
            gen, ref = RngStream(n, (r,)).generator(), RngStream(n, (r,)).generator()
            assert sample_uniform_excursion(n, gen) == bridge_excursion(n, ref)
            assert gen.bit_generator.state == ref.bit_generator.state

    def test_bridge_sampler(self):
        b = sample_uniform_bridge(4, RngStream(5).generator())
        assert len(b) == 10 and b[0] == 0 and b[-1] == -1
        assert set(np.diff(b).tolist()) == {-1, 1}


class TestStreams:
    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 130 + 12345, 2 ** 200 + 7]
    PATHS = [(), (3,), (2 ** 32, 0), (1, 2 ** 40 + 7, 5)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_generators_match_seed_sequence(self, seed, path):
        count = 6
        got = list(RngStream(seed, path).generators(count))
        assert len(got) == count
        for r, gen in enumerate(got):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=path + (r,))
            assert gen.bit_generator.state == np.random.PCG64(ss).state

    def test_generators_draw_alike(self):
        rng = RngStream(99, (4,))
        for r, gen in enumerate(rng.generators(3)):
            assert gen.integers(10 ** 9, size=5).tolist() == \
                rng.substream(r).generator().integers(10 ** 9, size=5).tolist()

    def test_generators_edge_counts(self):
        assert list(RngStream(5).generators(0)) == []
        with pytest.raises(ValueError):
            list(RngStream(-1).generators(2))
        with pytest.raises(ValueError):
            list(RngStream(5, (-2,)).generators(2))
        for count in (-1, 2 ** 32 + 1):  # r >= 2^32 would take two entropy words
            with pytest.raises(ValueError):
                next(RngStream(5).generators(count))


def textbook_prufer_edges(code, n: int) -> list[tuple[int, int]]:
    """Repeatedly join the smallest remaining leaf to the next code entry."""
    pending = Counter(code)
    remaining = set(range(1, n + 1))
    edges = []
    for x in code:
        leaf = min(v for v in remaining if pending[v] == 0)
        edges.append((leaf, x))
        remaining.remove(leaf)
        pending[x] -= 1
    edges.append(tuple(sorted(remaining)))
    return edges


def orient_from_root(n: int, edges, root: int) -> tuple[list[int], list[int]]:
    """Parent array and depths of the tree with these edges, searched from ``root``."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [0] * (n + 1)
    depth = [-1] * (n + 1)
    depth[root] = 0
    queue = [root]
    for u in queue:
        for v in adj[u]:
            if depth[v] < 0:
                parent[v], depth[v] = u, depth[u] + 1
                queue.append(v)
    assert min(depth[1:]) >= 0
    return parent, depth


class TestLabeledTree:
    def test_n1(self):
        t = sample_labeled_tree(1, RngStream(1).generator())
        assert t.n == 1 and t.root == 1

    def test_n2_half_half(self):
        rng = RngStream(7)
        reps = 10_000
        c = Counter(sample_labeled_tree(2, rng.substream(r).generator()).root for r in range(reps))
        assert abs(c[1] / reps - 0.5) < three_sigma(0.5, reps)

    def test_n3_chi2_over_nine(self):
        rng = RngStream(8)
        reps = 45_000
        c = Counter((t.root, tuple(t.parent)) for t in (
            sample_labeled_tree(3, rng.substream(r).generator()) for r in range(reps)))
        assert len(c) == 9
        expected = reps / 9.0
        chi2 = sum((v - expected) ** 2 / expected for v in c.values())
        assert chi2 < CHI2_CRIT[8]

    def test_prufer_bijection(self):
        for n in (3, 4, 5):
            seen = set()
            for seq in product(range(1, n + 1), repeat=n - 2):
                tree = prufer_decode(seq, n, n)
                edges = frozenset(frozenset((v, tree.parent[v])) for v in range(1, n))
                assert len(edges) == n - 1
                seen.add(edges)
            assert len(seen) == n ** (n - 2)

    def test_decode_matches_textbook_orientation(self):
        # every code and root with n <= 6: the decoded, re-rooted tree against the
        # smallest-leaf decode oriented by a search from the root
        for n in range(2, 7):
            for seq in product(range(1, n + 1), repeat=n - 2):
                edges = textbook_prufer_edges(seq, n)
                for root in range(1, n + 1):
                    parent, depth = orient_from_root(n, edges, root)
                    tree = prufer_decode(seq, n, root)
                    assert tree.root == root and tree.parent == parent
                    assert tree.heights()[1:] == depth[1:]

    def test_decode_takes_array_or_sequence(self):
        code = np.array([4, 4, 1], dtype=np.int64)
        assert prufer_decode(code, 5, 2) == prufer_decode([4, 4, 1], 5, 2)


class TestTreeProfile:
    def test_edge_cases(self):
        assert sample_tree_profile(1, RngStream(1).generator()) == HeightProfile((1,))
        assert sample_tree_profile(2, RngStream(1).generator()) == HeightProfile((1, 1))
        with pytest.raises(ValueError):
            sample_tree_profile(0, RngStream(1).generator())

    def test_exact_law(self):
        # every label sequence against every (root, code) tree: the same profiles,
        # each as often, since both families have n^(n-1) members
        for n in range(1, 7):
            walks = Counter(tree_profile_of_labels(np.array(labels, dtype=np.int64), n)
                            for labels in product(range(1, n + 1), repeat=n - 1))
            trees = Counter(height_profile(prufer_decode(code, n, root))
                            for root in range(1, n + 1)
                            for code in product(range(1, n + 1), repeat=n - 2)) \
                if n > 1 else Counter([HeightProfile((1,))])
            assert walks == trees, n

    def test_matches_labeled_tree_route(self):
        # mean height and mean w1 weight at n = 900, the walk against decoded trees
        n, reps = 900, 2000
        rng = RngStream(61)
        walks = [sample_tree_profile(n, gen) for gen in rng.substream(0).generators(reps)]
        trees = [height_profile(sample_labeled_tree(n, gen))
                 for gen in rng.substream(1).generators(reps)]
        for stat in (lambda p: len(p.z) - 1, lambda p: float(w1_weight(p))):
            a = np.array([stat(p) for p in walks], dtype=np.float64)
            b = np.array([stat(p) for p in trees], dtype=np.float64)
            se = sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
            assert abs(a.mean() - b.mean()) < 4 * se


class TestCornerSamplers:
    def test_bf_singleton(self):
        f = LatticeExcursion([0, 1, 0])
        xi = sample_corners_bf(corner_index(f.values), 1, RngStream(3).generator())
        assert xi.indices == (1, 1)

    def test_df_singleton(self):
        f = LatticeExcursion([0, 1, 0])
        xi = sample_corners_df(corner_index(f.values), 1, RngStream(3).generator())
        assert xi.indices == (1, 1)

    def test_bf_marginals(self):
        f = LatticeExcursion([0, 1, 2, 1, 0])
        rng = RngStream(11)
        reps = 40_000
        first = Counter()
        second_given_2 = Counter()
        for r in range(reps):
            xi = sample_corners_bf(corner_index(f.values), 1, rng.substream(r).generator())
            first[xi.indices[0]] += 1
            if xi.indices[0] == 2:
                second_given_2[xi.indices[1]] += 1
        for i, p in [(1, 0.4), (2, 0.4), (3, 0.2)]:
            assert abs(first[i] / reps - p) < three_sigma(p, reps)
        t2 = sum(second_given_2.values())
        for j in (2, 3):
            assert abs(second_given_2[j] / t2 - 0.5) < three_sigma(0.5, t2)

    def test_df_two_stage_equals_uniform_on_partner_set(self):
        rng = RngStream(13)
        for f in enumerate_excursions(4):
            reps = 20_000
            c = Counter()
            for r in range(reps):
                xi = sample_corners_df(corner_index(f.values), 1, rng.substream(f.n, r).generator())
                c[xi.indices] += 1
            dw = df_per_index(corner_index(f.values))
            for (i1, i2), cnt in c.items():
                p = (dw[i1] / sum(dw)) / len(oracle_df_set(f.values.tolist(), i1))
                assert abs(cnt / reps - p) < max(three_sigma(p, reps), 5e-3)

    def test_df_draw_matches_bucket_draw(self):
        # the draw before the corner index: partners bucketed by level, one
        # integer for the bucket position and one for the time within it
        def bucket_draw(f, s, gen):
            cum = np.cumsum(df_per_index(corner_index(f.values)), dtype=np.float64)
            pairs = []
            for _ in range(s):
                i1 = samplers._weighted_index(cum, gen)
                sizes = sorted((y, ts) for y, ts in df_level_sets(f, i1).items())
                u = int(gen.integers(sum(len(ts) for _, ts in sizes)))
                for _, ts in sizes:
                    if u < len(ts):
                        pairs.append((i1, ts[int(gen.integers(len(ts)))]))
                        break
                    u -= len(ts)
            return samplers._pairs_to_decoration("df", pairs)

        rng = RngStream(29)
        for r in range(200):
            f = sample_uniform_excursion(40, rng.substream(0, r).generator())
            want = bucket_draw(f, 3, rng.substream(1, r).generator())
            index = corner_index(f.values)
            assert sample_corners_df(index, 3, rng.substream(1, r).generator()) == want

    def test_sampled_decorations_validate(self):
        rng = RngStream(21)
        for r in range(50):
            f = sample_uniform_excursion(20, rng.substream(0, r).generator())
            index = corner_index(f.values)
            sample_corners_bf(index, 2, rng.substream(1, r).generator()).validate(f)
            sample_corners_df(index, 2, rng.substream(2, r).generator()).validate(f)


class TestUnicellularDecoration:
    def test_forced_pairing(self):
        f = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
        pairing, heights, corners = sample_unicellular_decoration(f, 1, RngStream(2).generator())
        assert str(pairing) == "(1,3)(2,4)"
        assert len(corners) == 4

    def test_corner_uniformity(self):
        f = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
        rng = RngStream(31)
        reps = 30_000
        c = Counter(sample_unicellular_decoration(f, 1, rng.substream(r).generator())[2]
                    for r in range(reps))
        assert set(c) == {(1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5)}
        for v in c.values():
            assert abs(v / reps - 1 / 3) < three_sigma(1 / 3, reps)

    def test_heights_follow_corners(self):
        rng = RngStream(41)
        for r in range(100):
            f = sample_uniform_excursion(12, rng.substream(0, r).generator())
            try:
                pairing, heights, corners = sample_unicellular_decoration(
                    f, 1, rng.substream(1, r).generator())
            except DegenerateEnsembleError:
                continue
            for (a, b), h in zip(pairing.transpositions, heights):
                assert f.values[corners[a - 1]] == h
                assert 0 <= h - f.values[corners[b - 1]] <= 1

    def test_glued_samples_unicellular(self):
        from surplus_lab.maps import unicellular_glue

        rng = RngStream(43)
        for r in range(30):
            f = sample_uniform_excursion(10, rng.substream(0, r).generator())
            try:
                pairing, _, corners = sample_unicellular_decoration(
                    f, 1, rng.substream(1, r).generator())
            except DegenerateEnsembleError:
                continue
            assert glue_heights_ok(f, pairing, corners)
            m, uni = unicellular_glue(f, pairing, corners)
            assert uni and m.genus() == 1

    def test_degenerate(self):
        with pytest.raises(DegenerateEnsembleError):
            sample_unicellular_decoration(LatticeExcursion([0, 1, 2, 1, 0]), 1,
                                          RngStream(1).generator())


class TestTiltedEnsemble:
    def test_s0_uniform(self):
        ens = tilted_ensemble(5, 0, "bf", 200, RngStream(5),
                              {"area": lambda smp: float(smp.exc.values.sum())})
        assert np.all(ens.weights == 1.0)
        assert ens.ess() == pytest.approx(200.0)

    def test_weights_match_definitions(self):
        ens_b = tilted_ensemble(6, 2, "bf", 50, RngStream(6), {})
        ens_d = tilted_ensemble(6, 2, "df", 50, RngStream(6), {})
        rng = RngStream(6)
        for r in range(50):
            f = sample_uniform_excursion(6, rng.substream(r).generator())
            assert ens_b.weights[r] == bf_total(f) ** 2
            assert ens_d.weights[r] == df_total(f) ** 2

    def test_tilted_matches_enumeration(self):
        # weighted frequency of each shape tracks its exact tilted probability
        reps = 30_000
        ens = tilted_ensemble(4, 1, "bf", reps, RngStream(77),
                              {"key": lambda smp: float(hash(smp.exc.as_tuple()) % 997)})
        keys = {}
        weights = {}
        rng = RngStream(77)
        for r in range(reps):
            f = sample_uniform_excursion(4, rng.substream(r).generator())
            k = f.as_tuple()
            weights[k] = weights.get(k, 0.0) + bf_total(f)
        total = sum(weights.values())
        exact = {f.as_tuple(): bf_total(f) for f in enumerate_excursions(4)}
        z = sum(exact.values())
        for k, wsum in weights.items():
            p_hat = wsum / total
            p = exact[k] / z
            assert abs(p_hat - p) < three_sigma(p, reps) + 0.01

    def test_um_point_mass_at_n3(self):
        ens = tilted_ensemble(3, 1, "um", 400, RngStream(8),
                              {"max": lambda smp: float(smp.exc.max_height())})
        # only the double-bump excursion carries weight (value 3), the tall one gets 0
        assert set(np.unique(ens.weights)) <= {0.0, 3.0}
        assert np.any(ens.weights == 3.0) and np.any(ens.weights == 0.0)
        est, _ = ens.estimate("max")
        assert est == pytest.approx(2.0)

    def test_um_degenerate_raises(self):
        with pytest.raises(DegenerateEnsembleError):
            tilted_ensemble(2, 1, "um", 50, RngStream(9), {})

    def test_determinism(self):
        a = tilted_ensemble(8, 1, "bf", 40, RngStream(123),
                            {"m": lambda smp: float(smp.exc.max_height())})
        b = tilted_ensemble(8, 1, "bf", 40, RngStream(123),
                            {"m": lambda smp: float(smp.exc.max_height())})
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.columns["m"], b.columns["m"])

    def test_ess_reasonable_at_tilt(self):
        ens = tilted_ensemble(200, 1, "bf", 500, RngStream(10),
                              {"m": lambda smp: float(smp.exc.max_height())})
        assert ens.ess() > 500 / 50

    def test_tilt_zero_needs_no_corner_weights(self, monkeypatch):
        def fail(values):
            raise AssertionError("corner weights computed at tilt 0")

        monkeypatch.setattr(samplers, "bf_per_index", fail)
        monkeypatch.setattr(samplers, "df_per_index", fail)
        monkeypatch.setattr(samplers, "corner_total", lambda values, mode: fail(values))
        for mode in ("bf", "df"):
            ens = tilted_ensemble(1, 0, mode, 5, RngStream(10), {})
            assert np.all(ens.weights == 1.0)

    @pytest.mark.parametrize("mode,tilt", [("bf", 0), ("bf", 2), ("df", 0), ("df", 2)])
    def test_one_corner_index_per_replicate(self, mode, tilt, monkeypatch):
        # the chords of a replicate read one index, and its weight none
        calls = []

        def counted(values):
            calls.append(values)
            return corner_index(values)

        for module in (local_time, samplers):
            monkeypatch.setattr(module, "corner_index", counted)
        reps = 6
        ens = tilted_ensemble(30, tilt, mode, reps, RngStream(8),
                              {"chords": lambda smp: len(smp.chords())})
        assert ens.columns["chords"].tolist() == [tilt] * reps
        assert len(calls) == reps


def _two_point_distance(smp: TiltSample, n: int) -> float:
    """Two uniform vertices drawn from the replicate's stream after its weight."""
    x1, x2 = smp.gen.integers(1, n + 1, size=2)
    return float(smp.graph_distance(int(x1), int(x2)))


def _levels(smp: TiltSample) -> np.ndarray:
    """A profile-shaped vector column: the first nine level counts, scaled."""
    return np.bincount(smp.distances_from_root(), minlength=9)[:9] / 3.0


HOLD_S = 0.3  # long enough for the other processes to pull every other chunk of a test


def held_back(rows, where: str = "parent"):
    """``rows``, with the first chunk that the parent, or else each worker, runs held back
    for :data:`HOLD_S`, so that the other processes pull the rest of the chunks."""
    parent, held = os.getpid(), []

    def run(*args):
        if (os.getpid() == parent) == (where == "parent") and not held:
            held.append(True)
            time.sleep(HOLD_S)
        return rows(*args)

    return run


def hold_back(monkeypatch, module, where: str = "parent") -> None:
    """Run the range loops that ``module`` starts with :func:`held_back` rows."""
    run = samplers.range_rows
    monkeypatch.setattr(module, "range_rows",
                        lambda count, rows, *args: run(count, held_back(rows, where), *args))


class ForkedRanges:
    """Runs each test on as many CPUs as it asks for, and checks that it leaves no process
    behind."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def on_cpus(monkeypatch, cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    @staticmethod
    def count_forks(monkeypatch) -> list[int]:
        """The pids of the workers forked from here on."""
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks


class TestReplicateRanges(ForkedRanges):
    """Replicate chunks on 1, 2 and 3 CPUs give bitwise-equal ensembles, and leave no
    process behind."""

    REPS = 3 * samplers.MIN_FORKED_RANGE + 1  # odd, and three processes at three CPUs

    CASES = {
        "bf-s3": (12, 3, "bf", lambda smp: smp.exc.max_height() / 7.0),
        "two-point": (12, 1, "bf", lambda smp: _two_point_distance(smp, 12)),
        "profile": (30, 1, "bf", _levels),
        "um-g1": (4, 1, "um", _levels),  # about half the weights vanish
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_bits_on_any_cpu_count(self, case, monkeypatch):
        n, tilt, mode, fn = self.CASES[case]
        runs = []
        for cpus in (1, 2, 3):
            self.on_cpus(monkeypatch, cpus)
            runs.append(tilted_ensemble(n, tilt, mode, self.REPS, RngStream(31, (2,)),
                                        {"value": fn, "u": lambda smp: smp.gen.random()}))
        one = runs[0]
        if mode == "um":
            assert np.any(one.weights == 0) and np.all(one.columns["value"][one.weights == 0] == 0)
        for other in runs[1:]:
            assert other.weights.tobytes() == one.weights.tobytes()
            for name in ("value", "u"):
                assert other.columns[name].shape == one.columns[name].shape
                assert other.columns[name].tobytes() == one.columns[name].tobytes()

    def test_a_range_may_leave_out_every_row(self, monkeypatch):
        # every chunk past the first third leaves out every row, and the workers run them
        self.on_cpus(monkeypatch, 3)

        def rows(gens, start):
            draws = [gen.random() for gen in gens]
            return [draws, [[u, 1.0] for r, u in enumerate(draws, start) if r < self.REPS // 3]]

        draws, pairs = samplers.replicate_rows(self.REPS, RngStream(8), held_back(rows))
        expected = [gen.random() for gen in RngStream(8).generators(self.REPS)]
        assert draws.tolist() == expected
        assert pairs.tolist() == [[u, 1.0] for u in expected[:self.REPS // 3]]

    def test_each_array_keeps_its_dtype(self, monkeypatch):
        # integers, verdicts and text come back from the workers as they were made
        self.on_cpus(monkeypatch, 3)

        def rows(gens, start):
            reps = [start + k for k, _ in enumerate(gens)]
            return [reps, [r % 3 == 0 for r in reps], [[f"r{r}", "x" * (r % 4)] for r in reps],
                    [r / 2 for r in reps]]

        ints, flags, text, halves = samplers.replicate_rows(self.REPS, RngStream(8),
                                                            held_back(rows))
        reps = range(self.REPS)
        assert ints.dtype == np.int64 and ints.tolist() == list(reps)
        assert flags.dtype == np.bool_ and flags.tolist() == [r % 3 == 0 for r in reps]
        assert text.dtype.kind == "U"
        assert text.tolist() == [[f"r{r}", "x" * (r % 4)] for r in reps]
        assert halves.dtype == np.float64 and halves.tolist() == [r / 2 for r in reps]

    def test_rows_learn_the_first_replicate_of_their_range(self, monkeypatch):
        # each chunk is handed its first replicate and the generators from there on
        self.on_cpus(monkeypatch, 3)

        def rows(gens, start):
            draws = [gen.random() for gen in gens]
            return [list(range(start, start + len(draws))), [start], [[start, draws[0]]]]

        numbers, starts, firsts = samplers.replicate_rows(self.REPS, RngStream(8),
                                                          held_back(rows))
        chunks = 3 * samplers.CHUNKS_PER_PROCESS
        assert numbers.tolist() == list(range(self.REPS))
        assert starts.tolist() == [self.REPS * k // chunks for k in range(chunks)]
        assert firsts.tolist() == [[r, RngStream(8).substream(r).generator().random()]
                                   for r in starts.tolist()]

    def test_the_fewest_replicates_worth_a_fork_is_per_call(self, monkeypatch):
        self.on_cpus(monkeypatch, 2)
        forks = self.count_forks(monkeypatch)

        def workers(reps, **kw):  # how many workers a loop of reps replicates forks
            forks.clear()
            samplers.replicate_rows(reps, RngStream(8), lambda gens, _: [[0 for _ in gens]], **kw)
            return len(forks)

        assert workers(10) == 0
        assert workers(10, min_range=5) == 1
        assert workers(9, min_range=5) == 0

    def in_this_process(self, reps: int) -> bool:
        calls = []  # a worker's calls stay in the worker
        tilted_ensemble(5, 1, "bf", reps, RngStream(4), {"x": lambda smp: calls.append(1) or 0})
        return len(calls) == reps

    def test_one_process_when_forking_gains_nothing(self, monkeypatch):
        forks = self.count_forks(monkeypatch)
        self.on_cpus(monkeypatch, 2)
        self.in_this_process(self.REPS)
        assert len(forks) == 1
        forks.clear()
        assert self.in_this_process(2 * samplers.MIN_FORKED_RANGE - 1)  # too few to share
        self.on_cpus(monkeypatch, 1)
        assert self.in_this_process(self.REPS)
        self.on_cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        assert self.in_this_process(self.REPS)
        assert not forks

    def test_a_range_that_cannot_fork_runs_here(self, monkeypatch):
        self.on_cpus(monkeypatch, 3)
        expected = tilted_ensemble(9, 2, "df", self.REPS, RngStream(6), {})

        def refuse():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
        got = tilted_ensemble(9, 2, "df", self.REPS, RngStream(6), {})
        assert got.weights.tobytes() == expected.weights.tobytes()

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_an_exception_keeps_its_type(self, where, monkeypatch):
        # the processes that do not raise hold back their first chunk, so the others run some
        self.on_cpus(monkeypatch, 3)
        hold_back(monkeypatch, samplers, "worker" if where == "parent" else "parent")
        parent = os.getpid()

        def fail(smp):
            if (os.getpid() == parent) == (where == "parent"):
                raise DegenerateEnsembleError(f"raised in the {where}")
            return 0.0

        with pytest.raises(DegenerateEnsembleError, match=f"raised in the {where}") as info:
            tilted_ensemble(6, 1, "bf", self.REPS, RngStream(3), {"x": fail})
        if where == "worker":
            assert "Traceback" in str(info.value.__cause__)


class TestRangeRows(ForkedRanges):
    """The range runner under :func:`replicate_rows`, which draws nothing itself."""

    @staticmethod
    def items(start, stop):
        time.sleep(0.002 * (stop - start))  # no process runs every chunk before another starts
        return [list(range(start, stop))]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 5, 13, 14])
    def test_every_item_once_in_order(self, cpus, count, monkeypatch):
        self.on_cpus(monkeypatch, cpus)
        forks = self.count_forks(monkeypatch)
        items, = samplers.range_rows(count, self.items, min_range=4)
        assert items.tolist() == list(range(count))
        assert len(forks) == max(1, min(cpus, count // 4)) - 1  # processes with 4 items each

    def test_uneven_items_give_the_same_bytes_on_any_cpu_count(self, monkeypatch):
        # every seventh item costs 100 times the others, so the processes pull unequal shares
        def rows(start, stop):
            for r in range(start, stop):
                time.sleep(0.01 if r % 7 == 0 else 0.0001)
            return [list(range(start, stop)), [f"item {r}" for r in range(start, stop)],
                    [[r / 7, r % 2 == 0] for r in range(start, stop)]]

        runs = []
        for cpus in (1, 2, 3):
            self.on_cpus(monkeypatch, cpus)
            arrays = samplers.range_rows(50, rows, min_range=4)
            runs.append([(a.dtype.str, a.shape, a.tobytes()) for a in arrays])
        assert runs[0][0][2] == np.arange(50).tobytes()
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_first_failing_item_is_named_on_any_cpu_count(self, cpus, monkeypatch):
        # item 40 fails at once, item 17 only after the slow items before it; the first
        # failing item in item order is the one raised
        self.on_cpus(monkeypatch, cpus)

        def rows(start, stop):
            for r in range(start, stop):
                if r in (17, 40):
                    raise LookupError(f"item {r}")
                time.sleep(0.005 if r < 17 else 0.0001)
            return [list(range(start, stop))]

        with pytest.raises(LookupError, match="^item 17$"):
            samplers.range_rows(48, rows, min_range=4)

    @pytest.mark.parametrize("forked", [0, 1])
    def test_a_process_that_cannot_fork_leaves_its_chunks_to_the_others(self, forked,
                                                                       monkeypatch):
        self.on_cpus(monkeypatch, 3)
        forks, fork = self.count_forks(monkeypatch), os.fork

        def refuse_after():  # the first ``forked`` forks succeed
            if len(forks) == forked:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", refuse_after)
        items, pids = samplers.range_rows(
            24, lambda start, stop: [*self.items(start, stop), [os.getpid()] * (stop - start)],
            min_range=4)
        assert items.tolist() == list(range(24))
        if not forked:
            assert set(pids.tolist()) == {os.getpid()}  # every chunk ran here

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_an_exception_keeps_its_type(self, where, monkeypatch):
        self.on_cpus(monkeypatch, 3)
        parent = os.getpid()

        def rows(start, stop):
            if (os.getpid() == parent) == (where == "parent"):
                raise LookupError(f"items {start}..{stop - 1} in the {where}")
            return self.items(start, stop)

        other = "worker" if where == "parent" else "parent"
        with pytest.raises(LookupError, match=f"in the {where}") as info:
            samplers.range_rows(12, held_back(rows, other), min_range=4)
        if where == "worker":
            assert "Traceback" in str(info.value.__cause__)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_an_exception_that_does_not_pickle_arrives_as_its_text(self, cpus, monkeypatch):
        # the last item fails, in a worker while the parent's first chunk is held back
        self.on_cpus(monkeypatch, cpus)

        def rows(start, stop):
            if stop == 12:
                raise LookupError(lambda: start)  # a lambda does not pickle
            return self.items(start, stop)

        with pytest.raises(RuntimeError, match="^LookupError: <function ") as info:
            samplers.range_rows(12, held_back(rows), min_range=4)
        assert "Traceback" in str(info.value.__cause__)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_worker_that_sends_nothing_is_an_error(self, cpus, monkeypatch):
        self.on_cpus(monkeypatch, cpus)
        parent = os.getpid()

        def rows(start, stop):
            if os.getpid() != parent:  # the workers run the chunks the parent holds back from
                os._exit(0)
            return self.items(start, stop)

        with pytest.raises(ChildProcessError, match="ended with no result"):
            samplers.range_rows(12, held_back(rows), min_range=4)

    def test_an_interrupt_here_kills_the_workers(self, monkeypatch):
        self.on_cpus(monkeypatch, 3)
        parent, start = os.getpid(), time.monotonic()

        def rows(start, stop):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return self.items(start, stop)

        with pytest.raises(KeyboardInterrupt):
            samplers.range_rows(12, held_back(rows, "worker"), min_range=4)
        assert time.monotonic() - start < 30


class TestExactSuiteRanges(ForkedRanges):
    """The cells of the bijection suite and the gluings of the dichotomy suite run in
    chunks on every CPU with the same verdicts."""

    def test_same_rows_and_lines_on_any_cpu_count(self, monkeypatch):
        forks = self.count_forks(monkeypatch)
        runs = []
        for cpus in (1, 2, 3):
            self.on_cpus(monkeypatch, cpus)
            forks.clear()
            res = checks.bijection_suite(4, 2)
            assert res.passed and bool(forks) == (cpus > 1)  # the k = 4 cells fork
            runs.append((res.rows(), res.lines()))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_dichotomy_same_rows_on_any_cpu_count(self, monkeypatch):
        forks = self.count_forks(monkeypatch)
        runs = []
        for cpus in (1, 2):
            self.on_cpus(monkeypatch, cpus)
            forks.clear()
            res = checks.gluing_dichotomy_suite(5)
            assert res.passed and bool(forks) == (cpus > 1)  # the 14 excursions at k = 5 fork
            runs.append((res.rows(), res.lines()))
        assert runs[1] == runs[0]

    def test_a_failure_in_a_worker_reads_as_fail(self, monkeypatch):
        self.on_cpus(monkeypatch, 2)
        clean = checks.bijection_suite(4, 2).rows()
        forks = self.count_forks(monkeypatch)
        hold_back(monkeypatch, checks)  # the last tree's items then run in the worker
        last = enumerate_excursions(4)[-1]

        def corrupt(m):  # every depth-first round trip of the last tree at k = 4
            f, xi = maps.df_explore(m)
            if f == last:
                f = enumerate_excursions(1)[0]
            return f, xi

        monkeypatch.setattr(checks, "df_explore", corrupt)
        rows = checks.bijection_suite(4, 2).rows()
        assert forks
        failed = {f"df-roundtrip-n4-s{j}" for j in (1, 2)}
        assert rows == [[label, value, detail, int(label not in failed)]
                        for label, value, detail, _ in clean]


def _oracle_adjacency(smp: TiltSample):
    """Tree plus chords of a sample as neighbour lists, for maps.bfs_distances."""
    tree = tree_of_contour(smp.exc)
    vat = tree.vertex_at_time
    return tree_adjacency(tree, [(vat[i], vat[j]) for i, j in smp.chords()])


def _draw(n: int, mode: str, tilt: int, stream: RngStream) -> TiltSample:
    gen = stream.generator()
    return TiltSample(sample_uniform_excursion(n, gen), gen, mode, tilt)


class TestContourDistances:
    """Contour-native distances against graph searches on the decorated tree."""

    @pytest.mark.parametrize("mode,tilt", [("bf", 1), ("bf", 3), ("um", 1)])
    def test_match_bfs_on_tree_plus_chords(self, mode, tilt):
        n, reps, pairs = 40, 150, 12
        rng = RngStream(404)
        mismatches = checked = 0
        for r in range(reps):
            smp = _draw(n, mode, tilt, rng.substream(r))
            if smp.weight() == 0.0:
                continue
            adj = _oracle_adjacency(smp)
            root = bfs_distances(adj, 0)
            mismatches += list(smp.distances_from_root()) != root
            pick = np.random.default_rng(r).integers(0, n + 1, size=(pairs, 2))
            for a, b in pick.tolist():
                mismatches += smp.graph_distance(a, b) != bfs_distances(adj, a)[b]
            checked += 1
        assert checked > reps // 2
        assert mismatches == 0

    @pytest.mark.parametrize("mode,tilt", [("bf", 1), ("bf", 2), ("um", 1)])
    def test_match_metric_of_glued_map_all_pairs(self, mode, tilt):
        # the map is built by edge insertion from a twin draw of the same stream
        n = 9
        rng = RngStream(505)
        checked = 0
        for r in range(40):
            smp = _draw(n, mode, tilt, rng.substream(r))
            if smp.weight() == 0.0:
                continue
            gen = rng.substream(r).generator()
            exc = sample_uniform_excursion(n, gen)
            if mode == "um":
                pairing, _, corners = sample_unicellular_decoration(exc, tilt, gen)
                m, unicellular = unicellular_glue(exc, pairing, corners)
                assert unicellular
            else:
                m = insert_edges(exc, sample_corners_bf(corner_index(exc.values), tilt, gen))
            # tree vertex v >= 1 owns the up-half 2(v-1)+1 of its parent edge
            label = [m.origin[m.root]] + [m.origin[2 * v - 1] for v in range(1, n + 1)]
            metric = metric_from_root(m)
            assert [metric.distances[label[v]] for v in range(n + 1)] == \
                list(smp.distances_from_root())
            adj = adjacency(m)
            for a in range(n + 1):
                dist = bfs_distances(adj, label[a])
                assert [smp.graph_distance(a, b) for b in range(n + 1)] == \
                    [dist[label[b]] for b in range(n + 1)]
            checked += 1
        assert checked >= 10

    def test_depth_first_root_distances_rejected(self):
        smp = _draw(10, "df", 1, RngStream(6))
        with pytest.raises(ValueError):
            smp.distances_from_root()


class TestMapSampling:
    @pytest.mark.parametrize("n,s", [(30, 1), (12, 2), (60, 2), (30, 3)])
    def test_one_corner_index_per_draw(self, n, s, monkeypatch):
        # the corner draw and the weight of a map draw read one index, off one level sort
        calls, sorts = [], []

        def counted(values):
            calls.append(values)
            return corner_index(values)

        for module in (local_time, maps, samplers):
            monkeypatch.setattr(module, "corner_index", counted)
        level_order = local_time._level_order
        monkeypatch.setattr(local_time, "_level_order",
                            lambda interior: sorts.append(interior) or level_order(interior))
        reps = 5
        for r in range(reps):
            _, xi, weight = sample_map_decoration(n, s, RngStream(9).substream(r).generator())
            assert xi.s == s and weight > 0
        assert len(calls) == len(sorts) == reps

    def test_enumeration_counts(self):
        assert len(enumerate_maps(1, 1)) == 1
        assert len(enumerate_maps(2, 1)) == 5
        for n in range(1, 5):
            assert len(enumerate_maps(n, 0)) == len(enumerate_excursions(n))

    def test_uniform_map_law_small(self):
        assert_uniform_map_law(3, 1, RngStream(55))

    def test_uniform_map_law_s2(self):
        assert_uniform_map_law(2, 2, RngStream(56))

    def test_uniform_map_law_s2_n3(self):
        assert_uniform_map_law(3, 2, RngStream(57))

    @pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 5) for s in (1, 2)]
                             + [(n, 3) for n in range(1, 4)])
    def test_weighted_law_is_exactly_uniform(self, n, s, monkeypatch):
        # every outcome of the draw on a fixed excursion (its ordered pairs, then its end
        # orders), its probability times its weight summed per decoration, is 1 on every
        # decoration of the enumeration and on nothing else
        for f in enumerate_excursions(n):
            monkeypatch.setattr(samplers, "sample_uniform_excursion", lambda n, gen: f)
            mass = Counter()
            for prob, (_, xi, weight) in outcomes(lambda gen: sample_map_decoration(n, s, gen),
                                                  bf_per_index(corner_index(f.values))):
                xi.validate(f)
                mass[xi] += prob * weight
            assert set(mass) == set(maps.enumerate_admissible(f, s, "bf"))
            assert all(abs(m - 1) < 1e-12 for m in mass.values()), (f, mass)

    @pytest.mark.parametrize("s", [2, 3])
    def test_draw_is_fast_at_n40(self, s):
        # the exact draw needs no enumeration: well under 10 ms at n = 40
        sample_map_decoration(40, s, RngStream(1).generator())
        start = time.perf_counter()
        for r in range(20):
            sample_map_decoration(40, s, RngStream(2).substream(r).generator())
        assert (time.perf_counter() - start) / 20 < 0.01


class ScriptedGenerator(np.random.Generator):
    """A generator whose draws follow a script of choices, one per call, each among that
    call's finitely many outcomes: ``random()`` picks an index of positive weight by the
    weights it was given (returning the middle of that index's share of the unit interval),
    ``integers(m)`` one of ``0..m-1`` and ``permutation(m)`` one of the ``m!`` orders.  Past
    the script's end it takes the first outcome.  It records each call's outcome count and
    the probability of the outcomes taken."""

    _BITS = np.random.PCG64(0)  # never drawn from

    def __init__(self, script: list[int], mids: np.ndarray, probs: np.ndarray):
        super().__init__(self._BITS)
        self.script, self.mids, self.probs = script, mids, probs
        self.arities, self.prob = [], 1.0

    def _choose(self, arity: int) -> int:
        k = self.script[len(self.arities)] if len(self.arities) < len(self.script) else 0
        self.arities.append(arity)
        return k

    def random(self, *args):
        k = self._choose(len(self.mids))
        self.prob *= self.probs[k]
        return float(self.mids[k])

    def integers(self, m, *args):
        self.prob /= m
        return self._choose(m)

    def permutation(self, m):
        orders = list(permutations(range(m)))
        self.prob /= len(orders)
        return np.array(orders[self._choose(len(orders))])


def outcomes(draw, weights: np.ndarray):
    """Every outcome of ``draw(gen)`` with its probability, for a draw whose random calls
    are those of :class:`ScriptedGenerator` and whose first-index weights are ``weights``:
    the scripts run through all choices in lexicographic order."""
    cum = np.concatenate(([0], np.cumsum(weights)))
    mids = ((cum[:-1] + cum[1:]) / (2 * cum[-1]))[weights > 0]
    probs = weights[weights > 0] / cum[-1]
    script = []
    while True:
        gen = ScriptedGenerator(script, mids, probs)
        result = draw(gen)
        yield gen.prob, result
        script = gen.script + [0] * (len(gen.arities) - len(gen.script))
        while script and script[-1] + 1 == gen.arities[len(script) - 1]:
            script.pop()
        if not script:
            return
        script[-1] += 1


def assert_uniform_map_law(n: int, s: int, rng: RngStream, reps: int = 25_000) -> None:
    """The weighted law of ``sample_map_decoration`` over canonical maps is uniform.

    Draws are tallied per decorated excursion, and each of those is glued once."""
    drawn = Counter()
    for gen in rng.generators(reps):
        exc, xi, w = sample_map_decoration(n, s, gen)
        drawn[exc, xi] += w
    acc = Counter()
    for (exc, xi), wsum in drawn.items():
        acc[insert_edges(exc, xi).canonical_key()] += wsum
    universe = {m.canonical_key() for m in enumerate_maps(n, s)}
    assert set(acc) == universe
    total = sum(acc.values())
    p = 1 / len(universe)
    for key, wsum in acc.items():
        assert abs(wsum / total - p) < three_sigma(p, reps) + 0.01


def bareiss_tree_count(n: int, edges) -> int:
    """Matrix-tree oracle: the reduced Laplacian's determinant by exact integer Bareiss."""
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
        lap[u - 1][v - 1] -= 1
        lap[v - 1][u - 1] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, size):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    for row in m:
                        row[k], row[swap] = row[swap], row[k]
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[size - 1][size - 1]


class TestSurplusGraphs:
    def test_counts(self):
        assert len(enumerate_surplus_graphs(2, 1)) == 0
        assert len(enumerate_surplus_graphs(3, 1)) == 3
        for n in (2, 3, 4, 5):
            assert len(enumerate_surplus_graphs(n, 0)) == n ** (n - 1)

    def test_spanning_tree_counts(self):
        assert spanning_tree_count(3, [(1, 2), (2, 3), (1, 3)]) == 3
        k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert spanning_tree_count(4, k4) == 16
        assert spanning_tree_count(4, [(1, 2), (2, 3), (3, 4)]) == 1
        assert spanning_tree_count(4, [(1, 2), (3, 4)]) == 0

    def test_tree_count_matches_bareiss_exhaustive(self):
        for n in range(1, 7):
            for s in range(3):
                for edges in {g.edges for g in enumerate_surplus_graphs(n, s)}:
                    assert spanning_tree_count(n, edges) == bareiss_tree_count(n, edges)

    def test_tree_count_matches_bareiss_random(self):
        rnd = np.random.default_rng(61)
        kinds = Counter()
        for _ in range(300):
            n = int(rnd.integers(2, 41))
            pairs = list(combinations(range(1, n + 1), 2))
            if rnd.random() < 0.5:
                # a random tree plus up to 6 surplus edges: sparse, often several kernel vertices
                parent = [0, 0] + [int(rnd.integers(1, v)) for v in range(2, n + 1)]
                extra = rnd.choice(len(pairs), size=min(len(pairs), int(rnd.integers(7))),
                                   replace=False)
                edges = {(parent[v], v) for v in range(2, n + 1)} | {pairs[k] for k in extra}
            else:
                p = rnd.choice([0.03, 0.1, 0.5, 0.9])
                edges = {e for e in pairs if rnd.random() < p}
            tau = spanning_tree_count(n, edges)
            assert tau == bareiss_tree_count(n, edges)
            kinds["disconnected" if tau == 0 else "dense" if len(edges) > 2 * n
                  else "sparse"] += 1
        assert min(kinds.values()) >= 20 and len(kinds) == 3

    def test_tree_count_kernels(self):
        # theta graph: three paths of lengths 2, 3, 4 between two kernel vertices
        theta = [(1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (1, 6), (6, 7), (7, 8), (8, 3)]
        assert spanning_tree_count(8, theta) == 2 * 3 + 3 * 4 + 2 * 4
        # figure eight: a single kernel vertex with two loop paths, plus a pendant vertex
        eight = [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 6), (6, 1), (6, 7)]
        assert spanning_tree_count(7, eight) == 3 * 4
        # multigraph edges and loops, as the Laplacian sees them
        assert spanning_tree_count(2, [(1, 2), (1, 2), (2, 2)]) == 2
        assert spanning_tree_count(3, [(1, 2), (1, 2), (2, 3), (2, 3), (1, 3)]) == 8

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_rank_draw_equals_pool(self, s):
        """The rank draw of the surplus edges picks what a list of free pairs would."""
        for n in range(3, 301):
            gen, oracle = RngStream(n, (s,)).generator(), RngStream(n, (s,)).generator()
            tree = sample_labeled_tree(n, oracle)
            tree_edges = {tuple(sorted((v, tree.parent[v]))) for v in range(1, n + 1)
                          if v != tree.root}
            pool = [e for e in combinations(range(1, n + 1), 2) if e not in tree_edges]
            if len(pool) < s:
                with pytest.raises(DegenerateEnsembleError):
                    sample_surplus_graph(n, s, gen)
                continue
            extra = [pool[k] for k in oracle.choice(len(pool), size=s, replace=False)] if s else []
            g, _ = sample_surplus_graph(n, s, gen)
            assert g.edges == frozenset(tree_edges | set(extra)) and g.root == tree.root
            assert gen.random() == oracle.random()

    def test_no_simple_graph_error(self):
        with pytest.raises(DegenerateEnsembleError):
            sample_surplus_graph(2, 1, RngStream(3).generator())

    def test_weighted_uniformity_n4_s1(self):
        reps = 30_000
        rng = RngStream(99)
        acc = Counter()
        for r in range(reps):
            g, w = sample_surplus_graph(4, 1, rng.substream(r).generator())
            acc[g] += w
        universe = {g for g in enumerate_surplus_graphs(4, 1)}
        assert set(acc) == universe
        total = sum(acc.values())
        p = 1 / len(universe)
        for key, wsum in acc.items():
            assert abs(wsum / total - p) < three_sigma(p, reps) + 0.01


class TestSymmetrize:
    def test_surplus_zero_identity(self):
        tree_edges = frozenset({(1, 2), (2, 3)})
        g = RootedGraph(3, 1, tree_edges)
        res = symmetrize(g, RngStream(1).generator())
        assert res.sbf.edges() == {frozenset(e) for e in tree_edges}
        assert res.sbar == res.sbf

    def test_triangle(self):
        g = RootedGraph(3, 1, frozenset({(1, 2), (1, 3), (2, 3)}))
        res = symmetrize(g, RngStream(1).generator())
        assert res.sbf.parent[2] == 1 and res.sbf.parent[3] == 1
        assert res.surplus_pairs == ((2, 3),)
        assert res.sbar == res.sbf  # equal heights: no swap possible

    def test_swap_preserves_profile(self):
        # vertex 4 sits one level below surplus partner 3, so the swap can trigger
        g = RootedGraph(4, 1, frozenset({(1, 2), (1, 3), (2, 4), (3, 4)}))
        seen = set()
        for seed in range(20):
            res = symmetrize(g, RngStream(seed).generator())
            assert res.surplus_pairs == ((4, 3),)
            assert res.sbar is not None
            assert height_profile(res.sbar).z == height_profile(res.sbf).z
            seen.add(tuple(res.sbar.parent))
        assert seen == {(0, 0, 1, 1, 2), (0, 0, 1, 1, 3)}  # both swap outcomes occur

    def test_degenerate_two_close_pairs(self):
        # two surplus edges whose deeper endpoints share a level
        edges = {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}
        g = RootedGraph(4, 1, frozenset(edges))
        res = symmetrize(g, RngStream(5).generator())
        assert res.sbar is None

    def test_sbf_distance_preserving(self):
        rng = RngStream(17)
        for r in range(100):
            g, _ = sample_surplus_graph(7, 2, rng.substream(r).generator())
            res = symmetrize(g, rng.substream(1000 + r).generator())
            heights = res.sbf.heights()
            dist = _graph_distances(g)
            assert all(heights[v] == dist[v] for v in range(1, g.n + 1))


def _graph_distances(g: RootedGraph):
    adj = g.adjacency()
    dist = {g.root: 0}
    frontier = [g.root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


class TestProfileWeights:
    def test_w1_examples(self):
        assert w1_weight(HeightProfile((1, 2))) == 1   # center-rooted path on 3 labels
        assert w1_weight(HeightProfile((1, 1, 1))) == 0  # end-rooted path
        assert w1_weight(HeightProfile((1, 3))) == 3   # three same-level pairs
        assert w1_weight(HeightProfile((1, 2, 1))) == Fraction(3, 2)

    def test_ws_reduces_to_w1(self):
        for z in [(1, 2, 3, 1), (1, 1, 4), (1, 5, 2, 2)]:
            prof = HeightProfile(z)
            assert ws_weight(prof, 1) == w1_weight(prof)

    def test_ws_matches_level_tuple_sum(self):
        # s = 0..4 on every profile of a rooted labeled tree with n <= 6, against
        # the sum over level tuples with gaps >= 2 of products of level terms
        profiles = {height_profile(prufer_decode(seq, n, root)).z
                    for n in range(2, 7)
                    for seq in product(range(1, n + 1), repeat=n - 2)
                    for root in range(1, n + 1)}
        for z in profiles:
            term = [0] + [comb(z[k], 2) + Fraction(z[k] * (z[k - 1] - 1), 2)
                          for k in range(1, len(z))]
            for s in range(5):
                brute = Fraction(0)
                for levels in combinations(range(1, len(z)), s):
                    if all(b - a >= 2 for a, b in zip(levels, levels[1:])):
                        prod = Fraction(1)
                        for k in levels:
                            prod *= term[k]
                        brute += prod
                assert ws_weight(HeightProfile(z), s) == brute, (z, s)

    def test_ws_replacement_bound(self):
        # 0 <= W1^s - s! Ws <= c W1^{s-1} max(z)^2 with c = 3 s^2 2^s
        rng = RngStream(23)
        for r in range(200):
            t = sample_labeled_tree(9, rng.substream(r).generator())
            prof = height_profile(t)
            for s in (2, 3):
                w1 = w1_weight(prof)
                ws = ws_weight(prof, s)
                from math import factorial

                diff = w1 ** s - factorial(s) * ws
                assert diff >= 0
                cap = 3 * s * s * 2 ** s * (w1 ** max(s - 1, 0)) * max(prof.z) ** 2
                assert diff <= cap

    def test_gamma_bound(self):
        rng = RngStream(29)
        for r in range(25):
            t = sample_labeled_tree(6, rng.substream(r).generator())
            prof = height_profile(t)
            s = 2
            assert count_degenerate_tuples(t, s) <= degenerate_tuple_bound(prof, 6, s)

    def test_degenerate_rate_shrinks(self):
        # empty-symmetrization frequency looks like c/sqrt(n)
        rates = {}
        for n in (30, 120):
            rng = RngStream(37 + n)
            reps = 400
            empties = 0
            for r in range(reps):
                g, _ = sample_surplus_graph(n, 2, rng.substream(r).generator())
                if symmetrize(g, rng.substream(10_000 + r).generator()).sbar is None:
                    empties += 1
            rates[n] = empties / reps
        assert rates[30] * sqrt(30) < 6.0
        assert rates[120] * sqrt(120) < 6.0
        assert rates[120] < rates[30] + 0.05


class TestDecorationCounts:
    def test_closed_form_vs_enumeration(self):
        from surplus_lab.maps import enumerate_admissible

        for n in range(1, 6):
            for f in enumerate_excursions(n):
                for mode in ("bf", "df"):
                    for s in (0, 1, 2):
                        assert decoration_count(f, s, mode) == \
                            len(enumerate_admissible(f, s, mode))
                    gap = 2 * decoration_count(f, 2, mode) - decoration_count(f, 1, mode) ** 2
                    assert decoration_count_gap(f, 2, mode) == gap

    def test_surplus_above_two_rejected(self):
        f = sample_uniform_excursion(6, RngStream(1).generator())
        for fn in (decoration_count, decoration_count_gap):
            with pytest.raises(ValueError):
                fn(f, 3, "bf")

    def test_int64_overflow_rejected(self):
        # one vertex carrying 2^20 leaves: the s = 2 sum of squares may pass 2^63
        n = 2 ** 20 + 1
        values = np.ones(2 * n + 1, dtype=np.int64)
        values[2:-1:2] = 2
        values[0] = values[-1] = 0
        with pytest.raises(ValueError, match="overflows 64-bit"):
            decoration_count_gap(LatticeExcursion(values, validate=False), 2, "bf")


class TestTiltedExpectationOracle:
    def test_matches_exact_tilted_expectation(self):
        # enumerate the exact breadth-first tilted mean of the maximum height
        # at n = 4 and check the self-normalized estimate within 3 SE
        exact_num = exact_den = 0
        for f in enumerate_excursions(4):
            w = bf_total(f)
            exact_num += w * f.max_height()
            exact_den += w
        exact = exact_num / exact_den
        ens = tilted_ensemble(4, 1, "bf", 20_000, RngStream(61),
                              {"max": lambda smp: float(smp.exc.max_height())})
        est, se = ens.estimate("max")
        assert abs(est - exact) < 3 * se

    def test_df_tilted_expectation(self):
        from surplus_lab.local_time import inverse_height_functional

        exact_num = exact_den = 0
        for f in enumerate_excursions(5):
            w = df_total(f) ** 2
            exact_num += w * inverse_height_functional(f).raw
            exact_den += w
        exact = exact_num / exact_den
        ens = tilted_ensemble(5, 2, "df", 20_000, RngStream(62),
                              {"inv": lambda smp: inverse_height_functional(smp.exc).raw})
        est, se = ens.estimate("inv")
        assert abs(est - exact) < 3 * se


class TestSurplusGraphUniformityN5:
    def test_weighted_uniformity_n5_s1(self):
        # 1110 rooted unit-surplus graphs; per-cell binomial bound with a
        # multiple-testing allowance on top (fixed seed, deterministic)
        reps = 40_000
        rng = RngStream(71)
        acc = Counter()
        for r in range(reps):
            g, w = sample_surplus_graph(5, 1, rng.substream(r).generator())
            acc[g] += w
        universe = {g for g in enumerate_surplus_graphs(5, 1)}
        assert set(acc) <= universe
        assert len(acc) > 0.98 * len(universe)
        total = sum(acc.values())
        p = 1.0 / len(universe)
        worst = max(abs(wsum / total - p) for wsum in acc.values())
        assert worst < 6.0 * sqrt(p * (1 - p) / reps)


class TestEnsembleInvariants:
    def test_weight_validation(self):
        import numpy as np

        with pytest.raises(ValueError):
            WeightedEnsemble(mode="bf", tilt=0, weights=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            WeightedEnsemble(mode="bf", tilt=0, weights=np.array([1.0, np.inf]))

    def test_ess_range(self):
        ens = tilted_ensemble(10, 1, "bf", 64, RngStream(2), {})
        assert 1.0 <= ens.ess() <= 64.0
