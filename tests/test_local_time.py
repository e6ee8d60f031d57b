"""Local-time fields, corner weights, and excursion functionals.

Brute-force oracles evaluate the defining sets directly, and O(n) sweeps
over the path are the reference definitions of the per-corner tables; the
module under test must reproduce them exactly.
"""

import numpy as np
import pytest

from surplus_lab.lattice_paths import LatticeExcursion, enumerate_excursions, tree_of_contour
from surplus_lab.local_time import (
    area_functional,
    bf_per_index,
    contour_tree,
    corner_index,
    corner_total,
    df_per_index,
    inverse_height_functional,
    level_occupancy,
    sq_localtime_functional,
    vertex_times,
)
from surplus_lab.samplers import RngStream, _terms, sample_uniform_excursion

from tree_reference import (
    LocalTimeField,
    corner_weight_telescope,
    lukasiewicz_of_tree,
    preorder_index,
)


def oracle_bf_set(vals, i):
    """Direct evaluation of the defining set of the breadth-first weight."""
    two_n = len(vals) - 1
    return [j for j in range(max(i, 1), two_n) if vals[j] in (vals[i], vals[i] - 1)]


def oracle_df_set(vals, i):
    """Union over levels of the no-dip revisit sets."""
    two_n = len(vals) - 1
    out = set()
    for y in range(1, vals[i] + 1):
        for u in range(i, two_n + 1):
            if vals[u] == y and min(vals[i:u + 1]) >= y and u <= two_n - 1:
                out.add(u)
    return sorted(out)


def random_excursions(count, n, seed):
    rng = RngStream(seed)
    return [sample_uniform_excursion(n, rng.substream(r).generator()) for r in range(count)]


def sweep_bf(values):
    """Backward sweep: ``B(f; i)`` from per-level counts of the later corners."""
    two_n = len(values) - 1
    cnt = [0] * (max(values) + 2)
    out = [0] * (two_n + 1)
    for i in range(two_n - 1, 0, -1):
        h = values[i]
        cnt[h] += 1
        out[i] = cnt[h] + cnt[h - 1]
    return out


def sweep_df(values):
    """Backward sweep: ``D(f; i)`` from, per level, the later times at which the
    running minimum from ``i`` sits there; stepping left past an up-step kills
    the level above."""
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


def sweep_second_bf(values):
    """Forward sweep: the corners up to ``c`` at level ``f(c)`` and at ``f(c) + 1``."""
    two_n = len(values) - 1
    cnt = [0] * (max(values) + 2)
    out = [0] * (two_n + 1)
    for c in range(1, two_n):
        cnt[values[c]] += 1
        out[c] = cnt[values[c]] + cnt[values[c] + 1]
    return out


def sweep_second_df(values):
    """Forward sweep with a stack: ``c`` minus the last earlier time below ``f(c)``."""
    two_n = len(values) - 1
    out = [0] * (two_n + 1)
    stack = [0]
    for c in range(1, two_n):
        while values[stack[-1]] >= values[c]:
            stack.pop()
        out[c] = c - stack[-1]
        stack.append(c)
    return out


def df_level_sets(f, i):
    """The depth-first partners of ``i`` bucketed by level: the times ``u >= i``
    with ``f(u) = y`` and ``min f[i..u] >= y`` for each level ``y >= 1``."""
    vals = f.values.tolist()
    buckets = {}
    runmin = vals[i]
    for j in range(max(i, 1), len(vals) - 1):
        runmin = min(runmin, vals[j])
        if runmin < 1:
            break
        if vals[j] == runmin:
            buckets.setdefault(vals[j], []).append(j)
    return buckets


def tent(height):
    return LatticeExcursion(list(range(height)) + list(range(height, -1, -1)))


def assert_totals_match_tables(f):
    index = corner_index(f.values)
    assert corner_total(f.values, "bf") == int(bf_per_index(index).sum())
    assert corner_total(f.values, "df") == int(df_per_index(index).sum())


def assert_tables_match_sweeps(f):
    vals = f.values.tolist()
    index = corner_index(f.values)
    assert bf_per_index(index).tolist() == sweep_bf(vals)
    assert df_per_index(index).tolist() == sweep_df(vals)
    for mode, first, second in (("bf", sweep_bf, sweep_second_bf),
                                ("df", sweep_df, sweep_second_df)):
        ends = [a + b for a, b in zip(first(vals), second(vals))]
        assert _terms(f, 1, mode)[1].tolist() == [ends[t] for t in index.times]


def assert_same_tree(f):
    tree = tree_of_contour(f)
    at, parent = contour_tree(f.values, corner_index(f.values))
    assert at.tolist() == tree.vertex_at_time
    assert parent.tolist() == tree.parent
    assert f.values[vertex_times(f.values)].tolist() == tree.depth


class TestContourTree:
    """The tree read off the corner index against the decoded plane tree."""

    def test_matches_decoder_exhaustive(self):
        count = 0
        for n in range(1, 9):
            for f in enumerate_excursions(n):
                assert_same_tree(f)
                count += 1
        assert count == 626

    def test_matches_decoder_n1000(self):
        for f in random_excursions(200, 1000, 41):
            assert_same_tree(f)

    def test_example(self):
        f = LatticeExcursion([0, 1, 2, 1, 2, 3, 2, 1, 0])
        at, parent = contour_tree(f.values, corner_index(f.values))
        assert at.tolist() == [0, 1, 2, 1, 3, 4, 3, 1, 0]
        assert parent.tolist() == [-1, 0, 1, 1, 3]
        assert vertex_times(f.values.tolist()).tolist() == [0, 1, 2, 4, 5]


class TestLocalTime:
    def test_count_example(self):
        f = LatticeExcursion([0, 1, 2, 1, 0])
        assert LocalTimeField.of(f).lattice(4, 1) == 2  # visits at j = 1, 3

    def test_origin(self):
        for f in enumerate_excursions(4):
            assert LocalTimeField.of(f).lattice(0, 0) == 1

    def test_domain_error(self):
        field = LocalTimeField.of(LatticeExcursion([0, 1, 0]))
        with pytest.raises(ValueError):
            field.lattice(3, 0)
        with pytest.raises(ValueError):
            field.lattice(-1, 0)

    def test_lattice_counts_match_definition(self):
        for f in enumerate_excursions(4):
            field = LocalTimeField.of(f)
            vals = f.values.tolist()
            for t in range(len(vals)):
                for y in range(max(vals) + 2):
                    assert field.lattice(t, y) == sum(1 for j in range(t + 1) if vals[j] == y)

    def test_monotone_in_time(self):
        f = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
        field = LocalTimeField.of(f)
        for y in range(3):
            col = [field.lattice(t, y) for t in range(7)]
            assert col == sorted(col)

    def test_terminal_mass(self):
        for f in enumerate_excursions(5):
            occ = level_occupancy(f)
            assert occ.sum() == 2 * f.n + 1
            field = LocalTimeField.of(f)
            assert [field.lattice(2 * f.n, y) for y in range(len(occ))] == occ.tolist()


class TestCornerWeights:
    def test_bf_example(self):
        per = bf_per_index(corner_index([0, 1, 2, 1, 0]))
        assert per.tolist() == [0, 2, 2, 1, 0]
        assert sum(per) == 5

    def test_bf_single_edge(self):
        assert bf_per_index(corner_index([0, 1, 0])).tolist() == [0, 1, 0]

    def test_df_example(self):
        per = df_per_index(corner_index([0, 1, 2, 1, 0]))
        assert per.tolist() == [0, 2, 2, 1, 0]
        assert sum(per) == 5

    def test_df_single_edge(self):
        assert sum(df_per_index(corner_index([0, 1, 0]))) == 1

    def test_sets_against_oracle_exhaustive(self):
        for n in range(1, 7):
            for f in enumerate_excursions(n):
                vals = f.values.tolist()
                index = corner_index(vals)
                bw = bf_per_index(index)
                dw = df_per_index(index)
                for i in range(2 * n + 1):
                    assert bw[i] == len(oracle_bf_set(vals, i))
                    assert dw[i] == len(oracle_df_set(vals, i))

    def test_sets_against_oracle_sampled(self):
        for f in random_excursions(5, 60, seed=5):
            vals = f.values.tolist()
            index = corner_index(vals)
            bw = bf_per_index(index)
            dw = df_per_index(index)
            for i in range(0, 2 * f.n + 1, 7):
                assert bw[i] == len(oracle_bf_set(vals, i))
                assert dw[i] == len(oracle_df_set(vals, i))

    def test_boundary_zero(self):
        for f in enumerate_excursions(5):
            index = corner_index(f.values)
            for per in (bf_per_index(index), df_per_index(index)):
                assert per[0] == 0 and per[-1] == 0

    def test_df_level_sets_partition(self):
        # the bucketed reference of the depth-first draw covers the partner set
        for f in enumerate_excursions(5):
            for i in range(1, 2 * f.n):
                buckets = df_level_sets(f, i)
                flat = sorted(t for ts in buckets.values() for t in ts)
                assert flat == oracle_df_set(f.values.tolist(), i)
                for y, ts in buckets.items():
                    assert all(f.values[t] == y for t in ts)

    def test_tables_match_sweeps_exhaustive(self):
        for n in range(1, 8):
            for f in enumerate_excursions(n):
                assert_tables_match_sweeps(f)

    def test_tables_match_sweeps_sampled(self):
        for f in random_excursions(200, 1000, seed=17):
            assert_tables_match_sweeps(f)

    def test_tables_match_sweeps_at_extreme_heights(self):
        # a tent above 2^15 needs wider sort keys than int16; n = 1 has one corner
        for f in (tent(2 ** 15 + 3), LatticeExcursion([0, 1, 0])):
            assert_tables_match_sweeps(f)

    def test_closed_form_totals_exhaustive(self):
        # B(f) and D(f) read off the runs of the level order are the sums of the tables
        for n in range(1, 9):
            for f in enumerate_excursions(n):
                assert_totals_match_tables(f)

    def test_closed_form_totals_sampled(self):
        for f in random_excursions(200, 1000, 17):
            assert_totals_match_tables(f)

    @pytest.mark.parametrize("height", [1, 255, 256, 2 ** 15 + 3])
    def test_closed_form_totals_of_tents(self, height):
        # n = 1 has one corner; heights 255, 256 and 2^15 + 3 sort on one-, two- and
        # four-byte keys
        assert_totals_match_tables(tent(height))

    def test_telescope_identity(self):
        # the local-time telescoping sum overcounts by the number of height-one corners
        for n in range(1, 7):
            for f in enumerate_excursions(n):
                tele, total, boundary = corner_weight_telescope(f)
                assert tele == total + boundary

    def test_weight_bounded_by_occupancy(self):
        for n in range(1, 7):
            for f in enumerate_excursions(n):
                cap = 2 * int(level_occupancy(f).max())
                assert max(bf_per_index(corner_index(f.values))) <= cap


class TestLukasiewiczSandwich:
    @staticmethod
    def check(f):
        # the walk value right after a vertex's children are appended brackets
        # the corner weight minus the corner height
        tree = tree_of_contour(f)
        s = lukasiewicz_of_tree(tree)
        pos = preorder_index(tree)
        vals = f.values.tolist()
        dw = df_per_index(corner_index(vals))
        for i in range(1, 2 * f.n):
            v = tree.vertex_at_time[i]
            li = pos[v] + 1
            zeta = tree.degree(v)
            diff = dw[i] - vals[i]
            assert s[li] - zeta <= diff <= s[li] + 1

    def test_exhaustive(self):
        for n in range(1, 7):
            for f in enumerate_excursions(n):
                self.check(f)

    def test_sampled(self):
        for f in random_excursions(10, 40, seed=9):
            self.check(f)


class TestFunctionals:
    def test_sq_localtime(self):
        raw, scaled = sq_localtime_functional(LatticeExcursion([0, 1, 0]))
        assert raw == 5  # occupancy (2, 1)
        raw2, _ = sq_localtime_functional(LatticeExcursion([0, 1, 2, 1, 0]))
        assert raw2 == 9  # occupancy (2, 2, 1)
        assert scaled == pytest.approx(5 / 2 ** 1.5)

    def test_inverse_height(self):
        assert inverse_height_functional(LatticeExcursion([0, 1, 0])).raw == 1
        raw, scaled = inverse_height_functional(LatticeExcursion([0, 1, 2, 1, 0]))
        assert raw == pytest.approx(2.5)
        assert scaled == pytest.approx(2.5 / 2.0)

    def test_inverse_height_monotone_under_insertion(self):
        # lengthening the path adds positive reciprocal terms
        short = inverse_height_functional(LatticeExcursion([0, 1, 0])).raw
        longer = inverse_height_functional(LatticeExcursion([0, 1, 2, 1, 0])).raw
        assert longer > short

    def test_area(self):
        assert area_functional(LatticeExcursion([0, 1, 0])).raw == 1
        raw, scaled = area_functional(LatticeExcursion([0, 1, 2, 1, 0]))
        assert raw == 4
        assert scaled == pytest.approx(8 / 4 ** 1.5)

    def test_area_bound(self):
        for f in enumerate_excursions(6):
            assert area_functional(f).raw <= 2 * f.n * f.max_height()

    def test_integer_sums_bit_equal_to_float_formulas(self):
        # every partial sum is an integer below 2^53, so the integer sums give the same floats
        paths = [f for n in range(1, 9) for f in enumerate_excursions(n)]
        paths += random_excursions(20, 2000, 23) + [tent(3000)]
        for f in paths:
            occ = level_occupancy(f)
            assert sq_localtime_functional(f).raw == float(np.sum(occ.astype(np.float64) ** 2))
            vals = f.values.astype(np.float64)
            assert area_functional(f).raw == float((vals[:-1] + vals[1:]).sum() / 2.0)

    def test_small_discrepancy_documented(self):
        # at n = 1 the squared-occupancy value is 5 while twice the area is 2;
        # the identity between their laws is an asymptotic statement
        f = LatticeExcursion([0, 1, 0])
        assert sq_localtime_functional(f).raw == 5
        assert 2 * area_functional(f).raw == 2
