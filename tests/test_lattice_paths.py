"""Paths, trees, profiles, and the Vervaat rotation of bridges into excursions."""

from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplus_lab.lattice_paths import (
    EnumerationCapExceeded,
    LabeledTree,
    LatticeExcursion,
    PlaneTree,
    catalan,
    contour_of_tree,
    enumerate_excursions,
    excursion_count,
    height_profile,
    tree_of_contour,
    vervaat_excursion,
)
from surplus_lab.samplers import sample_uniform_excursion

from path_reference import excursion_from_shape, rotate_at_minimum
from tree_reference import lukasiewicz_of_tree, plane_tree_profile, preorder_index


def excursion_values(n: int) -> list[int]:
    """A fixed excursion of half-length ``n``, as a list."""
    return sample_uniform_excursion(n, np.random.default_rng(n)).values.tolist()


def path_tree(depth: int) -> PlaneTree:
    """Single branch of the given depth below the root."""
    vals = list(range(depth + 1)) + list(range(depth - 1, -1, -1))
    return tree_of_contour(LatticeExcursion(vals))


class TestExcursionType:
    def test_valid(self):
        f = LatticeExcursion([0, 1, 2, 1, 0])
        assert f.n == 2
        assert f.max_height() == 2

    @pytest.mark.parametrize("cls, vals", [(LatticeExcursion, [0, 1, 2, 1, 0])])
    def test_caller_array_stays_writeable(self, cls, vals):
        # an int64 array once became the path's own storage and was made read-only
        arr = np.array(vals)
        path = cls(arr)
        assert arr.flags.writeable and not path.values.flags.writeable
        arr[1] = 7
        assert path.values.tolist() == vals

    @pytest.mark.parametrize("vals", [
        [0, 1, 2, 1],          # even length
        [1, 2, 1, 2, 1],       # does not start at 0
        [0, 1, 0, 1, 0],       # interior touches 0
        [0, 2, 1, 1, 0],       # bad step
    ])
    def test_invalid(self, vals):
        with pytest.raises(ValueError):
            LatticeExcursion(vals)

    @pytest.mark.parametrize("n", [5, 1000])
    @pytest.mark.parametrize("defect, message", [
        ("even length", r"odd length 2n\+1"),
        ("start", "start and end at 0"),
        ("end", "start and end at 0"),
        ("zero step", r"steps must be \+-1"),
        ("two steps", r"steps must be \+-1"),
        ("zero interior", "interior must be strictly positive"),
    ])
    def test_rejection_messages(self, n, defect, message):
        # each defect alone, on a path of length 2n+1 (or 2n, for the even length)
        vals = excursion_values(n)
        top = vals.index(max(vals))  # a peak of height >= 2: both neighbours one lower
        bad = {
            "even length": vals[:-1],
            "start": [2] + vals[1:],
            "end": vals[:-1] + [2],
            "zero step": vals[:top] + [vals[top] - 1] + vals[top + 1:],
            "two steps": [0] + [v + 1 for v in vals[1:-1]] + [0],  # +2 first, -2 last
            "zero interior": excursion_values(n // 2)[:-1] + excursion_values(n - n // 2),
        }[defect]
        assert len(bad) == 2 * n + (defect != "even length")
        with pytest.raises(ValueError, match=message):
            LatticeExcursion(bad)

    def test_steps_roundtrip(self):
        f = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
        assert f.steps_string() == "UUDUDD"
        assert LatticeExcursion.from_steps(f.steps_string()) == f


class TestContour:
    def test_single_branch(self):
        # single edge and the depth-2 path
        assert contour_of_tree(path_tree(1)).as_tuple() == (0, 1, 0)
        assert contour_of_tree(path_tree(2)).as_tuple() == (0, 1, 2, 1, 0)

    def test_two_children(self):
        # root - a with children b, c: hand contour walk
        f = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
        t = tree_of_contour(f)
        assert len(t.children[1]) == 2
        assert contour_of_tree(t) == f

    def test_single_edge_decode(self):
        t = tree_of_contour(LatticeExcursion([0, 1, 0]))
        assert t.n == 1
        assert t.children[0] == [1]

    def test_roundtrip_exhaustive(self):
        # identity on every tree up to n = 6 (beyond the n = 4 floor in the contract)
        for n in range(1, 7):
            for f in enumerate_excursions(n):
                assert contour_of_tree(tree_of_contour(f)) == f

    def test_parens(self):
        f = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
        assert f.to_parens() == "(()())"
        assert LatticeExcursion.from_parens(" (()()) ") == f
        assert repr(tree_of_contour(f)) == "PlaneTree(parens='(()())')"
        for bad in ("(()", "(()x)", ")("):
            with pytest.raises(ValueError):
                LatticeExcursion.from_parens(bad)


class TestLukasiewicz:
    def test_examples(self):
        assert lukasiewicz_of_tree(path_tree(1)) == [0, 0, -1]
        assert lukasiewicz_of_tree(path_tree(2)) == [0, 0, 0, -1]
        t = tree_of_contour(LatticeExcursion([0, 1, 2, 1, 2, 1, 0]))
        assert lukasiewicz_of_tree(t) == [0, 0, 1, 0, -1]

    def test_consistency_exhaustive(self):
        # same tree: vertex count and ending value agree for every n <= 5
        for n in range(1, 6):
            for f in enumerate_excursions(n):
                t = tree_of_contour(f)
                s = lukasiewicz_of_tree(t)
                assert len(s) == t.n + 2
                assert s[-1] == -1
                assert min(s[:-1]) >= 0


class TestHeightProfile:
    def test_path(self):
        assert plane_tree_profile(path_tree(2)).z == (1, 1, 1)

    def test_star(self):
        # root - a, a with three children
        f = LatticeExcursion([0, 1, 2, 1, 2, 1, 2, 1, 0])
        assert plane_tree_profile(tree_of_contour(f)).z == (1, 1, 3)

    def test_labeled_path_center_root(self):
        t = LabeledTree(3, 2, {1: 2, 2: 0, 3: 2})
        assert height_profile(t).z == (1, 2)

    def test_mass(self):
        for n in range(1, 6):
            for f in enumerate_excursions(n):
                t = tree_of_contour(f)
                assert plane_tree_profile(t).total == t.n + 1


def bridge_steps(k: int):
    """Every step vector with ``k`` up-steps and ``k + 1`` down-steps."""
    for ups in combinations(range(2 * k + 1), k):
        steps = np.full(2 * k + 1, -1, dtype=np.int64)
        steps[list(ups)] = 1
        yield steps


class TestVervaat:
    def test_identity_case(self):
        # a bridge that stays nonnegative until its last step is not rotated
        assert vervaat_excursion([1, -1, 1, -1, -1]).as_tuple() == (0, 1, 2, 1, 2, 1, 0)

    def test_rotation_by_one(self):
        # the first minimum is after the first step: the rest comes first
        assert vervaat_excursion([-1, 1, 1, -1, -1]).as_tuple() == (0, 1, 2, 3, 2, 1, 0)

    def test_cycle_lemma_n2(self):
        # ten bridges over two excursions, five preimages each
        fibers = Counter(vervaat_excursion(steps) for steps in bridge_steps(2))
        assert sum(fibers.values()) == 10
        assert set(fibers) == set(enumerate_excursions(3))
        assert set(fibers.values()) == {5}

    def test_fiber_counts(self):
        for k in range(1, 6):
            fibers = Counter(vervaat_excursion(steps) for steps in bridge_steps(k))
            assert set(fibers) == set(enumerate_excursions(k + 1))
            assert len(fibers) == catalan(k)
            assert set(fibers.values()) == {2 * k + 1}

    def test_shape_conversion_roundtrip(self):
        # an excursion's steps after its root step are a bridge that needs no rotation
        for n in range(1, 6):
            for f in enumerate_excursions(n):
                assert vervaat_excursion(np.diff(f.values[1:])) == f
                assert excursion_from_shape(f.values[1:] - 1) == f  # drop the root step

    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_vervaat_property(self, n, rnd):
        steps = [1] * n + [-1] * (n + 1)
        rnd.shuffle(steps)
        f = vervaat_excursion(steps)
        assert LatticeExcursion(f.values) == f  # a valid excursion
        assert sorted(np.diff(f.values[1:])) == sorted(steps)
        # the reference rotation of the same bridge, as partial sums
        assert excursion_from_shape(rotate_at_minimum(np.cumsum([0, *steps]))) == f


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_excursions(1)) == 1
        assert len(enumerate_excursions(3)) == 2
        assert len(enumerate_excursions(4)) == 5
        for n in range(1, 11):
            assert excursion_count(n) == catalan(n - 1)
        for n in range(1, 9):
            assert len(enumerate_excursions(n)) == excursion_count(n)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_excursions(13)

    def test_all_valid_and_distinct(self):
        for n in range(1, 8):
            seen = {f.as_tuple() for f in enumerate_excursions(n)}
            assert len(seen) == excursion_count(n)
            for tup in seen:
                LatticeExcursion(tup)  # validates


class TestLabeledTree:
    def test_heights(self):
        t = LabeledTree(4, 3, {1: 3, 2: 1, 3: 0, 4: 1})
        assert t.heights()[1:] == [1, 2, 0, 2]

    def test_bad_parent_array(self):
        with pytest.raises(ValueError):
            LabeledTree(3, 1, {1: 0, 2: 3, 3: 2}).heights()

    def test_forest_parent_array(self):
        with pytest.raises(ValueError):
            LabeledTree(3, 1, {1: 0, 2: 1, 3: 0}).heights()

    def test_heights_against_root_search(self):
        # every parent array on n <= 5 labels (entries 0..n): heights() equals a
        # search from the root on trees and raises ValueError on everything else
        for n in range(1, 6):
            for root in range(1, n + 1):
                others = [v for v in range(1, n + 1) if v != root]
                for ups in product(range(n + 1), repeat=n - 1):
                    parent = [0] * (n + 1)
                    for v, p in zip(others, ups):
                        parent[v] = p
                    depth = [-1] * (n + 1)
                    depth[root] = 0
                    queue = [root]
                    for u in queue:
                        for v in others:
                            if parent[v] == u and depth[v] < 0:
                                depth[v] = depth[u] + 1
                                queue.append(v)
                    t = LabeledTree(n, root, parent)
                    if len(queue) == n:
                        assert t.heights()[1:] == depth[1:]
                    else:
                        with pytest.raises(ValueError):
                            t.heights()

    def test_preorder_index(self):
        t = tree_of_contour(LatticeExcursion([0, 1, 2, 1, 2, 1, 0]))
        pos = preorder_index(t)
        assert pos[0] == 0
        assert sorted(pos) == list(range(t.n + 1))
