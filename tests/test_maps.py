"""Half-edge maps: insertion, exploration, faces, pairings, gluings."""

import hashlib
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest

from surplus_lab.lattice_paths import (
    EnumerationCapExceeded,
    LatticeExcursion,
    PlaneTree,
    enumerate_excursions,
    tree_of_contour,
)
from surplus_lab import checks
from surplus_lab.checks import _root_distances
from surplus_lab.local_time import bf_per_index, contour_tree, corner_index, df_per_index
from surplus_lab.maps import (
    AdmissibleCorners,
    PermutationPairing,
    RootedMap,
    TUPLE_ENUMERATION_CAP,
    _orbits,
    admissible_pairs,
    all_pairings,
    bf_explore,
    bfs_distances,
    df_explore,
    entangled_pairings,
    enumerate_admissible,
    enumerate_pairing_tuples,
    genus_one_counts,
    insert_edges,
    is_entangled,
    metric_from_root,
    pairing_tuple,
    pairing_tuple_count,
    unicellular_glue,
)

from surplus_lab import samplers
from surplus_lab.samplers import (
    RngStream,
    enumerate_maps,
    sample_corners_bf,
    sample_corners_df,
    sample_map_decoration,
    sample_uniform_excursion,
)

from glue_reference import glue_heights_ok
from test_local_time import oracle_bf_set, oracle_df_set
from tree_reference import plane_tree_profile, tree_adjacency

PATH2 = LatticeExcursion([0, 1, 2, 1, 0])
DOUBLE3 = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
TALL3 = LatticeExcursion([0, 1, 2, 3, 2, 1, 0])
G1 = PermutationPairing(((1, 3), (2, 4)))


def tree_map(f):
    """The plane tree coded by ``f`` itself as a rooted map (no surplus edges)."""
    return insert_edges(f, AdmissibleCorners("bf", (), ()))


def relabel(m: RootedMap, perm) -> RootedMap:
    """``m`` with half-edge ``h`` renamed ``perm[h]``; the root moves with it."""
    sigma = [0] * len(perm)
    alpha = [0] * len(perm)
    for h, p in enumerate(perm):
        sigma[p] = perm[m.sigma[h]]
        alpha[p] = perm[m.alpha[h]]
    return RootedMap(_orbits(sigma)[0], alpha, perm[m.root])


def oracle_rotation_system(tree: PlaneTree, corners: AdmissibleCorners):
    """``(sigma, alpha)`` of a decorated tree, built by walking the decoded tree.

    Tree edge to vertex ``v >= 1`` has down-half ``2(v-1)`` and up-half
    ``2(v-1)+1``; vertex ``v``'s rotation is its up-half, then the down-halves
    of its children left to right.  The contour traverses halves
    ``f_1 .. f_{2n}``, and the inserted halves of corner ``i`` enter the
    rotation just before ``f_{i+1}``, by increasing tag.
    """
    n = tree.n
    down = lambda v: 2 * (v - 1)
    up = lambda v: 2 * (v - 1) + 1
    rotations = [[down(c) for c in tree.children[0]]]
    rotations += [[up(v)] + [down(c) for c in tree.children[v]] for v in range(1, n + 1)]
    seq = []
    stack = [[0, 0]]
    while stack:
        v, k = stack[-1]
        if k < len(tree.children[v]):
            stack[-1][1] += 1
            c = tree.children[v][k]
            seq.append(down(c))
            stack.append([c, 0])
        else:
            stack.pop()
            if stack:
                seq.append(up(v))
    runs = {}
    for j in range(corners.s):
        for end in range(2):
            i, k = corners.indices[2 * j + end], corners.tags[2 * j + end]
            runs.setdefault(seq[i], []).append((k, 2 * n + 2 * j + end))
    n_half = 2 * n + 2 * corners.s
    alpha = [0] * n_half
    for h in range(0, n_half, 2):
        alpha[h], alpha[h + 1] = h + 1, h
    sigma = [0] * n_half
    for rot in rotations:
        full = []
        for h in rot:
            full.extend(x for _, x in sorted(runs.get(h, [])))
            full.append(h)
        for a, b in zip(full, full[1:] + full[:1]):
            sigma[a] = b
    return sigma, alpha


def brute_tuple_count(f, pairing):
    """O(n^{4g}) enumeration of gluable increasing corner tuples."""
    vals = f.values
    two_n = 2 * f.n
    count = 0
    for tup in combinations(range(1, two_n), 4 * pairing.g):
        ok = True
        for a, b in pairing.transpositions:
            if not 0 <= vals[tup[a - 1]] - vals[tup[b - 1]] <= 1:
                ok = False
                break
        if ok:
            count += 1
    return count


class TestTreeAsMap:
    def test_tree_map_one_face(self):
        for n in range(1, 6):
            for f in enumerate_excursions(n):
                m = tree_map(f)
                assert len(m.faces()) == 1
                assert m.genus() == 0
                assert m.surplus == 0

    def test_empty_decoration_is_identity(self):
        m = insert_edges(PATH2, AdmissibleCorners("bf", (), ()))
        f2, xi2 = bf_explore(m)
        assert f2 == PATH2 and xi2.s == 0


class TestInsertExplore:
    def test_bfac_path(self):
        xs = enumerate_admissible(PATH2, 1, "bf")
        assert sorted(x.indices for x in xs) == [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
        maps = {insert_edges(PATH2, x).canonical_key() for x in xs}
        assert len(maps) == 5

    def test_dfac_path(self):
        xs = enumerate_admissible(PATH2, 1, "df")
        assert sorted(x.indices for x in xs) == [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_single_edge_one_decoration(self):
        xs = enumerate_admissible(LatticeExcursion([0, 1, 0]), 1, "bf")
        assert [x.indices for x in xs] == [(1, 1)]  # loop at the unique child corner

    def test_n1_s2_three_maps(self):
        f = LatticeExcursion([0, 1, 0])
        xs = enumerate_admissible(f, 2, "bf")
        assert len(xs) == 3
        keys = {insert_edges(f, x).canonical_key() for x in xs}
        assert len(keys) == 3
        genera = sorted(insert_edges(f, x).genus() for x in xs)
        assert genera == [0, 0, 1]  # the crossing pairing is the only entangled one

    @pytest.mark.parametrize("mode", ["bf", "df"])
    def test_roundtrip_exhaustive(self, mode):
        explore = bf_explore if mode == "bf" else df_explore
        for n in range(1, 5):
            for s in range(1, 3):
                for f in enumerate_excursions(n):
                    for xi in enumerate_admissible(f, s, mode):
                        m = insert_edges(f, xi)
                        f2, xi2 = explore(m)
                        assert f2 == f
                        assert xi2 == xi

    def test_roundtrip_n1000(self):
        rng = RngStream(1000)
        for r in range(200):
            gen = rng.substream(r).generator()
            s = 1 + r % 3
            if r % 2:
                f, xi, _ = sample_map_decoration(1000, s, gen)
            else:
                f = sample_uniform_excursion(1000, gen)
                pairs, _ = sample_corners_df(corner_index(f.values), s, gen)
                xi = AdmissibleCorners.of_pairs("df", pairs)
            explore = bf_explore if xi.mode == "bf" else df_explore
            assert explore(insert_edges(f, xi)) == (f, xi)

    def test_explorations_ignore_half_edge_ids(self):
        # maps read from JSON need not carry the ids insert_edges gives
        rng = RngStream(77)
        maps = [m for n in range(1, 5) for s in range(3) for m in enumerate_maps(n, s)]
        for r in range(6):
            gen = rng.substream(r).generator()
            f = sample_uniform_excursion(200, gen)
            mode, draw = ("bf", sample_corners_bf) if r % 2 else ("df", sample_corners_df)
            pairs, _ = draw(corner_index(f.values), 1 + r % 3, gen)
            maps.append(insert_edges(f, AdmissibleCorners.of_pairs(mode, pairs)))
        gen = rng.generator()
        for m in maps:
            moved = relabel(m, gen.permutation(m.num_half_edges).tolist())
            assert bf_explore(moved) == bf_explore(m)
            assert df_explore(moved) == df_explore(m)

    def test_bf_height_rule_on_explored_maps(self):
        for f in enumerate_excursions(4):
            for xi in enumerate_admissible(f, 2, "bf"):
                xi.validate(f)

    def test_root_degree_rejection(self):
        # two-vertex double edge has a degree-two root
        sigma = [1, 0, 3, 2]
        alpha = [2, 3, 0, 1]
        with pytest.raises(ValueError):
            RootedMap(_orbits(sigma)[0], alpha, 0)

    @pytest.mark.parametrize("mode, indices, tags, message", [
        ("bf", (1, 3), (1,), "even equal length"),
        ("bf", (1,), (1,), "even equal length"),
        ("up", (1, 3), (1, 1), "unknown mode 'up'"),
        ("bf", (0, 1), (1, 1), r"corner index 0 outside \[1, 9\]"),
        ("df", (1, 10), (1, 1), r"corner index 10 outside \[1, 9\]"),
        ("bf", (3, 1), (1, 1), "pair not in canonical order"),
        ("bf", (3, 3), (2, 1), "pair not in canonical order"),
        ("bf", (1, 2), (1, 1), r"corner pair \(1,2\) violates the height rule"),
        ("bf", (5, 9), (1, 1), r"corner pair \(5,9\) violates the height rule"),
        ("df", (1, 2), (1, 1), "corner 2 is not at an ancestor of corner 1"),
        ("df", (5, 8), (1, 1), "corner 8 is not at an ancestor of corner 5"),
        ("bf", (2, 3, 1, 3), (1, 1, 1, 2), "pairs not sorted canonically"),
        ("bf", (1, 3, 1, 3), (2, 2, 1, 1), "pairs not sorted canonically"),
        ("bf", (1, 3, 2, 3), (1, 1, 1, 1), r"tags at corner 3 are not a permutation of 1\.\.2"),
        ("bf", (1, 1), (1, 3), r"tags at corner 1 are not a permutation of 1\.\.2"),
        # two bad corners: the one met first in ``indices`` is named
        ("bf", (2, 8, 3, 3), (1, 2, 1, 3), r"tags at corner 8 are not a permutation of 1\.\.1"),
    ])
    def test_validate_rejection_messages(self, mode, indices, tags, message):
        f = LatticeExcursion([0, 1, 2, 1, 2, 3, 2, 1, 2, 1, 0])
        with pytest.raises(ValueError, match=message):
            AdmissibleCorners(mode, indices, tags).validate(f)

    @pytest.mark.parametrize("sigma, alpha, root, message", [
        ([0], [0], 0, "odd number of half-edges"),
        ([0, 1], [5, 0], 0, "involution is not a permutation of the half-edges"),
        ([1, 0], [1], 0, "involution length mismatch"),
        ([0, 1], [0, 1], 0, "involution is not fixed-point-free"),
        ([0, 1, 2, 3], [1, 0, 2, 3], 0, "involution is not fixed-point-free"),
        ([0, 1], [1, 0], 2, "root half-edge out of range"),
        ([0, 1, 2, 3], [1, 0, 3, 2], 0, "map is not connected"),
        ([1, 0, 3, 2], [2, 3, 0, 1], 0, "root vertex must have degree one"),
        # a fixed-point-free 4-cycle is a permutation but not an involution
        ([0, 1, 2, 3], [1, 2, 3, 0], 0, "involution is not its own inverse"),
    ])
    def test_map_rejection_messages(self, sigma, alpha, root, message):
        with pytest.raises(ValueError, match=message):
            RootedMap(_orbits(sigma)[0], alpha, root)

    @pytest.mark.parametrize("cycles, alpha, root, message", [
        # a flat rotation system sigma is refused by a message that names the cycles form
        ([1, 0], [1, 0], 0, "list of non-empty lists, one cycle per vertex"),
        ([[0], [1], []], [1, 0], 0, "list of non-empty lists, one cycle per vertex"),
        ([[0], [True]], [1, 0], 0, "must be int lists"),
        ([[0], [0]], [1, 0], 0, "rotation cycles are not a permutation"),
        ([[0], [2]], [1, 0], 0, "rotation cycles are not a permutation"),
        ([[0], [-1]], [1, 0], 0, "rotation cycles are not a permutation"),
        ([[0, 0]], [1, 0], 0, "rotation cycles are not a permutation"),
        ([[0, 1]], [-1, 0], 0, "involution is not a permutation"),
        ([[0], [1]], (1, 0), 0, "must be int lists"),
        ([[0], [1]], [1, 0], "0", "root an int"),
        ([[0], [1]], [True, 0], 0, "must be int lists"),
    ])
    def test_malformed_cycles_rejected_before_sigma(self, cycles, alpha, root, message):
        # out-of-range, repeated or missing halves raise ValueError, never IndexError
        with pytest.raises(ValueError, match=message):
            RootedMap(cycles, alpha, root)

    def test_invalid_decoration_rejected(self):
        with pytest.raises(ValueError):
            insert_edges(PATH2, AdmissibleCorners("bf", (1, 2), (1, 1)))  # height rule broken
        with pytest.raises(ValueError):
            insert_edges(PATH2, AdmissibleCorners("bf", (3, 1), (1, 1)))  # order broken
        with pytest.raises(ValueError):
            insert_edges(PATH2, AdmissibleCorners("df", (1, 2), (1, 1)))  # not an ancestor

    @pytest.mark.parametrize("indices, tags", [((3,), (1,)), ((), (1,)), ((1, 3, 1), (1, 1, 2))])
    def test_uneven_decoration_rejected(self, indices, tags):
        # an odd count of ends has s = len(indices) // 2 pairs, which once skipped validation
        with pytest.raises(ValueError, match="even equal length"):
            insert_edges(DOUBLE3, AdmissibleCorners("bf", indices, tags))


class TestOfPairs:
    def test_a_loop_numbers_its_ends(self):
        assert AdmissibleCorners.of_pairs("bf", [(1, 1)]) == AdmissibleCorners("bf", (1, 1), (1, 2))

    def test_a_repeated_pair_numbers_each_corner(self):
        assert AdmissibleCorners.of_pairs("df", [(1, 3), (1, 3)]) == \
            AdmissibleCorners("df", (1, 3, 1, 3), (1, 1, 2, 2))

    def test_pair_order_does_not_matter(self):
        pairs = [(3, 3), (1, 3), (1, 1), (2, 5), (1, 3)]
        want = AdmissibleCorners("bf", (1, 1, 1, 3, 1, 3, 2, 5, 3, 3),
                                 (1, 2, 3, 1, 4, 2, 1, 1, 3, 4))
        assert {AdmissibleCorners.of_pairs("bf", p) for p in permutations(pairs)} == {want}

    def test_distinct_corners_all_read_one(self):
        # what a gluing of increasing corners relies on
        xi = AdmissibleCorners.of_pairs("bf", [(3, 6), (1, 5), (2, 4)])
        assert xi == AdmissibleCorners("bf", (1, 5, 2, 4, 3, 6), (1, 1, 1, 1, 1, 1))

    @pytest.mark.parametrize("mode", ["bf", "df"])
    def test_every_multiset_of_admissible_pairs_validates(self, mode):
        for n in range(1, 5):
            for f in enumerate_excursions(n):
                for s in (1, 2, 3):
                    for chosen in combinations_with_replacement(admissible_pairs(f, mode), s):
                        AdmissibleCorners.of_pairs(mode, chosen).validate(f)


class TestEnumerationDigest:
    def test_enumerate_admissible_digest(self):
        # every decoration, in order, for n <= 5 at s <= 2 and n <= 4 at s = 3, both modes
        digest = hashlib.sha256()
        count = 0
        for mode in ("bf", "df"):
            for n, s in [(n, 1) for n in range(1, 6)] + [(n, 2) for n in range(1, 6)] + \
                    [(n, 3) for n in range(1, 5)]:
                for f in enumerate_excursions(n):
                    for xi in enumerate_admissible(f, s, mode):
                        digest.update(repr((mode, f.steps_string(), xi.indices, xi.tags)).encode())
                        count += 1
        assert count == 72758
        assert digest.hexdigest() == \
            "c7a9d7ab137efd584d6398d9ce34430fb5f0bf5ea21279d76169357486f1e5a5"

    @pytest.mark.parametrize("mode", ["bf", "df"])
    def test_every_decoration_validates(self, mode):
        # enumeration leaves the check to insertion, so the counting suite, which inserts
        # nothing, relies on this
        for n, s in [(n, s) for n in range(1, 6) for s in (1, 2)] + [(n, 3) for n in range(1, 5)]:
            for f in enumerate_excursions(n):
                for xi in enumerate_admissible(f, s, mode):
                    xi.validate(f)


class TestContourBuilder:
    """The one-pass contour builder against the plane-tree builder it replaced."""

    @pytest.mark.parametrize("mode", ["bf", "df"])
    def test_equals_tree_builder_exhaustive(self, mode):
        built = 0
        for n in range(1, 8):
            for f in enumerate_excursions(n):
                tree = tree_of_contour(f)
                for s in range(3 if n <= 5 else 2):
                    for xi in enumerate_admissible(f, s, mode):
                        m = insert_edges(f, xi, validate=False)
                        assert (m.sigma, m.alpha) == oracle_rotation_system(tree, xi)
                        built += 1
        assert built == 18_663  # bf and df each decorate the same number of ways

    def test_equals_tree_builder_n1000(self):
        rng = RngStream(909)
        for r in range(200):
            gen = rng.substream(r).generator()
            f = sample_uniform_excursion(1000, gen)
            mode, draw = ("bf", sample_corners_bf) if r % 2 else ("df", sample_corners_df)
            xi = AdmissibleCorners.of_pairs(mode, draw(corner_index(f.values), 1 + r % 3, gen)[0])
            m = insert_edges(f, xi)
            assert (m.sigma, m.alpha) == oracle_rotation_system(tree_of_contour(f), xi)


class TestRotationCyclesPath:
    """A map keeps the rotation cycles it is built with and derives ``sigma`` and ``origin``
    from them on first read; ``_orbits`` walks the derived ``sigma`` back into the cycles
    and their vertex numbers.  Maps built unchecked must also pass the check."""

    @staticmethod
    def assert_derived_from_cycles(m: RootedMap) -> None:
        cycles, origin = _orbits(m.sigma)
        assert m.rotation_cycles() == cycles
        assert m.origin == origin
        RootedMap(cycles, m.alpha, m.root)

    @pytest.mark.parametrize("mode", ["bf", "df"])
    def test_every_small_decoration(self, mode):
        built = 0
        for n in range(1, 6):
            for f in enumerate_excursions(n):
                for s in range(3):
                    for xi in enumerate_admissible(f, s, mode):
                        self.assert_derived_from_cycles(insert_edges(f, xi, validate=False))
                        built += 1
        assert built == 10_427  # bf and df each decorate the same number of ways

    @pytest.mark.parametrize("s", [2, 3])
    def test_sampled_maps_n1000(self, s):
        rng = RngStream(917 + s)
        for r in range(10):
            m, _ = samplers.sample_uniform_map(1000, s, rng.substream(r).generator())
            self.assert_derived_from_cycles(m)

    def test_genus_one_glues_n300(self):
        rng = RngStream(919)
        glued = 0
        for r in range(12):
            gen = rng.substream(r).generator()
            f = sample_uniform_excursion(300, gen)
            try:
                pairing, _, corners = samplers.sample_unicellular_decoration(f, 1, gen)
            except samplers.DegenerateEnsembleError:
                continue
            m, unicellular = unicellular_glue(f, pairing, corners)
            assert unicellular
            self.assert_derived_from_cycles(m)
            glued += 1
            if glued == 6:
                break
        assert glued == 6


class TestFacesGenus:
    def test_square_with_pendant_root(self):
        # 4-cycle plus pendant root edge: close the depth-4 branch back to its
        # depth-1 ancestor (a depth-first decoration); two faces, genus zero
        f = LatticeExcursion([0, 1, 2, 3, 4, 3, 2, 1, 0])
        xi = AdmissibleCorners("df", (4, 7), (1, 1))
        m = insert_edges(f, xi)
        assert m.num_vertices == 5 and m.num_edges == 5
        degrees = sorted(m.degree(v) for v in range(m.num_vertices))
        assert degrees == [1, 2, 2, 2, 3]  # pendant root, the cycle, one junction
        assert len(m.faces()) == 2
        assert m.genus() == 0

    def test_degree_is_origin_count(self):
        def assert_degrees(m):
            counts = [0] * m.num_vertices
            for v in m.origin:
                counts[v] += 1
            assert [m.degree(v) for v in range(m.num_vertices)] == counts

        for mode in ("bf", "df"):
            for n in range(1, 5):
                for f in enumerate_excursions(n):
                    for s in range(3):
                        for xi in enumerate_admissible(f, s, mode):
                            assert_degrees(insert_edges(f, xi))
        for f in enumerate_excursions(4):
            for corners in combinations(range(1, 8), 4):
                assert_degrees(unicellular_glue(f, G1, corners)[0])
        f, xi, _ = sample_map_decoration(1000, 2, RngStream(1000).generator())
        assert_degrees(insert_edges(f, xi))

    def test_planar_loop_two_faces(self):
        f = LatticeExcursion([0, 1, 2, 3, 4, 3, 2, 1, 0])
        m = insert_edges(f, AdmissibleCorners("bf", (1, 7), (1, 1)))
        assert len(m.faces()) == 2 and m.genus() == 0

    def test_genus_one_glue(self):
        # among the three double-loop maps on a single edge, only the crossing
        # pairing has genus one
        f1 = LatticeExcursion([0, 1, 0])
        xs = [x for x in enumerate_admissible(f1, 2, "bf")
              if insert_edges(f1, x).genus() == 1]
        assert len(xs) == 1
        assert xs[0].tags == (1, 3, 2, 4)  # ranks cross: (1,3)(2,4) on the four slots

    def test_face_count_consistency(self):
        for n in range(1, 5):
            for s in range(0, 3):
                for f in enumerate_excursions(n):
                    for xi in enumerate_admissible(f, s, "bf"):
                        m = insert_edges(f, xi)
                        assert m.num_vertices - m.num_edges + len(m.faces()) == 2 - 2 * m.genus()
                        assert m.genus() >= 0


class TestPairings:
    def test_g1(self):
        assert [str(p) for p in entangled_pairings(1)] == ["(1,3)(2,4)"]

    def test_g2_examples(self):
        assert is_entangled(PermutationPairing.parse("(1,7)(2,5)(3,8)(4,6)"))
        assert is_entangled(PermutationPairing.parse("(1,3)(2,4)(5,7)(6,8)"))

    def test_g1_rejects(self):
        assert not is_entangled(PermutationPairing(((1, 2), (3, 4))))

    def test_orders_agree(self):
        for p in all_pairings(8):
            pp = PermutationPairing(p)
            assert is_entangled(pp, "pairing-first") == is_entangled(pp, "cycle-first")

    def test_malformed(self):
        with pytest.raises(ValueError):
            PermutationPairing(((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            PermutationPairing(((1, 2),))


class TestGlue:
    def test_unicellular_glue_example(self):
        assert glue_heights_ok(DOUBLE3, G1, (1, 2, 3, 4))
        m, uni = unicellular_glue(DOUBLE3, G1, (1, 2, 3, 4))
        assert uni and m.genus() == 1
        assert len(m.faces()) == 1

    def test_height_rule_violation(self):
        assert not glue_heights_ok(DOUBLE3, G1, (1, 2, 4, 5))
        # the glue itself does not check the heights
        m, uni = unicellular_glue(DOUBLE3, G1, (1, 2, 4, 5))
        assert isinstance(uni, bool)

    @pytest.mark.parametrize("corners", [(0, 1, 2, 3), (1, 2, 3, 4), (-1, 1, 2, 3)])
    def test_corners_outside_the_interior_rejected(self, corners):
        # (0, 1, 2, 3) once glued at the root corner and reported a unicellular map
        # whose root had degree 3; (1, 2, 3, 4) reaches the last time 2n = 4
        with pytest.raises(ValueError, match="must lie in"):
            unicellular_glue(PATH2, G1, corners)

    def test_non_entangled_pairing_multi_face(self):
        m, uni = unicellular_glue(DOUBLE3, PermutationPairing(((1, 2), (3, 4))), (1, 2, 3, 4))
        assert not uni

    def test_glued_bf_exploration_returns_tree(self):
        assert glue_heights_ok(DOUBLE3, G1, (1, 2, 3, 4))
        m, _ = unicellular_glue(DOUBLE3, G1, (1, 2, 3, 4))
        f2, xi2 = bf_explore(m)
        assert f2 == DOUBLE3
        assert xi2.indices == (1, 3, 2, 4)  # pairs sorted canonically
        assert set(xi2.tags) == {1}

    def test_dichotomy_small(self):
        entangled = {p.transpositions for p in entangled_pairings(1)}
        for f in enumerate_excursions(4):
            for corners in combinations(range(1, 2 * 4), 4):
                for p in all_pairings(4):
                    pp = PermutationPairing(p)
                    _, uni = unicellular_glue(f, pp, corners)
                    assert uni == (pp.transpositions in entangled)


class TestTupleCounts:
    def test_spec_values(self):
        assert pairing_tuple_count(PATH2, G1) == 0  # only three corners
        assert pairing_tuple_count(TALL3, G1) == 0
        assert pairing_tuple_count(DOUBLE3, G1) == 3

    def test_enumerate_matches_example(self):
        tuples = list(enumerate_pairing_tuples(DOUBLE3, G1))
        assert sorted(tuples) == [(1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5)]

    def test_dp_vs_brute_exhaustive(self):
        for n in range(2, 7):
            for f in enumerate_excursions(n):
                assert pairing_tuple_count(f, G1) == brute_tuple_count(f, G1)

    def test_dp_vs_brute_n40(self):
        f = sample_uniform_excursion(40, RngStream(17).generator())
        assert pairing_tuple_count(f, G1) == brute_tuple_count(f, G1)

    def test_dp_vs_general_recursion(self):
        # the genus-one terms against the count over the enumeration that higher genus uses
        for f in enumerate_excursions(6):
            assert pairing_tuple_count(f, G1) == sum(1 for _ in enumerate_pairing_tuples(f, G1))

    def test_genus_two_count_positive(self):
        f = LatticeExcursion([0] + [1, 2] * 8 + [1, 0])
        p2 = entangled_pairings(2)[0]
        assert pairing_tuple_count(f, p2) == brute_tuple_count(f, p2) > 0

    def test_kth_tuple_matches_enumeration(self):
        # the draw's k-th tuple is the k-th of the oracle list, for two genus-two pairings
        pairings = entangled_pairings(2)
        for p in (pairings[0], pairings[-1]):
            for n in range(1, 7):
                for f in enumerate_excursions(n):
                    tuples = list(enumerate_pairing_tuples(f, p))
                    assert [pairing_tuple(f, p, k) for k in range(len(tuples))] == tuples
                    assert tuples == sorted(tuples) and pairing_tuple_count(f, p) == len(tuples)

    def test_genus_two_count_capped(self):
        n = TUPLE_ENUMERATION_CAP + 1
        f = LatticeExcursion([0] + [1, 2] * (n - 1) + [1, 0])
        with pytest.raises(EnumerationCapExceeded):
            pairing_tuple_count(f, entangled_pairings(2)[0])
        assert pairing_tuple_count(f, G1) > 0  # genus one has no cap


class TestGenusOneSweep:
    @staticmethod
    def by_third_corner(f):
        want = np.zeros(2 * f.n, dtype=np.int64)
        for r in enumerate_pairing_tuples(f, G1):
            want[r[2]] += 1
        return want

    def test_per_r3_matches_enumeration_exhaustive(self):
        for n in range(1, 8):
            for f in enumerate_excursions(n):
                assert genus_one_counts(f).tolist() == self.by_third_corner(f).tolist()

    def test_per_r3_matches_enumeration_n40(self):
        f = sample_uniform_excursion(40, RngStream(17).generator())
        per_r3 = genus_one_counts(f)
        assert per_r3.tolist() == self.by_third_corner(f).tolist()
        assert per_r3.sum() > 0

    def test_r2_split_sums_to_per_r3(self):
        fs = [f for n in range(2, 7) for f in enumerate_excursions(n)]
        for f in fs + [sample_uniform_excursion(40, RngStream(17).generator())]:
            per_r3 = genus_one_counts(f)
            for r3 in np.flatnonzero(per_r3).tolist():
                assert int(samplers._genus_one_per_r2(f, r3).sum()) == per_r3[r3]

    def test_r2_split_matches_enumeration(self):
        f = sample_uniform_excursion(40, RngStream(17).generator())
        split = Counter((r[2], r[1]) for r in enumerate_pairing_tuples(f, G1))
        for r3 in np.flatnonzero(genus_one_counts(f)).tolist():
            per_r2 = samplers._genus_one_per_r2(f, r3).tolist()
            assert per_r2 == [split[r3, r2] for r2 in range(1, r3)]


class TestMetric:
    def test_tree_radius_is_height(self):
        for f in enumerate_excursions(5):
            m = tree_map(f)
            assert metric_from_root(m).radius == tree_of_contour(f).height()

    def test_radius_and_balls_match_bf_tree(self):
        for n in range(1, 5):
            for s in range(0, 3):
                for f in enumerate_excursions(n):
                    for xi in enumerate_admissible(f, s, "bf"):
                        m = insert_edges(f, xi)
                        t2 = tree_of_contour(bf_explore(m)[0])
                        metric = metric_from_root(m)
                        assert metric.radius == t2.height()
                        assert list(metric.level_counts) == list(plane_tree_profile(t2).z)

    def test_radius_route_matches_decoded_tree(self):
        # criterion 08's sampled route (tree off the corner index) against a search on
        # the decoded plane tree plus the same chord
        rng = RngStream(808)
        for gen in rng.generators(200):
            f = sample_uniform_excursion(1000, gen)
            index = corner_index(f.values)
            xi = AdmissibleCorners.of_pairs("bf", sample_corners_bf(index, 1, gen)[0])
            tree = tree_of_contour(f)
            chord = [tuple(tree.vertex_at_time[i] for i in xi.indices)]
            expected = bfs_distances(tree_adjacency(tree, chord), 0)
            assert _root_distances(*contour_tree(f.values, index), xi.indices) == expected

    def test_radius_suite_reads_every_replicate_range(self, monkeypatch):
        # 300 sampled maps run in up to three ranges; one wrong search among them, in the
        # last replicate, fails the sampled check
        def sampled_ok():
            res = checks.radius_invariance_suite(n=30, reps=300, seed=5)
            return dict((label, ok) for label, ok, *_ in res.checks)["sampled-n30-x300"]

        assert sampled_ok()
        last = sample_uniform_excursion(30, RngStream(5).substream(299).generator())
        last_at = contour_tree(last.values, corner_index(last.values))[0].tolist()
        searched = checks._root_distances

        def wrong_on_last(at, parent, chord):  # one more vertex at the root's level
            dist = searched(at, parent, chord)
            return dist + [0] if at.tolist() == last_at else dist

        monkeypatch.setattr(checks, "_root_distances", wrong_on_last)
        assert not sampled_ok()


class TestJsonAndCanonical:
    def test_roundtrip_all_m31(self):
        from surplus_lab.samplers import enumerate_maps

        for m in enumerate_maps(3, 1):
            data = m.to_json_dict()
            m2 = RootedMap.from_json_dict(data)
            assert m2.canonical_key() == m.canonical_key()

    def test_bad_rotation(self):
        data = {"schema": 1, "root": 0, "involution": [1, 0], "rotation": [[0, 0]]}
        with pytest.raises(ValueError):
            RootedMap.from_json_dict(data)

    def test_inconsistent_counts(self):
        m = tree_map(PATH2)
        data = m.to_json_dict()
        data["n"] = 9
        with pytest.raises(ValueError):
            RootedMap.from_json_dict(data)

    def test_canonical_separates(self):
        from surplus_lab.samplers import enumerate_maps

        maps = enumerate_maps(3, 1)
        keys = {m.canonical_key() for m in maps}
        assert len(keys) == len(maps)


class TestAdmissiblePairs:
    def test_against_oracle_exhaustive(self):
        # the pairs read off the corner index equal the defining sets, in order
        for n in range(1, 8):
            for f in enumerate_excursions(n):
                vals = f.values.tolist()
                for mode, oracle in (("bf", oracle_bf_set), ("df", oracle_df_set)):
                    want = [(i, j) for i in range(1, 2 * n) for j in oracle(vals, i)]
                    assert admissible_pairs(f, mode) == want

    def test_matches_weight_totals(self):
        for f in enumerate_excursions(5):
            index = corner_index(f.values)
            assert len(admissible_pairs(f, "bf")) == sum(bf_per_index(index))
            assert len(admissible_pairs(f, "df")) == sum(df_per_index(index))


class TestDistancePreservation:
    def test_bf_tree_preserves_root_distances_vertexwise(self):
        # distances to the root through the exploration tree alone equal the
        # distances through the whole map, vertex by vertex
        from surplus_lab.maps import _bf_tree_halves, adjacency, bfs_distances
        from surplus_lab.samplers import enumerate_maps

        for n in range(1, 5):
            for s in range(0, 3):
                for m in enumerate_maps(n, s):
                    tree_halves = _bf_tree_halves(m)
                    tree_adj = [[] for _ in range(m.num_vertices)]
                    for h in tree_halves:
                        tree_adj[m.origin[h]].append(m.origin[m.alpha[h]])
                    root = m.origin[m.root]
                    assert bfs_distances(tree_adj, root) == \
                        bfs_distances(adjacency(m), root)
