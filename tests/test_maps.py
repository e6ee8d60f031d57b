"""Half-edge maps: insertion, exploration, faces, pairings, gluings."""

from itertools import combinations

import pytest

from surplus_lab.lattice_paths import (
    EnumerationCapExceeded,
    LatticeExcursion,
    enumerate_excursions,
    height_profile,
    tree_of_contour,
)
from surplus_lab.local_time import bf_per_index, df_per_index
from surplus_lab.maps import (
    AdmissibleCorners,
    PermutationPairing,
    RootedMap,
    TUPLE_ENUMERATION_CAP,
    admissible_pairs,
    all_pairings,
    bf_explore,
    df_explore,
    entangled_pairings,
    enumerate_admissible,
    enumerate_pairing_tuples,
    glue_heights_ok,
    insert_edges,
    is_entangled,
    metric_from_root,
    pairing_tuple_count,
    unicellular_glue,
)

from test_local_time import oracle_bf_set, oracle_df_set

PATH2 = LatticeExcursion([0, 1, 2, 1, 0])
DOUBLE3 = LatticeExcursion([0, 1, 2, 1, 2, 1, 0])
TALL3 = LatticeExcursion([0, 1, 2, 3, 2, 1, 0])
G1 = PermutationPairing(((1, 3), (2, 4)))


def tree_map(tree):
    """The plane tree itself as a rooted map (no surplus edges)."""
    return insert_edges(tree, AdmissibleCorners("bf", (), ()))


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
                m = tree_map(tree_of_contour(f))
                assert len(m.faces()) == 1
                assert m.genus() == 0
                assert m.surplus == 0

    def test_empty_decoration_is_identity(self):
        t = tree_of_contour(PATH2)
        m = insert_edges(t, AdmissibleCorners("bf", (), ()))
        t2, xi2 = bf_explore(m)
        assert t2 == t and xi2.s == 0


class TestInsertExplore:
    def test_bfac_path(self):
        t = tree_of_contour(PATH2)
        xs = enumerate_admissible(t, 1, "bf")
        assert sorted(x.indices for x in xs) == [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
        maps = {insert_edges(t, x).canonical_key() for x in xs}
        assert len(maps) == 5

    def test_dfac_path(self):
        t = tree_of_contour(PATH2)
        xs = enumerate_admissible(t, 1, "df")
        assert sorted(x.indices for x in xs) == [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_single_edge_one_decoration(self):
        t = tree_of_contour(LatticeExcursion([0, 1, 0]))
        xs = enumerate_admissible(t, 1, "bf")
        assert [x.indices for x in xs] == [(1, 1)]  # loop at the unique child corner

    def test_n1_s2_three_maps(self):
        t = tree_of_contour(LatticeExcursion([0, 1, 0]))
        xs = enumerate_admissible(t, 2, "bf")
        assert len(xs) == 3
        keys = {insert_edges(t, x).canonical_key() for x in xs}
        assert len(keys) == 3
        genera = sorted(insert_edges(t, x).genus() for x in xs)
        assert genera == [0, 0, 1]  # the crossing pairing is the only entangled one

    @pytest.mark.parametrize("mode", ["bf", "df"])
    def test_roundtrip_exhaustive(self, mode):
        explore = bf_explore if mode == "bf" else df_explore
        for n in range(1, 5):
            for s in range(1, 3):
                for f in enumerate_excursions(n):
                    t = tree_of_contour(f)
                    for xi in enumerate_admissible(t, s, mode):
                        m = insert_edges(t, xi)
                        t2, xi2 = explore(m)
                        assert t2 == t
                        assert xi2 == xi

    def test_bf_height_rule_on_explored_maps(self):
        for f in enumerate_excursions(4):
            t = tree_of_contour(f)
            for xi in enumerate_admissible(t, 2, "bf"):
                xi.validate(f)

    def test_root_degree_rejection(self):
        # two-vertex double edge has a degree-two root
        sigma = [1, 0, 3, 2]
        alpha = [2, 3, 0, 1]
        with pytest.raises(ValueError):
            RootedMap(sigma, alpha, 0)

    def test_invalid_decoration_rejected(self):
        t = tree_of_contour(PATH2)
        with pytest.raises(ValueError):
            insert_edges(t, AdmissibleCorners("bf", (1, 2), (1, 1)))  # height rule broken
        with pytest.raises(ValueError):
            insert_edges(t, AdmissibleCorners("bf", (3, 1), (1, 1)))  # order broken
        with pytest.raises(ValueError):
            insert_edges(t, AdmissibleCorners("df", (1, 2), (1, 1)))  # not an ancestor


class TestFacesGenus:
    def test_square_with_pendant_root(self):
        # 4-cycle plus pendant root edge: close the depth-4 branch back to its
        # depth-1 ancestor (a depth-first decoration); two faces, genus zero
        f = LatticeExcursion([0, 1, 2, 3, 4, 3, 2, 1, 0])
        t = tree_of_contour(f)
        xi = AdmissibleCorners("df", (4, 7), (1, 1))
        m = insert_edges(t, xi)
        assert m.num_vertices == 5 and m.num_edges == 5
        degrees = sorted(m.degree(v) for v in range(m.num_vertices))
        assert degrees == [1, 2, 2, 2, 3]  # pendant root, the cycle, one junction
        assert len(m.faces()) == 2
        assert m.genus() == 0

    def test_planar_loop_two_faces(self):
        f = LatticeExcursion([0, 1, 2, 3, 4, 3, 2, 1, 0])
        m = insert_edges(tree_of_contour(f), AdmissibleCorners("bf", (1, 7), (1, 1)))
        assert len(m.faces()) == 2 and m.genus() == 0

    def test_genus_one_glue(self):
        # among the three double-loop maps on a single edge, only the crossing
        # pairing has genus one
        t1 = tree_of_contour(LatticeExcursion([0, 1, 0]))
        xs = [x for x in enumerate_admissible(t1, 2, "bf")
              if insert_edges(t1, x).genus() == 1]
        assert len(xs) == 1
        assert xs[0].tags == (1, 3, 2, 4)  # ranks cross: (1,3)(2,4) on the four slots

    def test_face_count_consistency(self):
        for n in range(1, 5):
            for s in range(0, 3):
                for f in enumerate_excursions(n):
                    t = tree_of_contour(f)
                    for xi in enumerate_admissible(t, s, "bf"):
                        m = insert_edges(t, xi)
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
        t = tree_of_contour(DOUBLE3)
        m, uni = unicellular_glue(t, G1, (1, 2, 3, 4), strict=True)
        assert uni and m.genus() == 1
        assert len(m.faces()) == 1

    def test_height_rule_violation(self):
        t = tree_of_contour(DOUBLE3)
        assert not glue_heights_ok(DOUBLE3, G1, (1, 2, 4, 5))
        with pytest.raises(ValueError):
            unicellular_glue(t, G1, (1, 2, 4, 5), strict=True)
        # non-strict glue still succeeds
        m, uni = unicellular_glue(t, G1, (1, 2, 4, 5))
        assert isinstance(uni, bool)

    def test_non_entangled_pairing_multi_face(self):
        t = tree_of_contour(DOUBLE3)
        m, uni = unicellular_glue(t, PermutationPairing(((1, 2), (3, 4))), (1, 2, 3, 4))
        assert not uni

    def test_glued_bf_exploration_returns_tree(self):
        t = tree_of_contour(DOUBLE3)
        m, _ = unicellular_glue(t, G1, (1, 2, 3, 4), strict=True)
        t2, xi2 = bf_explore(m)
        assert t2 == t
        assert xi2.indices == (1, 3, 2, 4)  # pairs sorted canonically
        assert set(xi2.tags) == {1}

    def test_dichotomy_small(self):
        entangled = {p.transpositions for p in entangled_pairings(1)}
        for f in enumerate_excursions(4):
            t = tree_of_contour(f)
            for corners in combinations(range(1, 2 * 4), 4):
                for p in all_pairings(4):
                    pp = PermutationPairing(p)
                    _, uni = unicellular_glue(t, pp, corners)
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
        from surplus_lab.samplers import RngStream, sample_uniform_excursion

        f = sample_uniform_excursion(40, RngStream(17))
        assert pairing_tuple_count(f, G1) == brute_tuple_count(f, G1)

    def test_dp_vs_general_recursion(self):
        # the genus-one terms against the count over the enumeration that higher genus uses
        for f in enumerate_excursions(6):
            assert pairing_tuple_count(f, G1) == sum(1 for _ in enumerate_pairing_tuples(f, G1))

    def test_genus_two_count_positive(self):
        f = LatticeExcursion([0] + [1, 2] * 8 + [1, 0])
        p2 = entangled_pairings(2)[0]
        assert pairing_tuple_count(f, p2) == brute_tuple_count(f, p2) > 0

    def test_genus_two_count_capped(self):
        n = TUPLE_ENUMERATION_CAP + 1
        f = LatticeExcursion([0] + [1, 2] * (n - 1) + [1, 0])
        with pytest.raises(EnumerationCapExceeded):
            pairing_tuple_count(f, entangled_pairings(2)[0])
        assert pairing_tuple_count(f, G1) > 0  # genus one has no cap


class TestMetric:
    def test_tree_radius_is_height(self):
        for f in enumerate_excursions(5):
            t = tree_of_contour(f)
            m = tree_map(t)
            assert metric_from_root(m).radius == t.height()

    def test_radius_and_balls_match_bf_tree(self):
        for n in range(1, 5):
            for s in range(0, 3):
                for f in enumerate_excursions(n):
                    t = tree_of_contour(f)
                    for xi in enumerate_admissible(t, s, "bf"):
                        m = insert_edges(t, xi)
                        t2, _ = bf_explore(m)
                        metric = metric_from_root(m)
                        assert metric.radius == t2.height()
                        assert list(metric.level_counts) == list(height_profile(t2).z)


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
        m = tree_map(tree_of_contour(PATH2))
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
            vals = f.values.tolist()
            assert len(admissible_pairs(f, "bf")) == sum(bf_per_index(vals))
            assert len(admissible_pairs(f, "df")) == sum(df_per_index(vals))


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
