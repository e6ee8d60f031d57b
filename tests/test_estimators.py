"""Estimators: KS machinery, identity checks, count asymptotics."""

import os
from fractions import Fraction
from math import comb, factorial, pi, sqrt

import numpy as np
import pytest

from surplus_lab import estimators, local_time, maps, samplers
from surplus_lab.estimators import (
    CountTable,
    Estimate,
    count_asymptotics,
    decoration_gap_estimates,
    excursion_mean_area_power,
    exact_map_count,
    jeulin_check,
    ks_distance,
    ks_two_sample_critical,
    omega1_anchor,
    profile_laws,
    radius_laws,
    surplus_one_ratios,
    two_point_law,
    um_count_identity,
    unicellular_star_count,
    wright_sequence,
)
from surplus_lab.lattice_paths import tree_of_contour
from surplus_lab.maps import bfs_distances
from surplus_lab.samplers import (
    RngStream,
    WeightedEnsemble,
    sample_uniform_excursion,
    tilted_ensemble,
)
from surplus_lab.local_time import area_functional, corner_index

from tree_reference import tree_adjacency


def route(values, weights):
    """An ``(ensemble, column)`` route holding ``values`` with importance ``weights``."""
    return WeightedEnsemble("bf", 1, np.array(weights, dtype=np.float64),
                            {"x": np.array(values, dtype=np.float64)}), "x"


def column(est: Estimate, name: str) -> np.ndarray:
    """One column of an estimate's table."""
    k = est.header.index(name)
    return np.array([row[k] for row in est.rows])


class TestEmpiricalLawKS:
    def test_identical_zero(self):
        a = route([1.0, 2.0, 3.0], np.ones(3))
        b = route([3.0, 1.0, 2.0], np.ones(3))
        assert ks_distance(a, b) == 0.0

    def test_point_masses(self):
        a = route([0.0], [1.0])
        b = route([1.0], [1.0])
        assert ks_distance(a, b) == 1.0

    def test_weighted_matches_duplication(self):
        a = route([1.0, 2.0], [2.0, 1.0])
        b = route([1.0, 1.0, 2.0], np.ones(3))
        assert ks_distance(a, b) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            route([], [])
        with pytest.raises(ValueError):
            route([1.0], [0.0])

    def test_null_calibration(self):
        # two independent same-law samples stay under the 1% critical value
        reps = 10_000
        rng = RngStream(71)
        cols = {"area": lambda smp: area_functional(smp.exc).scaled}
        e1 = tilted_ensemble(500, 0, "bf", reps, rng.substream(0), cols)
        e2 = tilted_ensemble(500, 0, "bf", reps, rng.substream(1), cols)
        ks = ks_distance((e1, "area"), (e2, "area"))
        assert ks < ks_two_sample_critical(reps, reps)


class TestJeulin:
    def test_small_run(self):
        res = jeulin_check(100, 400, RngStream(5))
        assert 0 <= res.ks <= 1
        # both estimate the same limit mean; allow the finite-size drift
        assert abs(res.mean_sq - res.mean_area) < 10 * res.se_diff + 0.05

    def test_n_floor(self):
        with pytest.raises(ValueError):
            jeulin_check(5, 10, RngStream(1))


class TestRadiusTwoPointSmall:
    def test_radius_laws_shapes(self):
        laws = radius_laws(50, 1, 300, RngStream(9))
        assert laws.header == ["replicate", "map", "map_w", "bf", "bf_w", "df", "df_w"]
        for name in ("map", "bf", "df"):
            assert len(column(laws, name)) == 300
        assert laws.summary["ks_map_bf"] <= 1.0
        assert min(laws.ess.values()) > 300 / 50
        # each printed KS distance sits beside the 1% critical value at the two routes' ESS
        ess = laws.ess
        assert laws.lines == [
            f"ks({a},{b})={laws.summary[key]:.5f} "
            f"critical(1%)={ks_two_sample_critical(ess[a], ess[b]):.5f}"
            for key, a, b in (("ks_map_bf", "map", "bf"), ("ks_bf_df", "bf", "df"),
                              ("ks_map_df", "map", "df"))]
        ens = laws.ensembles
        assert laws.summary["ks_bf_df"] == ks_distance((ens["bf"], "sup"),
                                                       (ens["df"], "invheight"))

    def test_map_radius_equals_sup_samplewise(self):
        # the radius found by a BFS on the decorated tree equals the contour sup
        def bfs_radius(smp):
            tree = tree_of_contour(smp.exc)
            vat = tree.vertex_at_time
            chords = [(vat[i], vat[j]) for i, j in smp.chords()]
            return max(bfs_distances(tree_adjacency(tree, chords), 0))

        n, reps = 80, 200
        for mode, tilt in (("bf", 1), ("bf", 3), ("um", 1)):
            ens = tilted_ensemble(n, tilt, mode, reps, RngStream(33),
                                  {"radius": lambda smp: smp.distances_from_root().max(),
                                   "bfs": bfs_radius,
                                   "sup": lambda smp: smp.exc.max_height()})
            live = ens.weights > 0
            assert np.array_equal(ens.columns["radius"][live], ens.columns["bfs"][live])
            assert np.array_equal(ens.columns["radius"][live], ens.columns["sup"][live])

    @pytest.mark.parametrize("n", [40, 1000])
    def test_routes_scale_heights_alike(self, n):
        # a map distance and a contour height of h give the same float, so a KS distance
        # between the two routes measures the laws, not the rounding
        scale = sqrt(2.0 / n)
        scaled = estimators._route_scale(n, "bf")
        atoms = [scale * h for h in range(2 * n + 1)]
        assert [scaled(h) for h in range(2 * n + 1)] == atoms
        laws = radius_laws(n, 1, 20, RngStream(5))
        tp = two_point_law(n, 1, 20, RngStream(6))
        for values in (column(laws, "map"), column(laws, "bf"), column(tp, "map"),
                       column(tp, "excursion")):
            assert all(v == atoms[round(v / scale)] for v in values)

    def test_two_point_small(self):
        tp = two_point_law(50, 1, 300, RngStream(10))
        assert 0 <= tp.summary["ks"] <= 1
        assert tp.ensembles["map"].estimate("val")[0] > 0

    def test_two_point_n1_degenerates_to_zero(self):
        tp = two_point_law(1, 1, 10, RngStream(1))
        assert tp.ensembles["map"].estimate("val")[0] == 0.0

    def test_only_pair_draws_build_a_corner_index(self, monkeypatch):
        # the tilt weights come off the level order alone: the radius routes draw no pair
        # and build no index, and the two-point map side builds one per replicate it
        # decorates, its excursion side none
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # calls seen here
        calls = []

        def counted(values):
            calls.append(values)
            return corner_index(values)

        for module in (local_time, maps, samplers):
            monkeypatch.setattr(module, "corner_index", counted)
        radius_laws(40, 3, 150, RngStream(4))
        assert calls == []
        tp = two_point_law(40, 3, 150, RngStream(4))
        assert len(calls) == np.count_nonzero(tp.ensembles["map"].weights > 0) > 0


class TestProfiles:
    def test_mass_conservation(self):
        pl = profile_laws(100, 1, 300, RngStream(11))
        assert pl.summary["mass_map"] == pytest.approx((100 + 1) / 100.0)
        assert pl.summary["mass_tree"] == pytest.approx(1.0)

    def test_routes_close_at_moderate_size(self):
        pl = profile_laws(400, 1, 1500, RngStream(12))
        assert pl.summary["sup_map_vs_tree"] < 0.25
        assert np.max(np.abs(column(pl, "mean_map") - column(pl, "mean_localtime"))) < 0.2

    def test_s0_rejected(self):
        with pytest.raises(ValueError):
            profile_laws(100, 0, 10, RngStream(1))


class TestDecorationGap:
    def test_s1_identically_zero(self):
        ests = decoration_gap_estimates([20, 40], 1, 50, RngStream(13))
        assert all(e.mean == 0.0 and e.se == 0.0 for e in ests)

    def test_s2_positive_and_decreasing(self):
        ests = decoration_gap_estimates([20, 80, 320], 2, 300, RngStream(14))
        assert all(e.mean > 0 for e in ests)
        for prev, cur in zip(ests, ests[1:]):
            assert cur.mean < prev.mean + 2 * sqrt(prev.se ** 2 + cur.se ** 2)

    def test_gap_bound_brute(self):
        # union bound on collision tuples dominates the exact gap (ordered pairs)
        from surplus_lab.samplers import decoration_count_gap
        from test_local_time import oracle_bf_set

        rng = RngStream(15)
        s = 2
        for r in range(20):
            f = sample_uniform_excursion(12, rng.substream(r).generator())
            vals = f.values.tolist()
            pairs = [(i, j) for i in range(1, 2 * f.n) for j in oracle_bf_set(vals, i)]
            a12 = a13 = a14 = a24 = 0
            for p1 in pairs:
                for p2 in pairs:
                    if p1[0] == p1[1] or p2[0] == p2[1]:
                        a12 += 1
                    if p1[0] == p2[0]:
                        a13 += 1
                    if p1[0] == p2[1] or p2[0] == p1[1]:
                        a14 += 1
                    if p1[1] == p2[1]:
                        a24 += 1
            bound = factorial(s) * (2 * s) ** (2 * s) * (a12 + a13 + a14 + a24)
            assert decoration_count_gap(f, s, "bf") <= bound


class TestWrightAndCounts:
    def test_recursion_values(self):
        w = wright_sequence(5)
        assert w == [1.0, 5.0, 60.0, 1105.0, 27120.0]

    def test_cap(self):
        with pytest.raises(ValueError):
            wright_sequence(13)

    def test_exact_counts(self):
        assert exact_map_count(1, 1) == 1
        assert exact_map_count(2, 1) == 5
        # total decorations equal the enumerated map family sizes
        from surplus_lab.samplers import enumerate_maps

        for n in range(1, 5):
            for s in (1, 2):
                assert exact_map_count(n, s) == len(enumerate_maps(n, s))

    def test_ratios_increase_toward_anchor(self):
        ratios, anchor = omega1_anchor()
        values = [ratios[n] for n in sorted(ratios)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert abs(anchor - 1.0) < 0.1
        gaps = [abs(anchor - v) for v in values]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_surplus_one_counts_in_closed_form(self):
        # summed over the excursions of half-length n, B(f) = 2^(2n-1) - C(2n-1, n): the
        # ratio 2 #maps(n, 1) / 4^n is 1 - C(2n, n) / 4^n, whose limit omega_1 is exactly 1
        ratios = surplus_one_ratios()
        for n in range(1, 11):
            assert exact_map_count(n, 1) == 2 ** (2 * n - 1) - comb(2 * n - 1, n)
            gap = 1 - Fraction(ratios[n])
            assert gap == Fraction(comb(2 * n, n), 4 ** n)
            assert 0 < gap < 1 / sqrt(pi * n)  # so the ratios tend to 1

    def test_mean_area_moment(self):
        # the s = 1 moment of the excursion area is sqrt(pi/8)
        assert excursion_mean_area_power(1) == pytest.approx(sqrt(pi / 8.0))

    def test_count_table_m(self):
        t = count_asymptotics("m", 12, 1)
        assert isinstance(t, CountTable)
        assert t.exact == exact_map_count(12, 1)
        assert t.prediction == pytest.approx(4.0 ** 12 / 2.0, rel=1e-12)
        assert 0.5 < t.exact / t.prediction < 1.0

    def test_count_table_h(self):
        # oracle: cycle of length k plus a rooted forest on the rest, times n roots
        def unicyclic_rooted(n):
            from math import comb

            total = 0
            for k in range(3, n + 1):
                forests = k * n ** (n - k - 1) if k < n else 1
                total += comb(n, k) * (factorial(k - 1) // 2) * forests
            return n * total

        t = count_asymptotics("h", 6, 1)
        assert t.exact == unicyclic_rooted(6) == 21960
        assert t.prediction == pytest.approx(6.0 ** 6.5 * sqrt(pi / 8.0), rel=1e-12)

    def test_count_table_f(self):
        t = count_asymptotics("f", 10, 0)
        assert t.exact == 4862
        assert t.exact / t.prediction == pytest.approx(1.0, abs=0.25)

    @pytest.mark.parametrize("family", ["um", "graphs"])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(ValueError, match="unknown family"):
            count_asymptotics(family, 5, 1)

    def test_umstar_prediction_trend(self):
        # enumerable ratios approach 1 from below as n grows
        ratios = []
        for n in (3, 4, 5):
            t = count_asymptotics("umstar", n, 1)
            ratios.append(t.exact / t.prediction)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert 0 < ratios[0] < ratios[-1] < 1.2


class TestUnicellularIdentity:
    def test_values(self):
        assert um_count_identity(2) == (0, 0)
        assert um_count_identity(3) == (3, 3)
        lhs, rhs = um_count_identity(4)
        assert lhs == rhs
        star = unicellular_star_count(3)
        assert star == 3

    def test_cap(self):
        with pytest.raises(ValueError):
            um_count_identity(6)


class TestDegenerateAndEdgeCases:
    def test_two_point_n1_point_mass(self):
        tp = two_point_law(1, 1, 40, RngStream(3))
        assert np.all(column(tp, "map") == 0.0)

    def test_radius_s0_n1_point_mass(self):
        laws = radius_laws(1, 0, 30, RngStream(4))
        assert np.allclose(column(laws, "bf"), 2.0 / sqrt(2.0))
        assert np.allclose(column(laws, "map"), sqrt(2.0))

    def test_profile_degenerate_weights_reported(self):
        from surplus_lab.samplers import DegenerateEnsembleError

        with pytest.raises(DegenerateEnsembleError):
            profile_laws(2, 1, 30, RngStream(5))


class TestDecorationGapDepthFirst:
    def test_df_s1_zero(self):
        ests = decoration_gap_estimates([20, 40], 1, 40, RngStream(16), mode="df")
        assert all(e.mean == 0.0 for e in ests)

    def test_df_s2_positive_decreasing(self):
        ests = decoration_gap_estimates([20, 80, 320], 2, 200, RngStream(17), mode="df")
        assert all(e.mean > 0 for e in ests)
        for prev, cur in zip(ests, ests[1:]):
            assert cur.mean < prev.mean + 2 * sqrt(prev.se ** 2 + cur.se ** 2)


class TestSurplusOneConvolution:
    def test_counts_match_catalan_convolution(self):
        # independent oracle: the surplus-one counting series is the tree series
        # times 1/(1-4x), so #maps(n,1) = sum_k Catalan(k) 4^(n-1-k)
        from surplus_lab.lattice_paths import catalan

        for n in range(1, 13):
            conv = sum(catalan(k) * 4 ** (n - 1 - k) for k in range(n))
            assert exact_map_count(n, 1) == conv
