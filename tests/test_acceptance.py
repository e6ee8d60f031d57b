"""Acceptance gate: every criterion at its stated tolerance, one line each.

Statistical criteria run with fixed seeds, so every run of this module is
deterministic.  Exact criteria admit no tolerance at all.
"""

import pytest

from conftest import record_acceptance
from surplus_lab import checks, estimators
from surplus_lab.cli import EXIT_OK, EXIT_VERIFY, main
from surplus_lab.samplers import RngStream


def report(number: int, ok: bool, detail: str) -> None:
    record_acceptance(number, ok, detail)
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_01_bijection_suite():
    res = checks.bijection_suite(n=5, s=2)
    counts = [c for c in res.checks if c[0].startswith("same-map-set")]
    report(1, res.passed,
           f"exploration/insertion round trips and count equality, n<=5 s<=2 "
           f"({len(counts)} families)")


def test_02_count_suite():
    res = checks.count_suite(n=10)
    report(2, res.passed, "excursion counts n<=10; #maps(1,1)=1, #maps(2,1)=5")


def test_03_w1_identity():
    res = checks.w1_suite(n=6)
    report(3, res.passed, "surplus-weight sum equals unit-surplus graph count, n=2..6")


def test_04_corner_tuple_identity():
    res = checks.psi_suite(5)
    report(4, res.passed, "corner-tuple totals equal distinct-corner unicellular counts, n<=5")


def test_05_entangled_pairings():
    res = checks.sg_suite()
    report(5, res.passed, "pinned pairings at genus 1 and 2; composition orders agree")


def test_06_gluing_dichotomy():
    res = checks.gluing_dichotomy_suite(5)
    report(6, res.passed, "one face iff entangled pairing, all trees n<=5, genus 1")


def test_07_vervaat():
    res = checks.vervaat_suite(6)
    report(7, res.passed, "bridge rotation uniform on excursion shapes, fibers 2n+1, n<=6")


def test_08_radius_invariance():
    res = checks.radius_invariance_suite(n=1000, reps=10_000, seed=20_240_501)
    report(8, res.passed,
           "map radius = exploration height, ball volumes = level counts "
           "(enumerated families and 10^4 maps at n=1000)")


def test_09_localtime_area_identity():
    res = estimators.jeulin_check(2000, 10_000, RngStream(7))
    ok = res.ks <= 0.05
    # the two routes also estimate a common mean within three standard errors
    se = (res.ensemble.estimate("sq")[1] ** 2 + res.ensemble.estimate("area2")[1] ** 2) ** 0.5
    means_ok = abs(res.mean_sq - res.mean_area) <= 3 * se
    report(9, ok and means_ok,
           f"KS(sq-occupancy, 2*area) = {res.ks:.4f} <= 0.05 at n=2000, 10^4 reps "
           f"(mean gap {res.mean_sq - res.mean_area:+.4f} within 3 SE)")


def test_10_radius_and_two_point_consistency():
    laws = estimators.radius_laws(1000, 1, 10_000, RngStream(101))
    tp = estimators.two_point_law(1000, 1, 10_000, RngStream(102))
    ks_all = {"map-bf": laws.summary["ks_map_bf"], "bf-df": laws.summary["ks_bf_df"],
              "map-df": laws.summary["ks_map_df"], "two-point": tp.summary["ks"]}
    ok = all(v <= 0.08 for v in ks_all.values())
    ok = ok and min(laws.ess.values()) > 10_000 / 50 and min(tp.ess.values()) > 10_000 / 50
    detail = ", ".join(f"{k}={v:.4f}" for k, v in ks_all.items())
    report(10, ok, f"radius/two-point KS <= 0.08 at n=1000, s=1: {detail}")


def test_11_profile_consistency():
    pl = estimators.profile_laws(900, 1, 10_000, RngStream(103))
    summary = pl.summary
    ok = summary["sup_map_vs_tree"] <= 0.1
    ok = ok and summary["mass_map"] == pytest.approx(901 / 900)
    ok = ok and summary["mass_tree"] == pytest.approx(1.0)
    ok = ok and min(pl.ess.values()) > 10_000 / 50
    report(11, ok,
           f"mean-profile sup distance map vs weighted trees = "
           f"{summary['sup_map_vs_tree']:.4f} <= 0.1 at n=900, s=1")


def test_12_decoration_gap_trend():
    ests = estimators.decoration_gap_estimates((50, 100, 200, 400), 1, 400, RngStream(7))
    ok = all(step_ok for *_, step_ok in estimators.gap_trend_steps(ests))
    # at one surplus edge the decoration count equals the pair total outright
    exact_zero = all(e.mean == 0.0 for e in ests)
    values = ", ".join(f"n={e.n}:{e.mean:.6f}" for e in ests)
    report(12, ok and exact_zero,
           f"scaled decoration-count gap nonincreasing within 2 SE at s=1 ({values})")


def test_13_growth_constant_trend():
    w = estimators.wright_sequence(4)
    recursion_ok = w == [1.0, 5.0, 60.0, 1105.0]
    ratios, anchor = estimators.omega1_anchor()
    values = [ratios[n] for n in sorted(ratios)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    gaps = [abs(anchor - v) for v in values]
    shrinking = all(b < a for a, b in zip(gaps, gaps[1:]))
    anchored = abs(anchor - 1.0) <= 0.10
    ok = recursion_ok and increasing and shrinking and anchored
    report(13, ok,
           f"surplus-one ratio rises toward extrapolated anchor {anchor:.4f} "
           f"(within 10% of 1), recursion values pinned")


def test_14_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"v{tag}"
        code = main(["verify", "--suite", "jeulin", "--n", "64", "--reps", "300",
                     "--seed", "7", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_VERIFY)
        outs.append((out / "verify_jeulin.csv").read_bytes())
    verify_same = outs[0] == outs[1]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"e{tag}"
        assert main(["estimate", "--target", "radius", "--n", "40", "--s", "1",
                     "--reps", "60", "--seed", "11", "--out", str(out)]) == EXIT_OK
        outs.append((out / "estimate_radius.csv").read_bytes())
    estimate_same = outs[0] == outs[1]
    report(14, verify_same and estimate_same,
           "repeated seeded verify/estimate runs produce byte-identical CSV")
