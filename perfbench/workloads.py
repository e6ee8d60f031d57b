"""The four workloads: the CLI commands each round runs, and their output checks.

A round is one fresh child process running a workload's operations in
order.  An operation is one CLI command (or the replay of a manifest)
together with its output checks; it fails when the command exits non-zero,
raises, or when any check below fails.  Checks compare the written files
against :mod:`refs`, never against stored output.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb, sqrt
from pathlib import Path

import numpy as np

import refs

# Level of each Kolmogorov-Smirnov check the benchmark makes itself: the
# largest power of ten whose critical value is at least 1.4 times the largest
# statistic seen over seeds 1-40.  The routes differ by a finite-size bias,
# and where the weights grow with the statistic (s=3) the Kish ESS overstates
# how many draws the weighted CDF rests on, so the levels sit far out.
KS_ALPHA = {"radius_s1": 1e-4, "radius_s3": 1e-12, "two_point": 1e-5, "jeulin": 1e-9}

N_TILT = 1000
# the s=3 ensembles carry about two thirds of the ESS that ess_per_s sums, so
# halving their ESS per replicate moves it by a third
REPS_RADIUS = {1: 300, 3: 1500}
REPS_TWO_POINT = 300
N_PROFILE = 900
REPS_PROFILE = 3000  # the sup|map-tree| <= 0.1 gate needs the noise well below the bias
N_JEULIN = 2000
REPS_JEULIN = 2000
REPS_LEMMA3 = 400
N_MAP, S_MAP, REPS_MAP = 1000, 2, 150  # the map ESS steadies the workload's ess_per_s
N_GRAPH, S_GRAPH, REPS_GRAPH = 120, 2, 20
N_CRUM, G_CRUM, REPS_CRUM = 300, 1, 20

# standard deviation of twice the Brownian-excursion area: Var(area) = 5/12 - pi/8
SD_TWICE_AREA = 2.0 * sqrt(5.0 / 12.0 - np.pi / 8.0)

WORKLOADS = ("tilted-estimate", "uniform-identities", "exact-suites", "sample-write")


def program_seed(seed: int) -> int:
    """The seed handed to the program, derived from the benchmark's ``--seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % 999_999_937


def plan(workload: str, seed: int, out: Path) -> list[dict]:
    """The operations of one round, each with the argv the program receives."""
    p = str(program_seed(seed))

    def cli(name, *argv):
        return {"kind": "cli", "name": name, "argv": [*argv, "--out", str(out / name)]}

    if workload == "tilted-estimate":
        return [
            *(cli(f"radius_s{s}", "estimate", "--model", "h", "--target", "radius",
                  "--n", str(N_TILT), "--s", str(s), "--reps", str(reps), "--seed", p)
              for s, reps in REPS_RADIUS.items()),
            cli("two_point", "estimate", "--model", "h", "--target", "two-point",
                "--n", str(N_TILT), "--s", "1", "--reps", str(REPS_TWO_POINT), "--seed", p),
            cli("profile", "estimate", "--model", "h", "--target", "profile",
                "--n", str(N_PROFILE), "--s", "1", "--reps", str(REPS_PROFILE), "--seed", p),
        ]
    if workload == "uniform-identities":
        return [
            cli("jeulin", "verify", "--suite", "jeulin", "--n", str(N_JEULIN),
                "--reps", str(REPS_JEULIN), "--seed", p,
                "--threshold", repr(jeulin_threshold())),
            cli("lemma3", "verify", "--suite", "lemma3", "--s", "2",
                "--reps", str(REPS_LEMMA3), "--seed", p),
        ]
    if workload == "exact-suites":
        return [
            cli("selftest", "selftest"),
            cli("bijection", "verify", "--suite", "bijection", "--n", "5", "--s", "2"),
            cli("dichotomy", "verify", "--suite", "dichotomy", "--n", "5"),
        ]
    if workload == "sample-write":
        return [
            cli("map", "sample", "map", "--n", str(N_MAP), "--s", str(S_MAP),
                "--reps", str(REPS_MAP), "--seed", p),
            cli("graph", "sample", "graph", "--n", str(N_GRAPH), "--s", str(S_GRAPH),
                "--reps", str(REPS_GRAPH), "--seed", p),
            cli("crum", "sample", "crum", "--n", str(N_CRUM), "--g", str(G_CRUM),
                "--reps", str(REPS_CRUM), "--seed", p),
            {"kind": "replay", "name": "replay", "manifest": str(out / "map" / "manifest.json"),
             "scratch": str(out / "replay")},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def jeulin_threshold() -> float:
    """KS threshold for the Jeulin suite at the benchmark's replicate count.

    The suite's default 0.05 is sized for its default 10^4 replicates; at
    ``REPS_JEULIN`` the two-sample critical value at ``KS_ALPHA`` is used.
    """
    return round(refs.ks_critical(REPS_JEULIN, REPS_JEULIN, KS_ALPHA["jeulin"]), 6)


# -- checks -------------------------------------------------------------------------


class Checker:
    """Collects failed checks of one operation and the effective samples it wrote."""

    def __init__(self, op: dict, seed: int):
        self.op = op
        self.seed = seed
        self.pseed = program_seed(seed)
        self.out = Path(op["argv"][-1]) if op["kind"] == "cli" else Path(op["scratch"])
        self.failures: list[str] = []
        self.ess = 0.0

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def replicates(self, reps: int) -> list[int]:
        """Replicate 0 and one more chosen by the seed."""
        return [0, 1 + program_seed(self.seed + 7919) % (reps - 1)]

    def stdout_all_pass(self, stdout: str) -> list[str]:
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        self.expect(lines, "command printed nothing")
        bad = [ln for ln in lines if not (ln.startswith("PASS ") or ln == "selftest: PASS")]
        self.expect(not bad, f"lines not PASS: {bad[:3]}")
        return lines


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _integral(x: float) -> int | None:
    k = round(x)
    return k if abs(x - k) <= 1e-6 else None


def check_operation(op: dict, record: dict, seed: int) -> Checker:
    chk = Checker(op, seed)
    if record.get("error"):
        chk.expect(False, record["error"])
        return chk
    if op["kind"] == "cli":
        chk.expect(record["rc"] == 0, f"exit code {record['rc']}: {record['stderr'][-300:]}")
        if record["rc"] != 0:
            return chk
    try:
        CHECKS[op["name"]](chk, record)
    except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
        chk.expect(False, f"unreadable output: {type(exc).__name__}: {exc}")
    return chk


def _check_weights_b(chk: Checker, f, weight: float, s: int, what: str) -> None:
    chk.expect(weight == float(refs.bf_total(f) ** s), f"{what}: weight is not B(f)^{s}")


def check_radius(chk: Checker, record: dict) -> None:
    s = int(chk.op["argv"][chk.op["argv"].index("--s") + 1])
    n, reps = N_TILT, REPS_RADIUS[s]
    header, rows = refs.read_csv(chk.out / "estimate_radius.csv")
    chk.expect(header == ["replicate", "map", "map_w", "bf", "bf_w", "df", "df_w"], "header")
    data = np.array(rows, dtype=np.float64)
    chk.expect(len(data) == reps, "row count")
    summary = refs.load_json(chk.out / "summary.json")
    radius = data[:, 1] * sqrt(n / 2.0)
    chk.expect(np.all(np.abs(radius - np.round(radius)) <= 1e-6),
               "map radius times sqrt(n/2) is not an integer")
    for r in chk.replicates(reps):
        f0, _ = refs.redraw_excursion(chk.pseed, (0, r), n)
        chk.expect(_integral(data[r, 1] * sqrt(n / 2.0)) == int(f0.max()),
                   f"replicate {r}: map radius is not the excursion maximum")
        _check_weights_b(chk, f0, data[r, 2], s, f"replicate {r} map")
        f1, _ = refs.redraw_excursion(chk.pseed, (1, r), n)
        chk.expect(_close(data[r, 3], 2.0 * f1.max() / sqrt(2.0 * n)), f"replicate {r}: bf sup")
        _check_weights_b(chk, f1, data[r, 4], s, f"replicate {r} bf")
        f2, _ = refs.redraw_excursion(chk.pseed, (2, r), n)
        chk.expect(_close(data[r, 5], refs.inverse_height_sum(f2) / sqrt(2.0 * n), 1e-9),
                   f"replicate {r}: df inverse-height sum")
        chk.expect(data[r, 6] == float(refs.df_total(f2) ** s),
                   f"replicate {r} df: weight is not D(f)^{s}")
    ess = {k: refs.kish_ess(data[:, c]) for k, c in (("map", 2), ("bf", 4), ("df", 6))}
    for k, v in ess.items():
        chk.expect(_close(v, summary["ess"][k], 1e-9), f"ESS of {k} differs from summary.json")
    ks = refs.weighted_ks(data[:, 3], data[:, 4], data[:, 5], data[:, 6])
    chk.expect(abs(ks - summary["ks_bf_df"]) <= 1e-12, "ks(bf,df) differs from recomputation")
    crit = refs.ks_critical(ess["bf"], ess["df"], KS_ALPHA[chk.op["name"]])
    chk.expect(ks <= crit, f"ks(bf,df)={ks:.4f} above critical {crit:.4f}")
    chk.ess = sum(ess.values())


def check_two_point(chk: Checker, record: dict) -> None:
    n = N_TILT
    header, rows = refs.read_csv(chk.out / "estimate_two_point.csv")
    chk.expect(header == ["replicate", "map", "map_w", "excursion", "excursion_w"], "header")
    data = np.array(rows, dtype=np.float64)
    chk.expect(len(data) == REPS_TWO_POINT, "row count")
    summary = refs.load_json(chk.out / "summary.json")
    for r in chk.replicates(REPS_TWO_POINT):
        f0, _ = refs.redraw_excursion(chk.pseed, (0, r), n)
        dist = _integral(data[r, 1] * sqrt(n / 2.0))
        chk.expect(dist is not None and 0 <= dist <= 2 * int(f0.max()),
                   f"replicate {r}: map distance is not an integer within twice the radius")
        _check_weights_b(chk, f0, data[r, 2], 1, f"replicate {r} map")
        f1, gen = refs.redraw_excursion(chk.pseed, (1, r), n)
        t = int(gen.random() * 2 * n)
        chk.expect(_close(data[r, 3], 2.0 * f1[t] / sqrt(2.0 * n)),
                   f"replicate {r}: excursion height at a uniform time")
        _check_weights_b(chk, f1, data[r, 4], 1, f"replicate {r} excursion")
    ess = {"map": refs.kish_ess(data[:, 2]), "excursion": refs.kish_ess(data[:, 4])}
    for k, v in ess.items():
        chk.expect(_close(v, summary["ess"][k], 1e-9), f"ESS of {k} differs from summary.json")
    ks = refs.weighted_ks(data[:, 1], data[:, 2], data[:, 3], data[:, 4])
    chk.expect(abs(ks - summary["ks"]) <= 1e-12, "two-point ks differs from recomputation")
    crit = refs.ks_critical(ess["map"], ess["excursion"], KS_ALPHA["two_point"])
    chk.expect(ks <= crit, f"two-point ks={ks:.4f} above critical {crit:.4f}")
    chk.ess = sum(ess.values())


def check_profile(chk: Checker, record: dict) -> None:
    n = N_PROFILE
    header, rows = refs.read_csv(chk.out / "estimate_profile.csv")
    chk.expect(header == ["r", "mean_map", "mean_tree", "mean_localtime"], "header")
    data = np.array(rows, dtype=np.float64)
    chk.expect(np.allclose(data[:, 0], np.round(0.1 * np.arange(31), 1)), "profile grid")
    summary = refs.load_json(chk.out / "summary.json")
    # a weighted mean of a constant may differ from it in the last bits only
    chk.expect(_close(summary["mass_map"], (n + 1) / n, 1e-14), "mass_map is not (n+1)/n")
    chk.expect(_close(summary["mass_tree"], 1.0, 1e-14), "mass_tree is not 1")
    sup = float(np.max(np.abs(data[:, 1] - data[:, 2])))
    chk.expect(abs(sup - summary["sup_map_vs_tree"]) <= 1e-12, "sup differs from recomputation")
    chk.expect(sup <= 0.1, f"sup|map-tree|={sup:.4f} above 0.1")
    ess = summary["ess"]
    chk.expect(all(0 < v <= REPS_PROFILE for v in ess.values()), "ESS outside (0, reps]")
    # ess_per_s leaves these out: the weights are not written, and the 3000
    # replicates would outweigh the s=3 ensembles it is meant to show


def check_jeulin(chk: Checker, record: dict) -> None:
    chk.stdout_all_pass(record["stdout"])
    header, rows = refs.read_csv(chk.out / "verify_jeulin.csv")
    values = {row[0]: row for row in rows}
    ks = float(values["jeulin-ks"][1])
    chk.expect(ks <= jeulin_threshold() and values["jeulin-ks"][3] == "1", "jeulin KS")
    mean_area = float(values["jeulin-mean-area"][1])
    tol = 5.0 * SD_TWICE_AREA / sqrt(REPS_JEULIN) + \
        abs(refs.mean_scaled_area(N_JEULIN) - refs.SQRT_PI_OVER_2)
    chk.expect(abs(mean_area - refs.SQRT_PI_OVER_2) <= tol,
               f"mean 2*area {mean_area:.4f} not within {tol:.4f} of sqrt(pi/2)")
    chk.ess = float(REPS_JEULIN)  # tilt 0: every weight is B(f)^0 = 1


def check_lemma3(chk: Checker, record: dict) -> None:
    lines = chk.stdout_all_pass(record["stdout"])
    chk.expect(len(lines) == 6, "expected three steps per exploration order")
    header, rows = refs.read_csv(chk.out / "verify_lemma3.csv")
    names = [f"{m}-gap-n{n}" for m in ("bf", "df") for n in (50, 100, 200, 400)]
    chk.expect([row[0] for row in rows] == names, "gap rows")
    chk.expect(all(float(row[1]) > 0 for row in rows), "decoration gap not positive at s=2")
    chk.ess = float(len(names) * REPS_LEMMA3)  # plain Monte Carlo draws


def _count_details(lines: list[str], pattern: str) -> dict[str, int]:
    out = {}
    for line in lines:
        m = re.match(r"PASS \S+:(\S+) \[(\d+) " + pattern + r"\]", line)
        if m:
            out[m.group(1)] = int(m.group(2))
    return out


def _check_map_counts(chk: Checker, lines: list[str], n_max: int) -> None:
    counts = _count_details(lines, "maps")
    for n in range(1, n_max + 1):
        expected = sum(refs.bf_total(f) for f in refs.all_excursions(n))
        for mode in ("bf", "df"):
            got = counts.get(f"{mode}-roundtrip-n{n}-s1")
            chk.expect(got == expected, f"{mode} s=1 map count at n={n}: {got} vs {expected}")


def _check_gluings(chk: Checker, lines: list[str], n_max: int) -> None:
    counts = _count_details(lines, "gluings")
    for n in range(3, n_max + 1):
        expected = refs.catalan(n - 1) * comb(2 * n - 1, 4) * 3
        got = counts.get(f"dichotomy-n{n}")
        chk.expect(got == expected, f"gluings at n={n}: {got} vs {expected}")


def _exact_samples(lines: list[str]) -> float:
    """Objects the suites enumerated and checked, each counted once."""
    return float(sum(_count_details(lines, "maps").values())
                 + sum(_count_details(lines, "gluings").values()))


def check_selftest(chk: Checker, record: dict) -> None:
    lines = chk.stdout_all_pass(record["stdout"])
    chk.expect(lines and lines[-1] == "selftest: PASS", "selftest verdict")
    for line in lines:
        m = re.match(r"PASS counts:excursions-n(\d+) \[(\d+) vs", line)
        if m:
            chk.expect(int(m.group(2)) == refs.catalan(int(m.group(1)) - 1), line)
    _check_map_counts(chk, lines, 4)
    _check_gluings(chk, lines, 4)
    chk.ess = _exact_samples(lines)


def check_bijection(chk: Checker, record: dict) -> None:
    lines = chk.stdout_all_pass(record["stdout"])
    _check_map_counts(chk, lines, 5)
    chk.ess = _exact_samples(lines)


def check_dichotomy(chk: Checker, record: dict) -> None:
    lines = chk.stdout_all_pass(record["stdout"])
    _check_gluings(chk, lines, 5)
    chk.ess = _exact_samples(lines)


def check_map(chk: Checker, record: dict) -> None:
    header, rows = refs.read_csv(chk.out / "map_weights.csv")
    weights = np.array([float(row[1]) for row in rows])
    chk.expect(len(weights) == REPS_MAP and np.all(np.isfinite(weights)) and np.all(weights > 0),
               "map weights")
    for r in range(REPS_MAP):
        data = refs.load_json(chk.out / f"map_{r}.json")
        shape = refs.map_shape(data)
        chk.expect(shape["vertices"] == N_MAP + 1 and shape["edges"] == N_MAP + S_MAP
                   and shape["root_degree"] == 1 and data["n"] == N_MAP and data["s"] == S_MAP,
                   f"map_{r}.json: {shape}")
    chk.ess = refs.kish_ess(weights)


def check_graph(chk: Checker, record: dict) -> None:
    header, rows = refs.read_csv(chk.out / "graphs.csv")
    chk.expect(header == ["replicate", "root", "edges", "weight"] and len(rows) == REPS_GRAPH,
               "graphs.csv shape")
    weights = []
    for row in rows:
        edges = [tuple(e) for e in json.loads(row[2].replace(";", ","))]
        n = N_GRAPH
        simple = all(1 <= u < v <= n for u, v in edges) and len(set(edges)) == len(edges)
        chk.expect(simple, f"graph {row[0]} is not simple")
        chk.expect(len(edges) == n - 1 + S_GRAPH, f"graph {row[0]} edge count")
        chk.expect(refs.is_connected(n, edges), f"graph {row[0]} is not connected")
        chk.expect(1 <= int(row[1]) <= n, f"graph {row[0]} root")
        weight = float(row[3])
        chk.expect(_close(weight, 1.0 / refs.spanning_trees(n, edges)),
                   f"graph {row[0]}: weight is not 1/tau")
        weights.append(weight)
    chk.ess = refs.kish_ess(weights)


def check_crum(chk: Checker, record: dict) -> None:
    header, rows = refs.read_csv(chk.out / "crum_decorations.csv")
    chk.expect(len(rows) == REPS_CRUM, "row count")
    for row in rows:
        r = int(row[0])
        if row[1] == "degenerate":
            continue
        # the pairing field, e.g. "(1,3)(2,4)", is written unquoted and holds commas
        pairing = ",".join(row[1:-2])
        pairs = [(int(a), int(b)) for a, b in re.findall(r"\((\d+),(\d+)\)", pairing)]
        corners = [int(x) for x in row[-2].split(";")]
        heights = [int(x) for x in row[-1].split(";")]
        f, _ = refs.redraw_excursion(chk.pseed, (r,), N_CRUM)
        chk.expect(len(pairs) == 2 * G_CRUM and len(corners) == 4 * G_CRUM, f"crum {r} sizes")
        chk.expect(all(1 <= a < b <= 2 * N_CRUM - 1 for a, b in zip(corners, corners[1:])),
                   f"crum {r}: corners not strictly increasing")
        chk.expect(heights == [int(f[corners[a - 1]]) for a, _ in pairs], f"crum {r}: heights")
        chk.expect(all(0 <= f[corners[a - 1]] - f[corners[b - 1]] <= 1 for a, b in pairs),
                   f"crum {r}: a glued pair drops by more than one level")
        shape = refs.map_shape(refs.load_json(chk.out / f"crum_{r}.json"))
        chk.expect(shape["faces"] == 1 and shape["genus"] == G_CRUM
                   and shape["vertices"] == N_CRUM + 1 and shape["edges"] == N_CRUM + 2 * G_CRUM,
                   f"crum_{r}.json: {shape}")


def check_replay(chk: Checker, record: dict) -> None:
    chk.expect((chk.out / "manifest.json").exists(), "replay wrote no manifest")


CHECKS = {
    "radius_s1": check_radius, "radius_s3": check_radius, "two_point": check_two_point,
    "profile": check_profile, "jeulin": check_jeulin, "lemma3": check_lemma3,
    "selftest": check_selftest, "bijection": check_bijection, "dichotomy": check_dichotomy,
    "map": check_map, "graph": check_graph, "crum": check_crum, "replay": check_replay,
}
