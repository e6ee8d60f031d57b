"""Command-line surface: sampling, enumeration, exploration, verification.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
Every run writes ``manifest.json`` into the output directory; rerunning with
the same seed reproduces byte-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import sqrt
from pathlib import Path

from . import __version__, checks, estimators, persistence
from .lattice_paths import LatticeExcursion
from .maps import AdmissibleCorners, bf_explore, df_explore, insert_edges, unicellular_glue
from .samplers import (
    DegenerateEnsembleError,
    RngStream,
    sample_surplus_graph,
    sample_uniform_excursion,
    sample_uniform_map,
    sample_unicellular_decoration,
    enumerate_maps,
    enumerate_surplus_graphs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def nonnegative_int(text: str) -> int:
    """A size or count option: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# name -> (the suite at size n, verify's default n, selftest's n or None when selftest
# leaves it out, the verify options it reads); selftest runs its suites in this order
EXACT_SUITES = {
    "bijection": (lambda n, s=None: checks.bijection_suite(n, s or 2), 5, 4, ("n", "s")),
    "counts": (lambda n: checks.count_suite(n), 10, 8, ("n",)),
    "w1": (lambda n: checks.w1_suite(2, n), 6, 5, ("n",)),
    "psi": (lambda n: checks.psi_suite(n), 5, 4, ("n",)),
    "vervaat": (lambda n: checks.vervaat_suite(n), 6, 5, ("n",)),
    "sg": (lambda n: checks.sg_suite(), 0, 0, ()),
    "dichotomy": (lambda n: checks.gluing_dichotomy_suite(n), 5, 4, ("n",)),
    "decoration": (lambda n: checks.decoration_count_suite(n), 5, 4, ("n",)),
    "radius": (lambda n, reps, seed: checks.radius_invariance_suite(
        n_sample=n, reps=reps or 10_000, seed=seed or 20_240_501), 1000, None,
        ("n", "reps", "seed")),
}
# the verify options each seeded Monte Carlo suite reads
STATISTICAL_SUITES = {"jeulin": ("n", "reps", "seed", "threshold"),
                      "lemma3": ("s", "reps", "seed")}
# verify's suite parameters; a suite that does not read one refuses it
VERIFY_OPTIONS = ("n", "s", "reps", "seed", "threshold")

SUITE_HEADER = ["check", "value", "detail", "ok"]


def build_parser() -> _Parser:
    p = _Parser(prog="surplus-lab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw objects and write them to --out")
    sp.add_argument("kind", choices=["tree", "excursion", "map", "graph", "crum"])
    sp.add_argument("--n", type=nonnegative_int, required=True)
    sp.add_argument("--s", type=nonnegative_int, default=0)
    sp.add_argument("--g", type=nonnegative_int, default=1)
    sp.add_argument("--reps", type=nonnegative_int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=Path, default=Path("out"))

    ep = sub.add_parser("enumerate", help="exhaustively list a small family")
    ep.add_argument("--family", choices=["f", "m", "h", "um"], required=True)
    ep.add_argument("--n", type=nonnegative_int, required=True)
    ep.add_argument("--s", type=nonnegative_int, default=0)
    ep.add_argument("--g", type=nonnegative_int, default=1)
    ep.add_argument("--out", type=Path, default=Path("out"))

    xp = sub.add_parser("explore", help="spanning-tree exploration of a stored map")
    xp.add_argument("--mode", choices=["bf", "df"], required=True)
    xp.add_argument("--in", dest="infile", type=Path, required=True)
    xp.add_argument("--out", type=Path, default=Path("out"))

    ip = sub.add_parser("invert", help="rebuild a map from a tree and corner decoration")
    ip.add_argument("--tree", required=True, help="parenthesized contour word")
    ip.add_argument("--corners", required=True, help="comma-separated corner indices")
    ip.add_argument("--tags", default="", help="comma-separated tags (default: canonical)")
    ip.add_argument("--mode", choices=["bf", "df"], default="bf")
    ip.add_argument("--out", type=Path, default=Path("out"))

    vp = sub.add_parser("verify", help="run an identity suite; exit 2 on failure")
    vp.add_argument("--suite", required=True,
                    choices=[*EXACT_SUITES, *STATISTICAL_SUITES])
    # each suite reads some of these (default per suite) and refuses the others
    vp.add_argument("--n", type=nonnegative_int)
    vp.add_argument("--s", type=nonnegative_int)
    vp.add_argument("--reps", type=nonnegative_int)
    vp.add_argument("--seed", type=int)
    vp.add_argument("--threshold", type=float, help="statistic threshold of the jeulin suite")
    vp.add_argument("--out", type=Path, default=Path("out"))

    tp = sub.add_parser("estimate", help="Monte Carlo laws for radius/two-point/profile")
    tp.add_argument("--target", choices=["radius", "two-point", "profile"], required=True)
    tp.add_argument("--model", choices=["h", "um"], default="h")
    tp.add_argument("--n", type=nonnegative_int, required=True)
    tp.add_argument("--s", type=nonnegative_int, default=1)
    tp.add_argument("--g", type=nonnegative_int, default=1)
    tp.add_argument("--reps", type=nonnegative_int, default=1000)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--out", type=Path, default=Path("out"))

    cp = sub.add_parser("counts", help="exact counts vs asymptotic predictions")
    cp.add_argument("--asymptotics", action="store_true")
    cp.add_argument("--out", type=Path, default=Path("out"))

    st = sub.add_parser("selftest", help="run the quick exact-identity suites")
    st.add_argument("--out", type=Path, default=Path("out"))
    return p


def _outdir(args) -> Path:
    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _finish(manifest: persistence.RunManifest, outdir: Path, *files: Path) -> None:
    for f in files:
        manifest.record_output(f)
    manifest.finished = persistence._now()
    manifest.save(outdir / "manifest.json")


# -- sample -----------------------------------------------------------------


def cmd_sample(args) -> int:
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        args.seed, "sample", argv=args.argv,
        parameters={"kind": args.kind, "n": args.n, "s": args.s,
                    "g": args.g, "reps": args.reps})
    rng = RngStream(args.seed)
    files = []
    if args.kind == "excursion":
        lines = [sample_uniform_excursion(args.n, gen).steps_string()
                 for gen in rng.generators(args.reps)]
        path = outdir / "excursions.txt"
        path.write_text("\n".join(lines) + "\n")
        files.append(path)
    elif args.kind == "tree":
        lines = [sample_uniform_excursion(args.n, gen).to_parens()
                 for gen in rng.generators(args.reps)]
        path = outdir / "trees.txt"
        path.write_text("\n".join(lines) + "\n")
        files.append(path)
    elif args.kind == "map":
        rows = []
        for r, gen in enumerate(rng.generators(args.reps)):
            m, weight = sample_uniform_map(args.n, args.s, gen)
            path = outdir / f"map_{r}.json"
            persistence.save_map(m, path)
            files.append(path)
            rows.append([r, weight])
        wpath = outdir / "map_weights.csv"
        persistence.write_csv(wpath, ["replicate", "weight"], rows)
        files.append(wpath)
    elif args.kind == "graph":
        rows = []
        for r, gen in enumerate(rng.generators(args.reps)):
            graph, weight = sample_surplus_graph(args.n, args.s, gen)
            rows.append([r, graph.root, json.dumps(sorted(graph.edges)).replace(",", ";"),
                         weight])
        path = outdir / "graphs.csv"
        persistence.write_csv(path, ["replicate", "root", "edges", "weight"], rows)
        files.append(path)
    else:  # crum
        rows = []
        for r, gen in enumerate(rng.generators(args.reps)):
            exc = sample_uniform_excursion(args.n, gen)
            try:
                pairing, heights, corners = sample_unicellular_decoration(exc, args.g, gen)
            except DegenerateEnsembleError:
                rows.append([r, "degenerate", "", ""])
                continue
            m, unicellular = unicellular_glue(exc, pairing, corners)
            if not unicellular:
                raise AssertionError("glued sample is not unicellular")
            path = outdir / f"crum_{r}.json"
            persistence.save_map(m, path)
            files.append(path)
            rows.append([r, str(pairing), ";".join(map(str, corners)),
                         ";".join(map(str, heights))])
        cpath = outdir / "crum_decorations.csv"
        persistence.write_csv(cpath, ["replicate", "pairing", "corners", "heights"], rows)
        files.append(cpath)
    _finish(manifest, outdir, *files)
    print(f"wrote {len(files)} file(s) to {outdir}")
    return EXIT_OK


# -- enumerate ---------------------------------------------------------------


def cmd_enumerate(args) -> int:
    from .lattice_paths import enumerate_excursions

    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        0, "enumerate", argv=args.argv,
        parameters={"family": args.family, "n": args.n, "s": args.s, "g": args.g})
    if args.family == "f":
        items = [f.steps_string() for f in enumerate_excursions(args.n)]
    elif args.family == "m":
        items = [json.dumps(m.to_json_dict(), sort_keys=True)
                 for m in enumerate_maps(args.n, args.s)]
    elif args.family == "h":
        items = [f"root={g.root} edges={sorted(g.edges)}"
                 for g in enumerate_surplus_graphs(args.n, args.s)]
    else:
        items = []
        for m in enumerate_maps(args.n, 2 * args.g):
            if m.is_unicellular():
                items.append(json.dumps(m.to_json_dict(), sort_keys=True))
    path = outdir / f"family_{args.family}.txt"
    path.write_text("\n".join(items) + ("\n" if items else ""))
    _finish(manifest, outdir, path)
    print(f"count {len(items)}")
    for item in items[:20]:
        print(item)
    if len(items) > 20:
        print(f"... ({len(items) - 20} more in {path})")
    return EXIT_OK


# -- explore / invert -----------------------------------------------------------


def cmd_explore(args) -> int:
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        0, "explore", argv=args.argv,
        parameters={"mode": args.mode, "in": str(args.infile)})
    m = persistence.load_map(args.infile)
    exc, xi = bf_explore(m) if args.mode == "bf" else df_explore(m)
    result = {
        "mode": args.mode,
        "tree": exc.to_parens(),
        "indices": list(xi.indices),
        "tags": list(xi.tags),
    }
    path = outdir / "exploration.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    _finish(manifest, outdir, path)
    print(json.dumps(result))
    return EXIT_OK


def cmd_invert(args) -> int:
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        0, "invert", argv=args.argv,
        parameters={"tree": args.tree, "corners": args.corners,
                    "tags": args.tags, "mode": args.mode})
    exc = LatticeExcursion.from_parens(args.tree)
    indices = tuple(int(x) for x in args.corners.split(",") if x)
    if args.tags:
        tags = tuple(int(x) for x in args.tags.split(",") if x)
    else:
        tags = tuple(1 for _ in indices)
    xi = AdmissibleCorners(args.mode, indices, tags)
    m = insert_edges(exc, xi)
    path = outdir / "map.json"
    persistence.save_map(m, path)
    _finish(manifest, outdir, path)
    print(f"map with {m.num_edges} edges, genus {m.genus()} -> {path}")
    return EXIT_OK


# -- verify -----------------------------------------------------------------------


def _statistical_suite(args):
    """The two seeded Monte Carlo suites, as (lines, passed, rows)."""
    seed = args.seed or 7
    if args.suite == "jeulin":
        n = args.n or 2000
        reps = args.reps or 10_000
        res = estimators.jeulin_check(n, reps, RngStream(seed))
        # the KS level of 0.05 at 10^4 replicates, carried to other replicate counts
        threshold = args.threshold or 0.05 * sqrt(10_000 / reps)
        ok = res.ks <= threshold
        lines = [f"{'PASS' if ok else 'FAIL'} jeulin:ks n={n} reps={reps} "
                 f"ks={res.ks:.5f} threshold={threshold}"]
        rows = [["jeulin-ks", res.ks, threshold, int(ok)],
                ["jeulin-mean-sq", res.mean_sq, "", ""],
                ["jeulin-mean-area", res.mean_area, "", ""]]
        return lines, ok, rows
    # decoration-count gap decreasing in n, for both exploration orders
    n_list = (50, 100, 200, 400)
    s = args.s or 1
    reps = args.reps or 400
    ok = True
    rows = []
    lines = []
    for stream, mode in enumerate(("bf", "df")):
        ests = estimators.decoration_gap_estimates(n_list, s, reps,
                                                   RngStream(seed).substream(stream), mode)
        for prev, cur, slack, step_ok in estimators.gap_trend_steps(ests):
            ok = ok and step_ok
            lines.append(f"{'PASS' if step_ok else 'FAIL'} lemma3:{mode}-step "
                         f"n={prev.n}->{cur.n} {prev.mean:.6f}->{cur.mean:.6f} "
                         f"slack={slack:.6f}")
        for est in ests:
            rows.append([f"{mode}-gap-n{est.n}", est.mean, est.se, ""])
    return lines, ok, rows


def cmd_verify(args) -> int:
    exact = EXACT_SUITES.get(args.suite)
    reads = exact[3] if exact else STATISTICAL_SUITES[args.suite]
    unread = [f"--{opt}" for opt in VERIFY_OPTIONS
              if opt not in reads and getattr(args, opt) is not None]
    if unread:
        raise UsageError(f"suite {args.suite} does not read {', '.join(unread)}")
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        args.seed or 0, "verify", argv=args.argv,
        parameters={"suite": args.suite, **{opt: getattr(args, opt) or 0
                                            for opt in ("n", "s", "reps") if opt in reads}})
    if exact:
        run, default_n, _, _ = exact
        res = run(args.n or default_n, **{opt: getattr(args, opt) for opt in reads if opt != "n"})
        lines, ok, rows = res.lines(), res.passed, res.rows()
    else:
        lines, ok, rows = _statistical_suite(args)
    for line in lines:
        print(line)
    path = outdir / f"verify_{args.suite}.csv"
    persistence.write_csv(path, SUITE_HEADER, rows)
    _finish(manifest, outdir, path)
    return EXIT_OK if ok else EXIT_VERIFY


# -- estimate ---------------------------------------------------------------------


def cmd_estimate(args) -> int:
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        args.seed, "estimate", argv=args.argv,
        parameters={"target": args.target, "model": args.model, "n": args.n,
                    "s": args.s, "g": args.g, "reps": args.reps})
    rng = RngStream(args.seed)
    if args.model == "um":
        est = estimators.unicellular_laws(args.target, args.n, args.g, args.reps, rng)
    elif args.target == "radius":
        est = estimators.radius_laws(args.n, args.s, args.reps, rng)
    elif args.target == "profile":
        est = estimators.profile_laws(args.n, args.s, args.reps, rng)
    else:
        est = estimators.two_point_law(args.n, args.s, args.reps, rng)
    path = outdir / f"estimate_{args.target.replace('-', '_')}.csv"
    persistence.write_csv(path, est.header, est.rows)
    spath = outdir / "summary.json"
    spath.write_text(json.dumps(est.summary, indent=2, sort_keys=True, default=float) + "\n")
    _finish(manifest, outdir, path, spath)
    for line in est.lines:
        print(line)
    return EXIT_OK


# -- counts -----------------------------------------------------------------------


def cmd_counts(args) -> int:
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        0, "counts", argv=args.argv,
        parameters={"asymptotics": args.asymptotics})
    ratios, anchor = estimators.omega1_anchor()
    rows = []
    lines = [f"growth-constant anchor (extrapolated): {anchor:.6f}"]
    for n, ratio in ratios.items():
        rows.append(["m-s1-ratio", n, 1, ratio, anchor])
    if args.asymptotics:
        for n in range(2, 11):
            t = estimators.count_asymptotics("f", n, 0)
            rows.append(["f", n, 0, t.exact, t.prediction])
        for s in (1, 2):
            for n in range(2, 11):
                t = estimators.count_asymptotics("m", n, s)
                rows.append(["m", n, s, t.exact, t.prediction])
        for s in (0, 1):
            for n in range(3, 7):
                t = estimators.count_asymptotics("h", n, s)
                rows.append(["h", n, s, t.exact, t.prediction])
        for n in range(2, 6):
            t = estimators.count_asymptotics("umstar", n, 1)
            rows.append(["umstar", n, 1, t.exact, t.prediction])
    path = outdir / "counts.csv"
    persistence.write_csv(path, ["family", "n", "param", "exact", "prediction"],
                          [[r[0], r[1], r[2], "" if r[3] is None else r[3], r[4]]
                           for r in rows])
    _finish(manifest, outdir, path)
    for line in lines:
        print(line)
    print(f"wrote {path}")
    return EXIT_OK


# -- selftest --------------------------------------------------------------------


def cmd_selftest(args) -> int:
    outdir = _outdir(args)
    manifest = persistence.new_manifest(0, "selftest", argv=args.argv, parameters={})
    ok = True
    rows = []
    for run, _, size, _ in EXACT_SUITES.values():
        if size is None:
            continue
        res = run(size)
        for line in res.lines():
            print(line)
        rows += res.rows()
        ok = ok and res.passed
    path = outdir / "selftest.csv"
    persistence.write_csv(path, SUITE_HEADER, rows)
    _finish(manifest, outdir, path)
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


# -- dispatch --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = list(argv) if argv is not None else list(sys.argv[1:])
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "sample": cmd_sample,
        "enumerate": cmd_enumerate,
        "explore": cmd_explore,
        "invert": cmd_invert,
        "verify": cmd_verify,
        "estimate": cmd_estimate,
        "counts": cmd_counts,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, persistence.PersistenceError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, DegenerateEnsembleError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
