"""Command-line surface: sampling, enumeration, exploration, verification.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
Every run writes ``manifest.json`` into the output directory; rerunning with
the same seed reproduces byte-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks, estimators, persistence
from .lattice_paths import LatticeExcursion
from .maps import (AdmissibleCorners, bf_explore, df_explore, entangled_pairings,
                   insert_edges, unicellular_glue)
from .samplers import (
    MIN_SAMPLE_RANGE,
    DegenerateEnsembleError,
    RngStream,
    range_rows,
    replicate_rows,
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


def _positive_int(text: str) -> int:
    """A suite's size or replicate count: at 0 a suite would pass vacuously."""
    value = nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be >= 1, got 0")
    return value


# name -> (the suite's function in ``checks``, looked up when it runs, and selftest's keyword
# arguments or None when selftest leaves it out); selftest runs its suites in this order.  A
# suite's signature names the verify options it reads, with their defaults.
SUITES = {
    "bijection": ("bijection_suite", {"n": 4}),
    "counts": ("count_suite", {"n": 8}),
    "w1": ("w1_suite", {"n": 5}),
    "psi": ("psi_suite", {"n": 4}),
    "vervaat": ("vervaat_suite", {"n": 5}),
    "sg": ("sg_suite", {}),
    "dichotomy": ("gluing_dichotomy_suite", {"n": 4}),
    "decoration": ("decoration_count_suite", {"n": 4}),
    "radius": ("radius_invariance_suite", None),
    "jeulin": ("jeulin_suite", None),
    "lemma3": ("lemma3_suite", None),
}
# verify's suite parameters; a suite that does not read one refuses it
VERIFY_OPTIONS = ("n", "s", "reps", "seed", "threshold")
# per command, the argument that picks the kind, and per kind the --s and --g it reads with
# their defaults; a kind refuses the one it does not read
KIND_OPTIONS = {
    "sample": ("kind", {"tree": {}, "excursion": {}, "map": {"s": 0}, "graph": {"s": 0},
                        "crum": {"g": 1}}),
    "enumerate": ("family", {"f": {}, "m": {"s": 0}, "h": {"s": 0}, "um": {"g": 1}}),
    "estimate": ("model", {"h": {"s": 1}, "um": {"g": 1}}),
}

SUITE_HEADER = ["check", "value", "detail", "ok"]


def build_parser() -> _Parser:
    p = _Parser(prog="surplus-lab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw objects and write them to --out")
    sp.add_argument("kind", choices=["tree", "excursion", "map", "graph", "crum"])
    sp.add_argument("--n", type=nonnegative_int, required=True)
    sp.add_argument("--s", type=nonnegative_int, help="surplus of map and graph (default 0)")
    sp.add_argument("--g", type=nonnegative_int, help="genus of crum (default 1)")
    sp.add_argument("--reps", type=nonnegative_int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=Path, default=Path("out"))

    ep = sub.add_parser("enumerate", help="exhaustively list a small family")
    ep.add_argument("--family", choices=["f", "m", "h", "um"], required=True)
    ep.add_argument("--n", type=nonnegative_int, required=True)
    ep.add_argument("--s", type=nonnegative_int, help="surplus of m and h (default 0)")
    ep.add_argument("--g", type=nonnegative_int, help="genus of um (default 1)")
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
    vp.add_argument("--suite", required=True, choices=SUITES)
    # each suite reads some of these (default per suite) and refuses the others
    vp.add_argument("--n", type=_positive_int)
    vp.add_argument("--s", type=nonnegative_int)
    vp.add_argument("--reps", type=_positive_int)
    vp.add_argument("--seed", type=int)
    vp.add_argument("--threshold", type=float, help="statistic threshold of the jeulin suite")
    vp.add_argument("--out", type=Path, default=Path("out"))

    tp = sub.add_parser("estimate", help="Monte Carlo laws for radius/two-point/profile")
    tp.add_argument("--target", choices=["radius", "two-point", "profile"], required=True)
    tp.add_argument("--model", choices=["h", "um"], default="h")
    tp.add_argument("--n", type=nonnegative_int, required=True)
    tp.add_argument("--s", type=nonnegative_int, help="surplus of model h (default 1)")
    tp.add_argument("--g", type=nonnegative_int, help="genus of model um (default 1)")
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


def _kind_options(args) -> dict:
    """The ``--s`` and ``--g`` that the kind of ``args.command`` reads (:data:`KIND_OPTIONS`),
    set on ``args`` with their defaults filled in; a :class:`UsageError` names a given option
    that the kind does not read."""
    key, table = KIND_OPTIONS[args.command]
    reads = table[getattr(args, key)]
    unread = [f"--{opt}" for opt in ("s", "g")
              if opt not in reads and getattr(args, opt) is not None]
    if unread:
        kind = getattr(args, key) if key == "kind" else f"--{key} {getattr(args, key)}"
        raise UsageError(f"{args.command} {kind} does not read {', '.join(unread)}")
    for opt, default in reads.items():
        if getattr(args, opt) is None:
            setattr(args, opt, default)
    return {opt: getattr(args, opt) for opt in reads}


def _finish(manifest: persistence.RunManifest, outdir: Path, *files: Path) -> None:
    for f in files:
        manifest.record_output(f)
    manifest.finished = persistence._now()
    manifest.save(outdir / "manifest.json")


# -- sample -----------------------------------------------------------------


def cmd_sample(args) -> int:
    reads = _kind_options(args)
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        args.seed, "sample", argv=args.argv,
        parameters={"kind": args.kind, "n": args.n, **reads, "reps": args.reps})
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
        def draw(gens, start):  # each replicate chunk writes its own maps
            weights = []
            for r, gen in enumerate(gens, start):
                m, weight = sample_uniform_map(args.n, args.s, gen)
                persistence.save_map(m, outdir / f"map_{r}.json")
                weights.append(weight)
            return [weights]

        weights, = replicate_rows(args.reps, rng, draw, MIN_SAMPLE_RANGE)
        files += [outdir / f"map_{r}.json" for r in range(args.reps)]
        wpath = outdir / "map_weights.csv"
        persistence.write_csv(wpath, ["replicate", "weight"], enumerate(weights.tolist()))
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
        entangled_pairings(args.g)  # refuses a genus it cannot glue, even at --reps 0

        def draw(gens, start):  # each replicate chunk writes its own maps
            rows = []  # the pairing, the corners and the heights, or "degenerate"
            for r, gen in enumerate(gens, start):
                exc = sample_uniform_excursion(args.n, gen)
                try:
                    pairing, heights, corners = sample_unicellular_decoration(exc, args.g, gen)
                except DegenerateEnsembleError:  # no gluable corner tuple
                    rows.append(["degenerate", "", ""])
                    continue
                m, unicellular = unicellular_glue(exc, pairing, corners)
                if not unicellular:
                    raise RuntimeError(f"replicate {r} glued a map with more than one face "
                                       f"at n={args.n}, g={args.g}")
                persistence.save_map(m, outdir / f"crum_{r}.json")
                rows.append([str(pairing), ";".join(map(str, corners)),
                             ";".join(map(str, heights))])
            return [rows]

        decorations, = replicate_rows(args.reps, rng, draw, MIN_SAMPLE_RANGE)
        rows = [[r, *row] for r, row in enumerate(decorations.tolist())]
        files += [outdir / f"crum_{r}.json" for r, pairing, *_ in rows if pairing != "degenerate"]
        cpath = outdir / "crum_decorations.csv"
        persistence.write_csv(cpath, ["replicate", "pairing", "corners", "heights"], rows)
        files.append(cpath)
    _finish(manifest, outdir, *files)
    print(f"wrote {len(files)} file(s) to {outdir}")
    return EXIT_OK


# -- enumerate ---------------------------------------------------------------


def cmd_enumerate(args) -> int:
    from .lattice_paths import enumerate_excursions

    reads = _kind_options(args)
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        0, "enumerate", argv=args.argv, parameters={"family": args.family, "n": args.n, **reads})
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


def _suite_text(results) -> list[np.ndarray]:
    """The suites' CSV rows put through ``persistence.fmt``, their printed lines and their
    verdicts, as the text and boolean arrays that :func:`range_rows` sends back."""
    return [np.array([[persistence.fmt(v) for v in row] for res in results for row in res.rows()],
                     dtype=str).reshape(-1, len(SUITE_HEADER)),
            np.array([line for res in results for line in res.lines()], dtype=str),
            np.array([res.passed for res in results], dtype=bool)]


def _report(rows, lines, verdicts, path: Path) -> bool:
    """Print the suites' verdict lines once every suite is back, write their rows to
    ``path``, and tell whether every suite passed."""
    for line in lines:
        print(line)
    persistence.write_csv(path, SUITE_HEADER, rows)
    return bool(verdicts.all())


def cmd_verify(args) -> int:
    run = getattr(checks, SUITES[args.suite][0])
    reads = inspect.signature(run).parameters
    unread = [f"--{opt}" for opt in VERIFY_OPTIONS
              if opt not in reads and getattr(args, opt) is not None]
    if unread:
        raise UsageError(f"suite {args.suite} does not read {', '.join(unread)}")
    options = {opt: p.default if getattr(args, opt) is None else getattr(args, opt)
               for opt, p in reads.items()}
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        options.get("seed", 0), "verify", argv=args.argv,
        parameters={"suite": args.suite, **{k: v for k, v in options.items() if k != "seed"}})
    path = outdir / f"verify_{args.suite}.csv"
    ok = _report(*_suite_text([run(**options)]), path)
    _finish(manifest, outdir, path)
    return EXIT_OK if ok else EXIT_VERIFY


# -- estimate ---------------------------------------------------------------------


def cmd_estimate(args) -> int:
    reads = _kind_options(args)
    outdir = _outdir(args)
    manifest = persistence.new_manifest(
        args.seed, "estimate", argv=args.argv,
        parameters={"target": args.target, "model": args.model, "n": args.n, **reads,
                    "reps": args.reps})
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
    path = outdir / "selftest.csv"
    suites = [(name, kwargs) for name, kwargs in SUITES.values() if kwargs is not None]

    def run(start, stop):  # one item per suite: the processes pull the costly ones apart
        return _suite_text([getattr(checks, name)(**kwargs)
                            for name, kwargs in suites[start:stop]])

    ok = _report(*range_rows(len(suites), run, min_range=1), path)
    _finish(manifest, outdir, path)
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


# -- dispatch --------------------------------------------------------------------


def main(argv=None) -> int:
    handlers = {"sample": cmd_sample, "enumerate": cmd_enumerate, "explore": cmd_explore,
                "invert": cmd_invert, "verify": cmd_verify, "estimate": cmd_estimate,
                "counts": cmd_counts, "selftest": cmd_selftest}
    try:
        args = build_parser().parse_args(argv)
        args.argv = list(argv) if argv is not None else list(sys.argv[1:])
        return handlers[args.command](args)
    except (OSError, persistence.PersistenceError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (UsageError, ValueError, DegenerateEnsembleError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
