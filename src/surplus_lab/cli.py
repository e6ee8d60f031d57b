"""Command-line surface: sampling, enumeration, exploration, verification.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
Every command runs the same way: the options it reads are resolved, with
their defaults filled in and any it does not read refused; then the output
directory is created, the command does its work, ``manifest.json`` records
the seed, the resolved options, the argv and each output's SHA-256, and the
command's lines are printed.  Rerunning with the same seed reproduces
byte-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks, estimators, persistence
from .lattice_paths import LatticeExcursion, enumerate_excursions
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
# per command, the argument that picks its kind, how a refusal names the kind, the options
# whose use depends on the kind, and per kind the ones it reads with their defaults (for a
# suite, its signature); a kind refuses a given option that it does not read
KIND_OPTIONS = {
    "sample": ("kind", "sample {}", ("s", "g"),
               {"tree": {}, "excursion": {}, "map": {"s": 0}, "graph": {"s": 0}, "crum": {"g": 1}}),
    "enumerate": ("family", "enumerate --family {}", ("s", "g"),
                  {"f": {}, "m": {"s": 0}, "h": {"s": 0}, "um": {"g": 1}}),
    "estimate": ("model", "estimate --model {}", ("s", "g"), {"h": {"s": 1}, "um": {"g": 1}}),
    "verify": ("suite", "suite {}", ("n", "s", "reps", "seed", "threshold"), None),
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
    xp.add_argument("--in", dest="in", metavar="INFILE", required=True)
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


def _options(args) -> dict:
    """The options that ``args.command`` reads, by name, with the defaults of its kind
    (:data:`KIND_OPTIONS`) filled in; a :class:`UsageError` names a given option that the kind
    does not read."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    if args.command not in KIND_OPTIONS:
        return options
    key, name, optional, table = KIND_OPTIONS[args.command]
    kind = options[key]
    if table is None:  # a suite's signature names the options it reads
        params = inspect.signature(getattr(checks, SUITES[kind][0])).parameters
        reads = {opt: p.default for opt, p in params.items()}
    else:
        reads = table[kind]
    unread = [f"--{opt}" for opt in optional if opt not in reads and options[opt] is not None]
    if unread:
        raise UsageError(f"{name.format(kind)} does not read {', '.join(unread)}")
    for opt in optional:
        value = options.pop(opt)
        if opt in reads:
            options[opt] = reads[opt] if value is None else value
    return options


# Each command takes its resolved options and the output directory and returns this: the files
# it wrote, the lines to print and the exit code.
Outcome = tuple[list[Path], list[str], int]


# -- sample -----------------------------------------------------------------


def cmd_sample(args, outdir: Path) -> Outcome:
    rng = RngStream(args.seed)
    if args.kind in ("excursion", "tree"):
        text = (LatticeExcursion.steps_string if args.kind == "excursion"
                else LatticeExcursion.to_parens)
        path = outdir / f"{args.kind}s.txt"
        path.write_text("".join(text(sample_uniform_excursion(args.n, gen)) + "\n"
                                for gen in rng.generators(args.reps)))
        files = [path]
    elif args.kind == "map":
        def draw(gens, start):  # each replicate chunk writes its own maps
            weights = []
            for r, gen in enumerate(gens, start):
                m, weight = sample_uniform_map(args.n, args.s, gen)
                persistence.save_map(m, outdir / f"map_{r}.json")
                weights.append(weight)
            return [weights]

        weights, = replicate_rows(args.reps, rng, draw, MIN_SAMPLE_RANGE)
        files = [outdir / f"map_{r}.json" for r in range(args.reps)]
        files.append(outdir / "map_weights.csv")
        persistence.write_csv(files[-1], ["replicate", "weight"], enumerate(weights.tolist()))
    elif args.kind == "graph":
        rows = []
        for r, gen in enumerate(rng.generators(args.reps)):
            graph, weight = sample_surplus_graph(args.n, args.s, gen)
            rows.append([r, graph.root, json.dumps(sorted(graph.edges)).replace(",", ";"),
                         weight])
        files = [outdir / "graphs.csv"]
        persistence.write_csv(files[0], ["replicate", "root", "edges", "weight"], rows)
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
        files = [outdir / f"crum_{r}.json" for r, pairing, *_ in rows if pairing != "degenerate"]
        files.append(outdir / "crum_decorations.csv")
        persistence.write_csv(files[-1], ["replicate", "pairing", "corners", "heights"], rows)
    return files, [f"wrote {len(files)} file(s) to {outdir}"], EXIT_OK


# -- enumerate ---------------------------------------------------------------


def cmd_enumerate(args, outdir: Path) -> Outcome:
    if args.family == "f":
        items = [f.steps_string() for f in enumerate_excursions(args.n)]
    elif args.family == "m":
        items = [json.dumps(m.to_json_dict(), sort_keys=True)
                 for m in enumerate_maps(args.n, args.s)]
    elif args.family == "h":
        items = [f"root={g.root} edges={sorted(g.edges)}"
                 for g in enumerate_surplus_graphs(args.n, args.s)]
    else:
        items = [json.dumps(m.to_json_dict(), sort_keys=True)
                 for m in enumerate_maps(args.n, 2 * args.g) if m.is_unicellular()]
    path = outdir / f"family_{args.family}.txt"
    path.write_text("\n".join(items) + ("\n" if items else ""))
    lines = [f"count {len(items)}", *items[:20]]
    if len(items) > 20:
        lines.append(f"... ({len(items) - 20} more in {path})")
    return [path], lines, EXIT_OK


# -- explore / invert -----------------------------------------------------------


def cmd_explore(args, outdir: Path) -> Outcome:
    m = persistence.load_map(Path(getattr(args, "in")))
    exc, xi = bf_explore(m) if args.mode == "bf" else df_explore(m)
    result = {
        "mode": args.mode,
        "tree": exc.to_parens(),
        "indices": list(xi.indices),
        "tags": list(xi.tags),
    }
    path = outdir / "exploration.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return [path], [json.dumps(result)], EXIT_OK


def cmd_invert(args, outdir: Path) -> Outcome:
    exc = LatticeExcursion.from_parens(args.tree)
    indices = tuple(int(x) for x in args.corners.split(",") if x)
    if len(indices) % 2:
        raise ValueError(f"{len(indices)} corners do not make pairs")
    if args.tags:
        xi = AdmissibleCorners(args.mode, indices, tuple(int(x) for x in args.tags.split(",") if x))
    else:
        xi = AdmissibleCorners.of_pairs(args.mode, zip(indices[::2], indices[1::2]))
    m = insert_edges(exc, xi)
    path = outdir / "map.json"
    persistence.save_map(m, path)
    return [path], [f"map with {m.num_edges} edges, genus {m.genus()} -> {path}"], EXIT_OK


# -- verify -----------------------------------------------------------------------


def _suite_text(results) -> list[np.ndarray]:
    """The suites' CSV rows put through ``persistence.fmt``, their printed lines and their
    verdicts, as the text and boolean arrays that :func:`range_rows` sends back."""
    return [np.array([[persistence.fmt(v) for v in row] for res in results for row in res.rows()],
                     dtype=str).reshape(-1, len(SUITE_HEADER)),
            np.array([line for res in results for line in res.lines()], dtype=str),
            np.array([res.passed for res in results], dtype=bool)]


def cmd_verify(args, outdir: Path) -> Outcome:
    options = vars(args).copy()
    suite = options.pop("suite")
    rows, lines, verdicts = _suite_text([getattr(checks, SUITES[suite][0])(**options)])
    path = outdir / f"verify_{suite}.csv"
    persistence.write_csv(path, SUITE_HEADER, rows)
    return [path], list(lines), EXIT_OK if verdicts.all() else EXIT_VERIFY


# -- estimate ---------------------------------------------------------------------


def cmd_estimate(args, outdir: Path) -> Outcome:
    rng = RngStream(args.seed)
    mode, tilt = ("um", args.g) if args.model == "um" else ("bf", args.s)
    if args.target == "profile":
        if mode == "um":
            raise ValueError("profile estimation is available for --model h only")
        est = estimators.profile_laws(args.n, tilt, args.reps, rng)
    else:
        law = estimators.radius_laws if args.target == "radius" else estimators.two_point_law
        est = law(args.n, tilt, args.reps, rng, mode)
    path = outdir / f"estimate_{args.target.replace('-', '_')}.csv"
    persistence.write_csv(path, est.header, est.rows)
    spath = outdir / "summary.json"
    spath.write_text(json.dumps(est.summary, indent=2, sort_keys=True, default=float) + "\n")
    return [path, spath], est.lines, EXIT_OK


# -- counts -----------------------------------------------------------------------


def cmd_counts(args, outdir: Path) -> Outcome:
    ratios, anchor = estimators.omega1_anchor()
    rows = [["m-s1-ratio", n, 1, ratio, anchor] for n, ratio in ratios.items()]
    if args.asymptotics:
        for family, param, sizes in [("f", 0, range(2, 11)), ("m", 1, range(2, 11)),
                                     ("m", 2, range(2, 11)), ("h", 0, range(3, 7)),
                                     ("h", 1, range(3, 7)), ("umstar", 1, range(2, 6))]:
            for n in sizes:
                t = estimators.count_asymptotics(family, n, param)
                rows.append([family, n, param, "" if t.exact is None else t.exact, t.prediction])
    path = outdir / "counts.csv"
    persistence.write_csv(path, ["family", "n", "param", "exact", "prediction"], rows)
    lines = [f"growth-constant anchor (extrapolated): {anchor:.6f}", f"wrote {path}"]
    return [path], lines, EXIT_OK


# -- selftest --------------------------------------------------------------------


def cmd_selftest(args, outdir: Path) -> Outcome:
    suites = [(name, kwargs) for name, kwargs in SUITES.values() if kwargs is not None]

    def run(start, stop):  # one item per suite: the processes pull the costly ones apart
        return _suite_text([getattr(checks, name)(**kwargs)
                            for name, kwargs in suites[start:stop]])

    rows, lines, verdicts = range_rows(len(suites), run, min_range=1)
    path = outdir / "selftest.csv"
    persistence.write_csv(path, SUITE_HEADER, rows)
    ok = verdicts.all()
    return [path], [*lines, f"selftest: {'PASS' if ok else 'FAIL'}"], EXIT_OK if ok else EXIT_VERIFY


# -- dispatch --------------------------------------------------------------------


def main(argv=None) -> int:
    """Run one command: resolve its options, make its output directory, do its work, write
    its manifest and print its lines; the exit code."""
    handlers = {"sample": cmd_sample, "enumerate": cmd_enumerate, "explore": cmd_explore,
                "invert": cmd_invert, "verify": cmd_verify, "estimate": cmd_estimate,
                "counts": cmd_counts, "selftest": cmd_selftest}
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        options = _options(args)  # a usage error comes before the output directory
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IOError(f"cannot create output directory {args.out}: {exc}") from exc
        manifest = persistence.new_manifest(
            options.get("seed", 0), args.command, argv=argv,
            parameters={k: v for k, v in options.items() if k != "seed"})
        files, lines, code = handlers[args.command](argparse.Namespace(**options), args.out)
        for path in files:
            manifest.record_output(path)
        manifest.finished = persistence._now()
        manifest.save(args.out / "manifest.json")
        for line in lines:
            print(line)
        return code
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
