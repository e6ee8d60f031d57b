"""Statistical estimators and distributional identity checks.

Scaling conventions are fixed once so that different routes are comparable:
contour time is scaled by ``2n``, path heights by ``sqrt(2n)``, and map
distances by ``sqrt(n)`` with an extra ``sqrt(2)`` on the map side.  Radii,
two-point distances, and profiles estimated through maps, through tilted
excursions, and through weighted labeled trees then target the same limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gamma, pi, sqrt

import numpy as np

from .lattice_paths import enumerate_excursions, excursion_count
from .local_time import (
    area_functional,
    inverse_height_functional,
    level_occupancy,
    sq_localtime_functional,
)
from .samplers import (
    DegenerateEnsembleError,
    RngStream,
    TiltSample,
    WeightedEnsemble,
    decoration_count,
    decoration_count_gap,
    replicate_rows,
    sample_tree_profile,
    sample_uniform_excursion,
    tilted_ensemble,
    ws_weight,
)

WRIGHT_CAP = 12


# -- weighted laws, the KS statistic and the result of an estimate --------------------


def _sorted_law(ens: WeightedEnsemble, column: str) -> tuple[np.ndarray, np.ndarray]:
    """A column's values in stable sorted order, with the weights normalized after sorting."""
    order = np.argsort(ens.columns[column], kind="stable")
    w = ens.weights[order]
    return ens.columns[column][order], w / w.sum()


def _cdf_at(values: np.ndarray, weights: np.ndarray, xs: np.ndarray) -> np.ndarray:
    cum = np.cumsum(weights)
    idx = np.searchsorted(values, xs, side="right")
    return np.where(idx > 0, cum[np.minimum(idx - 1, len(cum) - 1)], 0.0)


def ks_distance(a: tuple[WeightedEnsemble, str], b: tuple[WeightedEnsemble, str]) -> float:
    """Sup difference of the weighted empirical CDFs of two ``(ensemble, column)`` routes."""
    (va, wa), (vb, wb) = _sorted_law(*a), _sorted_law(*b)
    grid = np.concatenate([va, vb])
    return float(np.max(np.abs(_cdf_at(va, wa, grid) - _cdf_at(vb, wb, grid))))


def ks_two_sample_critical(m: float, n: float) -> float:
    """Asymptotic two-sample KS critical value at the 1 % level."""
    c = sqrt(-np.log(0.01 / 2.0) / 2.0)
    return c * sqrt((m + n) / (m * n))


@dataclass
class Estimate:
    """One estimate: its CSV table, its ``summary.json`` and its printed lines."""

    header: list[str]
    rows: list[list]
    summary: dict
    lines: list[str]
    ensembles: dict

    @property
    def ess(self) -> dict:
        return self.summary["ess"]


def _run_summary(target: str, model: str, n: int, reps: int, rng: RngStream) -> dict:
    """The run's parameters, which open every ``summary.json``."""
    return {"target": target, "model": model, "n": n, "reps": reps, "seed": rng.seed}


def _route_estimate(summary: dict, routes: dict, pairs: dict) -> Estimate:
    """The per-replicate table of weighted routes, each route's ESS, and per compared pair
    the KS distance, printed beside its 1 % critical value at the two routes' ESS.

    ``routes`` maps a route name to ``(ensemble, column)``; ``pairs`` maps a summary key to
    the names of the two routes it compares.
    """
    ess = summary["ess"] = {name: ens.ess() for name, (ens, _) in routes.items()}
    header, cols = ["replicate"], []
    for name, (ens, column) in routes.items():
        header += [name, f"{name}_w"]
        cols += [ens.columns[column], ens.weights]
    rows = [[r, *(col[r] for col in cols)] for r in range(len(cols[0]))]
    lines = []
    for key, (a, b) in pairs.items():
        summary[key] = ks = ks_distance(routes[a], routes[b])
        lines.append(f"ks({a},{b})={ks:.5f} "
                     f"critical(1%)={ks_two_sample_critical(ess[a], ess[b]):.5f}")
    return Estimate(header, rows, summary, lines,
                    {name: ens for name, (ens, _) in routes.items()})


# -- radius, two-point, and profile laws --------------------------------------------


def _route_scale(n: int, mode: str):
    """One float expression per model for an integer map distance or contour height, so
    equal integers give equal floats: ``sqrt(2/n) * h`` breadth-first, ``h / sqrt(2n)`` um."""
    if mode == "um":
        root = sqrt(2.0 * n)
        return lambda h: h / root
    scale = sqrt(2.0 / n)
    return lambda h: scale * h


def radius_laws(n: int, s: int, reps: int, rng: RngStream) -> Estimate:
    """Three routes to the same radius law.

    Map route: radius of the breadth-first map, scaled by ``sqrt(2/n)``.  Its root
    distances are the contour heights of its exploration tree
    (:meth:`TiltSample.distances_from_root`), so no corner pair is drawn and only
    the ``B(f)^s`` tilt applies, the uniform-map law exactly only at ``s = 1``.
    Contour route: twice the maximum of the tilted excursion over ``sqrt(2n)``.
    Inverse-height route: the reciprocal-height sum under the depth-first tilt
    over ``sqrt(2n)``.
    """
    scaled = _route_scale(n, "bf")
    map_ens = tilted_ensemble(
        n, s, "bf", reps, rng.substream(0),
        {"radius": lambda smp: scaled(smp.distances_from_root().max())},
    )
    bf_ens = tilted_ensemble(
        n, s, "bf", reps, rng.substream(1),
        {"sup": lambda smp: scaled(smp.exc.max_height())},
    )
    df_ens = tilted_ensemble(
        n, s, "df", reps, rng.substream(2),
        {"invheight": lambda smp: inverse_height_functional(smp.exc).scaled},
    )
    return _route_estimate(
        _run_summary("radius", "h", n, reps, rng),
        {"map": (map_ens, "radius"), "bf": (bf_ens, "sup"), "df": (df_ens, "invheight")},
        {"ks_map_bf": ("map", "bf"), "ks_bf_df": ("bf", "df"), "ks_map_df": ("map", "df")})


def _map_and_contour_laws(target: str, n: int, tilt: int, mode: str, reps: int,
                          rng: RngStream, map_fn, contour_fn) -> Estimate:
    map_ens = tilted_ensemble(n, tilt, mode, reps, rng.substream(0), {"val": map_fn})
    exc_ens = tilted_ensemble(n, tilt, mode, reps, rng.substream(1), {"val": contour_fn})
    return _route_estimate(_run_summary(target, "um" if mode == "um" else "h", n, reps, rng),
                           {"map": (map_ens, "val"), "excursion": (exc_ens, "val")},
                           {"ks": ("map", "excursion")})


def two_point_law(n: int, s: int, reps: int, rng: RngStream, mode: str = "bf") -> Estimate:
    """Distance between two uniform non-root vertices vs. the contour height
    at a uniform time, both under the breadth-first (or unicellular) tilt.

    At ``n = 1`` there is a single non-root vertex and the map side is a
    point mass at zero.  The breadth-first map side is the ``B(f)^s``-tilted
    independent-pair draw of :class:`TiltSample`, the uniform-map law exactly
    only at ``s = 1``.
    """
    scaled = _route_scale(n, mode)

    def distance(smp: TiltSample) -> float:
        x1 = int(smp.gen.integers(1, n + 1))
        x2 = int(smp.gen.integers(1, n + 1))
        return scaled(smp.graph_distance(x1, x2))

    def height(smp: TiltSample) -> float:
        return scaled(int(smp.exc.values[int(smp.gen.random() * 2 * n)]))

    return _map_and_contour_laws("two-point", n, s, mode, reps, rng, distance, height)


def unicellular_laws(target: str, n: int, g: int, reps: int, rng: RngStream) -> Estimate:
    """Genus-``g`` unicellular radius or two-point law: glued-map route against
    the contour route."""
    if target == "two-point":
        return two_point_law(n, g, reps, rng, mode="um")
    if target != "radius":
        raise ValueError("profile estimation is available for --model h only")
    scaled = _route_scale(n, "um")
    return _map_and_contour_laws(
        "radius", n, g, "um", reps, rng,
        lambda smp: scaled(smp.distances_from_root().max()),
        lambda smp: scaled(smp.exc.max_height()))


DEFAULT_PROFILE_GRID = tuple(round(0.1 * k, 1) for k in range(31))


def _profile_from_levels(levels, positions: np.ndarray, value_scale: float) -> np.ndarray:
    """The level counts at ``positions``, 0 past the last level, times ``value_scale``."""
    padded = np.zeros(len(levels) + 1)
    padded[:-1] = levels
    return padded[np.minimum(positions, len(levels))] * value_scale


def profile_laws(n: int, s: int, reps: int, rng: RngStream) -> Estimate:
    """Mean rescaled distance profiles via maps, weighted labeled trees, and
    the local time of the tilted contour.

    Map route: the breadth-first map's level counts from the root, read off the
    contour heights of its exploration tree with no corner pair drawn, under the
    ``B(f)^s`` tilt (the uniform-map law exactly only at ``s = 1``), at level
    ``floor(r sqrt(n/2))`` scaled by ``1/sqrt(2n)``.  Tree route: the
    level counts of uniform rooted labeled trees, each drawn from one
    conditioned Poisson walk with no tree built (:func:`sample_tree_profile`),
    weighted by the symmetrized-tree weight, read at ``floor(r sqrt(n))`` and
    scaled by ``1/sqrt(n)``.  Local-time route: half the terminal level
    occupancy at ``floor(r sqrt(2n)/2)`` scaled by ``1/sqrt(2n)``.
    """
    if s < 1:
        raise ValueError("the weighted-tree route needs s >= 1")
    grid = np.asarray(DEFAULT_PROFILE_GRID, dtype=np.float64)
    root2n = sqrt(2.0 * n)
    pos_map = np.floor(grid * sqrt(n / 2.0)).astype(np.int64)
    pos_lt = np.floor(grid * root2n / 2.0).astype(np.int64)
    pos_tree = np.floor(grid * sqrt(n)).astype(np.int64)

    def map_profile(smp: TiltSample) -> np.ndarray:
        dist = smp.distances_from_root()
        levels = np.bincount(np.asarray(dist))
        return _profile_from_levels(levels, pos_map, 1.0 / root2n)

    def localtime_profile(smp: TiltSample) -> np.ndarray:
        occ = level_occupancy(smp.exc)
        return _profile_from_levels(occ, pos_lt, 0.5 / root2n)

    map_ens = tilted_ensemble(
        n, s, "bf", reps, rng.substream(0),
        {"profile": map_profile, "lt_profile": localtime_profile},
    )
    # weighted labeled-tree route (its own proposal; replicate r uses substream (1, r))
    def tree_profiles(gens, _):
        weights, profiles = [], []
        for gen in gens:
            prof = sample_tree_profile(n, gen)
            weights.append(float(ws_weight(prof, s)))
            z = np.asarray(prof.z, dtype=np.float64)
            profiles.append(_profile_from_levels(z, pos_tree, 1.0 / sqrt(n)))
        return [weights, profiles]

    tree_w, tree_rows = replicate_rows(reps, rng.substream(1), tree_profiles)
    if not np.any(tree_w > 0):
        raise DegenerateEnsembleError(f"all tree weights vanished at n={n}, s={s}")
    tree_ens = WeightedEnsemble(mode="tree-w", tilt=s, weights=tree_w,
                                columns={"profile": tree_rows})
    mean_map, _ = map_ens.estimate("profile")
    mean_lt, _ = map_ens.estimate("lt_profile")
    mean_tree, _ = tree_ens.estimate("profile")
    sup = float(np.max(np.abs(mean_map - mean_tree)))
    summary = _run_summary("profile", "h", n, reps, rng)
    # the masses are exact: n + 1 map vertices and n labeled-tree vertices, over n
    summary.update(sup_map_vs_tree=sup, ess={"map": map_ens.ess(), "tree": tree_ens.ess()},
                   mass_map=(n + 1) / n, mass_tree=1.0)
    rows = [[float(r), *means] for r, *means in zip(grid, mean_map, mean_tree, mean_lt)]
    return Estimate(["r", "mean_map", "mean_tree", "mean_localtime"], rows, summary,
                    [f"sup|map-tree|={sup:.5f}"], {"map": map_ens, "tree": tree_ens})


# -- the local-time / area identity ---------------------------------------------------


@dataclass
class JeulinResult:
    ks: float
    mean_sq: float
    mean_area: float
    se_diff: float
    ensemble: WeightedEnsemble  # columns "sq" and "area2"


def jeulin_check(n: int, reps: int, rng: RngStream) -> JeulinResult:
    """Squared-level-occupancy law against twice the area law on uniform excursions."""
    if n < 10:
        raise ValueError("identity check needs n >= 10")
    ens = tilted_ensemble(
        n, 0, "bf", reps, rng,
        {"sq": lambda smp: sq_localtime_functional(smp.exc).scaled,
         "area2": lambda smp: area_functional(smp.exc).scaled},
    )
    (v_sq, w_sq), (v_area, w_area) = _sorted_law(ens, "sq"), _sorted_law(ens, "area2")
    diff = ens.columns["sq"] - ens.columns["area2"]
    return JeulinResult(
        ks=ks_distance((ens, "sq"), (ens, "area2")),
        mean_sq=float(np.dot(w_sq, v_sq)),
        mean_area=float(np.dot(w_area, v_area)),
        se_diff=float(np.std(diff, ddof=1) / sqrt(reps)),
        ensemble=ens,
    )


# -- decoration-count gap -----------------------------------------------------------


@dataclass
class GapEstimate:
    n: int
    mean: float
    se: float


def decoration_gap_estimates(n_list, s: int, reps: int, rng: RngStream,
                             mode: str = "bf") -> list[GapEstimate]:
    """Monte Carlo means of the scaled exact decoration-count gap per size.

    The gap ``s! * #decorations - (pair count)^s`` is computed exactly per
    sampled tree and scaled by ``(2n)^{-3s/2}``; it vanishes identically for
    ``s = 1`` and shrinks like ``n^{-1/2}`` for ``s = 2``.
    """
    out = []
    for k, n in enumerate(n_list):
        scale = (2.0 * n) ** (-1.5 * s)
        vals, = replicate_rows(reps, rng.substream(k), lambda gens, _: [
            [decoration_count_gap(sample_uniform_excursion(n, gen), s, mode) * scale
             for gen in gens]])
        out.append(GapEstimate(n, float(vals.mean()), float(vals.std(ddof=1) / sqrt(reps))
                               if reps > 1 else 0.0))
    return out


def gap_trend_steps(ests: list[GapEstimate]) -> list[tuple]:
    """``(prev, cur, slack, ok)`` per step between consecutive sizes: the gap is taken as
    nonincreasing when its mean rises by at most ``slack = 2 sqrt(se_1^2 + se_2^2)``."""
    steps = [(a, b, 2.0 * (a.se ** 2 + b.se ** 2) ** 0.5) for a, b in zip(ests, ests[1:])]
    return [(a, b, slack, b.mean <= a.mean + slack) for a, b, slack in steps]


# -- growth-constant recursion and count asymptotics -----------------------------------


def wright_sequence(s_max: int) -> list[float]:
    """Growth coefficients by the quadratic convolution recursion.

    ``w[s] = sum_{k=1}^{s-1} w[k] w[s-k] + 2 (3s - 4) w[s-1]`` anchored at
    ``w[1] = 1``, the limit of :func:`surplus_one_ratios`.
    """
    if not 1 <= s_max <= WRIGHT_CAP:
        raise ValueError(f"s_max must be within 1..{WRIGHT_CAP}")
    w = [0.0, 1.0]
    for s in range(2, s_max + 1):
        w.append(sum(w[k] * w[s - k] for k in range(1, s)) + 2 * (3 * s - 4) * w[s - 1])
    return w[1:]


def exact_map_count(n: int, s: int) -> int:
    """Exact number of rooted degree-one-root maps by summing decoration counts."""
    total = 0
    for f in enumerate_excursions(n):
        total += decoration_count(f, s, "bf")
    return total


def surplus_one_ratios() -> dict[int, float]:
    """Exact ratios ``2 * #maps(n, 1) / 4^n``, ``n <= 12``, that approach the first growth
    constant.

    Summed over the excursions of half-length ``n``, ``B(f) = 2^(2n-1) - C(2n-1, n)``, which
    is ``#maps(n, 1)``, so the ratio is ``1 - C(2n, n) / 4^n`` and its limit is exactly 1."""
    return {n: 2.0 * (2 ** (2 * n - 1) - comb(2 * n - 1, n)) / 4.0 ** n for n in range(1, 13)}


def omega1_anchor() -> tuple[dict[int, float], float]:
    """Extrapolate the surplus-one ratio to its limit via a linear fit in n^{-1/2} over
    ``8 <= n <= 12``."""
    ratios = surplus_one_ratios()
    ns = [n for n in ratios if n >= 8]
    x = np.array([n ** -0.5 for n in ns])
    y = np.array([ratios[n] for n in ns])
    slope, intercept = np.polyfit(x, y, 1)
    return ratios, float(intercept)


def excursion_mean_area_power(s: int) -> float:
    """Moments of the excursion area implied by the growth coefficients."""
    if s == 0:
        return 1.0
    w = wright_sequence(s)[-1]
    from math import factorial

    return w * factorial(s) * sqrt(pi) / (gamma((3 * s - 1) / 2.0) * 2.0 ** (3.5 * s - 2))


@dataclass
class CountTable:
    family: str
    n: int
    param: int
    exact: int | None
    prediction: float


def count_asymptotics(family: str, n: int, s_or_g: int) -> CountTable:
    """Exact count (where enumerable) next to its asymptotic prediction."""
    s = s_or_g
    if family == "f":
        pred = 4.0 ** (n - 1) / (sqrt(pi) * max(n - 1, 1) ** 1.5) if n >= 2 else 1.0
        exact = excursion_count(n)
    elif family == "m":
        if s == 0:
            pred = 4.0 ** (n - 1) / (sqrt(pi) * max(n - 1, 1) ** 1.5) if n >= 2 else 1.0
            exact = excursion_count(n)
        else:
            w = wright_sequence(s)[-1]
            pred = w * n ** (1.5 * (s - 1)) * 4.0 ** n / (2.0 ** s * gamma((3 * s - 1) / 2.0))
            exact = exact_map_count(n, s) if n <= 12 and s <= 2 else None
    elif family == "h":
        mom = excursion_mean_area_power(s)
        from math import factorial

        pred = float(n) ** (n - 1 + 1.5 * s) * mom / factorial(s)
        if n <= 6 and s <= 2:
            from .samplers import enumerate_surplus_graphs

            exact = len(enumerate_surplus_graphs(n, s))
        else:
            exact = None
    elif family == "umstar":
        g = s_or_g
        pred = (4.0 ** (g - 1) / (3.0 ** g * gamma(g + 1) * sqrt(pi))) * n ** (3 * g - 1.5) * 4.0 ** n
        exact = unicellular_star_count(n) if n <= 5 and g == 1 else None
    else:
        raise ValueError(f"unknown family {family!r}")
    return CountTable(family, n, s_or_g, exact, pred)


# -- unicellular count identity ---------------------------------------------------------


def unicellular_star_count(n: int) -> int:
    """Brute count of unicellular surplus-2 maps, genus one, whose exploration corners are
    distinct."""
    from .maps import bf_explore
    from .samplers import enumerate_maps

    count = 0
    for m in enumerate_maps(n, 2):
        if not m.is_unicellular():
            continue
        _, xi = bf_explore(m)
        if len(set(xi.indices)) == len(xi.indices):
            count += 1
    return count


def um_count_identity(n: int) -> tuple[int, int]:
    """Genus-one corner-tuple total over all excursions against the brute unicellular count."""
    from .maps import entangled_pairings, pairing_tuple_count

    if n > 5:
        raise ValueError("identity check capped at n <= 5, g = 1")
    pairings = entangled_pairings(1)
    lhs = 0
    for f in enumerate_excursions(n):
        lhs += sum(pairing_tuple_count(f, p) for p in pairings)
    rhs = unicellular_star_count(n)
    return lhs, rhs
