"""Reference draw of a uniform excursion: a uniform bridge, its Vervaat rotation, and
the root step attached, each on plain arrays of partial sums.  ``sample_uniform_excursion``
writes the same excursion from one shuffled step vector through ``vervaat_excursion``;
these definitions are what both are checked against."""

import numpy as np

from surplus_lab.lattice_paths import LatticeExcursion


def sample_uniform_bridge(n: int, gen: np.random.Generator) -> np.ndarray:
    """The ``2n + 2`` partial sums of a uniform +-1 bridge from 0 to -1 with ``2n + 1``
    steps."""
    steps = np.concatenate([np.ones(n, dtype=np.int64), -np.ones(n + 1, dtype=np.int64)])
    steps = gen.permutation(steps)
    return np.concatenate([[0], np.cumsum(steps)])


def rotate_at_minimum(bridge: np.ndarray) -> np.ndarray:
    """Vervaat's transform: the bridge's steps read cyclically from its first global
    minimum, summed from 0.  The result is nonnegative but at its last point."""
    tau = int(np.argmin(bridge))
    return np.concatenate([[0], np.cumsum(np.roll(np.diff(bridge), -tau))])


def excursion_from_shape(shape: np.ndarray) -> LatticeExcursion:
    """Attach the root step: shift an excursion shape up one level and prepend 0.

    Maps the path ``v(0..2m+1)``, nonnegative but at its end -1, to the contour
    excursion ``f(0) = 0, f(t) = v(t-1) + 1`` of half-length ``m + 1``.
    """
    if shape[-1] != -1 or shape[:-1].min() < 0:
        raise ValueError("path is not an excursion shape")
    return LatticeExcursion(np.concatenate([[0], np.asarray(shape) + 1]))


def bridge_excursion(n: int, gen: np.random.Generator) -> LatticeExcursion:
    """Uniform excursion of half-length ``n`` as the Vervaat rotation of a uniform bridge
    with ``2n - 1`` steps, with the root step attached."""
    if n == 1:
        return LatticeExcursion([0, 1, 0])
    return excursion_from_shape(rotate_at_minimum(sample_uniform_bridge(n - 1, gen)))
