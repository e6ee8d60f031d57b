"""Reference draw of a uniform excursion: a uniform bridge, its Vervaat rotation, and
the root step attached.  ``sample_uniform_excursion`` writes the same excursion from
one shuffled step vector; these definitions are what it is checked against."""

import numpy as np

from surplus_lab.lattice_paths import LatticeBridge, LatticeExcursion, vervaat


def sample_uniform_bridge(n: int, gen: np.random.Generator) -> LatticeBridge:
    """Uniform +-1 bridge from 0 to -1 with ``2n + 1`` steps."""
    steps = np.concatenate([np.ones(n, dtype=np.int64), -np.ones(n + 1, dtype=np.int64)])
    steps = gen.permutation(steps)
    return LatticeBridge(np.concatenate([[0], np.cumsum(steps)]), validate=False)


def excursion_from_shape(shape: LatticeBridge) -> LatticeExcursion:
    """Attach the root step: shift an excursion shape up one level and prepend 0.

    Maps the nonnegative bridge ``v(0..2m+1)`` to the contour excursion
    ``f(0) = 0, f(t) = v(t-1) + 1`` of half-length ``m + 1``.
    """
    if not shape.is_excursion_shape():
        raise ValueError("bridge is not an excursion shape")
    return LatticeExcursion(np.concatenate([[0], shape.values + 1]), validate=False)


def bridge_excursion(n: int, gen: np.random.Generator) -> LatticeExcursion:
    """Uniform excursion of half-length ``n`` as the Vervaat rotation of a uniform bridge
    with ``2n - 1`` steps, with the root step attached."""
    if n == 1:
        return LatticeExcursion([0, 1, 0], validate=False)
    return excursion_from_shape(vervaat(sample_uniform_bridge(n - 1, gen)))
