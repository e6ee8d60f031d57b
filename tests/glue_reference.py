"""The height rule of a unicellular gluing, checked corner by corner; the package draws and
counts only tuples that keep it."""

from surplus_lab.lattice_paths import LatticeExcursion
from surplus_lab.maps import PermutationPairing


def glue_heights_ok(f: LatticeExcursion, pairing: PermutationPairing, corners) -> bool:
    """Whether every glued pair drops by at most one level (first corner higher)."""
    corners = tuple(corners)
    vals = f.values
    for a, b in pairing.transpositions:
        if not 0 <= vals[corners[a - 1]] - vals[corners[b - 1]] <= 1:
            return False
    return True
