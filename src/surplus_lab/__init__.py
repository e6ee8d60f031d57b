"""Exact enumeration and tilted Monte Carlo for random maps, surplus graphs,
and unicellular gluings.

The package is organized around five layers: lattice paths and trees
(`lattice_paths`), occupation counts, corner weights and the coded tree off one
level sort of the contour (`local_time`), half-edge maps built from the contour with their
explorations (`maps`), exact and weighted samplers (`samplers`), and estimators
plus identity checks (`estimators`, `checks`).  `persistence` and `cli` provide
reproducible runs on top.  No estimator decodes a tree.
"""

__version__ = "0.1.0"

from .lattice_paths import (
    HeightProfile,
    LabeledTree,
    LatticeExcursion,
    PlaneTree,
    contour_of_tree,
    enumerate_excursions,
    excursion_count,
    height_profile,
    tree_of_contour,
    vervaat_excursion,
)
from .local_time import (
    area_functional,
    inverse_height_functional,
    sq_localtime_functional,
)
from .maps import (
    AdmissibleCorners,
    PermutationPairing,
    RootedMap,
    bf_explore,
    df_explore,
    entangled_pairings,
    enumerate_admissible,
    insert_edges,
    is_entangled,
    metric_from_root,
    pairing_tuple_count,
    unicellular_glue,
)
from .samplers import (
    DegenerateEnsembleError,
    RngStream,
    WeightedEnsemble,
    enumerate_maps,
    enumerate_surplus_graphs,
    sample_corners_bf,
    sample_corners_df,
    sample_labeled_tree,
    sample_surplus_graph,
    sample_tree_profile,
    sample_unicellular_decoration,
    sample_uniform_excursion,
    sample_uniform_map,
    spanning_tree_count,
    tilted_ensemble,
    tree_profile_of_labels,
    w1_weight,
    ws_weight,
)
from .estimators import (
    count_asymptotics,
    decoration_gap_estimates,
    jeulin_check,
    ks_distance,
    profile_laws,
    radius_laws,
    two_point_law,
    um_count_identity,
    wright_sequence,
)
