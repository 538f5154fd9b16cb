"""Exact reverse-Wiener indices of trees, extremal families and verification oracles."""

from .closed_forms import (
    QR,
    ExtremalResult,
    f_n2,
    f_n3,
    f_n4,
    g_n3,
    g_n4,
    qr_decompose,
    second_smallest,
    third_smallest,
)
from .enumeration import (
    RankEntry,
    gen_diam4_specs,
    gen_free_trees,
    rank_trees,
)
from .families import (
    Diam4Spec,
    DoubleStarSpec,
    diam4,
    double_star,
    lambda_diam4_closed,
    lambda_double_star_closed,
    normalize,
    parse_family_spec,
    path,
    star,
    wiener_diam4_closed,
)
from .invariants import TreeMetrics, metrics, reverse_wiener, wiener_bfs, wiener_edge_cut
from .transforms import lemma1_pendant_shift, lemma2_collapse, lemma3_rebalance, lemma5_contract
from .tree import (
    Tree,
    bfs_distances,
    canonical_code,
    diameter_and_centers,
    format_edge_list,
    from_edge_list,
    parse_edge_list,
)
from .verify import VerificationReport, run_lemma_battery, run_verification

__version__ = "0.1.0"

__all__ = [
    "QR",
    "ExtremalResult",
    "Diam4Spec",
    "DoubleStarSpec",
    "RankEntry",
    "Tree",
    "TreeMetrics",
    "VerificationReport",
    "bfs_distances",
    "canonical_code",
    "diam4",
    "diameter_and_centers",
    "double_star",
    "f_n2",
    "f_n3",
    "f_n4",
    "format_edge_list",
    "from_edge_list",
    "g_n3",
    "g_n4",
    "gen_diam4_specs",
    "gen_free_trees",
    "lambda_diam4_closed",
    "lambda_double_star_closed",
    "lemma1_pendant_shift",
    "lemma2_collapse",
    "lemma3_rebalance",
    "lemma5_contract",
    "metrics",
    "normalize",
    "parse_edge_list",
    "parse_family_spec",
    "path",
    "qr_decompose",
    "rank_trees",
    "reverse_wiener",
    "run_lemma_battery",
    "run_verification",
    "second_smallest",
    "star",
    "third_smallest",
    "wiener_bfs",
    "wiener_diam4_closed",
    "wiener_edge_cut",
]
