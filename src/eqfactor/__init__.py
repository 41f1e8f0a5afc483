"""Equitable and parity edge-factorizations of multigraphs.

Orientation solvers plus a bipartite edge-coloring engine construct
factorizations whose per-factor degrees stay within floor/ceil windows of
d(v)/k; parity-factor search and epsilon-window pipelines handle even and
weighted factorizations; verifiers and brute-force oracles check every claim.
"""

from .coloring import anstee_decomposition, decompose_directed, konig_edge_coloring
from .connectivity import (
    CutReport,
    analyze,
    edge_connectivity,
    odd_edge_connectivity,
    tree_connectivity,
)
from .errors import Infeasible, InvalidInput, ResidueObstruction, Undecided
from .graphio import parse_graph, serialize_graph
from .multigraph import (
    Factorization,
    Multigraph,
    Orientation,
    complete_graph,
    cut_size,
    cycle_graph,
    subgraph,
)
from .orientation import (
    ResidueMap,
    balanced_mod_k_orientation,
    eulerian_orientation,
    mod_k_orientation,
    realize_out_degrees,
)
from .parity import (
    ParitySpec,
    epsilon_parity_factor,
    even_factor_eps,
    find_parity_factor,
    hilton_even_factorization,
    weighted_even_factorization,
)
from .pipelines import (
    EquitableRequest,
    FactorReport,
    equitable_factorize,
    find_Z_set,
    parity_factorize,
    regular_factorize,
    regular_split,
    three_factor_criterion,
)

__all__ = [
    "CutReport",
    "EquitableRequest",
    "FactorReport",
    "Factorization",
    "Infeasible",
    "InvalidInput",
    "Multigraph",
    "Orientation",
    "ParitySpec",
    "ResidueMap",
    "ResidueObstruction",
    "Undecided",
    "analyze",
    "anstee_decomposition",
    "balanced_mod_k_orientation",
    "complete_graph",
    "cut_size",
    "cycle_graph",
    "decompose_directed",
    "edge_connectivity",
    "epsilon_parity_factor",
    "equitable_factorize",
    "eulerian_orientation",
    "even_factor_eps",
    "find_Z_set",
    "find_parity_factor",
    "hilton_even_factorization",
    "konig_edge_coloring",
    "mod_k_orientation",
    "odd_edge_connectivity",
    "parity_factorize",
    "parse_graph",
    "realize_out_degrees",
    "regular_factorize",
    "regular_split",
    "serialize_graph",
    "subgraph",
    "three_factor_criterion",
    "tree_connectivity",
    "weighted_even_factorization",
]
