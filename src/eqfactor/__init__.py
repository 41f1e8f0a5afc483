"""Equitable and parity edge-factorizations of multigraphs.

Orientation solvers plus a bipartite edge-coloring engine construct
factorizations whose per-factor degrees stay within floor/ceil windows of
d(v)/k; parity-factor search and epsilon-window pipelines handle even and
weighted factorizations; verifiers and brute-force oracles check every claim.

Importing the package loads none of its modules: each public name imports
its defining module on first use (PEP 562), so ``import eqfactor.cli`` pays
only for what the CLI itself needs.
"""

# public name -> the module that defines it
_HOME = {
    **dict.fromkeys(("anstee_decomposition", "decompose_directed"), "coloring"),
    **dict.fromkeys(("analyze", "edge_connectivity", "odd_edge_connectivity",
                     "tree_connectivity"), "connectivity"),
    **dict.fromkeys(("Infeasible", "InvalidInput", "ResidueObstruction", "Undecided"), "errors"),
    **dict.fromkeys(("parse_graph", "serialize_graph"), "graphio"),
    **dict.fromkeys(("Factorization", "Multigraph", "Orientation", "complete_graph", "cut_size",
                     "cycle_graph", "subgraph"), "multigraph"),
    **dict.fromkeys(("balanced_mod_k_orientation", "eulerian_orientation",
                     "mod_k_orientation", "realize_out_degrees"), "orientation"),
    **dict.fromkeys(("ParitySpec", "epsilon_parity_factor", "even_factor_eps", "find_parity_factor",
                     "hilton_even_factorization", "weighted_even_factorization"), "parity"),
    **dict.fromkeys(("equitable_factorize", "find_Z_set", "parity_factorize", "regular_factorize",
                     "regular_split", "three_factor_criterion"), "pipelines"),
}

__all__ = sorted(_HOME)


def __getattr__(name):
    # read from the module on every access, never stored here, so that a
    # patched module attribute is what the package hands out
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return list(__all__)
