"""Shared exception types.

Exit-code mapping used by the CLI: InvalidInput -> 2, Infeasible -> 1,
Undecided -> 3, and any other exception (an internal error) -> 4.
"""

# plan-search nodes a solver may spend before it raises Undecided; defined
# here, beside Undecided, so that the CLI's --budget default costs no solver
# import
DEFAULT_BUDGET = 10**6


class InvalidInput(ValueError):
    """Malformed or out-of-contract input (bad parameters, parity mismatch, ...)."""


class Infeasible(Exception):
    """The requested object provably does not exist.

    ``certificate`` optionally carries a witness (e.g. a Hakimi-violating
    vertex set).
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ResidueObstruction(Infeasible):
    """Residue-sum obstruction: sum of prescribed residues != |E| (mod k)."""


class Undecided(Exception):
    """Search budget exhausted without a definite answer."""
