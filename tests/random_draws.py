"""Random states, POVMs and hidden-state models drawn one at a time, as
the tests use them.

The states and POVMs are built from the ``qcore`` helpers that
``oracle._random_lhs_strategy``, the hidden-state suite's draw, uses;
``random_lhs_strategy`` is that draw.  ``random_signal_ensemble`` draws
an uncalibrated referee from the same states.
"""

import numpy as np

from qrgames.games import SIGNALS
from qrgames.oracle import _random_lhs_strategy
from qrgames.qcore import DensityOperator, Povm, _gram, _normalized_povm, _unit_trace
from qrgames.strategies import LhsStrategy


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    """Random full-rank density operator, G^dag G normalised to unit trace."""
    return DensityOperator(_unit_trace(_gram(rng.standard_normal((2, dim, dim)))))


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int = 2) -> Povm:
    """Random POVM: positive operators normalised against their sum.

    With S = sum_k A_k the elements are S^{-1/2} A_k S^{-1/2}, which are
    positive and sum to the identity by construction.
    """
    if n_outcomes < 1:
        raise ValueError("POVM needs at least one outcome")
    ops = _gram(rng.standard_normal((n_outcomes, 2, dim, dim)))
    return Povm(tuple(_normalized_povm(ops)))


def random_signal_ensemble(rng: np.random.Generator) -> dict:
    """An uncalibrated referee: one random full-rank qubit state per (j, s)."""
    return {sig: random_density(rng, 2) for sig in SIGNALS}


def random_lhs_strategy(
    rng: np.random.Generator, hidden_dim: int, n_lambda: int
) -> LhsStrategy:
    """Draw a random hidden-state model (Dirichlet weights, G^dag G states,
    uniform response biases, sum-normalised random joint POVM)."""
    return _random_lhs_strategy(rng, hidden_dim, n_lambda)
