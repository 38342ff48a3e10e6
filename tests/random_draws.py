"""Random states and POVMs drawn one at a time, as the tests use them.

The package draws such objects only as stacks (``oracle._draw_lhs``, the
channel check of ``simulator``); these are the one-by-one draws that
consume the same generator numbers, built from the same ``qcore``
helpers.
"""

import numpy as np

from qrgames.qcore import DensityOperator, Povm, _gram, _normalized_povm, _unit_trace


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
