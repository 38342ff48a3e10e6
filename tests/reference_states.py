"""Per-state expectations, one trace at a time.

``oracle.werner_columns`` takes every expectation a scan row needs as
one stacked trace over all the Werner states.  Before, each state was
scored on its own: one ``Tr[O rho]`` per operator, the witness and CHSH
values summed from those.  The functions here keep that route as the
reference the columns are held to bit for bit, and :func:`partial_trace`
is the test-side reduction that Bob's programmed effects and the
hidden-state collapse are checked with.
"""

import numpy as np

from qrgames.games import canonical_chsh_settings, chsh_value
from qrgames.qcore import pauli, tensor


def expectation(state, operator) -> float:
    """Tr[O rho] for a Hermitian observable O (real part returned)."""
    return float(np.trace(np.asarray(operator, dtype=np.complex128) @ state.matrix).real)


def witness2(state) -> float:
    """|Tr[(sigma_1 x sigma_1) rho] + Tr[(sigma_2 x sigma_2) rho]|.

    Exceeding 1 witnesses entanglement of the two-qubit state.
    """
    total = 0.0
    for j in (1, 2):
        total += expectation(state, tensor(pauli(j), pauli(j)))
    return abs(total)


def chsh(state) -> float:
    """The CHSH value of a two-qubit state at ``canonical_chsh_settings``."""
    a1, a2, b1, b2 = canonical_chsh_settings()
    return chsh_value(*(expectation(state, tensor(a, b)) for a in (a1, a2) for b in (b1, b2)))


def partial_trace(matrix, dims, traced_factor: int) -> np.ndarray:
    """Trace out factor ``traced_factor`` of a square matrix on factors of dimensions ``dims``."""
    k, n = traced_factor, len(dims)
    out = np.trace(np.reshape(matrix, list(dims) * 2), axis1=k, axis2=k + n)
    keep = int(np.prod(dims)) // dims[k]
    return out.reshape(keep, keep)
