"""A line's noise pulled back into Bob's measurement through the dual map.

The engine plays a noisy line forward: ``SteeringGameSpec(channel=...)``
sends each signal through the channel before Bob measures it.  The
dual-map identity says the same numbers come from a clean line and the
modified POVM of :func:`modified_povm`, which is why a noisy line opens
no loophole.  That identity is a fact of linear algebra no setting
moves, so it lives here, as the reference the engine's channel path is
held to: :func:`dual_map_deviation` compares the two, one state, signal
and outcome at a time.
"""

import numpy as np

from qrgames.games import SIGNALS, SteeringGameSpec
from qrgames.qcore import DensityOperator, Povm, QuantumChannel, signal_state, tensor


def modified_povm(channel: QuantumChannel, e_bc: Povm) -> Povm:
    """Pull a transmission channel on C into Bob's joint POVM.

    With phi* the dual map, E~_b = (1_B x phi*)(E_b) satisfies
    Tr[E_b (rho x phi(omega))] = Tr[E~_b (rho x omega)], so playing E~
    against a clean line reproduces playing E behind the channel.
    """
    if channel.input_dim != channel.output_dim:
        raise ValueError("signal channel must preserve dimension")
    d_c = channel.input_dim
    if e_bc.dim % d_c != 0:
        raise ValueError("POVM dimension incompatible with the channel")
    d_b = e_bc.dim // d_c
    elements = []
    for el in e_bc:
        acc = np.zeros_like(el)
        for k in channel.kraus_operators:
            lift = tensor(np.eye(d_b), k)
            acc = acc + lift.conj().T @ el @ lift
        elements.append((acc + acc.conj().T) / 2.0)
    return Povm(tuple(elements))


def _basis_states(d: int) -> list:
    """|i>, then (|i> + |k>)/sqrt(2) and (|i> + i|k>)/sqrt(2) for i < k.

    Their real span is every d x d Hermitian matrix.
    """
    states = [np.outer(ket, ket) for ket in np.eye(d, dtype=complex)]
    for i in range(d):
        for k in range(i + 1, d):
            for phase in (1, 1j):
                ket = np.zeros(d, dtype=complex)
                ket[i], ket[k] = 1, phase
                states.append(np.outer(ket, ket.conj()) / 2)  # exact, unlike (ket/sqrt 2)^2
    return [DensityOperator(m) for m in states]


def dual_map_deviation(channel: QuantumChannel, e_bc: Povm) -> float:
    """The largest gap between the engine's noisy line and the dual map.

    E against the signals ``SteeringGameSpec(channel=...)`` delivers, and
    the modified POVM against the clean signals, on every basis state on
    B.  Both sides are linear in that state and the basis spans every
    Hermitian matrix, so agreement here is agreement on every state.
    """
    modified = modified_povm(channel, e_bc)
    delivered = SteeringGameSpec(channel=channel).delivered_signals
    max_dev = 0.0
    for rho in _basis_states(e_bc.dim // channel.input_dim):
        for k, (j, s) in enumerate(SIGNALS):
            omega = signal_state(j, s)
            for b in range(e_bc.n_outcomes):
                lhs = np.trace(e_bc[b] @ tensor(rho.matrix, delivered[k])).real
                rhs = np.trace(modified[b] @ tensor(rho.matrix, omega.matrix)).real
                max_dev = max(max_dev, float(abs(lhs - rhs)))
    return max_dev
