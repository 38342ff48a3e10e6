"""Correlation functionals and exact payoff evaluation for the refereed games.

The quantum-refereed steering game: in each round the referee draws a
setting j in {1,2,3} and a sign s = +-1, each of the six (j, s) with
probability 1/6, tells Alice j, and hands Bob the qubit eigenstate
(1/2)(1 + s sigma_j).  Alice replies a = +-1, Bob replies b in {0,1},
and the average payoff aggregates the six conditional expectations as

    payoff = 2 * sum_{j,s} ( s <ab>_{j,s} - (r/sqrt(3)) <b>_{j,s} ),

where r >= 1 scales the penalty term (r = 1 for a perfectly calibrated
referee).  The game is won when the payoff is strictly positive.

:class:`SteeringGameSpec` is the one model of the referee, its line to Bob
included: every evaluation reads the states Bob receives from the spec.

This module knows nothing about how strategies are parameterised.  A
strategy has two members, ``needs_shared_state`` and
``outcome_distribution``, its whole outcome table from the stack of
delivered signals.  :func:`outcome_table` makes that one call and is the
one check that a shared state comes exactly when one is needed;
:func:`_expectations` reduces every table to the six <ab> and <b>.

The functionals :func:`chsh_value`, :func:`steering2_value` and
:func:`steering3_value` score expectations, not states:
``oracle.werner_columns`` takes every expectation of its states as one
stacked trace and hands them the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    DensityOperator,
    QuantumChannel,
    _check_density_stack,
    pauli,
    signal_state,
    tensor,
)

SQRT3 = math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)

#: Canonical ordering of the referee's six signal conditions (j, s).
SIGNALS = ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))

#: Fixed (a, b) ordering of the last axis of an outcome table.
OUTCOMES = ((1, 0), (1, 1), (-1, 0), (-1, 1))


#: The calibrated signal states (1/2)(1 + s sigma_j), built once and shared (read-only).
_SIGNAL_STATES = {(j, s): signal_state(j, s) for (j, s) in SIGNALS}


def ideal_signal_ensemble() -> dict:
    """The calibrated signal table {(j, s): (1/2)(1 + s sigma_j)}."""
    return dict(_SIGNAL_STATES)


def single_axis_ensemble() -> dict:
    """An uncalibrated referee that prepares every signal along sigma_1.

    Regardless of the announced j, the delivered state is the sigma_1
    eigenstate with the announced sign.  Against such a referee the
    no-state cheat discriminates the sign perfectly.
    """
    return {(j, s): _SIGNAL_STATES[(1, s)] for (j, s) in SIGNALS}


def _penalty_coefficient(r, payoff_bound) -> float:
    """The <b> coefficient r * payoff_bound / 3, once r is checked finite
    and >= 1 and the bound finite and positive."""
    r = float(r)
    if not (math.isfinite(r) and r >= 1.0):
        raise ValueError(
            f"preparation-quality parameter r must be finite and >= 1, got {r}"
        )
    bound = float(payoff_bound)
    if not (math.isfinite(bound) and bound > 0.0):
        raise ValueError(f"payoff bound must be finite and positive, got {bound}")
    return r * bound / 3.0


@dataclass(frozen=True, eq=False)
class SteeringGameSpec:
    """Complete rules of one steering game.

    The referee draws the six conditions (j, s) uniformly, whatever the spec.
    ``signal_ensemble`` maps (j, s) to the state it actually prepares and the
    optional ``channel`` is its line to Bob; ``r`` scales the penalty term and
    ``payoff_bound`` is the steering bound the penalty is calibrated against
    (sqrt(3) for the three-axis game; lowering it below sqrt(3) makes the
    game winnable by hidden-state models, which the verification suite uses
    to demonstrate tightness).  Construction builds ``delivered_signals``,
    the read-only (6, 2, 2) stack of states Bob receives in ``SIGNALS``
    order, and ``penalty_coefficient``, r * payoff_bound / 3.
    """

    signal_ensemble: dict = field(default_factory=ideal_signal_ensemble)
    r: float = 1.0
    payoff_bound: float = SQRT3
    channel: QuantumChannel | None = None
    delivered_signals: np.ndarray = field(init=False, repr=False)
    penalty_coefficient: float = field(init=False, repr=False)

    def __post_init__(self):
        ens = dict(self.signal_ensemble)
        if set(ens) != set(SIGNALS):
            raise ValueError("signal ensemble must cover exactly the six (j, s) pairs")
        for key, state in ens.items():
            if not isinstance(state, DensityOperator):
                raise ValueError(f"signal for {key} must be a DensityOperator")
            if state.dim != 2:
                raise ValueError("referee signals must be qubit states")
        coeff = _penalty_coefficient(self.r, self.payoff_bound)
        signals = np.stack([ens[sig].matrix for sig in SIGNALS])
        line = self.channel
        if line is not None:
            if not isinstance(line, QuantumChannel) or {line.input_dim, line.output_dim} != {2}:
                raise ValueError("signal channel must be a QuantumChannel from qubits to qubits")
            signals = np.stack([line.apply_to_matrix(omega) for omega in signals])
            _check_density_stack(signals)
        signals.setflags(write=False)
        object.__setattr__(self, "signal_ensemble", ens)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "payoff_bound", float(self.payoff_bound))
        object.__setattr__(self, "delivered_signals", signals)
        object.__setattr__(self, "penalty_coefficient", coeff)

    @classmethod
    def ideal(cls, r: float = 1.0, payoff_bound: float = SQRT3) -> "SteeringGameSpec":
        return cls(r=r, payoff_bound=payoff_bound)


def _check_correlations(e_ab: np.ndarray, e_b: np.ndarray) -> None:
    """Check stacked (..., 6) expectations <ab> and <b>, in ``SIGNALS`` order.

    Each condition needs <b> in [0, 1] and |<ab>| <= <b>, both to 1e-9;
    the first bad condition of the first bad item raises.
    """
    bad_b = ~((e_b >= -1e-9) & (e_b <= 1.0 + 1e-9))
    bad_ab = np.abs(e_ab) > e_b + 1e-9
    bad = (bad_b | bad_ab).ravel()
    if bad.any():
        i = int(np.argmax(bad))
        sig = SIGNALS[i % len(SIGNALS)]
        ab, b = float(e_ab.flat[i]), float(e_b.flat[i])
        if bad_b.flat[i]:
            raise ValueError(f"<b> for {sig} outside [0, 1]: {b}")
        raise ValueError(f"|<ab>| exceeds <b> for {sig}: {ab} vs {b}")


def _payoffs(e_ab: np.ndarray, e_b: np.ndarray, coeff: float) -> np.ndarray:
    """The payoff 2 sum_{j,s} (s <ab> - coeff <b>) of stacked (..., 6) expectations.

    The six conditions are added one at a time, in ``SIGNALS`` order, so
    every item rounds as a table aggregated on its own does.
    """
    total = 0.0
    for k, (_, s) in enumerate(SIGNALS):
        total = total + (s * e_ab[..., k] - coeff * e_b[..., k])
    return 2.0 * total


def _payoff_operators(spec: SteeringGameSpec, alpha) -> np.ndarray:
    """Z(alpha) = sum_{j,s} (s alpha_j - c) omega_{j,s} over the delivered signals.

    ``alpha`` is a (..., 3) array of Alice's mean answers per setting and
    c = ``spec.penalty_coefficient``.  When Bob replies b = 1 on the
    effect X of the signal qubit and Alice's answers average alpha, the
    pair pays 2 Tr[X Z(alpha)], whatever states the referee sends.
    Returns the (..., 2, 2) operators.  ``matmul`` takes each block of
    the last two coefficient axes on its own, so each alpha of a stack
    gets the bits it gets alone; the coefficients are made complex
    first, since a mixed-type ``matmul`` buffers its cast.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    coeffs = np.stack([s * alpha[..., j - 1] for j, s in SIGNALS], axis=-1)
    coeffs = (coeffs - spec.penalty_coefficient).astype(np.complex128)
    z = coeffs @ spec.delivered_signals.reshape(len(SIGNALS), -1)
    return z.reshape(alpha.shape[:-1] + (2, 2))


def _check_expectation_range(**values):
    """Each value (or stack of values) must lie in [-1, 1], to 1e-9.

    The first bad value, item by item and in argument order within an
    item, raises; NaN passes, as it always has here.
    """
    names = list(values)
    arrays = np.broadcast_arrays(*values.values())
    bad = np.stack([np.abs(a) > 1.0 + 1e-9 for a in arrays], axis=-1).ravel()
    if bad.any():
        item, k = divmod(int(np.argmax(bad)), len(names))
        raise ValueError(f"{names[k]} must lie in [-1, 1], got {arrays[k].flat[item]}")


def chsh_value(e11: float, e12: float, e21: float, e22: float) -> float:
    """|<a1 b1> + <a1 b2> + <a2 b1> - <a2 b2>|, bounded by 2 for local models."""
    _check_expectation_range(e11=e11, e12=e12, e21=e21, e22=e22)
    return abs(e11 + e12 + e21 - e22)


def steering2_value(c1: float, c2: float) -> float:
    """|<a1 sigma_1> + <a2 sigma_2>|, bounded by sqrt(2) for hidden-state models."""
    _check_expectation_range(c1=c1, c2=c2)
    return abs(c1 + c2)


def steering3_value(c1: float, c2: float, c3: float) -> float:
    """<a1 sigma_1> + <a2 sigma_2> + <a3 sigma_3> (signed), bounded by sqrt(3)
    for hidden-state models."""
    _check_expectation_range(c1=c1, c2=c2, c3=c3)
    return c1 + c2 + c3


def canonical_chsh_settings():
    """Observables (A1, A2, B1, B2) reaching CHSH = 2 sqrt(2) w on Werner states.

    Bob measures sigma_1 and sigma_3; Alice measures -(sigma_1 + sigma_3)/sqrt(2)
    and -(sigma_1 - sigma_3)/sqrt(2).
    """
    a1 = -(pauli(1) + pauli(3)) / SQRT2
    a2 = -(pauli(1) - pauli(3)) / SQRT2
    return (a1, a2, pauli(1), pauli(3))


#: The canonical settings' four correlation operators A_x x B_y, Alice's
#: pair by Bob's in ``chsh_value``'s argument order, built once (read-only).
_CHSH_SETTINGS = np.stack(canonical_chsh_settings())
_CANONICAL_CHSH_OPERATORS = tensor(_CHSH_SETTINGS[:2, None], _CHSH_SETTINGS[2:]).reshape(4, 4, 4)
_CANONICAL_CHSH_OPERATORS.setflags(write=False)


def _list_weights(strategy, table: np.ndarray) -> np.ndarray:
    """The weights of an outcome table's list variants.

    A table with one variant has weight 1; one with two variants, +1 then
    -1, weights each by its share of the strategy's ``answer_list``,
    which only then is read.
    """
    if table.shape[-2] == 1:
        return np.ones(1)
    answers = strategy.answer_list
    n = len(answers)
    return np.array([answers.count(1) / n, answers.count(-1) / n])


def outcome_table(
    spec: SteeringGameSpec, strategy, shared_state: DensityOperator | np.ndarray | None = None
) -> np.ndarray:
    """Exact outcome probabilities of a strategy under a game spec.

    ``table[k, v, o]`` is the probability of outcome pair ``OUTCOMES[o]``
    in condition ``SIGNALS[k]`` and list variant v: the strategy's
    ``outcome_distribution`` of the spec's ``delivered_signals``.  A strategy
    without an answer list has one variant; one with a list has two, for
    the list values +1 and -1.  The one check of the shared state: a
    strategy that needs one is refused without it, one that takes none
    with it.  A strategy that needs a shared state also takes an
    ``(n, d, d)`` stack of state matrices, which it validates, and then
    returns the ``(n, 6, V, 4)`` stack of their tables.
    """
    if strategy.needs_shared_state == (shared_state is None):
        need = "needs a" if strategy.needs_shared_state else "takes no"
        raise ValueError(f"this strategy {need} shared state")
    return strategy.outcome_distribution(spec.delivered_signals, shared_state)


def _expectations(tables: np.ndarray, list_weights: np.ndarray):
    """<ab> and <b> per condition of stacked (..., 6, V, 4) outcome tables.

    The list variants are averaged with ``list_weights``; returns two
    (..., 6) arrays in ``SIGNALS`` order, checked by :func:`_check_correlations`.
    """
    probs = (tables * list_weights[:, None]).sum(axis=-2)
    a = np.array([out[0] for out in OUTCOMES])
    b = np.array([out[1] for out in OUTCOMES])
    e_ab, e_b = probs @ (a * b), probs @ b
    _check_correlations(e_ab, e_b)
    return e_ab, e_b


def qrs_payoff_exact(
    spec: SteeringGameSpec, strategy, shared_state: DensityOperator | None = None
) -> float:
    """Exact average payoff of a strategy in the quantum-refereed steering game."""
    table = outcome_table(spec, strategy, shared_state)
    e_ab, e_b = _expectations(table, _list_weights(strategy, table))
    return float(_payoffs(e_ab, e_b, spec.penalty_coefficient))


def _round_payoffs(s, a, b, c):
    """Per-round payoffs 2 / (1/6) * (s a b - c b), elementwise."""
    return 12.0 * (s * a * b - c * b)

