"""Everything Alice and Bob can do: honest play, hidden-state models and
:class:`ClassicalCheat`, the one class of every cheat without a shared state.

Each strategy class describes its behaviour once, through two members:

``needs_shared_state``
    whether the pair plays on a shared state.
``outcome_distribution(signals, shared_state)``
    the strategy's whole outcome table: a ``(6, V, 4)`` array whose
    entry ``[k, v, o]`` is the probability of the pair
    ``games.OUTCOMES[o]`` in condition ``games.SIGNALS[k]`` and list
    variant v.  ``signals`` is a spec's ``delivered_signals``, the (6, 2, 2)
    stack of signal states in ``games.SIGNALS`` order; condition k announces
    the setting j of ``SIGNALS[k]`` to Alice, and no strategy reads the
    referee's sign s.  A strategy without an answer list has V = 1; one with
    a list has V = 2, for the list values +1 and -1, and keeps the list in
    ``answer_list``.

:func:`games.outcome_table` hands a strategy the delivered signals, and a
shared state exactly when it needs one, which is checked there and
nowhere else; its table is what exact evaluation and the simulator read.

Every probability on Bob's side is the Born rule Tr[E (rho x omega_k)]
on the signal omega_k the referee sent, and one private kernel,
``_signal_traces``, is the only code that evaluates it, forming every
rho x omega_k of a stack of states in one ``qcore.tensor`` call.  It has two
callers: the honest table, over an ``(n, d, d)`` stack of shared states
in blocks of ``qcore._STACK_BLOCK``, where a single state is the stack of
one and every item gets the bits it gets on its own, and the table of
one hidden-state model, over its hidden states.  ``_lhs_routes`` checks
that model's table against the collapse of Bob's side onto the signal
qubit, paid through the payoff operator Z(alpha) of
``games._payoff_operators`` whose largest eigenvalue lambda* bounds
every hidden-state model in the cheat certificates, so it holds for any
referee a spec describes.

Outcome conventions: Alice's POVMs are ordered (a=+1, a=-1); Bob's joint
POVMs are ordered (b=0, b=1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import games
from .games import OUTCOMES, SIGNALS
from .qcore import (
    _STACK_BLOCK,
    BlochVector,
    DensityOperator,
    Povm,
    _check_density_stack,
    pauli,
    singlet_projector,
    tensor,
)

#: The calibrated referee's read-only (6, 2, 2) signal stack, in ``SIGNALS`` order.
_IDEAL_SIGNALS = games.SteeringGameSpec().delivered_signals


def _clean_distribution(table: np.ndarray) -> np.ndarray:
    """Validate and tidy outcome distributions over the last axis.

    Probabilities slightly outside [0, 1] from floating-point round-off
    are clipped; anything beyond 1e-10 signals numerical corruption.
    Each distribution is divided by its sum, taken in column order.
    """
    bad = ~((table >= -1e-10) & (table <= 1.0 + 1e-10))
    if bad.any():
        raise RuntimeError(f"outcome probability out of range: {table[bad][0]}")
    table = np.clip(table, 0.0, 1.0)
    total = table.sum(axis=-1, keepdims=True)
    off = ~(np.abs(total - 1.0) <= 1e-9)
    if off.any():
        raise RuntimeError(f"outcome probabilities sum to {total[off][0]}, expected 1")
    return table / total


def _signal_traces(effects: np.ndarray, states: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Tr[E (rho x omega_k)] for every effect E, state rho and signal omega_k.

    The one Born-rule kernel of Bob's side.  ``states`` is a (..., d, d)
    stack and ``signals`` a (K, c, c) stack; ``effects`` is
    (K or 1, ..., d*c, d*c), its leading axis picking the effects played
    against each signal, and its remaining leading axes broadcasting
    against those of ``states``.  Per signal: one stacked :func:`tensor`,
    one ``matmul`` and one stacked trace.  Returns the real traces with
    the signal axis first.
    """
    effects = np.broadcast_to(effects, (len(signals),) + effects.shape[1:])
    return np.stack(
        [
            np.trace(e @ tensor(states, omega), axis1=-2, axis2=-1).real
            for e, omega in zip(effects, signals)
        ]
    )


def partial_bell_povm() -> Povm:
    """Bob's honest joint measurement on B x C.

    The b=1 element is the projector onto the two-qubit singlet,
    (1/4)(1x1 - sum_j sigma_j x sigma_j); b=0 is its complement.  On the
    signal (1/2)(1 + s sigma_j) it programs the effect
    Tr_C[E_1 (1 x omega)] = (1/4)(1 - s sigma_j) on B: up to
    normalisation, the projector onto the eigenstate orthogonal to the
    one the referee sent.
    """
    e1 = singlet_projector()
    e0 = np.eye(4, dtype=np.complex128) - e1
    return Povm((e0, e1))


@dataclass(frozen=True, eq=False)
class HonestStrategy:
    """Quantum strategy: Alice measures locally, Bob measures B x C jointly.

    ``alice_povms`` maps each setting j to a two-outcome POVM on A
    (ordered a=+1, a=-1); ``bob_joint_povm`` is a two-outcome POVM on
    B x C (ordered b=0, b=1).  The default honest pair is built by
    :func:`honest_strategy`: Alice reports her sigma_j outcome and Bob
    performs the partial Bell measurement, which wins on Werner states
    with w above r/sqrt(3).

    The twelve joint effects ``A_{j,a} x E_b`` are built once, at
    construction, into the read-only ``(3, 4, d, d)`` array
    ``joint_effects``: row j-1 holds setting j's four effects in
    ``OUTCOMES`` order.  ``outcome_distribution`` plays row j-1 against
    both signals of setting j for every shared state it is given, one
    :func:`_signal_traces` call per block of ``_STACK_BLOCK`` states.
    """

    alice_povms: dict
    bob_joint_povm: Povm
    joint_effects: np.ndarray = field(init=False, repr=False)

    needs_shared_state = True

    def __post_init__(self):
        povms = dict(self.alice_povms)
        if set(povms) != {1, 2, 3}:
            raise ValueError("Alice needs one POVM per setting j in {1, 2, 3}")
        dims = set()
        for j, povm in povms.items():
            if not isinstance(povm, Povm) or povm.n_outcomes != 2:
                raise ValueError(f"Alice's POVM for j={j} must have two outcomes")
            dims.add(povm.dim)
        if len(dims) != 1:
            raise ValueError("Alice's POVMs must share one dimension")
        if not isinstance(self.bob_joint_povm, Povm) or self.bob_joint_povm.n_outcomes != 2:
            raise ValueError("Bob's joint POVM must have two outcomes")
        object.__setattr__(self, "alice_povms", povms)
        alice = np.stack([np.stack(povms[j].elements) for j in (1, 2, 3)])
        bob = np.stack(self.bob_joint_povm.elements)
        # (a, b) pairs in OUTCOMES order: a = +1, -1 outer, b = 0, 1 inner
        effects = tensor(alice[:, :, None], bob)
        effects = effects.reshape((3, 4) + effects.shape[-2:])
        effects.setflags(write=False)
        object.__setattr__(self, "joint_effects", effects)

    @property
    def alice_dim(self) -> int:
        return self.alice_povms[1].dim

    def outcome_distribution(self, signals, shared_state):
        """The ``(6, 1, 4)`` table of one :class:`DensityOperator`, or the
        ``(n, 6, 1, 4)`` tables of an ``(n, d, d)`` stack of state
        matrices, each validated as a :class:`DensityOperator` would be;
        one state is the stack of one."""
        single = isinstance(shared_state, DensityOperator)
        if single:
            states = shared_state.matrix[None]
        else:
            states = np.asarray(shared_state, dtype=np.complex128)
            _check_density_stack(states)
        d_a = self.alice_dim
        d_bc = self.bob_joint_povm.dim
        d_c = signals.shape[-1]
        if d_bc % d_c != 0:
            raise ValueError("Bob's POVM dimension incompatible with the signal")
        d_b = d_bc // d_c
        if states.shape[-1] != d_a * d_b:
            raise ValueError(
                f"shared state has dimension {states.shape[-1]}, "
                f"expected {d_a}*{d_b} for this strategy"
            )
        # signal k = (j, s) is played against setting j's four effects
        effects = np.repeat(self.joint_effects, 2, axis=0)
        n = len(states)
        probs = np.empty((n, len(SIGNALS), len(OUTCOMES)))
        for start in range(0, n, _STACK_BLOCK):
            block = slice(start, start + _STACK_BLOCK)
            probs[block] = np.moveaxis(_signal_traces(effects, states[block, None], signals), 0, 1)
        table = _clean_distribution(probs[:, :, None])
        return table[0] if single else table


def honest_strategy() -> HonestStrategy:
    """The canonical winning pair: Alice reports sigma_j, Bob projects on the singlet."""
    alice = {}
    for j in (1, 2, 3):
        plus = (np.eye(2, dtype=np.complex128) + pauli(j)) / 2.0
        minus = (np.eye(2, dtype=np.complex128) - pauli(j)) / 2.0
        alice[j] = Povm((plus, minus))
    return HonestStrategy(alice_povms=alice, bob_joint_povm=partial_bell_povm())


#: Alice's answers to Bob's guesses +1 and -1 per rule; the keys, in this order,
#: are the ``alice_rule`` names that ``serialize.STRATEGY_SCHEMA`` publishes.
_ALICE_ANSWERS = {"follow_estimate": (1, -1), "negate_estimate": (-1, 1),
                  "constant_plus": (1, 1), "constant_minus": (-1, -1)}


@dataclass(frozen=True, eq=False)
class ClassicalCheat:
    """Cheat without a shared state: Bob guesses s, replies b, Alice answers a.

    ``direction`` is the one-way message they send.  ``None``: none; Bob
    guesses with the Bloch ``estimator`` M_plus = mu (1 + m . sigma), Alice
    answers +1 or each round's value of a preagreed +-1 ``answer_list``, and
    Bob replies b = 1 when his guess matches her answer.  No estimator wins:
    the payoff tops out at exactly zero, at m = (1,1,1)/sqrt(3).
    ``"alice_to_bob"``: Alice sends j and answers +1; Bob measures sigma_j
    and replies b = 1 on guess +1, scoring 2(3 - r sqrt(3)) against a
    calibrated referee.  ``"bob_to_alice"``: Bob sends his guess, replies
    b = 1 on the guesses in ``bob_outputs_one_when``, and Alice answers by
    ``alice_rule``: she follows or negates the guess (``follow_estimate``,
    ``negate_estimate``) or ignores it (``constant_plus``,
    ``constant_minus``); nothing scores above zero.  Without Bob's message
    those two fields keep their defaults.

    One play gives every table: in a round whose list value is v (+1 without
    a list) Bob's guess g is read as g' = v g and Alice answers v times her
    answer to g'.  g' = +1 has probability p_plus = Tr[M_plus omega] for
    v = +1 and 1 - p_plus for v = -1, and g' = -1 has 1 minus that.
    """

    estimator: BlochVector | None = None
    direction: str | None = None
    bob_outputs_one_when: tuple = (1,)
    alice_rule: str = "follow_estimate"
    answer_list: tuple | None = None

    needs_shared_state = False

    def __post_init__(self):
        direction, rule, answers = self.direction, self.alice_rule, self.answer_list
        if direction not in (None, "alice_to_bob", "bob_to_alice"):
            raise ValueError(f"unknown communication direction {direction!r}")
        ones = tuple(sorted(set(int(v) for v in self.bob_outputs_one_when), reverse=True))
        if any(v not in (1, -1) for v in ones):
            raise ValueError("bob_outputs_one_when must list values from {+1, -1}")
        if rule not in _ALICE_ANSWERS:
            raise ValueError(f"unknown alice_rule {rule!r}")
        if direction != "bob_to_alice" and (ones, rule) != ((1,), "follow_estimate"):
            raise ValueError(f"direction {direction!r} sends no guess for the two rules to read")
        if answers is not None:
            answers = tuple(int(v) for v in answers)
            if direction is not None or not answers or any(v not in (1, -1) for v in answers):
                raise ValueError("answer list must be a nonempty +-1 sequence, without a message")
        if direction == "alice_to_bob":
            if self.estimator is not None:
                raise ValueError("an alice_to_bob cheat measures sigma_j and takes no estimator")
            # Bob measures sigma_j: (1/2)(1 + sigma_j) is the s = +1 signal of setting j
            plus = np.repeat(_IDEAL_SIGNALS[::2], 2, axis=0)
        elif isinstance(self.estimator, BlochVector):
            plus = self.estimator.povm_pair()[0]  # raises if either element is not PSD
        else:
            raise ValueError("estimator must be a BlochVector")
        # without Bob's guess Alice answers +1 (times the list value) to either g'
        answer = _ALICE_ANSWERS[rule if direction == "bob_to_alice" else "constant_plus"]
        object.__setattr__(self, "bob_outputs_one_when", ones)
        object.__setattr__(self, "answer_list", answers)
        object.__setattr__(self, "_m_plus", plus)
        object.__setattr__(self, "_plays", tuple(zip(answer, (int(1 in ones), int(-1 in ones)))))

    def outcome_distribution(self, signals, shared_state=None):
        p_plus = np.trace(self._m_plus @ signals, axis1=1, axis2=2).real
        values = (1,) if self.answer_list is None else (1, -1)
        table = np.zeros((len(SIGNALS), len(values), len(OUTCOMES)))
        for i, v in enumerate(values):
            p = p_plus if v == 1 else 1.0 - p_plus
            # Alice's answer and Bob's reply to the guesses g' = +1, -1
            for (a, b), q in zip(self._plays, (p, 1.0 - p)):
                table[:, i, OUTCOMES.index((v * a, b))] += q
        return _clean_distribution(table)


@dataclass(frozen=True, eq=False)
class LhsStrategy:
    """Local-hidden-state model for Bob's side.

    A hidden variable lambda with distribution ``weights`` fixes Alice's
    response bias ``alice_responses[lambda, j-1]`` (a number in [-1, 1],
    the conditional mean of a) and Bob's local state
    ``hidden_states[lambda]`` on B; Bob applies ``bob_joint_povm`` to
    B x C.  This is the most general strategy in which Bob holds a
    pre-set quantum state uncorrelated with Alice beyond lambda.

    Construction checks, in this order: weights finite and nonnegative
    (to 1e-12), summing to 1 after clipping at 0 (to 1e-10), then biases
    in [-1, 1] (to 1e-12).  The hidden states are also stacked once, into
    the read-only ``(n_lambda, d, d)`` array ``state_stack``, so each
    evaluation contracts over every lambda at once.
    """

    weights: np.ndarray
    hidden_states: tuple
    alice_responses: np.ndarray
    bob_joint_povm: Povm
    state_stack: np.ndarray = field(init=False, repr=False)

    needs_shared_state = False

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        states = tuple(self.hidden_states)
        if len(states) != w.size:
            raise ValueError("one hidden state per weight is required")
        dims = {st.dim for st in states}
        if len(dims) != 1:
            raise ValueError("hidden states must share one dimension")
        d_b = dims.pop()
        if not 1 <= d_b <= 4:
            raise ValueError("hidden-state dimension must lie in 1..4")
        resp = np.array(self.alice_responses, dtype=np.float64)
        if resp.shape != (w.size, 3):
            raise ValueError("alice_responses must have shape (n_lambda, 3)")
        if not np.all(np.isfinite(w)) or np.any(w < -1e-12):
            raise ValueError("weights must be finite and nonnegative")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {total}")
        if not np.all(np.abs(resp) <= 1.0 + 1e-12):  # NaN fails too
            raise ValueError("response biases must be finite and lie in [-1, 1]")
        if self.bob_joint_povm.n_outcomes != 2 or self.bob_joint_povm.dim != 2 * d_b:
            raise ValueError("Bob's POVM must act on B x C with two outcomes")
        stack = np.stack([st.matrix for st in states])
        for arr in (w, resp, stack):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "hidden_states", states)
        object.__setattr__(self, "alice_responses", resp)
        object.__setattr__(self, "state_stack", stack)

    def outcome_distribution(self, signals, shared_state=None):
        # t[k, lambda] = Tr[E_1 (rho_lambda x omega_k)]
        t = _signal_traces(self.bob_joint_povm[1][None], self.state_stack, signals)
        bob = np.stack([t, 1.0 - t], axis=-1).reshape(3, 2, -1, 2)  # b = 1, 0
        # p(lambda) p(a | lambda, j) for a = +1, -1, shared by both signs s
        answers = np.array([[1.0], [-1.0]])
        alice = (1.0 + answers * self.alice_responses.T[:, None, None]) / 2.0
        probs = (self.weights * alice) @ bob
        # summed and normalised in the column order (a, b) = (+,1), (+,0),
        # (-,1), (-,0) that every pinned output was computed in, then
        # permuted to OUTCOMES
        table = _clean_distribution(probs.reshape(len(SIGNALS), 1, 4))
        return table[..., [1, 0, 3, 2]]


def _lhs_routes(spec: games.SteeringGameSpec, model: LhsStrategy):
    """Exact payoff of a hidden-state model by two independent routes.

    Returns the direct and reduced payoffs as floats, whose disagreement
    would flag an implementation bug.  The direct route aggregates the
    model's outcome table.  The reduced route collapses Bob's side onto
    the signal qubit: X_lambda = Tr_B[E_1 (rho_lambda x 1_C)], every
    X_lambda one ``matmul`` and one trace over B, and the payoff is
    2 sum_lambda p(lambda) Tr[X_lambda Z(r_lambda)], with Z the payoff
    operator of ``games._payoff_operators`` at lambda's response biases.
    Both routes hold for any qubit signal ensemble.
    """
    tables = model.outcome_distribution(spec.delivered_signals)
    e_ab, e_b = games._expectations(tables, np.ones(1))
    direct = games._payoffs(e_ab, e_b, spec.penalty_coefficient)
    states = model.state_stack
    n_lambda, d_b, _ = states.shape
    joint = model.bob_joint_povm[1] @ tensor(states, np.eye(2, dtype=np.complex128))
    x_ops = np.trace(joint.reshape(n_lambda, d_b, 2, d_b, 2), axis1=1, axis2=3)
    z = games._payoff_operators(spec, model.alice_responses)
    terms = np.trace(x_ops @ z, axis1=-2, axis2=-1).real
    return float(direct), float(2.0 * (model.weights * terms).sum())


def best_estimator() -> BlochVector:
    """The optimal sign estimator m = (1,1,1)/sqrt(3), mu = 1/2."""
    return BlochVector(np.full(3, 1.0 / np.sqrt(3.0)), 0.5)
