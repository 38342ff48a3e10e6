"""Everything Alice and Bob can do: honest play, cheats, hidden-state models.

Each strategy class describes its behaviour once, through

``outcome_distribution(signals, shared_state=None)``
    the strategy's whole outcome table: a ``(6, V, 4)`` array whose
    entry ``[k, v, o]`` is the probability of the pair
    ``games.OUTCOMES[o]`` in condition ``games.SIGNALS[k]`` and list
    variant v.  ``signals`` is the ``(6, 2, 2)`` stack of delivered
    signal states in ``games.SIGNALS`` order; condition k announces the
    setting j of ``SIGNALS[k]`` to Alice, and no strategy reads the
    referee's sign s.  A strategy without an answer list has V = 1; one
    with a list has V = 2, for the list values +1 and -1.

Each class also declares ``needs_shared_state``,
``required_communication`` and ``round_list``.
:func:`games.outcome_table` hands a strategy the delivered signals and
returns its table, which exact evaluation and the simulator both read.

Outcome conventions: Alice's POVMs are ordered (a=+1, a=-1); Bob's joint
POVMs are ordered (b=0, b=1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import games
from .games import OUTCOMES, SIGNALS
from .qcore import (
    _PAULI,
    BlochVector,
    DensityOperator,
    Povm,
    _kron_pair,
    mats_close,
    partial_trace,
    pauli,
    signal_state,
    singlet_projector,
    tensor,
)

#: Alice's answer a to each guess Bob transmits, per Bob-to-Alice rule.
ALICE_RULES_BA = {
    "follow_estimate": {1: 1, -1: -1},
    "negate_estimate": {1: -1, -1: 1},
    "constant_plus": {1: 1, -1: 1},
    "constant_minus": {1: -1, -1: -1},
}


#: The calibrated referee's six signal matrices (1/2)(1 + s sigma_j), in
#: ``SIGNALS`` order, as one read-only (6, 2, 2) stack.
_IDEAL_SIGNALS = np.stack([signal_state(j, s).matrix for (j, s) in SIGNALS])
_IDEAL_SIGNALS.setflags(write=False)


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


def partial_bell_povm() -> Povm:
    """Bob's honest joint measurement on B x C.

    The b=1 element is the projector onto the two-qubit singlet,
    (1/4)(1x1 - sum_j sigma_j x sigma_j); b=0 is its complement.
    """
    e1 = singlet_projector()
    e0 = np.eye(4, dtype=np.complex128) - e1
    return Povm((e0, e1))


def programmed_povm(e_bc: Povm, omega: DensityOperator) -> Povm:
    """Effective measurement on B that a joint POVM programs via the signal.

    M_b = Tr_C[E_b (1_B x omega)].  For the partial Bell measurement and
    signal (1/2)(1 + s sigma_j) this evaluates to (1/4)(1 - s sigma_j):
    up to normalisation, the projector onto the eigenstate orthogonal to
    the one the referee sent.
    """
    d_bc = e_bc.dim
    d_c = omega.dim
    if d_bc % d_c != 0:
        raise ValueError(
            f"joint POVM dimension {d_bc} is not divisible by signal dimension {d_c}"
        )
    d_b = d_bc // d_c
    elements = []
    for el in e_bc:
        m = partial_trace(el @ tensor(np.eye(d_b), omega.matrix), [d_b, d_c], 1)
        elements.append((m + m.conj().T) / 2.0)
    return Povm(tuple(elements))


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
    ``OUTCOMES`` order.  ``outcome_distribution`` contracts them against
    the six joint states with one ``matmul`` and one stacked trace.
    """

    alice_povms: dict
    bob_joint_povm: Povm
    joint_effects: dict = field(init=False, repr=False)

    needs_shared_state = True
    required_communication = None
    round_list = None

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
        effects = _kron_pair(alice[:, :, None], bob[None, None, :])
        effects = effects.reshape((3, 4) + effects.shape[-2:])
        effects.setflags(write=False)
        object.__setattr__(self, "joint_effects", effects)

    @property
    def alice_dim(self) -> int:
        return self.alice_povms[1].dim

    def outcome_distribution(self, signals, shared_state=None):
        if shared_state is None:
            raise ValueError("honest strategy requires a shared state")
        d_a = self.alice_dim
        d_bc = self.bob_joint_povm.dim
        d_c = signals.shape[-1]
        if d_bc % d_c != 0:
            raise ValueError("Bob's POVM dimension incompatible with the signal")
        d_b = d_bc // d_c
        if shared_state.dim != d_a * d_b:
            raise ValueError(
                f"shared state has dimension {shared_state.dim}, "
                f"expected {d_a}*{d_b} for this strategy"
            )
        joints = np.stack([tensor(shared_state.matrix, omega) for omega in signals])
        # SIGNALS runs over j outer, s inner: axes (j, s, outcome, row, column)
        joints = joints.reshape((3, 2, 1) + joints.shape[-2:])
        probs = np.trace(self.joint_effects[:, None] @ joints, axis1=3, axis2=4).real
        return _clean_distribution(probs.reshape(len(SIGNALS), 1, len(OUTCOMES)))


def honest_strategy() -> HonestStrategy:
    """The canonical winning pair: Alice reports sigma_j, Bob projects on the singlet."""
    alice = {}
    for j in (1, 2, 3):
        plus = (np.eye(2, dtype=np.complex128) + pauli(j)) / 2.0
        minus = (np.eye(2, dtype=np.complex128) - pauli(j)) / 2.0
        alice[j] = Povm((plus, minus))
    return HonestStrategy(alice_povms=alice, bob_joint_povm=partial_bell_povm())


@dataclass(frozen=True, eq=False)
class NoStateCheat:
    """Cheat without any shared state.

    Bob guesses the referee's sign s with the two-outcome estimator
    M_plus = mu (1 + m . sigma), M_minus = 1 - M_plus, and returns b = 1
    exactly when his guess matches Alice's answer.  Alice answers +1
    every round (``alice_rule="constant"``) or follows a preagreed
    +-1 list (``alice_rule=(1, -1, ...)``), which changes nothing at
    mu = 1/2.  No estimator wins: the payoff tops out at exactly zero,
    at m = (1,1,1)/sqrt(3).
    """

    estimator: BlochVector
    alice_rule: object = "constant"

    needs_shared_state = False
    required_communication = None

    def __post_init__(self):
        if not isinstance(self.estimator, BlochVector):
            raise ValueError("estimator must be a BlochVector")
        povm = self.estimator.povm_pair()  # raises if either element is not PSD
        rule = self.alice_rule
        if rule != "constant":
            rule = tuple(int(v) for v in rule)
            if not rule or any(v not in (1, -1) for v in rule):
                raise ValueError("answer list must be a nonempty sequence of +-1")
        object.__setattr__(self, "alice_rule", rule)
        object.__setattr__(self, "_m_plus", povm[0])

    @property
    def round_list(self):
        return None if self.alice_rule == "constant" else self.alice_rule

    def outcome_distribution(self, signals, shared_state=None):
        p_plus = np.trace(self._m_plus @ signals, axis1=1, axis2=2).real
        p_minus = 1.0 - p_plus
        zero = np.zeros_like(p_plus)
        # b = 1 exactly when Bob's guess matches Alice's answer, in OUTCOMES order
        variants = [(p_minus, p_plus, zero, zero)]  # a = +1
        if self.round_list is not None:
            variants.append((zero, zero, 1.0 - p_minus, p_minus))  # a = -1
        table = np.stack([np.stack(v, axis=-1) for v in variants], axis=1)
        return _clean_distribution(table)


@dataclass(frozen=True)
class DiscriminationStats:
    """Bob's sign-discrimination quality for one estimator.

    ``true_positive`` is the average probability of guessing +1 when
    s = +1, ``false_positive`` the same when s = -1, averaged over the
    referee's setting distribution.  Winning as a no-state cheat at
    r = 1 would require the ratio to exceed (sqrt(3)+1)/(sqrt(3)-1),
    which no valid estimator reaches against the calibrated ensemble.
    """

    true_positive: float
    false_positive: float

    @property
    def ratio(self) -> float:
        if self.false_positive <= 0.0:
            return float("inf")
        return self.true_positive / self.false_positive


def _conditional_setting_weights(spec: games.SteeringGameSpec, s: int) -> np.ndarray:
    """p(j | s) for j = 1, 2, 3 under the spec's input distribution."""
    w = np.array([spec.input_distribution[(j, s)] for j in (1, 2, 3)])
    total = w.sum()
    if total <= 0:
        raise ValueError(f"signal distribution assigns no weight to s={s}")
    return w / total


def discrimination_stats(
    estimator: BlochVector, spec: games.SteeringGameSpec
) -> DiscriminationStats:
    """Exact guess probabilities p(+|s) of an estimator against a game's signals."""
    m_plus = estimator.povm_pair()[0]
    rates = {}
    for s in (1, -1):
        weights = _conditional_setting_weights(spec, s).tolist()
        rate = 0.0
        for j in (1, 2, 3):
            omega = spec.signal_ensemble[(j, s)]
            rate += weights[j - 1] * float(np.trace(m_plus @ omega.matrix).real)
        rates[s] = rate
    return DiscriminationStats(true_positive=rates[1], false_positive=rates[-1])


@dataclass(frozen=True, eq=False)
class LhsStrategy:
    """Local-hidden-state model for Bob's side.

    A hidden variable lambda with distribution ``weights`` fixes Alice's
    response bias ``alice_responses[lambda, j-1]`` (a number in [-1, 1],
    the conditional mean of a) and Bob's local state
    ``hidden_states[lambda]`` on B; Bob applies ``bob_joint_povm`` to
    B x C.  This is the most general strategy in which Bob holds a
    pre-set quantum state uncorrelated with Alice beyond lambda.

    The hidden states are also stacked once, at construction, into the
    read-only ``(n_lambda, d, d)`` array ``state_stack``, so each
    evaluation contracts over every lambda at once.
    """

    weights: np.ndarray
    hidden_states: tuple
    alice_responses: np.ndarray
    bob_joint_povm: Povm
    state_stack: np.ndarray = field(init=False, repr=False)

    needs_shared_state = False
    required_communication = None
    round_list = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)) or np.any(w < -1e-12):
            raise ValueError("weights must be finite and nonnegative")
        w = np.clip(w, 0.0, None)
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {w.sum()}")
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
        # t[k, lambda] = Tr[E_1 (rho_lambda x omega_k)], as one stacked trace
        joint = _kron_pair(self.state_stack, signals[:, None])
        t = np.trace(self.bob_joint_povm[1] @ joint, axis1=2, axis2=3).real
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


@dataclass(frozen=True, eq=False)
class LhsReduction:
    """A hidden-state model reduced to effective states on the signal space.

    X_lambda = Tr_B[E_1 (rho_lambda x 1_C)] collapses Bob's side into a
    positive operator on C; with N = sum_lambda p(lambda) Tr[X_lambda],
    reweighted distribution q(lambda) and normalised states tau_lambda,
    the game payoff becomes 2N (sum_j <a_j sigma_j> - r*sqrt(3)) for the
    calibrated game, manifestly nonpositive for r >= 1.  Terms with
    Tr[X_lambda] = 0 are dropped.
    """

    normalization: float
    q_weights: np.ndarray
    tau_states: tuple
    kept_indices: tuple

    def __post_init__(self):
        q = np.array(self.q_weights, dtype=np.float64)
        if self.normalization < 0:
            raise ValueError("normalization must be nonnegative")
        if q.size and abs(q.sum() - 1.0) > 1e-9:
            raise ValueError("reduced weights must sum to 1")
        q.setflags(write=False)
        object.__setattr__(self, "q_weights", q)
        object.__setattr__(self, "tau_states", tuple(self.tau_states))
        object.__setattr__(self, "kept_indices", tuple(self.kept_indices))


def lhs_reduction(strategy: LhsStrategy) -> LhsReduction:
    """Collapse a hidden-state model onto the signal space (see LhsReduction).

    Every X_lambda comes from one contraction over the hidden-state
    stack: E_1 (rho_lambda x 1_C) for all lambda in one ``matmul``, then
    the trace over B of the whole stack.  Each kept tau_lambda is still
    validated as a :class:`DensityOperator`.
    """
    n_lambda, d_b, _ = strategy.state_stack.shape
    joint = strategy.bob_joint_povm[1] @ _kron_pair(
        strategy.state_stack, np.eye(2, dtype=np.complex128)
    )
    x_ops = np.trace(joint.reshape(n_lambda, d_b, 2, d_b, 2), axis1=1, axis2=3)
    x_ops = (x_ops + x_ops.conj().swapaxes(1, 2)) / 2.0
    traces = np.trace(x_ops, axis1=1, axis2=2).real
    weighted = strategy.weights * traces
    n_const = float(weighted.sum())
    kept = [i for i in range(len(traces)) if weighted[i] > 1e-14]
    if n_const <= 0.0 or not kept:
        return LhsReduction(0.0, np.array([]), (), ())
    q = weighted[kept] / n_const
    taus = tuple(DensityOperator(x_ops[i] / traces[i]) for i in kept)
    return LhsReduction(n_const, q, taus, tuple(kept))


def _require_calibrated_ensemble(spec: games.SteeringGameSpec):
    if not mats_close(spec.delivered_signals(), _IDEAL_SIGNALS, 1e-10):
        raise ValueError("the hidden-state reduction assumes the calibrated signal ensemble")


def lhs_payoff_routes(strategy: LhsStrategy, spec: games.SteeringGameSpec):
    """Exact hidden-state payoff by two independent routes.

    Route one aggregates the strategy's outcome table directly;
    route two goes through the reduction onto the signal space.  Both
    are exact, so any disagreement flags an implementation bug.  Route
    two takes every <sigma_j>_tau in one stacked trace over the kept
    lambda, then sums over lambda in order.
    """
    direct = games.qrs_payoff_exact(spec, strategy)
    _require_calibrated_ensemble(spec)
    red = lhs_reduction(strategy)
    taus = np.array([tau.matrix for tau in red.tau_states]).reshape(-1, 1, 2, 2)
    sigma = np.trace(_PAULI @ taus, axis1=2, axis2=3).real
    total = 0.0
    for pos, lam in enumerate(red.kept_indices):
        inner = 0.0
        for j in range(3):
            inner += strategy.alice_responses[lam, j] * sigma[pos, j]
        total += red.q_weights[pos] * inner
    reduced = 2.0 * red.normalization * (total - spec.r * spec.payoff_bound)
    return direct, reduced


@dataclass(frozen=True, eq=False)
class CommCheat:
    """Cheat with one-way classical communication and no shared state.

    ``alice_to_bob``: Alice forwards the announced setting j; Bob then
    measures sigma_j on the signal, learns s exactly against a
    calibrated referee, and the pair scores 2(3 - r*sqrt(3)) — one-way
    communication in this direction breaks the game.

    ``bob_to_alice``: Bob estimates s with a Bloch estimator, sends his
    guess (and his reply b) to Alice, who answers as a function of the
    message alone.  ``bob_outputs_one_when`` lists the guesses for
    which Bob replies b=1; ``alice_rule`` names one of the maps in
    ``ALICE_RULES_BA``.  No choice of estimator and post-processing
    scores above zero.
    """

    direction: str
    estimator: BlochVector | None = None
    bob_outputs_one_when: tuple = (1,)
    alice_rule: str = "follow_estimate"

    needs_shared_state = False
    round_list = None

    def __post_init__(self):
        if self.direction not in ("alice_to_bob", "bob_to_alice"):
            raise ValueError(f"unknown communication direction {self.direction!r}")
        ones = tuple(sorted(set(int(v) for v in self.bob_outputs_one_when), reverse=True))
        if any(v not in (1, -1) for v in ones):
            raise ValueError("bob_outputs_one_when must list values from {+1, -1}")
        if self.direction == "bob_to_alice":
            if not isinstance(self.estimator, BlochVector):
                raise ValueError("bob_to_alice cheat requires a Bloch estimator")
            plus = self.estimator.povm_pair()[0]  # raises if either element is not PSD
            if self.alice_rule not in ALICE_RULES_BA:
                raise ValueError(f"unknown alice_rule {self.alice_rule!r}")
        else:
            # Bob knows j and measures sigma_j projectively: (1/2)(1 + sigma_j),
            # the s = +1 signal of each condition's setting
            plus = np.repeat(_IDEAL_SIGNALS[::2], 2, axis=0)
        object.__setattr__(self, "bob_outputs_one_when", ones)
        object.__setattr__(self, "_m_plus", plus)

    @property
    def required_communication(self) -> str:
        return self.direction

    def outcome_distribution(self, signals, shared_state=None):
        p_plus = np.trace(self._m_plus @ signals, axis1=1, axis2=2).real
        table = np.zeros((len(SIGNALS), 1, len(OUTCOMES)))
        for guess, p in ((1, p_plus), (-1, 1.0 - p_plus)):
            if self.direction == "alice_to_bob":
                a, b = 1, (1 if guess == 1 else 0)
            else:
                b = 1 if guess in self.bob_outputs_one_when else 0
                a = ALICE_RULES_BA[self.alice_rule][guess]
            table[:, 0, OUTCOMES.index((a, b))] += p
        return _clean_distribution(table)


def best_estimator() -> BlochVector:
    """The optimal sign estimator m = (1,1,1)/sqrt(3), mu = 1/2."""
    return BlochVector(np.full(3, 1.0 / np.sqrt(3.0)), 0.5)
