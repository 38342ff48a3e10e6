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

Every probability on Bob's side is the Born rule Tr[E (rho x omega_k)]
on the signal omega_k the referee sent, and one private kernel,
``_signal_traces``, is the only code that evaluates it.  It has three
callers: the honest table, over an ``(n, d, d)`` stack of shared states
in blocks of ``qcore._STACK_BLOCK``; ``_lhs_tables``, over the hidden
states of n equally sized hidden-state models; and
``simulator.noisy_equivalence_check``, over its stack of random states
on B.  ``_lhs_reductions`` and ``_lhs_routes`` also take n models at
once.  A single object's call is the n = 1 case of the same kernel, and
every item of a stack gets the bits it gets on its own.

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
    _STACK_BLOCK,
    BlochVector,
    DensityOperator,
    Povm,
    _check_density_stack,
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


def _tensor_rows(stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each matrix of a (..., m, n) stack Kronecker the 2-D matrix ``right``.

    The items, stacked row-wise, are one 2-D operand of :func:`tensor`,
    and [A; B] x C = [A x C; B x C]: one call gives every product, each
    bitwise equal to ``tensor`` of its item alone.
    """
    m, n = stack.shape[-2:]
    p, q = right.shape
    out = tensor(stack.reshape(-1, n), right)
    return out.reshape(stack.shape[:-2] + (m * p, n * q))


def _signal_traces(effects: np.ndarray, states: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Tr[E (rho x omega_k)] for every effect E, state rho and signal omega_k.

    The one Born-rule kernel of Bob's side.  ``states`` is a (..., d, d)
    stack and ``signals`` a (K, c, c) stack; ``effects`` is
    (K or 1, ..., d*c, d*c), its leading axis picking the effects played
    against each signal, and its remaining leading axes broadcasting
    against those of ``states``.  Per signal: one :func:`_tensor_rows`,
    one ``matmul`` and one stacked trace.  Returns the real traces with
    the signal axis first.
    """
    effects = np.broadcast_to(effects, (len(signals),) + effects.shape[1:])
    return np.stack(
        [
            np.trace(e @ _tensor_rows(states, omega), axis1=-2, axis2=-1).real
            for e, omega in zip(effects, signals)
        ]
    )


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
    ``OUTCOMES`` order.  ``outcome_distribution`` plays row j-1 against
    both signals of setting j for every shared state it is given, one
    :func:`_signal_traces` call per block of ``_STACK_BLOCK`` states.
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
        """The ``(6, 1, 4)`` table of one :class:`DensityOperator`, or the
        ``(n, 6, 1, 4)`` tables of an ``(n, d, d)`` stack of state
        matrices, each validated as a :class:`DensityOperator` would be;
        one state is the stack of one."""
        if shared_state is None:
            raise ValueError("honest strategy requires a shared state")
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
        w = _checked_lhs_weights(w[None], resp[None])[0]
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
        return _lhs_tables(*_as_stack(self), signals)[0]


def _checked_lhs_weights(weights: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Check a stack of n hidden-state models' weights and response biases.

    ``weights`` is (n, n_lambda) and ``responses`` (n, n_lambda, 3).  Each
    model gets the checks of :class:`LhsStrategy`, in its order: weights
    finite and nonnegative (to 1e-12), summing to 1 after clipping at 0
    (to 1e-10), then biases in [-1, 1] (to 1e-12).  The first bad model
    raises; otherwise returns the clipped weights.
    """
    bad_w = ~np.all(np.isfinite(weights), axis=-1) | np.any(weights < -1e-12, axis=-1)
    weights = np.clip(weights, 0.0, None)
    sums = weights.sum(axis=-1)
    bad_sum = np.abs(sums - 1.0) > 1e-10
    bad_r = ~np.all(np.abs(responses) <= 1.0 + 1e-12, axis=(-2, -1))  # NaN fails too
    bad = bad_w | bad_sum | bad_r
    if bad.any():
        i = int(np.argmax(bad))
        if bad_w[i]:
            raise ValueError("weights must be finite and nonnegative")
        if bad_sum[i]:
            raise ValueError(f"weights must sum to 1, got {sums[i]}")
        raise ValueError("response biases must be finite and lie in [-1, 1]")
    return weights


def _lhs_tables(weights, states, responses, effects, signals) -> np.ndarray:
    """Outcome tables of a stack of n hidden-state models with n_lambda each.

    ``weights`` (n, n_lambda), ``states`` (n, n_lambda, d, d),
    ``responses`` (n, n_lambda, 3) and ``effects`` (n, 2d, 2d), Bob's b=1
    element, are validated model parameters; ``signals`` is the (6, 2, 2)
    signal stack.  Returns the (n, 6, 1, 4) tables.  Every model goes
    through the same per-item products and traces, so its table has the
    bits it has when evaluated alone.
    """
    n = len(weights)
    # t[i, k, lambda] = Tr[E_1 (rho_lambda x omega_k)]
    t = np.moveaxis(_signal_traces(effects[None, :, None], states, signals), 0, 1)
    bob = np.stack([t, 1.0 - t], axis=-1).reshape(n, 3, 2, -1, 2)  # b = 1, 0
    # p(lambda) p(a | lambda, j) for a = +1, -1, shared by both signs s
    answers = np.array([[1.0], [-1.0]])
    alice = (1.0 + answers * responses.swapaxes(1, 2)[:, :, None, None]) / 2.0
    probs = (weights[:, None, None, None] * alice) @ bob
    # summed and normalised in the column order (a, b) = (+,1), (+,0),
    # (-,1), (-,0) that every pinned output was computed in, then
    # permuted to OUTCOMES
    table = _clean_distribution(probs.reshape(n, len(SIGNALS), 1, 4))
    return table[..., [1, 0, 3, 2]]


def _lhs_reductions(weights, states, effects):
    """Collapse a stack of n hidden-state models onto the signal space.

    X_lambda = Tr_B[E_1 (rho_lambda x 1_C)] turns Bob's side into a
    positive operator on C.  With N = sum_lambda p(lambda) Tr[X_lambda],
    reweighted distribution q(lambda) and normalised states tau_lambda,
    the payoff in the calibrated game becomes
    2N (sum_j <a_j sigma_j> - r*sqrt(3)), which is at most 0 for r >= 1.

    Parameters as for :func:`_lhs_tables`.  Every X_lambda of every model
    is one ``matmul``, then the trace over B of the whole stack.  A term
    is kept when p(lambda) Tr[X_lambda] > 1e-14, and a model whose N is
    not positive keeps none.  Returns (normalization, kept, q, taus): the
    (n,) N, 0 for a model that keeps nothing; the (n, n_lambda) mask of
    kept terms; the (n, n_lambda) reduced weights q, read only where
    kept; and the (n_kept, 2, 2) tau_lambda of the kept terms, model by
    model in lambda order.  Every tau gets the checks of
    :class:`DensityOperator`, and every model's kept q must sum to 1
    within 1e-9, as stacks; the first bad one raises its message.
    """
    n, n_lambda, d_b, _ = states.shape
    joint = effects[:, None] @ _tensor_rows(states, np.eye(2, dtype=np.complex128))
    x_ops = np.trace(joint.reshape(n, n_lambda, d_b, 2, d_b, 2), axis1=2, axis2=4)
    x_ops = (x_ops + x_ops.conj().swapaxes(-1, -2)) / 2.0
    traces = np.trace(x_ops, axis1=-2, axis2=-1).real
    weighted = weights * traces
    n_const = weighted.sum(axis=-1)
    kept = weighted > 1e-14
    valid = (n_const > 0.0) & kept.any(axis=-1)
    kept &= valid[:, None]
    normalization = np.where(valid, n_const, 0.0)
    taus = x_ops[kept] / traces[kept][:, None, None]
    _check_density_stack(taus)
    q = weighted / np.where(valid, n_const, 1.0)[:, None]
    off = valid & ~(np.abs(np.where(kept, q, 0.0).sum(axis=-1) - 1.0) <= 1e-9)
    if off.any():
        raise ValueError("reduced weights must sum to 1")
    return normalization, kept, q, taus


def _as_stack(strategy: LhsStrategy):
    """One model's parameters as a stack of one, in :func:`_lhs_tables` order."""
    return (
        strategy.weights[None],
        strategy.state_stack[None],
        strategy.alice_responses[None],
        strategy.bob_joint_povm[1][None],
    )


def _require_calibrated_ensemble(spec: games.SteeringGameSpec):
    if not mats_close(spec.delivered_signals(), _IDEAL_SIGNALS, 1e-10):
        raise ValueError("the hidden-state reduction assumes the calibrated signal ensemble")


def _lhs_routes(spec: games.SteeringGameSpec, weights, states, responses, effects):
    """Both routes of :func:`lhs_payoff_routes` for a stack of n models.

    Parameters as for :func:`_lhs_tables`; returns the (n,) direct and
    reduced payoffs.  The direct route aggregates each model's outcome
    table; the reduced route takes every <sigma_j> of every kept
    tau_lambda of :func:`_lhs_reductions` in one stacked trace, then sums
    over j and over the kept lambda one step at a time, in order.  A
    dropped term is masked, not added, so each model rounds as it does
    alone.
    """
    tables = _lhs_tables(weights, states, responses, effects, spec.delivered_signals())
    e_ab, e_b = games._correlations(tables, np.ones(1))
    games._check_correlations(e_ab, e_b)
    direct = games._payoffs(e_ab, e_b, spec.penalty_coefficient)
    _require_calibrated_ensemble(spec)
    normalization, kept, q, taus = _lhs_reductions(weights, states, effects)
    sigma = np.zeros(kept.shape + (3,))
    sigma[kept] = np.trace(_PAULI @ taus[:, None], axis1=-2, axis2=-1).real
    inner = np.zeros(kept.shape)
    for j in range(3):
        inner = inner + responses[..., j] * sigma[..., j]
    total = np.zeros(len(weights))
    for lam in range(kept.shape[1]):
        total = np.where(kept[:, lam], total + q[:, lam] * inner[:, lam], total)
    reduced = 2.0 * normalization * (total - spec.r * spec.payoff_bound)
    return direct, reduced


def lhs_payoff_routes(strategy: LhsStrategy, spec: games.SteeringGameSpec):
    """Exact hidden-state payoff by two independent routes.

    Route one aggregates the strategy's outcome table directly;
    route two goes through the reduction onto the signal space.  Both
    are exact, so any disagreement flags an implementation bug.  This is
    :func:`_lhs_routes` for a stack of one model.
    """
    direct, reduced = _lhs_routes(spec, *_as_stack(strategy))
    return float(direct[0]), float(reduced[0])


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
