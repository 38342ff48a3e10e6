"""Everything Alice and Bob can do: honest play, cheats, hidden-state models.

Each strategy class describes its behaviour once, through

``outcome_distribution(omega, j, s, shared_state, list_value)``
    the exact joint distribution {(a, b): p} the strategy induces for
    one condition, given the delivered signal state ``omega``.
    ``list_value`` parameterises strategies whose reply depends on a
    preagreed answer list (the round's list entry).

:func:`games.outcome_table` collects these distributions into the one
table that exact evaluation and the simulator both read.

Outcome conventions: Alice's POVMs are ordered (a=+1, a=-1); Bob's joint
POVMs are ordered (b=0, b=1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import games
from .qcore import (
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


def _clean_distribution(dist: dict) -> dict:
    """Validate and tidy a sampled-outcome distribution.

    Probabilities slightly outside [0, 1] from floating-point round-off
    are clipped; anything beyond 1e-10 signals numerical corruption.
    """
    total = 0.0
    cleaned = {}
    for key, p in dist.items():
        if p < -1e-10 or p > 1.0 + 1e-10:
            raise RuntimeError(f"outcome probability for {key} out of range: {p}")
        p = min(max(p, 0.0), 1.0)
        cleaned[key] = p
        total += p
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"outcome probabilities sum to {total}, expected 1")
    return {k: v / total for k, v in cleaned.items()}


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
    construction, into ``joint_effects``: for each setting j one
    read-only ``(4, d, d)`` stack, its items in ``games.OUTCOMES``
    order.  ``outcome_distribution`` contracts a whole stack against
    the joint state with one ``matmul`` and one stacked trace.
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
        bob = np.stack(self.bob_joint_povm.elements)
        effects = {}
        for j, povm in povms.items():
            # (a, b) pairs in OUTCOMES order: a = +1, -1 outer, b = 0, 1 inner
            stack = _kron_pair(np.stack(povm.elements)[:, None], bob[None, :])
            stack = stack.reshape((-1,) + stack.shape[-2:])
            stack.setflags(write=False)
            effects[j] = stack
        object.__setattr__(self, "joint_effects", effects)

    @property
    def alice_dim(self) -> int:
        return self.alice_povms[1].dim

    def _factor_dims(self, omega: DensityOperator, shared_state: DensityOperator):
        d_a = self.alice_dim
        d_bc = self.bob_joint_povm.dim
        d_c = omega.dim
        if d_bc % d_c != 0:
            raise ValueError("Bob's POVM dimension incompatible with the signal")
        d_b = d_bc // d_c
        if shared_state.dim != d_a * d_b:
            raise ValueError(
                f"shared state has dimension {shared_state.dim}, "
                f"expected {d_a}*{d_b} for this strategy"
            )
        return d_a, d_b, d_c

    def outcome_distribution(self, omega, j, s, shared_state=None, list_value=None):
        if shared_state is None:
            raise ValueError("honest strategy requires a shared state")
        self._factor_dims(omega, shared_state)
        joint = tensor(shared_state.matrix, omega.matrix)
        probs = np.trace(self.joint_effects[j] @ joint, axis1=1, axis2=2).real
        return _clean_distribution(dict(zip(games.OUTCOMES, probs.tolist())))


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

    def _p_guess_plus(self, omega: DensityOperator) -> float:
        return float(np.trace(self._m_plus @ omega.matrix).real)

    def outcome_distribution(self, omega, j, s, shared_state=None, list_value=None):
        p_plus = self._p_guess_plus(omega)
        a = 1 if list_value is None else int(list_value)
        if a not in (1, -1):
            raise ValueError(f"list value must be +-1, got {list_value!r}")
        p_match = p_plus if a == 1 else 1.0 - p_plus
        return _clean_distribution({(a, 1): p_match, (a, 0): 1.0 - p_match})


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


def discrimination_stats(
    estimator: BlochVector, spec: games.SteeringGameSpec
) -> DiscriminationStats:
    """Exact guess probabilities p(+|s) of an estimator against a game's signals."""
    m_plus = estimator.povm_pair()[0]
    rates = {}
    for s in (1, -1):
        weights = {j: spec.input_distribution[(j, s)] for j in (1, 2, 3)}
        total_w = sum(weights.values())
        if total_w <= 0.0:
            raise ValueError(f"signal distribution assigns no weight to s={s}")
        rate = 0.0
        for j in (1, 2, 3):
            omega = spec.signal_ensemble[(j, s)]
            rate += (weights[j] / total_w) * float(
                np.trace(m_plus @ omega.matrix).real
            )
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
        if np.any(w < -1e-12):
            raise ValueError("weights must be nonnegative")
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
        if np.max(np.abs(resp)) > 1.0 + 1e-12:
            raise ValueError("response biases must lie in [-1, 1]")
        if self.bob_joint_povm.n_outcomes != 2 or self.bob_joint_povm.dim != 2 * d_b:
            raise ValueError("Bob's POVM must act on B x C with two outcomes")
        stack = np.stack([st.matrix for st in states])
        for arr in (w, resp, stack):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "hidden_states", states)
        object.__setattr__(self, "alice_responses", resp)
        object.__setattr__(self, "state_stack", stack)

    def _b1_probs(self, omega: DensityOperator) -> np.ndarray:
        """Tr[E_1 (rho_lambda x omega)] for each lambda, as one stacked trace."""
        joint = _kron_pair(self.state_stack, omega.matrix)
        probs = np.trace(self.bob_joint_povm[1] @ joint, axis1=1, axis2=2).real
        # contiguous like the per-lambda list: np.dot sums a strided vector differently
        return np.ascontiguousarray(probs)

    def outcome_distribution(self, omega, j, s, shared_state=None, list_value=None):
        t = self._b1_probs(omega)
        not_t = 1.0 - t
        dist = {}
        for a in (1, -1):
            weighted = self.weights * ((1.0 + a * self.alice_responses[:, j - 1]) / 2.0)
            dist[(a, 1)] = float(np.dot(weighted, t))
            dist[(a, 0)] = float(np.dot(weighted, not_t))
        return _clean_distribution(dist)


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


#: sigma_1, sigma_2, sigma_3 as one read-only (3, 2, 2) stack.
_PAULI_STACK = np.stack([pauli(j) for j in (1, 2, 3)])
_PAULI_STACK.setflags(write=False)

#: The calibrated referee's six signal matrices (1/2)(1 + s sigma_j), in
#: ``games.SIGNALS`` order, as one read-only (6, 2, 2) stack.
_IDEAL_SIGNALS = np.stack([signal_state(j, s).matrix for (j, s) in games.SIGNALS])
_IDEAL_SIGNALS.setflags(write=False)


def _require_calibrated_ensemble(spec: games.SteeringGameSpec):
    sent = np.stack([spec.signal_ensemble[key].matrix for key in games.SIGNALS])
    if not mats_close(sent, _IDEAL_SIGNALS, 1e-10):
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
    sigma = np.trace(_PAULI_STACK @ taus, axis1=2, axis2=3).real
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
            self.estimator.povm_pair()  # validate
            if self.alice_rule not in ALICE_RULES_BA:
                raise ValueError(f"unknown alice_rule {self.alice_rule!r}")
        object.__setattr__(self, "bob_outputs_one_when", ones)

    @property
    def required_communication(self) -> str:
        return self.direction

    def _guess_distribution(self, omega: DensityOperator, j: int) -> dict:
        if self.direction == "alice_to_bob":
            # Bob knows j and measures sigma_j projectively.
            plus = (np.eye(2, dtype=np.complex128) + pauli(j)) / 2.0
        else:
            plus = self.estimator.povm_pair()[0]
        p_plus = float(np.trace(plus @ omega.matrix).real)
        return {1: p_plus, -1: 1.0 - p_plus}

    def outcome_distribution(self, omega, j, s, shared_state=None, list_value=None):
        guesses = self._guess_distribution(omega, j)
        dist = {}
        for guess, p in guesses.items():
            if self.direction == "alice_to_bob":
                a, b = 1, (1 if guess == 1 else 0)
            else:
                b = 1 if guess in self.bob_outputs_one_when else 0
                a = ALICE_RULES_BA[self.alice_rule][guess]
            dist[(a, b)] = dist.get((a, b), 0.0) + p
        return _clean_distribution(dist)


def best_estimator() -> BlochVector:
    """The optimal sign estimator m = (1,1,1)/sqrt(3), mu = 1/2."""
    return BlochVector(np.full(3, 1.0 / np.sqrt(3.0)), 0.5)
