"""Strategy families: honest pair, no-state cheats, hidden-state models,
one-way-communication cheats."""

import hashlib

import numpy as np
import pytest

from qrgames import games
from qrgames.games import (
    OUTCOMES,
    SIGNALS,
    SQRT3,
    SteeringGameSpec,
    correlation_table,
    outcome_table,
    qrs_payoff_exact,
    single_axis_ensemble,
)
from qrgames.oracle import random_lhs_strategy
from qrgames.qcore import (
    BlochVector,
    DensityOperator,
    Povm,
    amplitude_damping_channel,
    depolarizing_channel,
    mats_close,
    partial_trace,
    pauli,
    signal_state,
    singlet_projector,
    tensor,
    werner_state,
)
from qrgames.strategies import (
    ALICE_RULES_BA,
    CommCheat,
    HonestStrategy,
    LhsStrategy,
    NoStateCheat,
    _as_stack,
    _clean_distribution,
    _lhs_reductions,
    _lhs_routes,
    best_estimator,
    discrimination_stats,
    honest_strategy,
    lhs_payoff_routes,
    partial_bell_povm,
    programmed_povm,
)

from random_draws import random_density, random_povm

M_STAR = np.full(3, 1.0 / SQRT3)

#: The delivered signal stacks of the calibrated and the single-axis referee.
IDEAL_SIGNALS = SteeringGameSpec.ideal().delivered_signals()
SINGLE_AXIS_SIGNALS = SteeringGameSpec(signal_ensemble=single_axis_ensemble()).delivered_signals()


def _random_lhs(rng, dim, n_lambda):
    weights = rng.dirichlet(np.ones(n_lambda))
    states = tuple(random_density(rng, dim) for _ in range(n_lambda))
    responses = rng.uniform(-1.0, 1.0, size=(n_lambda, 3))
    return LhsStrategy(weights, states, responses, random_povm(rng, 2 * dim, 2))


def test_partial_bell_povm_structure():
    povm = partial_bell_povm()
    assert povm.n_outcomes == 2
    # b=1 is the singlet projector, b=0 the complement
    assert mats_close(povm[1], singlet_projector(), 1e-15)
    assert mats_close(povm[0], np.eye(4) - singlet_projector(), 1e-15)


def test_programmed_povm_on_calibrated_signals():
    """Tr_C[E_b (1 x omega_{j,s})] = (1/4)(1 - s sigma_j) for b=1, all six signals."""
    bell = partial_bell_povm()
    for (j, s) in SIGNALS:
        eff = programmed_povm(bell, signal_state(j, s))
        want = (np.eye(2) - s * pauli(j)) / 4.0
        assert mats_close(eff[1], want, 1e-12)
        assert mats_close(eff[0] + eff[1], np.eye(2), 1e-12)


def test_programmed_povm_depolarized_signal():
    """A fully mixed signal programs the constant measurement 1/4."""
    bell = partial_bell_povm()
    eff = programmed_povm(bell, DensityOperator(np.eye(2) / 2))
    assert mats_close(eff[1], np.eye(2) / 4.0, 1e-12)


def test_programmed_povm_dimension_check():
    bell = partial_bell_povm()
    with pytest.raises(ValueError):
        programmed_povm(bell, DensityOperator(np.eye(3) / 3))


def test_honest_strategy_components():
    h = honest_strategy()
    for j in (1, 2, 3):
        povm = h.alice_povms[j]
        # ordered (+1, -1): first element is the +sigma_j eigenprojector
        assert mats_close(povm[0], (np.eye(2) + pauli(j)) / 2.0, 1e-15)
        assert mats_close(povm[1], (np.eye(2) - pauli(j)) / 2.0, 1e-15)
    assert mats_close(h.bob_joint_povm[1], singlet_projector(), 1e-15)
    assert h.needs_shared_state
    assert h.required_communication is None


def test_honest_strategy_validation():
    good = honest_strategy()
    with pytest.raises(ValueError):
        HonestStrategy({1: good.alice_povms[1]}, good.bob_joint_povm)
    with pytest.raises(ValueError):
        HonestStrategy(good.alice_povms, Povm((np.eye(4),)))
    # shared state of the wrong dimension is rejected at evaluation time
    with pytest.raises(ValueError):
        good.outcome_distribution(IDEAL_SIGNALS, DensityOperator(np.eye(2) / 2))
    with pytest.raises(ValueError):
        good.outcome_distribution(IDEAL_SIGNALS)


def test_honest_effects_are_built_once_and_read_only(rng):
    alice = {j: random_povm(rng, 2) for j in (1, 2, 3)}
    bob = random_povm(rng, 4)
    h = HonestStrategy(alice, bob)
    assert h.joint_effects.shape == (3, 4, 8, 8)
    assert not h.joint_effects.flags.writeable
    for j in (1, 2, 3):
        for o, (a, b) in enumerate(OUTCOMES):
            ai = (1, -1).index(a)
            assert np.array_equal(h.joint_effects[j - 1, o], tensor(alice[j][ai], bob[b]))


def test_honest_distribution_is_four_separate_traces(rng):
    # the stacked matmul and trace against one trace per joint effect
    strategies = [honest_strategy()]
    for _ in range(3):
        alice = {j: random_povm(rng, 2) for j in (1, 2, 3)}
        strategies.append(HonestStrategy(alice, random_povm(rng, 4)))
    states = [werner_state(0.98), random_density(rng, 4)]
    for h in strategies:
        for state in states:
            for signals in (IDEAL_SIGNALS, SINGLE_AXIS_SIGNALS):
                got = h.outcome_distribution(signals, state)
                assert got.shape == (6, 1, 4)
                for k, (j, s) in enumerate(SIGNALS):
                    joint = np.kron(state.matrix, signals[k])
                    dist = []
                    for a, b in OUTCOMES:
                        ai = (1, -1).index(a)
                        effect = np.kron(h.alice_povms[j][ai], h.bob_joint_povm[b])
                        dist.append(float(np.trace(effect @ joint).real))
                    assert np.array_equal(got[k, 0], _clean_distribution(np.array(dist)))


def _bad_state_stacks():
    good = np.stack([werner_state(w).matrix for w in (0.2, 0.5, 0.9)])
    skew, double, negative = good.copy(), good.copy(), good.copy()
    skew[1, 0, 1] += 0.1
    double[1] *= 2.0
    # the Werner matrix at w = 1.2, Hermitian with unit trace: eigenvalue -0.05
    negative[1] = (-0.2 * np.eye(4) + 4.8 * singlet_projector()) / 4.0
    return [
        (good[0], "must be a square matrix"),
        (skew, "must be Hermitian"),
        (double, "must have unit trace, got"),
        (negative, "must be positive semidefinite"),
    ]


@pytest.mark.parametrize(("states", "message"), _bad_state_stacks())
def test_honest_tables_of_a_state_stack_validate_every_state(states, message):
    """A stack of state matrices gets every check of DensityOperator."""
    with pytest.raises(ValueError, match=message):
        honest_strategy().outcome_distribution(IDEAL_SIGNALS, states)
    with pytest.raises(ValueError, match=message):
        outcome_table(SteeringGameSpec.ideal(), honest_strategy(), states)


def test_honest_distribution_is_normalized():
    h = honest_strategy()
    table = h.outcome_distribution(IDEAL_SIGNALS, werner_state(0.7))
    assert np.all(np.abs(table.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(table >= 0.0)


def test_no_state_cheat_closed_form(rng):
    """Exact cheat payoff equals 4 mu (sum_j m_j - r sqrt(3)) on the ideal game."""
    for r in (1.0, 1.081, 1.3):
        spec = SteeringGameSpec.ideal(r=r)
        for _ in range(10):
            m = rng.uniform(-1, 1, 3)
            m = m / max(1.0, np.linalg.norm(m) + 1e-9)
            mu = rng.uniform(0.05, 1.0 / (1.0 + np.linalg.norm(m)))
            cheat = NoStateCheat(BlochVector(m, mu), "constant")
            want = 4.0 * mu * (m.sum() - r * SQRT3)
            assert abs(qrs_payoff_exact(spec, cheat) - want) < 1e-10


def test_no_state_cheat_tops_out_at_zero(ideal_spec):
    best = NoStateCheat(best_estimator(), "constant")
    assert abs(qrs_payoff_exact(ideal_spec, best)) < 1e-12
    # an uninformative estimator just pays the penalty term
    blind = NoStateCheat(BlochVector(np.zeros(3), 0.35), "constant")
    assert qrs_payoff_exact(ideal_spec, blind) == pytest.approx(
        -4 * 0.35 * SQRT3, abs=1e-12
    )


def test_no_state_cheat_list_rule(ideal_spec):
    """A balanced answer list changes nothing at mu=1/2 and hurts otherwise."""
    est = best_estimator()
    const = qrs_payoff_exact(ideal_spec, NoStateCheat(est, "constant"))
    listed = qrs_payoff_exact(ideal_spec, NoStateCheat(est, (1, -1)))
    assert abs(const - listed) < 1e-12
    small = BlochVector(M_STAR * 0.9, 0.3)
    p_const = qrs_payoff_exact(ideal_spec, NoStateCheat(small, "constant"))
    p_list = qrs_payoff_exact(ideal_spec, NoStateCheat(small, (1, -1)))
    assert p_list < p_const  # the -1 rounds turn the mismatch term against them


def test_no_state_cheat_list_plumbing():
    cheat = NoStateCheat(best_estimator(), (1, -1, -1))
    assert cheat.round_list == (1, -1, -1)
    weights = games._list_weights(cheat)
    assert weights.shape == (2,)
    assert weights[0] == pytest.approx(1 / 3)
    assert outcome_table(SteeringGameSpec.ideal(), cheat).shape == (6, 2, 4)
    table = cheat.outcome_distribution(IDEAL_SIGNALS)
    # variant 0 answers a = +1, variant 1 answers a = -1
    plus = [OUTCOMES.index(out) for out in ((1, 0), (1, 1))]
    minus = [OUTCOMES.index(out) for out in ((-1, 0), (-1, 1))]
    assert np.all(table[:, 0, minus] == 0.0) and np.all(table[:, 0, plus] > 0.0)
    assert np.all(table[:, 1, plus] == 0.0) and np.all(table[:, 1, minus] > 0.0)
    constant = NoStateCheat(best_estimator(), "constant").outcome_distribution(IDEAL_SIGNALS)
    assert np.array_equal(constant, table[:, :1])
    with pytest.raises(ValueError):
        NoStateCheat(best_estimator(), (1, 0))
    with pytest.raises(ValueError):
        NoStateCheat(best_estimator(), ())


def test_discrimination_ratio_values(ideal_spec):
    """Frozen: ratio 2 for a single-axis estimator, (sqrt(3)+1)/(sqrt(3)-1) at m*."""
    single = discrimination_stats(BlochVector(np.array([1.0, 0, 0]), 0.5), ideal_spec)
    assert single.ratio == pytest.approx(2.0, abs=1e-12)
    at_star = discrimination_stats(best_estimator(), ideal_spec)
    bound = (SQRT3 + 1) / (SQRT3 - 1)
    assert at_star.ratio == pytest.approx(bound, abs=1e-12)
    assert at_star.true_positive == pytest.approx(0.5 * (1 + 1 / SQRT3), abs=1e-12)


def test_discrimination_perfect_on_single_axis_referee():
    """Against the all-sigma_1 referee the x estimator separates signs exactly."""
    spec = SteeringGameSpec(signal_ensemble=single_axis_ensemble())
    stats = discrimination_stats(BlochVector(np.array([1.0, 0, 0]), 0.5), spec)
    assert stats.false_positive == pytest.approx(0.0, abs=1e-12)
    assert stats.ratio == np.inf


def test_lhs_strategy_validation(rng):
    good = _random_lhs(rng, 2, 3)
    with pytest.raises(ValueError):
        LhsStrategy(
            np.array([0.5, 0.6]),  # doesn't sum to 1
            good.hidden_states[:2],
            good.alice_responses[:2],
            good.bob_joint_povm,
        )
    with pytest.raises(ValueError):
        LhsStrategy(
            good.weights,
            good.hidden_states,
            np.full((3, 3), 1.5),  # biases out of range
            good.bob_joint_povm,
        )
    with pytest.raises(ValueError):
        LhsStrategy(
            good.weights,
            good.hidden_states,
            good.alice_responses,
            random_povm(rng, 6, 2),  # wrong joint dimension
        )


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_lhs_strategy_rejects_non_finite_entries(rng, value):
    good = _random_lhs(rng, 2, 3)
    weights = good.weights.copy()
    weights[0] = value
    with pytest.raises(ValueError, match="finite"):
        LhsStrategy(weights, good.hidden_states, good.alice_responses, good.bob_joint_povm)
    responses = good.alice_responses.copy()
    responses[1, 2] = value
    with pytest.raises(ValueError, match="finite"):
        LhsStrategy(good.weights, good.hidden_states, responses, good.bob_joint_povm)


@pytest.mark.parametrize(
    "make",
    [
        honest_strategy,
        lambda: NoStateCheat(best_estimator(), (1, -1)),
        lambda: random_lhs_strategy(np.random.default_rng(0), 2, 2),
        lambda: CommCheat("bob_to_alice", best_estimator()),
    ],
    ids=["honest", "no-state", "lhs", "comm"],
)
def test_strategies_declare_what_a_run_reads(make):
    strategy = make()
    for name in ("needs_shared_state", "required_communication", "round_list"):
        assert hasattr(strategy, name), name


def _lhs_with_a_dropped_lambda(rng, dim, n_lambda):
    """A random model whose last hidden variable has weight 0 (for n_lambda > 1)."""
    base = _random_lhs(rng, dim, n_lambda)
    weights = base.weights.copy()
    if n_lambda > 1:
        weights[-1] = 0.0
        weights /= weights.sum()
    return LhsStrategy(weights, base.hidden_states, base.alice_responses, base.bob_joint_povm)


@pytest.mark.parametrize("n_lambda", [1, 4, 8])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hidden_state_b1_probs_are_the_per_lambda_traces(rng, dim, n_lambda):
    strategy = _random_lhs(rng, dim, n_lambda)
    e1 = strategy.bob_joint_povm[1]
    assert strategy.state_stack.shape == (n_lambda, dim, dim)
    assert not strategy.state_stack.flags.writeable
    for signals in (IDEAL_SIGNALS, SINGLE_AXIS_SIGNALS):
        table = strategy.outcome_distribution(signals)
        assert table.shape == (6, 1, 4)
        for k, (j, s) in enumerate(SIGNALS):
            want = np.array(
                [
                    float(np.trace(e1 @ np.kron(st.matrix, signals[k])).real)
                    for st in strategy.hidden_states
                ]
            )
            # the distribution built from the per-lambda list, bit for bit
            dist = {}
            for a in (1, -1):
                p_a = (1.0 + a * strategy.alice_responses[:, j - 1]) / 2.0
                dist[(a, 1)] = float(np.dot(strategy.weights * p_a, want))
                dist[(a, 0)] = float(np.dot(strategy.weights * p_a, 1.0 - want))
            # normalised by its sum in this order, read in OUTCOMES order
            cleaned = dict(zip(dist, _clean_distribution(np.array(list(dist.values())))))
            assert np.array_equal(table[k, 0], [cleaned[out] for out in OUTCOMES])


def _reduction(strategy):
    """One model's N, kept lambda indices, kept q weights and kept tau
    matrices, from the stacked reduction of a stack of one."""
    weights, states, _, effects = _as_stack(strategy)
    normalization, kept, q, taus = _lhs_reductions(weights, states, effects)
    return float(normalization[0]), tuple(np.flatnonzero(kept[0]).tolist()), q[0, kept[0]], taus


@pytest.mark.parametrize("n_lambda", [1, 4, 8])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lhs_reduction_is_the_per_lambda_partial_trace_route(rng, ideal_spec, dim, n_lambda):
    strategy = _lhs_with_a_dropped_lambda(rng, dim, n_lambda)
    e1 = strategy.bob_joint_povm[1]
    x_ops = []
    for st in strategy.hidden_states:
        x = partial_trace(e1 @ np.kron(st.matrix, np.eye(2)), [dim, 2], 0)
        x_ops.append((x + x.conj().T) / 2.0)
    traces = np.array([float(np.trace(x).real) for x in x_ops])
    weighted = strategy.weights * traces
    kept = tuple(i for i in range(n_lambda) if weighted[i] > 1e-14)

    normalization, kept_indices, q_weights, taus = _reduction(strategy)
    assert normalization == float(weighted.sum())
    assert kept_indices == kept
    assert len(kept) == (n_lambda - 1 if n_lambda > 1 else 1)
    assert np.array_equal(q_weights, weighted[list(kept)] / normalization)
    for pos, i in enumerate(kept):
        assert np.array_equal(taus[pos], x_ops[i] / traces[i])

    # the reduced route, with one <sigma_j>_tau trace at a time
    total = 0.0
    for pos, lam in enumerate(kept):
        inner = 0.0
        for j in (1, 2, 3):
            inner += strategy.alice_responses[lam, j - 1] * DensityOperator(
                taus[pos]
            ).expectation(pauli(j))
        total += q_weights[pos] * inner
    want = 2.0 * normalization * (total - ideal_spec.r * ideal_spec.payoff_bound)
    assert lhs_payoff_routes(strategy, ideal_spec)[1] == want


def test_lhs_routes_agree_and_never_win(rng, ideal_spec):
    for t in range(25):
        strategy = _random_lhs(rng, (t % 3) + 2, (t % 4) + 1)
        direct, reduced = lhs_payoff_routes(strategy, ideal_spec)
        assert abs(direct - reduced) < 1e-10
        assert direct <= 1e-9
        assert qrs_payoff_exact(ideal_spec, strategy) == direct


def test_lhs_zero_responses_pay_only_the_penalty(rng, ideal_spec):
    """With all response biases zero the payoff is exactly -2 N sqrt(3)."""
    base = _random_lhs(rng, 3, 4)
    strategy = LhsStrategy(
        base.weights, base.hidden_states, np.zeros((4, 3)), base.bob_joint_povm
    )
    normalization = _reduction(strategy)[0]
    payoff, reduced = lhs_payoff_routes(strategy, ideal_spec)
    assert abs(payoff - reduced) <= 1e-10
    assert payoff == pytest.approx(-2.0 * normalization * SQRT3, abs=1e-12)


def test_lhs_saturates_bound_with_trivial_hidden_space(ideal_spec):
    """d_B = 1, E_1 projecting along (1,1,1)/sqrt(3), matched responses: payoff 0."""
    proj = (np.eye(2) + (pauli(1) + pauli(2) + pauli(3)) / SQRT3) / 2.0
    strategy = LhsStrategy(
        np.array([1.0]),
        (DensityOperator(np.eye(1)),),
        np.ones((1, 3)),
        Povm((np.eye(2) - proj, proj)),
    )
    direct, reduced = lhs_payoff_routes(strategy, ideal_spec)
    assert abs(direct) < 1e-12
    assert abs(reduced) < 1e-12


def test_lhs_reduction_drops_zero_trace_terms(ideal_spec):
    """A hidden state that never triggers b=1 is removed from the reduction."""
    proj_up = signal_state(3, 1).matrix  # |0><0| on C
    e1 = np.kron(np.diag([1.0, 0.0]), proj_up)  # fires only for hidden |0>
    povm = Povm((np.eye(4) - e1, e1))
    states = (
        DensityOperator(np.diag([1.0, 0.0])),
        DensityOperator(np.diag([0.0, 1.0])),  # orthogonal: Tr[X] = 0
    )
    strategy = LhsStrategy(
        np.array([0.5, 0.5]), states, np.zeros((2, 3)), povm
    )
    normalization, kept_indices, _, _ = _reduction(strategy)
    assert kept_indices == (0,)
    assert normalization == pytest.approx(0.5)
    direct, reduced = lhs_payoff_routes(strategy, ideal_spec)
    assert abs(direct - reduced) < 1e-12


def _tiny_normalization_lhs(dropped):
    """Two hidden states under E_1 = |0><0| x 1_C whose p(lambda) Tr[X_lambda]
    are 1e-13 (kept) and ``dropped``."""
    e1 = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    states = tuple(DensityOperator(np.diag([a, 1.0 - a])) for a in (1e-13, dropped))
    return LhsStrategy(
        np.array([0.5, 0.5]), states, np.zeros((2, 3)), Povm((np.eye(4) - e1, e1))
    )


def test_lhs_reduction_checks_the_reduced_weights_of_a_tiny_normalization(ideal_spec):
    """A dropped term a tenth the size of N pulls sum q off 1, which raises."""
    good = _tiny_normalization_lhs(0.0)
    normalization, kept_indices, q_weights, _ = _reduction(good)
    assert kept_indices == (0,) and q_weights.tolist() == [1.0]
    assert normalization == pytest.approx(1e-13, rel=1e-9)
    bad = _tiny_normalization_lhs(0.9e-14)
    with pytest.raises(ValueError, match="reduced weights must sum to 1"):
        _reduction(bad)
    with pytest.raises(ValueError, match="reduced weights must sum to 1"):
        lhs_payoff_routes(bad, ideal_spec)
    # the stacked routes check every model, not only the first
    stack = [np.concatenate(pair) for pair in zip(_as_stack(good), _as_stack(bad))]
    with pytest.raises(ValueError, match="reduced weights must sum to 1"):
        _lhs_routes(ideal_spec, *stack)


def test_lhs_requires_calibrated_ensemble(rng):
    spec = SteeringGameSpec(signal_ensemble=single_axis_ensemble())
    with pytest.raises(ValueError):
        lhs_payoff_routes(_random_lhs(rng, 2, 2), spec)


def test_comm_cheat_alice_to_bob_breaks_the_game():
    """Perfect sign knowledge scores 2(3 - r sqrt(3)) = 6 - 2 r sqrt(3)."""
    for r in (1.0, 1.081, 1.5):
        spec = SteeringGameSpec.ideal(r=r)
        payoff = qrs_payoff_exact(spec, CommCheat("alice_to_bob"))
        assert payoff == pytest.approx(2 * (3 - r * SQRT3), abs=1e-12)
    # positive below r = sqrt(3), negative above
    assert qrs_payoff_exact(
        SteeringGameSpec.ideal(r=1.7), CommCheat("alice_to_bob")
    ) > 0
    assert qrs_payoff_exact(
        SteeringGameSpec.ideal(r=1.75), CommCheat("alice_to_bob")
    ) < 0


def test_comm_cheat_bob_to_alice_capped_at_zero(ideal_spec):
    """No reply rule beats the trivial b = 0 strategy, which scores exactly 0."""
    silent = CommCheat("bob_to_alice", best_estimator(), bob_outputs_one_when=())
    assert qrs_payoff_exact(ideal_spec, silent) == 0.0
    follow = CommCheat("bob_to_alice", best_estimator())
    assert qrs_payoff_exact(ideal_spec, follow) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.uniform(-1, 1, 3)
        m = m / max(1.0, np.linalg.norm(m) + 1e-12)
        mu = rng.uniform(0.05, 1.0 / (1.0 + np.linalg.norm(m)))
        est = BlochVector(m, mu)
        for ones in ((), (1,), (-1,), (1, -1)):
            for rule in (
                "follow_estimate",
                "negate_estimate",
                "constant_plus",
                "constant_minus",
            ):
                cheat = CommCheat("bob_to_alice", est, ones, rule)
                assert qrs_payoff_exact(ideal_spec, cheat) <= 1e-9


def test_comm_cheat_validation():
    with pytest.raises(ValueError):
        CommCheat("sideways")
    with pytest.raises(ValueError):
        CommCheat("bob_to_alice")  # needs an estimator
    with pytest.raises(ValueError):
        CommCheat("bob_to_alice", best_estimator(), alice_rule="psychic")
    with pytest.raises(ValueError):
        CommCheat("bob_to_alice", best_estimator(), bob_outputs_one_when=(2,))
    assert CommCheat("alice_to_bob").required_communication == "alice_to_bob"


def test_comm_cheat_expectations_consistent(ideal_spec):
    cheat = CommCheat("bob_to_alice", best_estimator(), (1, -1), "negate_estimate")
    dists = cheat.outcome_distribution(ideal_spec.delivered_signals())
    table = correlation_table(ideal_spec, cheat)
    for k, (j, s) in enumerate(SIGNALS):
        dist = dists[k, 0]
        assert abs(sum(dist) - 1.0) < 1e-12
        e_ab, e_b = table.e_ab[(j, s)], table.e_b[(j, s)]
        assert abs(e_ab - sum(a * b * p for (a, b), p in zip(OUTCOMES, dist))) < 1e-12
        assert abs(e_b - sum(b * p for (a, b), p in zip(OUTCOMES, dist))) < 1e-12


_SPECS = {
    "ideal": SteeringGameSpec.ideal(),
    "single_axis": SteeringGameSpec(signal_ensemble=single_axis_ensemble()),
}


@pytest.mark.parametrize("spec_name", sorted(_SPECS))
@pytest.mark.parametrize(
    "rule", ["constant", (1,), (1, -1), (1, -1, -1), (1, -1, -1, 1, 1, -1, 1)]
)
def test_no_state_table_matches_the_list_closed_form(spec_name, rule):
    """<ab> = f p+ - (1-f)(1-p+) and <b> = f p+ + (1-f)(1-p+),
    with f the share of +1 in the answer list and p+ = Tr[M_plus omega]."""
    spec = _SPECS[spec_name]
    f = 1.0 if rule == "constant" else rule.count(1) / len(rule)
    estimators = (
        best_estimator(),
        BlochVector(np.array([1.0, 0, 0]), 0.5),
        BlochVector(M_STAR * 0.9, 0.3),
        BlochVector(np.array([0.2, -0.5, 0.4]), 0.55),
    )
    for est in estimators:
        table = correlation_table(spec, NoStateCheat(est, rule))
        m_plus = est.povm_pair()[0]
        for sig in SIGNALS:
            p = float(np.trace(m_plus @ spec.signal_ensemble[sig].matrix).real)
            assert abs(table.e_ab[sig] - (f * p - (1 - f) * (1 - p))) < 1e-12
            assert abs(table.e_b[sig] - (f * p + (1 - f) * (1 - p))) < 1e-12


@pytest.mark.parametrize("spec_name", sorted(_SPECS))
def test_hidden_state_table_matches_the_closed_form(spec_name):
    """<ab>_j = sum_l p_l a_lj t_l and <b> = sum_l p_l t_l,
    with t_l = Tr[E_1 (rho_l x omega)]."""
    spec = _SPECS[spec_name]
    for t in range(12):
        strategy = random_lhs_strategy(np.random.default_rng([5, t]), t % 3 + 2, t % 4 + 1)
        table = correlation_table(spec, strategy)
        e1 = strategy.bob_joint_povm[1]
        for (j, s) in SIGNALS:
            omega = spec.signal_ensemble[(j, s)].matrix
            t_lam = np.array(
                [np.trace(e1 @ np.kron(st.matrix, omega)).real for st in strategy.hidden_states]
            )
            e_b = strategy.weights @ t_lam
            e_ab = (strategy.weights * strategy.alice_responses[:, j - 1]) @ t_lam
            assert abs(table.e_ab[(j, s)] - e_ab) < 1e-12
            assert abs(table.e_b[(j, s)] - e_b) < 1e-12


def test_best_estimator_is_the_diagonal_direction():
    b = best_estimator()
    assert np.allclose(b.m, M_STAR, atol=1e-15)
    assert b.mu == pytest.approx(0.5)
    b.povm_pair()  # valid POVM


#: One case per bob-to-alice reply rule: the guesses on which Bob replies b = 1.
_BOB_RULES = ((), (1,), (-1,), (1, -1))

_ESTIMATORS = (
    best_estimator(),
    BlochVector(np.array([1.0, 0, 0]), 0.5),
    BlochVector(M_STAR * 0.9, 0.3),
    BlochVector(np.array([0.2, -0.5, 0.4]), 0.55),
)


@pytest.mark.parametrize("spec_name", sorted(_SPECS))
def test_comm_cheat_table_matches_the_closed_form(spec_name):
    """Bob guesses +1 with p = mu (1 + s m_axis), axis the signal's axis;
    with a(g) and b(g) the answers to guess g, <ab> = p a(+) b(+) +
    (1 - p) a(-) b(-) and <b> = p b(+) + (1 - p) b(-)."""
    spec = _SPECS[spec_name]
    # alice_to_bob: Bob measures sigma_j, the estimator m = e_j, mu = 1/2
    cases = [(CommCheat("alice_to_bob"), None, {1: 1, -1: 1}, {1: 1, -1: 0})]
    for est in _ESTIMATORS:
        for ones in _BOB_RULES:
            for rule, answers in ALICE_RULES_BA.items():
                replies = {g: int(g in ones) for g in (1, -1)}
                cases.append((CommCheat("bob_to_alice", est, ones, rule), est, answers, replies))
    for cheat, est, answers, replies in cases:
        table = correlation_table(spec, cheat)
        for (j, s) in SIGNALS:
            axis = 1 if spec_name == "single_axis" else j
            if est is None:
                p = 0.5 * (1 + s * (axis == j))
            else:
                p = est.mu * (1 + s * est.m[axis - 1])
            e_ab = p * answers[1] * replies[1] + (1 - p) * answers[-1] * replies[-1]
            e_b = p * replies[1] + (1 - p) * replies[-1]
            assert abs(table.e_ab[(j, s)] - e_ab) < 1e-12
            assert abs(table.e_b[(j, s)] - e_b) < 1e-12


_IDEAL = SteeringGameSpec.ideal()

#: The specs and channels the outcome tables are pinned under.
_TABLE_GAMES = {
    "ideal": (_IDEAL, None),
    "single_axis": (SteeringGameSpec(signal_ensemble=single_axis_ensemble(), r=1.3), None),
    "depolarizing": (_IDEAL, depolarizing_channel(0.3)),
    "amplitude_damping": (_IDEAL, amplitude_damping_channel(0.4)),
}

#: sha256 over the bytes of every table of _pinned_table_cases, in order,
#: as computed when each strategy still returned one dict per condition.
_PINNED_TABLES = {
    "amplitude_damping": "4a899dddcd5486786ef12226c149eb4f022cb79c8edf63700c2db123971ee285",
    "depolarizing": "505a169af50d9b30149b7c30683778acde59dfc740bb08cb97b7e721cc961537",
    "ideal": "ae6b3d1a5c391f26307328a28400b36cce3c166693c156024c636491680edbb4",
    "single_axis": "540267a46b784b63724b76ab98b4284e26ff2bb5ad735ae53bbb0105548e6765",
}


def _pinned_table_cases():
    """(strategy, shared state) pairs covering all four strategy classes."""
    cases = [(honest_strategy(), werner_state(w)) for w in (0.98, 0.6)]
    for rule in ("constant", (1, -1, -1, 1, 1, -1, 1), (-1,)):
        cases.append((NoStateCheat(best_estimator(), rule), None))
    est = _ESTIMATORS[-1]
    for ones in _BOB_RULES:
        for rule in ALICE_RULES_BA:
            cases.append((CommCheat("bob_to_alice", est, ones, rule), None))
    cases.append((CommCheat("alice_to_bob"), None))
    for t in range(9):
        rng = np.random.default_rng([11, t])
        cases.append((random_lhs_strategy(rng, t % 3 + 2, (1, 4, 8)[t // 3]), None))
    return cases


@pytest.mark.parametrize("game", sorted(_TABLE_GAMES))
def test_outcome_tables_are_pinned(game):
    spec, channel = _TABLE_GAMES[game]
    digest = hashlib.sha256()
    for strategy, state in _pinned_table_cases():
        digest.update(outcome_table(spec, strategy, state, channel).tobytes())
    assert digest.hexdigest() == _PINNED_TABLES[game]
