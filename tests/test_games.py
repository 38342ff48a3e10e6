"""Game definition, correlation functionals, and exact payoff evaluation."""

import math

import numpy as np
import pytest

from qrgames import games
from qrgames.games import (
    OUTCOMES,
    SIGNALS,
    SQRT2,
    SQRT3,
    SteeringGameSpec,
    _payoffs,
    chsh_value,
    ideal_signal_ensemble,
    outcome_table,
    qrs_payoff_exact,
    single_axis_ensemble,
    steering2_value,
    steering3_value,
)
from qrgames.qcore import (
    DensityOperator,
    QuantumChannel,
    mats_close,
    pauli,
    signal_state,
    tensor,
    werner_state,
)
from qrgames.oracle import _extremal_lhs_strategy
from qrgames.strategies import ClassicalCheat, best_estimator, honest_strategy

from random_draws import random_density
from reference_payoff import expectation_dicts, round_payoff
from reference_states import chsh, expectation, witness2


def test_signal_ordering_is_canonical():
    assert SIGNALS == ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))


def test_ideal_ensemble_is_calibrated():
    """sum_s s * omega_{j,s} = sigma_j for each axis."""
    ens = ideal_signal_ensemble()
    for j in (1, 2, 3):
        diff = ens[(j, 1)].matrix - ens[(j, -1)].matrix
        assert mats_close(diff, pauli(j), 1e-15)
    assert set(ens) == set(SIGNALS)


def test_single_axis_ensemble_ignores_setting():
    ens = single_axis_ensemble()
    for j in (1, 2, 3):
        assert mats_close(ens[(j, 1)].matrix, signal_state(1, 1).matrix, 1e-15)
        assert mats_close(ens[(j, -1)].matrix, signal_state(1, -1).matrix, 1e-15)


def test_spec_validation():
    SteeringGameSpec.ideal(r=1.0)
    SteeringGameSpec.ideal(r=2.5)
    with pytest.raises(ValueError):
        SteeringGameSpec.ideal(r=0.99)
    with pytest.raises(ValueError):
        SteeringGameSpec.ideal(payoff_bound=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SteeringGameSpec.ideal(r=bad)
        with pytest.raises(ValueError):
            SteeringGameSpec.ideal(payoff_bound=bad)
    ens = ideal_signal_ensemble()
    del ens[(3, -1)]
    with pytest.raises(ValueError):
        SteeringGameSpec(signal_ensemble=ens)


def test_penalty_coefficient():
    assert abs(SteeringGameSpec.ideal().penalty_coefficient - 1 / SQRT3) < 1e-15
    spec = SteeringGameSpec.ideal(r=1.081)
    assert abs(spec.penalty_coefficient - 1.081 / SQRT3) < 1e-15
    low = SteeringGameSpec.ideal(payoff_bound=1.5)
    assert abs(low.penalty_coefficient - 0.5) < 1e-15


def test_delivered_signal_applies_channel():
    from qrgames.qcore import depolarizing_channel

    spec = SteeringGameSpec.ideal()
    stack = spec.delivered_signals
    assert stack.shape == (6, 2, 2)
    for k, (j, s) in enumerate(SIGNALS):
        assert np.array_equal(stack[k], signal_state(j, s).matrix)
    noisy = SteeringGameSpec(channel=depolarizing_channel(1.0)).delivered_signals
    assert mats_close(noisy, np.broadcast_to(np.eye(2) / 2, (6, 2, 2)), 1e-12)
    sloppy = SteeringGameSpec(signal_ensemble=single_axis_ensemble())
    omega = sloppy.delivered_signals[SIGNALS.index((3, 1))]
    assert mats_close(omega, signal_state(1, 1).matrix, 1e-15)


def test_delivered_signals_are_read_only():
    from qrgames.qcore import depolarizing_channel

    for spec in (SteeringGameSpec(), SteeringGameSpec(channel=depolarizing_channel(0.3))):
        with pytest.raises(ValueError, match="read-only"):
            spec.delivered_signals[0, 0, 0] = 0.0
        with pytest.raises(AttributeError):
            spec.delivered_signals = np.zeros((6, 2, 2))


def test_the_calibrated_signal_states_are_built_once():
    ideal, sloppy = ideal_signal_ensemble(), single_axis_ensemble()
    for j, s in SIGNALS:
        assert ideal[(j, s)] is ideal_signal_ensemble()[(j, s)]
        assert sloppy[(j, s)] is ideal[(1, s)]
        assert np.array_equal(ideal[(j, s)].matrix, signal_state(j, s).matrix)
    ideal.clear()  # each call returns its own dict
    assert len(ideal_signal_ensemble()) == 6


@pytest.mark.parametrize(
    "channel",
    [
        "depolarizing",
        # the identity on a qutrit, and an isometry from a qubit into a qutrit
        QuantumChannel((np.eye(3),)),
        QuantumChannel((np.eye(3, 2),)),
    ],
    ids=["not-a-channel", "qutrit", "qubit-to-qutrit"],
)
def test_a_channel_off_the_qubit_line_is_refused_when_the_spec_is_built(channel):
    with pytest.raises(ValueError, match="signal channel must"):
        SteeringGameSpec(channel=channel)


@pytest.mark.parametrize(
    "e_ab, e_b, message",
    [
        ([0.7] + [0.3] * 5, [0.5] * 6, "|<ab>| exceeds <b> for (1, 1): 0.7 vs 0.5"),
        ([0.3] * 6, [1.2] * 6, "<b> for (1, 1) outside [0, 1]: 1.2"),
        ([[0.3] * 6, [0.3] * 5 + [0.0]], [[0.5] * 6, [0.5] * 5 + [-0.2]],
         "<b> for (3, -1) outside [0, 1]: -0.2"),
    ],
    ids=["ab-exceeds-b", "b-above-one", "second-item"],
)
def test_check_correlations_refuses_bad_expectations(e_ab, e_b, message):
    games._check_correlations(np.full(6, 0.3), np.full(6, 0.5))
    with pytest.raises(ValueError) as err:
        games._check_correlations(np.array(e_ab), np.array(e_b))
    assert str(err.value) == message


def test_exact_payoff_checks_each_expectation_once(monkeypatch):
    calls = []
    check = games._check_correlations

    def counted(e_ab, e_b):
        calls.append(e_ab.shape)
        check(e_ab, e_b)

    monkeypatch.setattr(games, "_check_correlations", counted)
    qrs_payoff_exact(SteeringGameSpec.ideal(), honest_strategy(), werner_state(0.9))
    assert calls == [(6,)]


def test_payoff_functional_definition(rng):
    """payoff = 2 sum_js (s <ab> - (r/sqrt(3)) <b>), recomputed by hand."""
    for r in (1.0, 1.081, 1.4):
        spec = SteeringGameSpec.ideal(r=r)
        e_b = {sig: rng.uniform(0.0, 1.0) for sig in SIGNALS}
        e_ab = {sig: rng.uniform(-e_b[sig], e_b[sig]) for sig in SIGNALS}
        payoff = _payoffs(
            np.array([e_ab[sig] for sig in SIGNALS]),
            np.array([e_b[sig] for sig in SIGNALS]),
            spec.penalty_coefficient,
        )
        by_hand = 2.0 * sum(
            s * e_ab[(j, s)] - (r / SQRT3) * e_b[(j, s)] for (j, s) in SIGNALS
        )
        assert abs(payoff - by_hand) < 1e-12


@pytest.mark.parametrize("w", [0.0, 0.3, 1 / SQRT3, 0.698, 0.9, 1.0])
@pytest.mark.parametrize("r", [1.0, 1.081])
def test_honest_payoff_closed_form(w, r):
    """Honest partial-Bell strategy on a Werner state scores 3W - r sqrt(3)."""
    spec = SteeringGameSpec.ideal(r=r)
    payoff = qrs_payoff_exact(spec, honest_strategy(), werner_state(w))
    assert abs(payoff - (3 * w - r * SQRT3)) < 1e-10


def test_honest_conditional_expectations():
    """Frozen honest values: <ab>_{j,s} = s W / 4 and <b>_{j,s} = 1/4."""
    spec = SteeringGameSpec.ideal()
    w = 0.85
    e_ab, e_b = expectation_dicts(spec, honest_strategy(), werner_state(w))
    for (j, s) in SIGNALS:
        assert abs(e_ab[(j, s)] - s * w / 4.0) < 1e-12
        assert abs(e_b[(j, s)] - 0.25) < 1e-12


def test_honest_payoff_decreases_with_r():
    state = werner_state(0.9)
    payoffs = [
        qrs_payoff_exact(SteeringGameSpec.ideal(r=r), honest_strategy(), state)
        for r in (1.0, 1.1, 1.3, 1.7)
    ]
    assert all(p1 > p2 for p1, p2 in zip(payoffs, payoffs[1:]))


def test_chsh_value_definition():
    assert abs(chsh_value(1, 1, 1, -1) - 4.0) < 1e-15  # algebraic max of the form
    assert abs(chsh_value(0.5, 0.5, 0.5, 0.5) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        chsh_value(1.5, 0, 0, 0)


def test_chsh_canonical_settings_on_werner():
    """At the canonical settings the Werner CHSH value is 2 sqrt(2) W."""
    for w in (0.0, 0.5, 1 / SQRT2, 0.9, 1.0):
        val = chsh(werner_state(w))
        assert abs(val - 2 * SQRT2 * w) < 1e-10


def test_chsh_product_states_stay_classical(rng):
    """Product states never exceed 2 at the canonical settings."""
    for _ in range(20):
        rho = DensityOperator(
            tensor(random_density(rng, 2).matrix, random_density(rng, 2).matrix)
        )
        assert chsh(rho) <= 2.0 + 1e-9


def test_witness2_on_werner_states():
    for w in (0.0, 0.5, 0.75, 1.0):
        assert abs(witness2(werner_state(w)) - 2 * w) < 1e-12


def test_witness2_product_state_bound(rng):
    """Separable product states satisfy the witness bound <= 1."""
    for _ in range(25):
        rho = DensityOperator(
            tensor(random_density(rng, 2).matrix, random_density(rng, 2).matrix)
        )
        assert witness2(rho) <= 1.0 + 1e-9


def test_steering_values_on_werner():
    """With Alice measuring -sigma_j the Werner correlations are c_j = +W."""
    w = 0.8
    state = werner_state(w)
    c = [expectation(state, tensor(-pauli(j), pauli(j))) for j in (1, 2, 3)]
    assert all(abs(cj - w) < 1e-12 for cj in c)
    assert abs(steering2_value(c[0], c[1]) - 2 * w) < 1e-12
    assert abs(steering3_value(*c) - 3 * w) < 1e-12
    # steering3 keeps its sign; anti-correlated responses push it negative
    assert steering3_value(-0.5, -0.5, -0.5) == pytest.approx(-1.5)
    with pytest.raises(ValueError):
        steering2_value(1.2, 0.0)


@pytest.mark.parametrize(
    "evaluate", [outcome_table, qrs_payoff_exact], ids=["outcome_table", "qrs_payoff_exact"],
)
@pytest.mark.parametrize(
    "make", [lambda: ClassicalCheat(best_estimator()), lambda: _extremal_lhs_strategy((1, 1, 1))],
    ids=["cheat", "lhs-probe"],
)
def test_a_strategy_without_a_shared_state_refuses_one(evaluate, make):
    with pytest.raises(ValueError, match="^this strategy takes no shared state$"):
        evaluate(SteeringGameSpec.ideal(), make(), werner_state(0.9))


def test_per_round_payoff_support():
    """Support is {0, 12(1 - r/sqrt(3)), -12(1 + r/sqrt(3))}, the engine's
    per-round formula equal to the written-out one."""
    for r in (1.0, 1.081):
        win = 12 * (1 - r / SQRT3)
        lose = -12 * (1 + r / SQRT3)
        c = SteeringGameSpec.ideal(r=r).penalty_coefficient
        for (a, b, s), want in [
            ((1, 1, 1), win), ((-1, 1, -1), win), ((-1, 1, 1), lose), ((1, 0, 1), 0.0),
        ]:
            assert round_payoff(a, b, s, r=r) == pytest.approx(want, abs=1e-12)
            assert games._round_payoffs(s, a, b, c) == round_payoff(a, b, s, r=r)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"r": 0.5}, "preparation-quality parameter r must be finite and >= 1, got 0.5"),
        ({"r": math.nan}, "preparation-quality parameter r must be finite and >= 1, got nan"),
        ({"r": math.inf}, "preparation-quality parameter r must be finite and >= 1, got inf"),
        ({"payoff_bound": 0}, "payoff bound must be finite and positive, got 0.0"),
        ({"payoff_bound": -1}, "payoff bound must be finite and positive, got -1.0"),
    ],
)
def test_spec_refuses_invalid_game_parameters(params, message):
    with pytest.raises(ValueError) as spec:
        SteeringGameSpec.ideal(**params)
    assert str(spec.value) == message


def test_per_round_expectation_matches_aggregate():
    """Averaging per-round payoffs over the exact outcome distribution
    reproduces the aggregate payoff (uniform sampling)."""
    spec = SteeringGameSpec.ideal(r=1.081)
    strategy = honest_strategy()
    state = werner_state(0.9)
    table = strategy.outcome_distribution(spec.delivered_signals, state)
    assert table.shape == (6, 1, 4)
    total = 0.0
    for k, (j, s) in enumerate(SIGNALS):
        for (a, b), p in zip(OUTCOMES, table[k, 0]):
            total += (1.0 / 6.0) * p * round_payoff(a, b, s, r=1.081)
    exact = qrs_payoff_exact(spec, strategy, state)
    assert abs(total - exact) < 1e-10
