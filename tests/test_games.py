"""Game definition, correlation functionals, and exact payoff evaluation."""

import math

import numpy as np
import pytest

from qrgames.games import (
    OUTCOMES,
    SIGNALS,
    SQRT2,
    SQRT3,
    CorrelationTable,
    SteeringGameSpec,
    canonical_chsh_settings,
    chsh_from_state,
    chsh_value,
    classical_witness_payoff,
    correlation_table,
    correlator,
    ideal_signal_ensemble,
    per_round_payoff,
    qrs_payoff_exact,
    single_axis_ensemble,
    steering2_value,
    steering3_value,
    uniform_input_distribution,
    witness2_value,
)
from qrgames.qcore import (
    DensityOperator,
    mats_close,
    pauli,
    signal_state,
    tensor,
    werner_state,
)
from qrgames.strategies import honest_strategy

from random_draws import random_density


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
    bad_dist = uniform_input_distribution()
    bad_dist[(1, 1)] = 0.5  # sum != 1
    with pytest.raises(ValueError):
        SteeringGameSpec(input_distribution=bad_dist)
    nan_dist = uniform_input_distribution()
    nan_dist[(2, -1)] = math.nan
    with pytest.raises(ValueError, match="nonnegative"):
        SteeringGameSpec(input_distribution=nan_dist)
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
    stack = spec.delivered_signals()
    assert stack.shape == (6, 2, 2)
    for k, (j, s) in enumerate(SIGNALS):
        assert np.array_equal(stack[k], signal_state(j, s).matrix)
    noisy = spec.delivered_signals(depolarizing_channel(1.0))
    assert mats_close(noisy, np.broadcast_to(np.eye(2) / 2, (6, 2, 2)), 1e-12)
    sloppy = SteeringGameSpec(signal_ensemble=single_axis_ensemble())
    omega = sloppy.delivered_signals()[SIGNALS.index((3, 1))]
    assert mats_close(omega, signal_state(1, 1).matrix, 1e-15)


def test_correlation_table_validation():
    e_b = {sig: 0.5 for sig in SIGNALS}
    e_ab = {sig: 0.3 for sig in SIGNALS}
    CorrelationTable(e_ab, e_b)
    bad = dict(e_ab)
    bad[(1, 1)] = 0.7  # |<ab>| > <b>
    with pytest.raises(ValueError):
        CorrelationTable(bad, e_b)
    with pytest.raises(ValueError):
        CorrelationTable(e_ab, {sig: 1.2 for sig in SIGNALS})
    with pytest.raises(ValueError):
        CorrelationTable({(1, 1): 0.0}, e_b)


def test_payoff_functional_definition(rng):
    """payoff = 2 sum_js (s <ab> - (r/sqrt(3)) <b>), recomputed by hand."""
    for r in (1.0, 1.081, 1.4):
        spec = SteeringGameSpec.ideal(r=r)
        e_b = {sig: rng.uniform(0.0, 1.0) for sig in SIGNALS}
        e_ab = {sig: rng.uniform(-e_b[sig], e_b[sig]) for sig in SIGNALS}
        table = CorrelationTable(e_ab, e_b)
        by_hand = 2.0 * sum(
            s * e_ab[(j, s)] - (r / SQRT3) * e_b[(j, s)] for (j, s) in SIGNALS
        )
        assert abs(table.payoff(spec) - by_hand) < 1e-12


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
    table = correlation_table(spec, honest_strategy(), werner_state(w))
    for (j, s) in SIGNALS:
        assert abs(table.e_ab[(j, s)] - s * w / 4.0) < 1e-12
        assert abs(table.e_b[(j, s)] - 0.25) < 1e-12


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
        val = chsh_from_state(werner_state(w))
        assert abs(val - 2 * SQRT2 * w) < 1e-10


def test_chsh_product_states_stay_classical(rng):
    """Product states never exceed 2 at the canonical settings."""
    for _ in range(20):
        rho = DensityOperator(
            tensor(random_density(rng, 2).matrix, random_density(rng, 2).matrix)
        )
        assert chsh_from_state(rho) <= 2.0 + 1e-9


def test_chsh_custom_settings():
    """With aligned +sigma_3 on both sides the combination reduces to
    e11 + e12 + e21 - e22 = <33> + <33> + <33> - <33> = 2<33>."""
    state = werner_state(1.0)
    settings = (pauli(3), pauli(3), pauli(3), pauli(3))
    val = chsh_from_state(state, settings)
    assert abs(val - 2.0) < 1e-12  # |2 * (-1)| on the singlet


def test_witness2_on_werner_states():
    for w in (0.0, 0.5, 0.75, 1.0):
        assert abs(witness2_value(werner_state(w)) - 2 * w) < 1e-12
    with pytest.raises(ValueError):
        witness2_value(DensityOperator(np.eye(2) / 2))


def test_witness2_product_state_bound(rng):
    """Separable product states satisfy the witness bound <= 1."""
    for _ in range(25):
        rho = DensityOperator(
            tensor(random_density(rng, 2).matrix, random_density(rng, 2).matrix)
        )
        assert witness2_value(rho) <= 1.0 + 1e-9


def test_steering_values_on_werner():
    """With Alice measuring -sigma_j the Werner correlations are c_j = +W."""
    w = 0.8
    state = werner_state(w)
    c = [correlator(state, -pauli(j), pauli(j)) for j in (1, 2, 3)]
    assert all(abs(cj - w) < 1e-12 for cj in c)
    assert abs(steering2_value(c[0], c[1]) - 2 * w) < 1e-12
    assert abs(steering3_value(*c) - 3 * w) < 1e-12
    # steering3 keeps its sign; anti-correlated responses push it negative
    assert steering3_value(-0.5, -0.5, -0.5) == pytest.approx(-1.5)
    with pytest.raises(ValueError):
        steering2_value(1.2, 0.0)


def test_classical_witness_payoff():
    assert classical_witness_payoff(1.0, 1.0) == pytest.approx(1.0)
    assert classical_witness_payoff(-1.0, -1.0) == pytest.approx(1.0)
    assert classical_witness_payoff(0.3, -0.8) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        classical_witness_payoff(1.1, 0.0)


def test_correlation_table_rejects_missing_shared_state():
    spec = SteeringGameSpec.ideal()
    with pytest.raises(ValueError):
        correlation_table(spec, honest_strategy(), None)


def test_per_round_payoff_support():
    """Support is {0, 12(1 - r/sqrt(3)), -12(1 + r/sqrt(3))}."""
    for r in (1.0, 1.081):
        win = 12 * (1 - r / SQRT3)
        lose = -12 * (1 + r / SQRT3)
        assert per_round_payoff(1, 1, 2, 1, r=r) == pytest.approx(win, abs=1e-12)
        assert per_round_payoff(-1, 1, 2, -1, r=r) == pytest.approx(win, abs=1e-12)
        assert per_round_payoff(-1, 1, 2, 1, r=r) == pytest.approx(lose, abs=1e-12)
        assert per_round_payoff(1, 0, 2, 1, r=r) == 0.0
    assert per_round_payoff(1, 1, 1, 1) == pytest.approx(12 * (1 - 1 / SQRT3))
    assert per_round_payoff(-1, 1, 1, 1) == pytest.approx(-12 * (1 + 1 / SQRT3))


def test_per_round_payoff_label_validation():
    with pytest.raises(ValueError):
        per_round_payoff(0, 1, 1, 1)
    with pytest.raises(ValueError):
        per_round_payoff(1, 2, 1, 1)
    with pytest.raises(ValueError):
        per_round_payoff(1, 1, 4, 1)
    with pytest.raises(ValueError):
        per_round_payoff(1, 1, 1, 0)


def test_per_round_expectation_matches_aggregate():
    """Averaging per-round payoffs over the exact outcome distribution
    reproduces the aggregate payoff (uniform sampling)."""
    spec = SteeringGameSpec.ideal(r=1.081)
    strategy = honest_strategy()
    state = werner_state(0.9)
    table = strategy.outcome_distribution(spec.delivered_signals(), state)
    assert table.shape == (6, 1, 4)
    total = 0.0
    for k, (j, s) in enumerate(SIGNALS):
        for (a, b), p in zip(OUTCOMES, table[k, 0]):
            total += (1.0 / 6.0) * p * per_round_payoff(a, b, j, s, r=1.081)
    exact = qrs_payoff_exact(spec, strategy, state)
    assert abs(total - exact) < 1e-10
