"""Verification oracles: the cheat certificates and the grid searches that
cross-check them, the randomized hidden-state suite, and the Werner
threshold scan."""

import contextlib
import hashlib
import io
import json
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrgames import oracle
from qrgames.games import (
    OUTCOMES,
    SIGNALS,
    SQRT2,
    SQRT3,
    _CANONICAL_CHSH_OPERATORS,
    SteeringGameSpec,
    _payoff_operators,
    canonical_chsh_settings,
    ideal_signal_ensemble,
    single_axis_ensemble,
    steering2_value,
    steering3_value,
)
from qrgames.oracle import (
    _LHS_DIMS,
    _LHS_LAMBDA_SIZES,
    _SCAN_OPERATORS,
    SCAN_FIELDS,
    cheat_certificates,
    random_lhs_suite,
    threshold_scan,
    werner_columns,
)
from qrgames.cli import _grid, main
from qrgames.games import qrs_payoff_exact
from qrgames.qcore import (
    BlochVector,
    DensityOperator,
    _SIGMA_PAIRS,
    Povm,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    pauli,
    tensor,
    werner_state,
)
from qrgames.strategies import (
    ClassicalCheat,
    HonestStrategy,
    _lhs_routes,
    best_estimator,
    honest_strategy,
)
from qrgames.serialize import strategy_from_json, strategy_to_json

from cheat_grids import (
    _BA_BOB_RULES,
    fibonacci_sphere,
    grid_max_cheat,
    grid_max_comm_ba,
)
from random_draws import random_lhs_strategy, random_povm, random_signal_ensemble
from reference_cheats import ALICE_RULES
from reference_payoff import expectation_dicts
from reference_scan import csv_writer_sweep, dict_crossings, dict_rows
from reference_states import chsh, expectation, witness2

RATIO_BOUND = (SQRT3 + 1) / (SQRT3 - 1)


def test_fibonacci_sphere_basics():
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # near-uniform: the mean direction of a symmetric-ish lattice is tiny
    assert np.linalg.norm(pts.mean(axis=0)) < 0.05
    assert fibonacci_sphere(1).shape == (1, 3)
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_grid_searches_reject_coarse_resolutions(ideal_spec):
    with pytest.raises(ValueError):
        grid_max_cheat(ideal_spec, 5)
    with pytest.raises(ValueError):
        grid_max_comm_ba(ideal_spec, 9)


def test_grid_cheat_never_wins_the_ideal_game(ideal_spec):
    result = grid_max_cheat(ideal_spec, 30)
    assert result.max_payoff <= 1e-9
    assert result.n_points == 2 * 30 ** 3
    assert result.grid_cell_size > 0
    # the best grid point sits within one cell of the diagonal optimum
    gap = np.linalg.norm(result.argmax.m - best_estimator().m)
    assert gap <= result.grid_cell_size
    assert result.max_ratio <= RATIO_BOUND + 1e-10


def test_grid_cheat_max_decreases_with_r():
    lo = grid_max_cheat(SteeringGameSpec.ideal(r=1.0), 15)
    hi = grid_max_cheat(SteeringGameSpec.ideal(r=1.3), 15)
    assert hi.max_payoff < lo.max_payoff <= 1e-9


def test_grid_cheat_exposes_single_axis_referee():
    """If every signal lives on one axis, the grid finds a winning estimator."""
    spec = SteeringGameSpec(signal_ensemble=single_axis_ensemble())
    result = grid_max_cheat(spec, 25)
    assert result.max_payoff > 2.4  # approaches 2(3 - sqrt(3)) ~ 2.536
    assert result.max_payoff <= 2 * (3 - SQRT3) + 1e-9
    assert abs(result.argmax.m[0]) > 0.95
    assert result.max_ratio > RATIO_BOUND  # sign discrimination blows up too


def test_grid_comm_ba_never_wins(ideal_spec):
    result = grid_max_comm_ba(ideal_spec, 20)
    assert result.max_payoff <= 1e-9
    assert result.max_payoff >= 0.0  # staying silent scores exactly zero
    assert result.alice_rule in {
        "follow_estimate", "negate_estimate", "constant_plus", "constant_minus",
    }
    assert set(result.bob_rule) <= {1, -1}
    assert result.n_points == 2 * 20 ** 3


@pytest.mark.parametrize(
    "spec, no_state, max_ratio, comm_ba, bob_rule, alice_rule",
    [
        (SteeringGameSpec.ideal(), -0.0003041507210787165, 3.7207269114482466,
         0.0, (), "follow_estimate"),
        (SteeringGameSpec.ideal(payoff_bound=1.5), 0.45801860071618017, 3.7207269114482466,
         0.9160372014323599, (1, -1), "follow_estimate"),
        (SteeringGameSpec(signal_ensemble=single_axis_ensemble()), 2.5262322832844695,
         1240.451882482798, 5.0637780617921795, (1, -1), "negate_estimate"),
    ],
    ids=["ideal", "low-bound", "single-axis"],
)
def test_grid_searches_are_pinned(spec, no_state, max_ratio, comm_ba, bob_rule, alice_rule):
    """Both grids at resolution 20, bit for bit as first measured."""
    grid = grid_max_cheat(spec, 20)
    assert (grid.max_payoff, grid.max_ratio) == (no_state, max_ratio)
    ba = grid_max_comm_ba(spec, 20)
    assert (ba.max_payoff, ba.bob_rule, ba.alice_rule) == (comm_ba, bob_rule, alice_rule)
    if comm_ba == 0.0:  # staying silent: the smallest admissible mu on the grid
        assert ba.argmax.mu == 0.047619047619047616


_CERT_SPECS = {
    "ideal": SteeringGameSpec.ideal(),
    "r-1.081": SteeringGameSpec.ideal(r=1.081),
    "bound-1.5": SteeringGameSpec.ideal(payoff_bound=1.5),
    "single-axis": SteeringGameSpec(signal_ensemble=single_axis_ensemble()),
}


def _cheat_bound(cert):
    """4 max(lambda*, 0), the bound on every cheat without a quantum state."""
    return 4 * max(cert.lambda_max, 0.0)


@pytest.mark.parametrize(
    "name, no_state, bob_to_alice",
    [
        ("ideal", 0.0, 0.0),
        ("r-1.081", 0.0, 0.0),
        ("bound-1.5", 2 * SQRT3 - 3, 4 * SQRT3 - 6),
        ("single-axis", 6 - 2 * SQRT3, 12 - 4 * SQRT3),
    ],
)
def test_cheat_certificates_match_their_closed_forms(name, no_state, bob_to_alice):
    cert = cheat_certificates(_CERT_SPECS[name])
    assert abs(cert.no_state - no_state) <= 1e-12
    # the Bob-to-Alice cheats of these games reach the bound
    assert abs(_cheat_bound(cert) - bob_to_alice) <= 1e-12
    if no_state > 0.0:
        # alpha = (-1, -1, -1) ties with (1, 1, 1); the first wins
        assert cert.alpha == (1, 1, 1)


def _referees_for_the_no_state_certificate():
    """Random referees, the single-axis referee, each channel on the line,
    and the ideal referee at payoff bounds from 1e-300 to 1e300."""
    rng = np.random.default_rng(38)
    for _ in range(200):
        bound = float(10.0 ** rng.uniform(-3.0, 3.0))
        yield SteeringGameSpec(signal_ensemble=random_signal_ensemble(rng), payoff_bound=bound)
    bounds = [SQRT3, 1.5, 0.01, 1e-300, 1e300]
    for bound in bounds:
        yield SteeringGameSpec(signal_ensemble=single_axis_ensemble(), payoff_bound=bound)
    for channel in (
        identity_channel(),
        *(depolarizing_channel(p) for p in (0.0, 0.3, 1.0)),
        *(amplitude_damping_channel(g) for g in (0.0, 0.4, 1.0)),
    ):
        for bound in bounds:
            yield SteeringGameSpec(channel=channel, payoff_bound=bound)
    for k in range(-300, 301):
        yield SteeringGameSpec.ideal(payoff_bound=10.0 ** k)


def test_no_state_certificate_reads_the_top_eigenvalue():
    """Tr Z(alpha) = -6c < 0 leaves Z(alpha) at most one positive eigenvalue,
    so 2 max(lambda_max(Z), 0) is bit for bit 2 Tr[Z(alpha)_+] summed over
    both eigenvalues, with the same maximiser alpha."""
    for spec in _referees_for_the_no_state_certificate():
        eig = np.linalg.eigvalsh(_payoff_operators(spec, np.array(oracle._ALPHAS)))
        both = 2.0 * np.maximum(eig, 0.0).sum(axis=-1)
        i = int(np.argmax(both))
        cert = cheat_certificates(spec)
        assert np.float64(cert.no_state).tobytes() == both[i].tobytes(), spec
        assert cert.alpha == oracle._ALPHAS[i], spec


def test_cheat_certificates_stay_safe_at_every_penalty():
    # the ideal game is safe at every r >= 1; a Bob-to-Alice value computed
    # as a difference of traces near 6c once failed 44 of 20,000 such r
    for r in np.geomspace(1.0, 1e9, 2000):
        cert = cheat_certificates(SteeringGameSpec.ideal(r=float(r)))
        assert cert.no_state <= 1e-9 and _cheat_bound(cert) <= 1e-9, r


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(log_r=st.floats(0.0, 12.0), b=st.floats(0.0, 10.0, exclude_min=True))
def test_ideal_lambda_star_is_sqrt3_minus_the_penalty(log_r, b):
    """For the ideal referee lambda* = sqrt(3) - r b, b the payoff bound, so the
    verdict 4 lambda* <= 1e-9 holds exactly when r b >= sqrt(3)."""
    r = 10.0 ** log_r
    lam = cheat_certificates(SteeringGameSpec.ideal(r=r, payoff_bound=b)).lambda_max
    rb = r * b
    assert abs(lam - (SQRT3 - rb)) <= 1e-12 * (1.0 + rb)
    if abs(rb - SQRT3) > 1e-9:  # within 1e-9 of the boundary the verdict may go either way
        assert (4.0 * lam <= 1e-9) == (rb >= SQRT3)


@pytest.mark.parametrize(
    "name, estimator",
    [
        ("bound-1.5", best_estimator()),
        ("single-axis", BlochVector(np.array([1.0, 0.0, 0.0]), 0.5)),
    ],
)
def test_cheat_certificates_are_reached_by_a_cheat(name, estimator):
    """A winning bound is the exact payoff of a cheat that reaches it."""
    spec = _CERT_SPECS[name]
    cert = cheat_certificates(spec)
    no_state = qrs_payoff_exact(spec, ClassicalCheat(estimator))
    comm = ClassicalCheat(estimator, "bob_to_alice", (1, -1), "follow_estimate")
    assert abs(qrs_payoff_exact(spec, comm) - _cheat_bound(cert)) <= 1e-12
    assert abs(no_state - cert.no_state) <= 1e-12


@pytest.mark.parametrize("name", list(_CERT_SPECS))
def test_cheat_certificates_bound_random_cheats(name, rng):
    spec = _CERT_SPECS[name]
    cert = cheat_certificates(spec)
    tol = 1e-12 * (1.0 + spec.penalty_coefficient)
    for _ in range(40):
        m = rng.normal(size=3)
        m *= rng.uniform() / np.linalg.norm(m)
        estimator = BlochVector(m, rng.uniform(0.0, 1.0 / (1.0 + np.linalg.norm(m))))
        for answers in (None, (1, -1, -1)):
            cheat = ClassicalCheat(estimator, answer_list=answers)
            assert qrs_payoff_exact(spec, cheat) <= cert.no_state + tol
        for bob_rule in _BA_BOB_RULES:
            for alice_rule in ALICE_RULES:
                comm = ClassicalCheat(estimator, "bob_to_alice", bob_rule, alice_rule)
                assert qrs_payoff_exact(spec, comm) <= _cheat_bound(cert) + tol


@pytest.mark.parametrize(
    "name, slack",
    [
        ("ideal", 2.5e-3),
        ("bound-1.5", 2.5e-3),
        ("single-axis", 2.5e-3),
        # the no-state grid cannot stay silent: its smallest mu is mu_hi / R, and
        # at r > 1 every reply costs, so its best point sits 7.1e-3 below zero
        ("r-1.081", 7.5e-3),
    ],
)
def test_grids_sit_just_below_the_certificates(name, slack):
    spec = _CERT_SPECS[name]
    cert = cheat_certificates(spec)
    grid = grid_max_cheat(spec, 40).max_payoff
    comm = grid_max_comm_ba(spec, 40).max_payoff
    assert cert.no_state - slack <= grid <= cert.no_state + 1e-12
    assert _cheat_bound(cert) - 2.5e-3 <= comm <= _cheat_bound(cert) + 1e-12


def test_cheat_certificates_catch_a_win_below_the_grid_resolution():
    # payoff_bound a hair below sqrt(3): cheats win by 2e-6, which the grid misses
    spec = SteeringGameSpec.ideal(payoff_bound=SQRT3 - 1e-6)
    cert = cheat_certificates(spec)
    assert abs(cert.no_state - 2e-6) <= 1e-12
    assert abs(_cheat_bound(cert) - 4e-6) <= 1e-12
    assert grid_max_cheat(spec, 40).max_payoff < 0.0


@pytest.mark.parametrize("payoff_bound", [0.01, 1.5, SQRT3, 2.0])
@pytest.mark.parametrize("r", [1.0, 1.081, 2.0, 1e3, 1e6])
def test_lambda_max_matches_its_closed_forms(r, payoff_bound):
    """Every signal pair sums to 1, so Z(alpha) = sum_j alpha_j sigma_j - r b 1
    under the ideal referee and (sum_j alpha_j) sigma_1 - r b 1 under the
    single-axis one, b the payoff bound."""
    for ensemble, top in ((ideal_signal_ensemble(), SQRT3), (single_axis_ensemble(), 3.0)):
        spec = SteeringGameSpec(signal_ensemble=ensemble, r=r, payoff_bound=payoff_bound)
        c = spec.penalty_coefficient
        lam = cheat_certificates(spec).lambda_max
        assert abs(lam - (top - r * payoff_bound)) <= 1e-12 * (1.0 + c)


def _bloch_matrix(v):
    """(1 + v . sigma) / 2, a state for |v| <= 1 and a projector for |v| = 1."""
    return (np.eye(2) + sum(x * pauli(k) for k, x in enumerate(v, start=1))) / 2.0


def _tilted_ensemble(theta, eta):
    """A referee whose axis j leans by theta towards axis j + 1 (cyclically),
    each signal's Bloch vector shrunk to length eta."""
    ensemble = {}
    for j, s in SIGNALS:
        n = np.cos(theta) * np.eye(3)[j - 1] + np.sin(theta) * np.eye(3)[j % 3]
        ensemble[(j, s)] = DensityOperator(_bloch_matrix(s * eta * n))
    return ensemble


@dataclass(frozen=True, eq=False)
class _MessageCheat:
    """A Bob-to-Alice cheat whose answers depend on the setting.

    Bob measures ``povm`` on the signal, sends the outcome m to Alice and
    replies ``replies[m]``; Alice answers ``answers[j - 1][m]``.  It shares
    no state and is evaluated by the exact engine from its outcome table.
    """

    povm: Povm
    replies: tuple
    answers: tuple

    needs_shared_state = False

    def outcome_distribution(self, signals, shared_state=None):
        elements = np.stack(self.povm.elements)
        p = np.trace(elements[None] @ signals[:, None], axis1=-2, axis2=-1).real
        table = np.zeros((len(SIGNALS), 1, len(OUTCOMES)))
        for k, (j, _) in enumerate(SIGNALS):
            for m, b in enumerate(self.replies):
                table[k, 0, OUTCOMES.index((self.answers[j - 1][m], b))] += p[k, m]
        return table


def _best_replies(spec, povm):
    """Per message, Alice's answers and Bob's reply that pay the most."""
    z = _payoff_operators(spec, np.array(oracle._ALPHAS))
    answers, replies = [], []
    for element in povm.elements:
        gains = np.trace(element @ z, axis1=-2, axis2=-1).real
        i = int(np.argmax(gains))
        answers.append(oracle._ALPHAS[i])
        replies.append(int(gains[i] > 0.0))
    return tuple(zip(*answers)), tuple(replies)


_MESSAGE_SPECS = {
    "ideal": SteeringGameSpec.ideal(),
    "bound-1.5": SteeringGameSpec.ideal(payoff_bound=1.5),
    "r-1e5": SteeringGameSpec.ideal(r=1e5),
    "tilted": SteeringGameSpec(signal_ensemble=_tilted_ensemble(0.3, 0.97)),
    "tilted-r-1.5": SteeringGameSpec(signal_ensemble=_tilted_ensemble(0.3, 0.97), r=1.5),
    "tilted-bound-1.2": SteeringGameSpec(
        signal_ensemble=_tilted_ensemble(0.5, 0.9), payoff_bound=1.2
    ),
    "single-axis": SteeringGameSpec(signal_ensemble=single_axis_ensemble()),
}


@pytest.mark.parametrize("name", list(_MESSAGE_SPECS))
def test_setting_dependent_bob_to_alice_cheats_stay_below_the_bound(name, rng):
    """Up to four messages, a reply per message and Alice's answer any function
    of (j, message): each pays 2 sum_m Tr[M_m Z(alpha^m)] b_m <= 4 max(lambda*, 0)."""
    spec = _MESSAGE_SPECS[name]
    bound = _cheat_bound(cheat_certificates(spec))
    tol = 1e-12 * (1.0 + spec.penalty_coefficient)
    best = -np.inf
    for t in range(60):
        n_messages = t % 4 + 1
        if n_messages == 2:  # a projective measurement along a random axis
            u = rng.normal(size=3)
            proj = _bloch_matrix(u / np.linalg.norm(u))
            povm = Povm((proj, np.eye(2) - proj))
        else:
            povm = random_povm(rng, 2, n_messages)
        drawn = (
            tuple(tuple(int(a) for a in row) for row in rng.choice([1, -1], (3, n_messages))),
            tuple(int(b) for b in rng.integers(0, 2, n_messages)),
        )
        for answers, replies in (_best_replies(spec, povm), drawn):
            payoff = qrs_payoff_exact(spec, _MessageCheat(povm, replies, answers))
            assert payoff <= bound + tol, (t, payoff, bound)
            best = max(best, payoff)
    # the best responses pay at least what staying silent pays
    assert best >= -tol


def test_random_lhs_suite_passes_on_the_ideal_game():
    report = random_lhs_suite(SteeringGameSpec(), 30, rng_seed=11)
    assert report.passed
    assert report.failures == []
    assert report.trials == 30
    assert report.probes == 5
    # the diagonal boundary probe saturates the bound, so the max is ~zero
    assert abs(report.max_payoff) <= 1e-9
    assert report.max_route_gap <= 1e-10
    blob = report.to_json()
    assert blob["passed"] is True
    assert blob["max_payoff"] == report.max_payoff


def test_random_lhs_suite_is_deterministic():
    a = random_lhs_suite(SteeringGameSpec(), 12, rng_seed=4)
    b = random_lhs_suite(SteeringGameSpec(), 12, rng_seed=4)
    assert a.to_json() == b.to_json()
    # different seeds draw different models: under a near-zero penalty some
    # random models win, and which trials fail depends on the seed
    loose = SteeringGameSpec(r=1.0, payoff_bound=0.01)
    c = random_lhs_suite(loose, 12, rng_seed=5)
    d = random_lhs_suite(loose, 12, rng_seed=4)
    trials_c = [f["label"] for f in c.failures if f["label"].startswith("trial-")]
    trials_d = [f["label"] for f in d.failures if f["label"].startswith("trial-")]
    assert trials_c and trials_d
    assert trials_c != trials_d


def test_random_lhs_suite_without_probes_stays_negative():
    spec = SteeringGameSpec()
    report = random_lhs_suite(spec, 20, rng_seed=2)
    assert report.probes == 5
    assert report.passed
    # the probes saturate the bound at zero; the random models, drawn as
    # trial t is, stay strictly below it
    for t in range(20):
        d = _LHS_DIMS[t % len(_LHS_DIMS)]
        n_lambda = _LHS_LAMBDA_SIZES[(t // len(_LHS_DIMS)) % len(_LHS_LAMBDA_SIZES)]
        model = random_lhs_strategy(np.random.default_rng([2, t]), d, n_lambda)
        assert qrs_payoff_exact(spec, model) < 0.0


def test_random_lhs_suite_catches_a_weakened_penalty():
    """Lowering the payoff bound below sqrt(3) lets hidden-state models win."""
    weak = SteeringGameSpec(r=1.0, payoff_bound=1.5)
    report = random_lhs_suite(weak, 10, rng_seed=0)
    assert not report.passed
    labels = [f["label"] for f in report.failures]
    assert "probe-0" in labels  # the diagonal probe pays 2(sqrt(3) - 1.5)
    probe = next(f for f in report.failures if f["label"] == "probe-0")
    assert probe["payoff"] == pytest.approx(2 * (SQRT3 - 1.5), abs=1e-12)
    # failing strategies are serialized well enough to replay the win
    replayed = strategy_from_json(probe["strategy"])
    direct, reduced = _lhs_routes(weak, replayed)
    assert abs(direct - reduced) <= 1e-10
    assert direct == pytest.approx(probe["payoff"], abs=1e-10)


@pytest.mark.parametrize("offset, passed", [(0.9e-10, True), (1.1e-10, False)])
def test_random_lhs_suite_route_gap_bound_is_1e10_at_the_defaults(
    monkeypatch, offset, passed
):
    """At c = 1/sqrt(3) <= 1 the route-gap bound stays an absolute 1e-10."""
    original = oracle._lhs_routes

    def perturbed(spec, model):
        direct, reduced = original(spec, model)
        return direct, reduced + offset

    monkeypatch.setattr(oracle, "_lhs_routes", perturbed)
    report = random_lhs_suite(SteeringGameSpec(), 3, rng_seed=0)
    assert report.passed is passed
    if not passed:
        assert len(report.failures) == report.trials + report.probes


def _suite_one_model_at_a_time(trials, seed, spec):
    """The reference: the suite's report built by drawing and building
    every model first, trials then probes, then evaluating each on its own."""
    gap_bound = 1e-10 * max(1.0, spec.penalty_coefficient)
    models = []
    for t in range(trials):
        d = _LHS_DIMS[t % len(_LHS_DIMS)]
        n_lambda = _LHS_LAMBDA_SIZES[(t // len(_LHS_DIMS)) % len(_LHS_LAMBDA_SIZES)]
        rng = np.random.default_rng([seed, t])
        models.append((f"trial-{t}", random_lhs_strategy(rng, d, n_lambda)))
    for i, direction in enumerate(oracle._PROBE_DIRECTIONS):
        models.append((f"probe-{i}", oracle._extremal_lhs_strategy(direction)))
    max_payoff, max_gap, failures = -np.inf, 0.0, []
    for label, model in models:
        direct, reduced = _lhs_routes(spec, model)
        gap = abs(direct - reduced)
        max_payoff = max(max_payoff, direct)
        max_gap = max(max_gap, gap)
        if direct > 1e-9 or gap > gap_bound:
            failures.append({
                "label": label,
                "payoff": direct,
                "route_gap": gap,
                "strategy": strategy_to_json(model),
            })
    return {
        "trials": trials,
        "probes": len(oracle._PROBE_DIRECTIONS),
        "seed": seed,
        "max_payoff": max_payoff,
        "max_route_gap": max_gap,
        "passed": not failures,
        "failures": failures,
    }


_SUITE_SPECS = {
    "ideal": SteeringGameSpec.ideal(),
    "r-1.081": SteeringGameSpec.ideal(r=1.081),
    "r-1e5": SteeringGameSpec.ideal(r=1e5),
    # random models win here, so failing models are serialised
    "payoff-bound-0.01": SteeringGameSpec.ideal(payoff_bound=0.01),
    # an uncalibrated referee: the probe along sigma_1 wins
    "single-axis": SteeringGameSpec(signal_ensemble=single_axis_ensemble()),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("spec", list(_SUITE_SPECS.values()), ids=list(_SUITE_SPECS))
def test_random_lhs_suite_equals_the_one_model_at_a_time_suite(spec, seed):
    # 1 and 7 trials leave some (dimension, count) pairs undrawn; 200 draws
    # all nine
    for trials in (1, 7, 200):
        want = _suite_one_model_at_a_time(trials, seed, spec)
        assert random_lhs_suite(spec, trials, rng_seed=seed).to_json() == want


#: (seed, _SUITE_SPECS key, failures, sha256 of the report, sha256 of the
#: report less its route gaps) of 200-trial suite reports.
_SUITE_PINS = [
    (0, "payoff-bound-0.01", 92,
     "d1be6b416986b84158e8182fdf5a1cd952e9007229427ed490a8fcf8020cc0fd",
     "dbe8dd511fbf641c8c69b2f8edab6e672091365764fc36a5ad645bc39735f4e7"),
    (7, "r-1e5", 0,
     "114cae94d0cb6ddb0dbadefd462a02eeb48db7d353e183f2a48f2c889d1f4e48",
     "8f4e3e1c22ef7759b32bbf2bb36cff14e4ab5deed90c163c666ac49a580f6117"),
    # every _SUITE_SPECS game at seeds 0, 1 and 7, as the suite that
    # evaluated its models in stacked groups reported them
    (0, "ideal", 0,
     "b46aa0d12771ebd3fc06cf4fd0a638bd10799ec97dae1d38957480d5c5a15fb2",
     "c02d680e7d8d3242b312abd75bc94e8d212392259e76c243f318f41343c359aa"),
    (0, "r-1.081", 0,
     "a518e6cd4073fd2a56787f116ef385c7b2f88001a98c0b18aca0c58cfd087fd8",
     "2865bbe6b2cff9fc82eb589f2fb9ffda9a61a232b63989638b3b9dfa00b42ef8"),
    (0, "r-1e5", 0,
     "4573d9e8084b7ebe832db2a6d914e4de6e401b08dabc881ac39dec9cb54a0724",
     "b01bb245a7e05a087a7445ae45f707707834e4165ccd0e74719536e30c34bee9"),
    (0, "single-axis", 1,
     "b19cac3e4e7a67bb285f6c5ebcb766d7dbcbf29368d2857f2c50aa3ca0e6844b",
     "2831a73e9d107d92dd0d7c24934433df1a5096ccc90a8dd78e23530251dc7d8d"),
    (1, "ideal", 0,
     "c5816fbc504bc5867cddc0ac92be554af99a36aff5a41646f44e30e59906c892",
     "3e2e6b12875fae05c97fbb746c275f711b1b25eb00bd7cf52bd821ba958654f9"),
    (1, "r-1.081", 0,
     "658a751a6ba8f498aa195b60f64684aa5de6126ac3206526b3526b0cba6835b6",
     "c5abf89e72412e6db84b627f6ee58982c5f7526926ba9caddfab054f3e3cfb40"),
    (1, "r-1e5", 0,
     "52fc892e8a3fb6f03084a110b29ea2b9684448db829bba42d2fbd0adbb5b149e",
     "3032cced1dc96fd8f7c3d5751864ef3272cc546ce9fa95480eaaa091e1a48773"),
    (1, "payoff-bound-0.01", 96,
     "98c6221249a9610ac83c16560b41fc4ee0f5859e6b754880b0c2174486fadcf9",
     "a6f3ebdc7974c4764c97487f50a3654d2f4ec633a2ae35aefdd083d9465a9eb2"),
    (1, "single-axis", 1,
     "76ca02d3cc845704296033ff704bfec52814c26e0ab18e22e065ea4060f0eed1",
     "f569f6c78667724d06b3069fc3d7f9643dece6661e1052fab228f66b9e3760b2"),
    (7, "ideal", 0,
     "648b41d8ceda0225f1162406803f043153558e088cb34f949e23635afb47eede",
     "1cd912a1bd7229cd9df3476e0da675cb5142390e2829cfb77d5fd87e7c5f39c0"),
    (7, "r-1.081", 0,
     "7824a8726353b1d783f9cdde0b5eeb0a18be75c22c7af11e84a0525fba3fcb37",
     "e26bdf3352e865678dcc70f54b5bee76dabe666491b440943d27a9c8cca22665"),
    (7, "payoff-bound-0.01", 94,
     "d3d2bd4bb6869c00862049a71bce0d207a465077148d4e93e2c9d5c0a3ba09b2",
     "65b2c03fbe51e05c0452c6a92d864e2479df99b773c31b3495d5a3d653760b16"),
    (7, "single-axis", 1,
     "a474841461e5992bd20a2fefb943dd6a87c837bca51df32bc4b2327cd8af2864",
     "63ad8bc557a75d7880851799cb1ad792c0eaff327c27ff65fa8272fe74975d2f"),
]


@pytest.mark.parametrize(
    "seed, spec, n_failures, digest, rest",
    _SUITE_PINS,
    ids=[f"seed-{seed}-{spec}" for seed, spec, *_ in _SUITE_PINS],
)
def test_random_lhs_suite_reports_are_pinned(seed, spec, n_failures, digest, rest):
    """Digests of 200-trial suite reports.  Less its route gaps, each of the
    first two reports dumps to the bytes it had when the reduced route
    normalised every reduced state and summed <sigma_j> over the
    calibrated signals, which matched the one-model-at-a-time suite bit
    for bit.  The others are the reports of the suite that evaluated its
    models in stacked groups, which also matched that suite bit for bit."""
    report = random_lhs_suite(_SUITE_SPECS[spec], 200, rng_seed=seed).to_json()
    assert len(report["failures"]) == n_failures
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    del report["max_route_gap"]
    for failure in report["failures"]:
        del failure["route_gap"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == rest


def test_suite_and_scan_peak_below_4_mb():
    """The suite builds and evaluates one model at a time, so 1,000 trials
    hold no more than one model's arrays at once; the Werner scan takes
    its traces over blocks of ``_STACK_BLOCK`` states, so 1,001 W states
    hold one block of 8 x 9 products, not the whole stack (about 32 MB
    at 1,001 states, 321 MB at 10,001)."""
    spec = SteeringGameSpec()
    for run in (
        lambda: random_lhs_suite(spec, 1000),
        lambda: werner_columns(spec, np.linspace(0, 1, 1001)),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


@pytest.mark.parametrize(
    "spec",
    [
        *_SUITE_SPECS.values(),
        SteeringGameSpec.ideal(payoff_bound=1.5),
        SteeringGameSpec(signal_ensemble=random_signal_ensemble(np.random.default_rng(3))),
        SteeringGameSpec(signal_ensemble=random_signal_ensemble(np.random.default_rng(4))),
    ],
    ids=[*_SUITE_SPECS, "bound-1.5", "random-ensemble-3", "random-ensemble-4"],
)
def test_random_lhs_suite_routes_agree_under_any_signal_ensemble(monkeypatch, spec):
    """Both routes agree on every trial and probe, and no hidden-state model
    beats the no-state certificate: per lambda, Tr[X Z(r)] is affine in the
    biases r and X <= 1, so it stays below max_alpha Tr[Z(alpha)_+], and
    so below the bound 4 max(lambda*, 0) that verify checks."""
    routes = []
    original = oracle._lhs_routes

    def recorded(*args):
        routes.append(original(*args))
        return routes[-1]

    monkeypatch.setattr(oracle, "_lhs_routes", recorded)
    report = random_lhs_suite(spec, 60, rng_seed=5)
    direct, reduced = np.array(routes).T
    assert len(direct) == report.trials + report.probes
    c = spec.penalty_coefficient
    assert np.all(np.abs(direct - reduced) <= 1e-10 * max(1.0, c))
    cert = cheat_certificates(spec)
    assert np.all(direct <= cert.no_state + 1e-12 * (1.0 + c))
    assert np.all(direct <= _cheat_bound(cert) + 1e-12 * (1.0 + c))


def test_random_lhs_strategy_is_valid(rng):
    strategy = random_lhs_strategy(rng, 3, 5)
    assert len(strategy.hidden_states) == 5
    assert strategy.alice_responses.shape == (5, 3)
    assert strategy.bob_joint_povm.dim == 6


def test_threshold_scan_locates_all_crossings():
    spec = SteeringGameSpec()
    columns = werner_columns(spec, np.arange(0.0, 1.0 + 1e-12, 0.005))
    scan = threshold_scan(columns, spec.penalty_coefficient)
    expected = {
        "witness2": 0.5,
        "steering2": 1 / SQRT2,
        "chsh": 1 / SQRT2,
        "steering3": 1 / SQRT3,
        "qrs_payoff": 1 / SQRT3,
    }
    for name, w_star in expected.items():
        got = scan.crossings[name]
        assert got is not None
        assert w_star < got <= w_star + 0.005 + 1e-9
    row_end = dict(zip(SCAN_FIELDS, scan.rows[-1].tolist()))
    assert row_end["w"] == pytest.approx(1.0)
    assert row_end["chsh"] == pytest.approx(2 * SQRT2, abs=1e-10)
    assert row_end["steering3"] == pytest.approx(3.0, abs=1e-10)
    assert row_end["qrs_payoff"] == pytest.approx(3 - SQRT3, abs=1e-10)


def test_threshold_scan_payoff_crossing_moves_with_r():
    columns = werner_columns(SteeringGameSpec(), np.arange(0.0, 1.0 + 1e-12, 0.005))

    def scan_at(r):
        return threshold_scan(columns, SteeringGameSpec(r=r).penalty_coefficient)

    scan = scan_at(1.2)
    got = scan.crossings["qrs_payoff"]
    w_star = 1.2 / SQRT3
    assert w_star < got <= w_star + 0.005 + 1e-9
    # r large enough pushes the threshold past W = 1: no crossing at all
    assert scan_at(1.8).crossings["qrs_payoff"] is None
    # the kinematic thresholds don't move
    assert scan.crossings["witness2"] == scan_at(1.0).crossings["witness2"]


def test_threshold_scan_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty Werner grid"):
        threshold_scan(werner_columns(SteeringGameSpec(), []), 1.0)


_WERNER_GRIDS = {
    "verify": np.arange(0.0, 1.0 + 0.5 * 0.005, 0.005),
    "sweep": np.arange(0.0, 1.0 + 0.5 * 0.01, 0.01),
    "full-range": np.linspace(-1.0 / 3.0, 1.0, 41),
    "one-point": np.array([0.7]),
}


#: Referees the Werner scan is held to the exact engine under: the
#: calibrated game at two r, an uncalibrated preparation, a weakened
#: penalty and a noisy line.
_SCAN_SPECS = {
    "ideal": SteeringGameSpec(),
    "r-1.081": SteeringGameSpec(r=1.081),
    "single-axis": SteeringGameSpec(signal_ensemble=single_axis_ensemble()),
    "payoff-bound-1.5": SteeringGameSpec(payoff_bound=1.5),
    "depolarizing-0.3": SteeringGameSpec(channel=depolarizing_channel(0.3)),
}


def test_stacked_operator_tables_are_bitwise_kron_per_item():
    """Each table built by one stacked ``tensor`` call holds, item by item,
    the bits ``np.kron`` gives for its factors."""
    sigma = [pauli(j) for j in (1, 2, 3)]
    a1, a2, b1, b2 = canonical_chsh_settings()
    chsh_ops = [np.kron(a, b) for a in (a1, a2) for b in (b1, b2)]
    tables = {
        "sigma pairs": (_SIGMA_PAIRS, [np.kron(s, s) for s in sigma]),
        "chsh": (_CANONICAL_CHSH_OPERATORS, chsh_ops),
        "scan": (
            _SCAN_OPERATORS,
            [np.kron(-s, s) for s in sigma] + [np.kron(s, s) for s in sigma[:2]] + chsh_ops,
        ),
    }
    honest = honest_strategy()
    tables["joint effects"] = (
        honest.joint_effects.reshape(12, 8, 8),
        [
            np.kron(honest.alice_povms[j][(1, -1).index(a)], honest.bob_joint_povm[b])
            for j in (1, 2, 3)
            for a, b in OUTCOMES
        ],
    )
    for name, (table, items) in tables.items():
        assert np.array_equal(table, np.stack(items)), name


@pytest.mark.parametrize("grid", list(_WERNER_GRIDS.values()), ids=list(_WERNER_GRIDS))
def test_werner_columns_equal_the_per_state_evaluation(grid):
    honest = honest_strategy()
    steering = [tensor(-pauli(j), pauli(j)) for j in (1, 2, 3)]
    states = [werner_state(float(w)) for w in grid]
    kinematic = []
    for state, w in zip(states, grid):
        c = [expectation(state, op) for op in steering]
        kinematic.append({
            "w": float(w),
            "witness2": witness2(state),
            "steering2": steering2_value(c[0], c[1]),
            "steering3": steering3_value(c[0], c[1], c[2]),
            "chsh": chsh(state),
        })
    for name, spec in _SCAN_SPECS.items():
        columns = werner_columns(spec, grid)
        assert columns.rows.shape == (len(grid), len(SCAN_FIELDS) - 1)
        assert not columns.rows.flags.writeable
        scan = threshold_scan(columns, spec.penalty_coefficient)
        exact = []
        for i, state in enumerate(states):
            assert dict(zip(SCAN_FIELDS, columns.rows[i].tolist())) == kinematic[i]
            e_ab, e_b = expectation_dicts(spec, honest, state)
            assert columns.e_ab[i].tolist() == [e_ab[sig] for sig in SIGNALS], name
            assert columns.e_b[i].tolist() == [e_b[sig] for sig in SIGNALS], name
            exact.append(qrs_payoff_exact(spec, honest, state))
            assert scan.rows[i, SCAN_FIELDS.index("qrs_payoff")] == exact[-1], (name, i)
        # the crossing is the first grid W whose exact payoff is above 0
        first = next((float(w) for w, p in zip(grid, exact) if p > 0.0), None)
        assert scan.crossings["qrs_payoff"] == first, name


def test_werner_columns_reject_a_parameter_out_of_range():
    with pytest.raises(ValueError) as per_state:
        werner_state(1.1)
    with pytest.raises(ValueError) as stacked:
        werner_columns(SteeringGameSpec(), [0.5, 1.1, 1.2])
    assert str(stacked.value) == str(per_state.value)
    assert str(stacked.value) == "Werner parameter must lie in [-1/3, 1], got 1.1"


@pytest.mark.parametrize("n", [1, 11, 201])
def test_werner_columns_make_one_honest_table_call(monkeypatch, n):
    calls = []
    original = HonestStrategy.outcome_distribution

    def counted(self, signals, shared_state=None):
        calls.append(len(shared_state))
        return original(self, signals, shared_state)

    monkeypatch.setattr(HonestStrategy, "outcome_distribution", counted)
    werner_columns(SteeringGameSpec(), np.linspace(0.0, 1.0, n))
    assert calls == [n]


_HOIST_GRID = np.linspace(0.0, 1.0, 11)


@pytest.mark.parametrize("r", [1.0, 1.081, 1.7])
def test_threshold_scan_payoff_is_the_exact_engine(r):
    spec = SteeringGameSpec(r=r)
    scan = threshold_scan(werner_columns(spec, _HOIST_GRID), spec.penalty_coefficient)
    for w, row in zip(_HOIST_GRID, scan.rows):
        assert row[SCAN_FIELDS.index("qrs_payoff")] == qrs_payoff_exact(
            spec, honest_strategy(), werner_state(float(w))
        )


@pytest.mark.parametrize("r_stop", ["1.0", "1.3"])
def test_sweep_evaluates_each_werner_state_once(tmp_path, monkeypatch, r_stop):
    calls = []
    original = HonestStrategy.outcome_distribution

    def counted(self, signals, shared_state=None):
        calls.append(len(shared_state))
        return original(self, signals, shared_state)

    monkeypatch.setattr(HonestStrategy, "outcome_distribution", counted)
    assert main([
        "sweep", "--w-start", "0.6", "--w-stop", "1.0", "--w-step", "0.1",
        "--r-start", "1.0", "--r-stop", r_stop, "--r-step", "0.1",
        "--out", str(tmp_path),
    ]) == 0
    n_r = 1 if r_stop == "1.0" else 4
    with open(tmp_path / "sweep.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 5 * n_r
    # one outcome table per W value, whatever the number of r values, all
    # from one call over the stack of W states
    assert calls == [5]


@st.composite
def _sweep_axes(draw):
    """(w_start, w_stop, w_step), (r_start, r_stop, r_step) of a sweep whose W
    grid stays inside [-1/3, 1], of 1 to 134 W and 1 to 5 r values in [1, 1e6]."""
    w_step = draw(st.floats(0.01, 0.1) | st.floats(0.1, 1.5))
    w_start = draw(st.floats(-1.0 / 3.0, 1.0))
    # the last grid point lies below w_stop + w_step/2
    w_room = max(0.0, 1.0 - 0.5 * w_step - 1e-9 - w_start)
    w_stop = w_start + draw(st.floats(0.0, 1.0)) * w_room
    r_step = draw(st.floats(1e-3, 1e5))
    r_start = draw(st.floats(1.0, 1e6))
    r_room = max(0.0, min(1e6 - r_start, 4.0 * r_step))
    r_stop = r_start + draw(st.floats(0.0, 1.0)) * r_room
    return (w_start, w_stop, w_step), (r_start, r_stop, r_step)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(axes=_sweep_axes())
@example(axes=((0.0, 1.0, 0.01), (1.0, 1.2, 0.01)))
@example(axes=((-1.0 / 3.0, 1.0, 0.07), (1e5, 1.0001e5, 2.5)))
@example(axes=((0.7, 0.7, 0.01), (1.0, 1.0, 0.01)))
def test_sweep_and_crossings_equal_the_dict_rows(axes):
    """``sweep.csv`` and every crossing, bit for bit the dict rows and
    ``csv.writer`` loop they replaced."""
    (w_axis, r_axis), names = axes, ("start", "stop", "step")
    argv = ["sweep"]
    for axis, values in (("w", w_axis), ("r", r_axis)):
        argv += [f"--{axis}-{name}={value!r}" for name, value in zip(names, values)]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", out]) == 0
        written = Path(out, "sweep.csv").read_bytes()
    w_grid, r_grid = _grid(*w_axis), _grid(*r_axis)
    assert written == csv_writer_sweep(w_grid, r_grid)
    columns = werner_columns(SteeringGameSpec(), w_grid)
    for r in r_grid.tolist():
        scan = threshold_scan(columns, SteeringGameSpec(r=r).penalty_coefficient)
        assert scan.crossings == dict_crossings(dict_rows(columns, r))


@pytest.mark.parametrize(
    "channel",
    [depolarizing_channel(0.3), amplitude_damping_channel(0.4)],
    ids=["depolarizing", "amplitude_damping"],
)
def test_certificates_and_suite_honour_the_channel_on_the_spec(channel):
    """A channel on the spec is the referee sending the states it delivers."""
    received = {
        sig: DensityOperator(channel.apply_to_matrix(st.matrix))
        for sig, st in ideal_signal_ensemble().items()
    }
    for r, bound in ((1.0, SQRT3), (1.3, 1.5)):
        line = SteeringGameSpec(r=r, payoff_bound=bound, channel=channel)
        sent = SteeringGameSpec(signal_ensemble=received, r=r, payoff_bound=bound)
        assert np.array_equal(line.delivered_signals, sent.delivered_signals)
        assert cheat_certificates(line) == cheat_certificates(sent)
        assert random_lhs_suite(line, 6, 2).to_json() == random_lhs_suite(sent, 6, 2).to_json()
    # the line changes the game: depolarized or damped signals move lambda*
    clean = SteeringGameSpec(r=1.3, payoff_bound=1.5)
    assert cheat_certificates(line) != cheat_certificates(clean)
