"""Verification oracles: exhaustive CHSH scan, cheat grid searches, the
randomized hidden-state suite, and the Werner threshold scan."""

import numpy as np
import pytest

from qrgames.games import SQRT2, SQRT3, SteeringGameSpec, single_axis_ensemble
from qrgames.oracle import (
    _LHS_DIMS,
    _LHS_LAMBDA_SIZES,
    enumerate_chsh_deterministic,
    fibonacci_sphere,
    grid_max_cheat,
    grid_max_comm_ba,
    random_lhs_strategy,
    random_lhs_suite,
    threshold_scan,
    werner_columns,
)
from qrgames.cli import main
from qrgames.games import qrs_payoff_exact
from qrgames.qcore import werner_state
from qrgames.strategies import (
    HonestStrategy,
    best_estimator,
    honest_strategy,
    lhs_payoff_routes,
)
from qrgames.serialize import strategy_from_json

RATIO_BOUND = (SQRT3 + 1) / (SQRT3 - 1)


def test_chsh_enumeration_is_exhaustive():
    enum = enumerate_chsh_deterministic()
    assert enum.max_value == 2.0
    assert enum.min_value == -2.0
    assert enum.n_maximizers == 8
    a = enum.argmax
    assert a["a1"] * a["b1"] + a["a1"] * a["b2"] + a["a2"] * a["b1"] - a["a2"] * a["b2"] == 2


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


def test_random_lhs_suite_passes_on_the_ideal_game():
    report = random_lhs_suite(trials=30, rng_seed=11)
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
    a = random_lhs_suite(trials=12, rng_seed=4)
    b = random_lhs_suite(trials=12, rng_seed=4)
    assert a.to_json() == b.to_json()
    # different seeds draw different models: under a near-zero penalty some
    # random models win, and which trials fail depends on the seed
    loose = SteeringGameSpec(r=1.0, payoff_bound=0.01)
    c = random_lhs_suite(trials=12, rng_seed=5, spec=loose)
    d = random_lhs_suite(trials=12, rng_seed=4, spec=loose)
    trials_c = [f["label"] for f in c.failures if f["label"].startswith("trial-")]
    trials_d = [f["label"] for f in d.failures if f["label"].startswith("trial-")]
    assert trials_c and trials_d
    assert trials_c != trials_d


def test_random_lhs_suite_without_probes_stays_negative():
    report = random_lhs_suite(trials=20, rng_seed=2)
    assert report.probes == 5
    assert report.passed
    # the probes saturate the bound at zero; the random models, drawn as
    # trial t is, stay strictly below it
    spec = SteeringGameSpec.ideal()
    for t in range(20):
        d = _LHS_DIMS[t % len(_LHS_DIMS)]
        n_lambda = _LHS_LAMBDA_SIZES[(t // len(_LHS_DIMS)) % len(_LHS_LAMBDA_SIZES)]
        model = random_lhs_strategy(np.random.default_rng([2, t]), d, n_lambda)
        assert qrs_payoff_exact(spec, model) < 0.0


def test_random_lhs_suite_catches_a_weakened_penalty():
    """Lowering the payoff bound below sqrt(3) lets hidden-state models win."""
    weak = SteeringGameSpec(r=1.0, payoff_bound=1.5)
    report = random_lhs_suite(trials=10, rng_seed=0, spec=weak)
    assert not report.passed
    labels = [f["label"] for f in report.failures]
    assert "probe-0" in labels  # the diagonal probe pays 2(sqrt(3) - 1.5)
    probe = next(f for f in report.failures if f["label"] == "probe-0")
    assert probe["payoff"] == pytest.approx(2 * (SQRT3 - 1.5), abs=1e-12)
    # failing strategies are serialized well enough to replay the win
    replayed = strategy_from_json(probe["strategy"])
    direct, reduced = lhs_payoff_routes(replayed, weak)
    assert abs(direct - reduced) <= 1e-10
    assert direct == pytest.approx(probe["payoff"], abs=1e-10)


def test_random_lhs_strategy_is_valid(rng):
    strategy = random_lhs_strategy(rng, 3, 5)
    assert len(strategy.hidden_states) == 5
    assert strategy.alice_responses.shape == (5, 3)
    assert strategy.bob_joint_povm.dim == 6


def test_threshold_scan_locates_all_crossings():
    columns = werner_columns(np.arange(0.0, 1.0 + 1e-12, 0.005))
    scan = threshold_scan(columns, r=1.0)
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
    row_end = scan.rows[-1]
    assert row_end["w"] == pytest.approx(1.0)
    assert row_end["chsh"] == pytest.approx(2 * SQRT2, abs=1e-10)
    assert row_end["steering3"] == pytest.approx(3.0, abs=1e-10)
    assert row_end["qrs_payoff"] == pytest.approx(3 - SQRT3, abs=1e-10)


def test_threshold_scan_payoff_crossing_moves_with_r():
    columns = werner_columns(np.arange(0.0, 1.0 + 1e-12, 0.005))
    scan = threshold_scan(columns, r=1.2)
    got = scan.crossings["qrs_payoff"]
    w_star = 1.2 / SQRT3
    assert w_star < got <= w_star + 0.005 + 1e-9
    # r large enough pushes the threshold past W = 1: no crossing at all
    assert threshold_scan(columns, r=1.8).crossings["qrs_payoff"] is None
    # the kinematic thresholds don't move
    assert scan.crossings["witness2"] == threshold_scan(columns).crossings["witness2"]


def test_threshold_scan_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty Werner grid"):
        threshold_scan(werner_columns([]))


_HOIST_GRID = np.linspace(0.0, 1.0, 11)


@pytest.mark.parametrize("r", [1.0, 1.081, 1.7])
def test_threshold_scan_payoff_is_the_exact_engine(r):
    scan = threshold_scan(werner_columns(_HOIST_GRID), r=r)
    spec = SteeringGameSpec.ideal(r=r)
    for w, row in zip(_HOIST_GRID, scan.rows):
        assert row["qrs_payoff"] == qrs_payoff_exact(
            spec, honest_strategy(), werner_state(float(w))
        )


@pytest.mark.parametrize("r_stop", ["1.0", "1.3"])
def test_sweep_evaluates_each_werner_state_once(tmp_path, monkeypatch, r_stop):
    calls = []
    original = HonestStrategy.outcome_distribution

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HonestStrategy, "outcome_distribution", counted)
    assert main([
        "sweep", "--w-start", "0.6", "--w-stop", "1.0", "--w-step", "0.1",
        "--r-start", "1.0", "--r-stop", r_stop, "--r-step", "0.1",
        "--out", str(tmp_path),
    ]) == 0
    n_r = 1 if r_stop == "1.0" else 4
    with open(tmp_path / "sweep.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 5 * n_r
    # one outcome table per W value, whatever the number of r values
    assert len(calls) == 5
