"""Verification oracles: exhaustive CHSH scan, cheat grid searches, the
randomized hidden-state suite, and the Werner threshold scan."""

import numpy as np
import pytest

from qrgames.games import SQRT2, SQRT3, SteeringGameSpec, single_axis_ensemble
from qrgames.oracle import (
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
    # without the fixed probes, different seeds draw different models
    c = random_lhs_suite(trials=12, rng_seed=5, include_probes=False)
    d = random_lhs_suite(trials=12, rng_seed=4, include_probes=False)
    assert c.max_payoff != d.max_payoff


def test_random_lhs_suite_without_probes_stays_negative():
    report = random_lhs_suite(trials=20, rng_seed=2, include_probes=False)
    assert report.probes == 0
    assert report.passed
    assert report.max_payoff < 0.0


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
    # six conditions per W value, whatever the number of r values
    assert len(calls) == 6 * 5
