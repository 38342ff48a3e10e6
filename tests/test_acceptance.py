"""Acceptance gate: one test per release criterion, each printing a
machine-greppable pass/fail line (run with ``pytest -s`` to see them live).

Every tolerance here is part of the package contract; do not loosen.
"""

from itertools import product

import numpy as np

from qrgames.games import (
    SQRT2,
    SQRT3,
    SteeringGameSpec,
    qrs_payoff_exact,
    single_axis_ensemble,
)
from qrgames.oracle import (
    cheat_certificates,
    random_lhs_suite,
    threshold_scan,
    werner_columns,
)
from qrgames.qcore import (
    BlochVector,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    werner_state,
)
from qrgames.simulator import RunConfig, run_game
from qrgames.strategies import (
    ClassicalCheat,
    HonestStrategy,
    best_estimator,
    honest_strategy,
)

from cheat_grids import discrimination_stats, grid_max_cheat, grid_max_comm_ba
from reference_channel import dual_map_deviation, modified_povm
from reference_states import chsh

W_POINTS = (0.0, 0.25, 1 / SQRT3, 0.698, 0.75, 0.98, 1.0)
RATIO_BOUND = (SQRT3 + 1) / (SQRT3 - 1)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_honest_closed_form():
    spec = SteeringGameSpec.ideal(r=1.0)
    honest = honest_strategy()
    errs = [
        abs(qrs_payoff_exact(spec, honest, werner_state(w)) - (3 * w - SQRT3))
        for w in W_POINTS
    ]
    worst = max(errs)
    _report(1, worst <= 1e-10, f"honest payoff = 3W - sqrt(3) at {len(W_POINTS)} "
            f"Werner points, max error {worst:.2e}")


def test_criterion_02_monte_carlo_consistency():
    config = RunConfig(
        spec=SteeringGameSpec.ideal(r=1.081),
        strategy=honest_strategy(),
        rounds=1_000_000,
        rng_seed=7,
        shared_state=werner_state(0.98),
        keep_transcript=False,
    )
    est = run_game(config)
    ok = abs(est.mean - 1.0678) < 5 * est.std_error and est.std_error < 0.02
    _report(2, ok, f"10^6 rounds at W=0.98, r=1.081: mean {est.mean:.6f}, "
            f"std_error {est.std_error:.6f}, target 1.0678")


def test_criterion_03_discrimination_bound():
    spec = SteeringGameSpec.ideal()
    grid = grid_max_cheat(spec, 50)
    argmax_gap = float(np.linalg.norm(grid.argmax.m - best_estimator().m))
    ratio = discrimination_stats(best_estimator(), spec).ratio
    cert = cheat_certificates(spec).no_state
    ok = (
        cert <= 1e-9
        and grid.max_payoff <= 1e-9
        and argmax_gap <= grid.grid_cell_size
        and abs(ratio - RATIO_BOUND) <= 1e-6
        and grid.max_ratio <= RATIO_BOUND + 1e-9
    )
    _report(3, ok, f"certificate {cert:.2e}, grid(50) max payoff {grid.max_payoff:.2e}, "
            f"argmax within {argmax_gap:.3f} of diagonal (cell {grid.grid_cell_size:.3f}), "
            f"ratio max {ratio:.9f} vs bound {RATIO_BOUND:.9f}")


def test_criterion_04_no_hidden_state_model_wins():
    report = random_lhs_suite(SteeringGameSpec(), 1000, rng_seed=0)
    ok = report.passed and report.max_payoff <= 1e-9 and report.max_route_gap <= 1e-10
    _report(4, ok, f"{report.trials} random models + {report.probes} probes: "
            f"max payoff {report.max_payoff:.2e}, max route gap "
            f"{report.max_route_gap:.2e}")


def test_criterion_05_chsh_classical_bound():
    # every deterministic +-1 assignment of (a1, a2, b1, b2)
    deterministic = max(
        a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2 for a1, a2, b1, b2 in product((1, -1), repeat=4)
    )
    errs = [abs(chsh(werner_state(w)) - 2 * SQRT2 * w) for w in W_POINTS]
    below = chsh(werner_state(1 / SQRT2 - 0.001))
    above = chsh(werner_state(1 / SQRT2 + 0.001))
    ok = (
        deterministic == 2
        and max(errs) <= 1e-10
        and below < 2.0 < above
    )
    _report(5, ok, f"deterministic max {deterministic}, Werner CHSH = 2*sqrt(2)*W "
            f"(max error {max(errs):.2e}), crosses 2 at W = 1/sqrt(2)")


def test_criterion_06_hierarchy_thresholds():
    step = 0.001
    spec = SteeringGameSpec()
    columns = werner_columns(spec, np.arange(0.0, 1.0 + 0.5 * step, step))
    scan = threshold_scan(columns, spec.penalty_coefficient)
    expected = {
        "witness2": 0.5,
        "steering2": 1 / SQRT2,
        "chsh": 1 / SQRT2,
        "steering3": 1 / SQRT3,
        "qrs_payoff": 1 / SQRT3,
    }
    bad = []
    for name, want in expected.items():
        got = scan.crossings[name]
        if got is None or not (want < got <= want + step + 1e-9):
            bad.append(f"{name}: {got} vs {want:.6f}")
    detail = ", ".join(
        f"{name} {scan.crossings[name]:.3f}" for name in expected
    )
    _report(6, not bad, f"sign changes at step {step}: {detail}"
            + (f" | mismatches: {bad}" if bad else ""))


def test_criterion_07_classical_referee_cheat():
    # an identical answer list gives <ab>_11 = <ab>_22 = 1, and the classically
    # refereed witness game pays |<ab>_11 + <ab>_22| - 1
    classical = abs(1.0 + 1.0) - 1.0
    cheat = ClassicalCheat(best_estimator(), answer_list=(1, -1, -1, 1))
    quantum = qrs_payoff_exact(SteeringGameSpec.ideal(), cheat)
    ok = classical == 1.0 and quantum <= 1e-9
    _report(7, ok, f"identical-list classical payoff {classical} (exact +1), same "
            f"list against the quantum referee {quantum:.2e} (<= 0)")


def test_criterion_08_channel_robustness():
    channels = [
        ("identity", identity_channel()),
        ("depolarizing_0.1", depolarizing_channel(0.1)),
        ("depolarizing_0.5", depolarizing_channel(0.5)),
        ("depolarizing_0.9", depolarizing_channel(0.9)),
        ("amplitude_damping_0.4", amplitude_damping_channel(0.4)),
    ]
    honest = honest_strategy()
    state = werner_state(0.9)
    spec = SteeringGameSpec.ideal()
    max_dev = 0.0
    max_gap = 0.0
    for _, channel in channels:
        max_dev = max(max_dev, dual_map_deviation(channel, honest.bob_joint_povm))
        absorbed = HonestStrategy(
            honest.alice_povms, modified_povm(channel, honest.bob_joint_povm)
        )
        noisy = qrs_payoff_exact(SteeringGameSpec(channel=channel), honest, state)
        clean = qrs_payoff_exact(spec, absorbed, state)
        max_gap = max(max_gap, abs(noisy - clean))
    ok = max_dev <= 1e-12 and max_gap <= 1e-10
    _report(8, ok, f"{len(channels)} channels: dual-map deviation "
            f"{max_dev:.2e} (<= 1e-12), exact payoff gap {max_gap:.2e} (<= 1e-10)")


def test_criterion_09_one_way_communication():
    spec = SteeringGameSpec.ideal()
    ab = qrs_payoff_exact(spec, ClassicalCheat(direction="alice_to_bob"))
    ba = grid_max_comm_ba(spec, 50)
    cert = 4 * max(cheat_certificates(spec).lambda_max, 0.0)
    ok = abs(ab - 2 * (3 - SQRT3)) <= 1e-12 and ba.max_payoff <= 1e-9 and cert <= 1e-9
    _report(9, ok, f"Alice->Bob cheat {ab:.10f} = 2(3 - sqrt(3)), Bob->Alice "
            f"bound 4 max(lambda*, 0) {cert:.2e}, grid max {ba.max_payoff:.2e}")


def test_criterion_10_imperfect_preparation():
    adversarial = SteeringGameSpec(signal_ensemble=single_axis_ensemble(), r=1.0)
    axis_cheat = ClassicalCheat(BlochVector(np.array([1.0, 0.0, 0.0]), 0.5))
    win = qrs_payoff_exact(adversarial, axis_cheat)
    cheat_ok = abs(win - 2 * (3 - SQRT3)) <= 1e-10

    # raising r moves the honest threshold to W > r/sqrt(3)
    r = 1.081
    spec = SteeringGameSpec.ideal(r=r)
    honest = honest_strategy()
    w_grid = np.arange(0.0, 1.0 + 5e-4, 0.001)
    payoffs = [qrs_payoff_exact(spec, honest, werner_state(w)) for w in w_grid]
    first_positive = next(
        (w for w, p in zip(w_grid, payoffs) if p > 0.0), None
    )
    w_star = r / SQRT3
    sweep_ok = first_positive is not None and w_star < first_positive <= w_star + 0.0011

    # informational: the reported measurements vs this ideal model
    ideal_high = 3 * 0.98 - r * SQRT3      # reported 1.09 +- 0.03: consistent
    ideal_low = 3 * 0.698 - r * SQRT3      # reported 0.05 +- 0.04: not reproduced
    consistent_high = abs(ideal_high - 1.09) <= 0.03
    inconsistent_low = abs(ideal_low - 0.05) > 3 * 0.04

    ok = cheat_ok and sweep_ok and consistent_high and inconsistent_low
    _report(10, ok, f"all-sigma_1 referee loses {win:.6f} to the axis cheat; "
            f"honest threshold at r={r} crosses at W={first_positive:.3f} "
            f"(> r/sqrt(3) = {w_star:.4f}); ideal model {ideal_high:.4f} vs "
            f"measured 1.09(3) consistent, {ideal_low:.4f} vs 0.05(4) not "
            f"(documented model gap)")
