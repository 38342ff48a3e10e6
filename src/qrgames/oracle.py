"""Brute-force and randomized verification of the game's no-win guarantees.

The cheat grids recompute payoffs from raw traces over explicit operator
grids, independently of the closed forms the test suite freezes, and
check their argmax against ``games.qrs_payoff_exact``.  The hidden-state
suite compares both routes of ``strategies.lhs_payoff_routes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .games import (
    SIGNALS,
    SteeringGameSpec,
    chsh_from_state,
    correlation_table,
    correlator,
    qrs_payoff_exact,
    steering2_value,
    steering3_value,
    witness2_value,
)
from .qcore import (
    BlochVector,
    DensityOperator,
    Povm,
    pauli,
    random_density,
    random_povm,
    werner_state,
)
from .serialize import strategy_to_json
from .strategies import (
    ALICE_RULES_BA,
    LhsStrategy,
    NoStateCheat,
    honest_strategy,
    lhs_payoff_routes,
)


@dataclass(frozen=True)
class ChshEnumeration:
    """Exhaustive scan of the 16 deterministic CHSH assignments."""

    max_value: float
    argmax: dict
    min_value: float
    n_maximizers: int


def enumerate_chsh_deterministic() -> ChshEnumeration:
    """Maximise a1 b1 + a1 b2 + a2 b1 - a2 b2 over deterministic +-1 assignments."""
    best = None
    best_assign = None
    worst = None
    n_max = 0
    for a1, a2, b1, b2 in product((1, -1), repeat=4):
        val = a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2
        if best is None or val > best:
            best = val
            best_assign = {"a1": a1, "a2": a2, "b1": b1, "b2": b2}
            n_max = 1
        elif val == best:
            n_max += 1
        if worst is None or val < worst:
            worst = val
    return ChshEnumeration(float(best), best_assign, float(worst), n_max)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors on the sphere (Fibonacci lattice)."""
    if n < 1:
        raise ValueError("need at least one direction")
    idx = np.arange(n)
    z = 1.0 - 2.0 * (idx + 0.5) / n
    theta = np.pi * (3.0 - np.sqrt(5.0)) * idx
    r_xy = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r_xy * np.cos(theta), r_xy * np.sin(theta), z])


@dataclass(frozen=True)
class GridCheatResult:
    """Outcome of the estimator grid search for the no-state cheat."""

    max_payoff: float
    argmax: BlochVector
    max_ratio: float
    grid_cell_size: float
    n_points: int


def _signal_stack(spec: SteeringGameSpec) -> np.ndarray:
    return np.stack([spec.signal_ensemble[sig].matrix for sig in SIGNALS])


def _conditional_setting_weights(spec: SteeringGameSpec, s: int) -> np.ndarray:
    w = np.array([spec.input_distribution[(j, s)] for j in (1, 2, 3)])
    total = w.sum()
    if total <= 0:
        raise ValueError(f"signal distribution assigns no weight to s={s}")
    return w / total


def _estimator_grid(spec: SteeringGameSpec, grid_resolution: int):
    """The sphere-and-interior estimator grid both cheat searches sweep.

    Directions come from a Fibonacci lattice (2 R^2 points) and radii
    are swept in R steps.  Returns (m, c, mu_hi, mu_lo, cell): the
    grid vectors m, c[k, i] = Tr[(1 + m_i . sigma) omega_k] for each
    signal condition k, the admissible mu endpoints per point, and the
    grid cell size.
    """
    res = int(grid_resolution)
    if res < 10:
        raise ValueError(f"grid resolution must be >= 10, got {grid_resolution!r}")
    n_dir = 2 * res * res
    dirs = fibonacci_sphere(n_dir)
    radii = np.linspace(1.0 / res, 1.0, res)
    m = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    norms = np.linalg.norm(m, axis=1)

    paulis = np.stack([pauli(1), pauli(2), pauli(3)])
    m_hat = np.eye(2, dtype=np.complex128)[None, :, :] + np.einsum(
        "ik,kab->iab", m, paulis
    )
    c = np.einsum("iab,kba->ki", m_hat, _signal_stack(spec)).real

    mu_hi = 1.0 / (1.0 + norms)
    mu_lo = mu_hi / res
    cell = float(np.sqrt(4.0 * np.pi / n_dir) + (radii[1] - radii[0]))
    return m, c, mu_hi, mu_lo, cell


def grid_max_cheat(spec: SteeringGameSpec, grid_resolution: int) -> GridCheatResult:
    """Sweep the full estimator family mu*(1 + m.sigma) on the estimator grid.

    The cheat payoff is linear in mu, so per grid point only the
    admissible endpoints mu_hi and mu_hi / R matter; both are
    evaluated from raw traces of the grid operator
    against the spec's actual signal ensemble.  Also tracks the
    sign-discrimination ratio across the grid.
    """
    m, c, mu_hi, mu_lo, cell = _estimator_grid(spec, grid_resolution)
    s_arr = np.array([sig[1] for sig in SIGNALS], dtype=np.float64)
    coeff = spec.penalty_coefficient
    base = 2.0 * np.einsum("k,ki->i", s_arr - coeff, c)  # payoff per unit mu
    payoff = np.where(base > 0.0, mu_hi * base, mu_lo * base)
    mu_best = np.where(base > 0.0, mu_hi, mu_lo)

    k_best = int(np.argmax(payoff))
    argmax = BlochVector(m[k_best], float(mu_best[k_best]))

    exact = qrs_payoff_exact(spec, NoStateCheat(argmax, "constant"))
    if abs(exact - payoff[k_best]) > 1e-10 * max(1.0, abs(exact)):
        raise RuntimeError(
            "grid payoff disagrees with exact cheat evaluation at the argmax: "
            f"{payoff[k_best]!r} vs {exact!r}"
        )

    plus_rows = [SIGNALS.index((j, 1)) for j in (1, 2, 3)]
    minus_rows = [SIGNALS.index((j, -1)) for j in (1, 2, 3)]
    tp = _conditional_setting_weights(spec, 1) @ c[plus_rows]
    fp = _conditional_setting_weights(spec, -1) @ c[minus_rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(fp > 0.0, tp / np.where(fp > 0.0, fp, 1.0), np.inf)
    max_ratio = float(np.max(ratio))

    return GridCheatResult(
        max_payoff=float(payoff[k_best]),
        argmax=argmax,
        max_ratio=max_ratio,
        grid_cell_size=cell,
        n_points=int(m.shape[0]),
    )


@dataclass(frozen=True)
class CommBaGridResult:
    """Grid search over Bob-to-Alice cheats (estimator x reply rules)."""

    max_payoff: float
    argmax: BlochVector
    bob_rule: tuple
    alice_rule: str
    n_points: int


_BA_BOB_RULES = ((), (1,), (-1,), (1, -1))


def grid_max_comm_ba(spec: SteeringGameSpec, grid_resolution: int) -> CommBaGridResult:
    """Exhaust Bob-to-Alice cheats: estimator grid times all deterministic rules.

    Bob's reply rule maps his guess to b, Alice's rule maps the
    transmitted guess to a; both are enumerated exactly while the
    estimator sweeps the same grid as :func:`grid_max_cheat`.
    """
    m, c, mu_hi, mu_lo, _ = _estimator_grid(spec, grid_resolution)
    s_arr = np.array([sig[1] for sig in SIGNALS], dtype=np.float64)
    coeff = spec.penalty_coefficient

    best = None
    for bob_rule in _BA_BOB_RULES:
        g_plus = 1.0 if 1 in bob_rule else 0.0
        g_minus = 1.0 if -1 in bob_rule else 0.0
        for rule_name, amap in ALICE_RULES_BA.items():
            a_plus, a_minus = amap[1], amap[-1]
            # per condition: e_ab = p (a+ g+) + (1-p)(a- g-), e_b likewise,
            # with p = mu * c; the payoff is affine in mu.
            k1 = s_arr * (a_plus * g_plus - a_minus * g_minus) - coeff * (
                g_plus - g_minus
            )
            const = float(np.sum(s_arr * a_minus * g_minus - coeff * g_minus))
            slope = k1 @ c
            payoff = 2.0 * (np.where(slope > 0.0, mu_hi, mu_lo) * slope + const)
            k_best = int(np.argmax(payoff))
            if best is None or payoff[k_best] > best[0]:
                mu = mu_hi[k_best] if slope[k_best] > 0.0 else mu_lo[k_best]
                best = (
                    float(payoff[k_best]),
                    BlochVector(m[k_best], float(mu)),
                    bob_rule,
                    rule_name,
                )
    return CommBaGridResult(
        max_payoff=best[0],
        argmax=best[1],
        bob_rule=best[2],
        alice_rule=best[3],
        n_points=int(m.shape[0]),
    )


def random_lhs_strategy(
    rng: np.random.Generator, hidden_dim: int, n_lambda: int
) -> LhsStrategy:
    """Draw a random hidden-state model (Dirichlet weights, G^dag G states,
    uniform response biases, sum-normalised random joint POVM)."""
    weights = rng.dirichlet(np.ones(n_lambda))
    states = tuple(random_density(rng, hidden_dim) for _ in range(n_lambda))
    responses = rng.uniform(-1.0, 1.0, size=(n_lambda, 3))
    bob = random_povm(rng, 2 * hidden_dim, 2)
    return LhsStrategy(weights, states, responses, bob)


def _extremal_lhs_strategy(direction) -> LhsStrategy:
    """Boundary probe: a deterministic model steering along one direction.

    With a trivial hidden space, E_1 the projector along ``direction``
    on the signal qubit and response signs matched to it, the model
    saturates sum_j <a_j sigma_j> = sum_j |u_j|; for the diagonal
    direction this reaches sqrt(3) and the payoff exactly zero.
    """
    u = np.asarray(direction, dtype=np.float64)
    u = u / np.linalg.norm(u)
    proj = np.eye(2, dtype=np.complex128) / 2.0
    for j in (1, 2, 3):
        proj = proj + (u[j - 1] / 2.0) * pauli(j)
    bob = Povm((np.eye(2, dtype=np.complex128) - proj, proj))
    responses = np.array([[1.0 if x >= 0 else -1.0 for x in u]])
    hidden = (DensityOperator(np.eye(1, dtype=np.complex128)),)
    return LhsStrategy(np.array([1.0]), hidden, responses, bob)


_PROBE_DIRECTIONS = (
    (1.0, 1.0, 1.0),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (-1.0, 1.0, 1.0),
)


@dataclass(frozen=True)
class LhsSuiteReport:
    """Outcome of the randomized hidden-state no-win sweep."""

    trials: int
    probes: int
    seed: int
    max_payoff: float
    max_route_gap: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "probes": self.probes,
            "seed": self.seed,
            "max_payoff": self.max_payoff,
            "max_route_gap": self.max_route_gap,
            "passed": self.passed,
            "failures": self.failures,
        }


#: Hidden dimensions and hidden-variable counts the random suite cycles through.
_LHS_DIMS = (2, 3, 4)
_LHS_LAMBDA_SIZES = (1, 4, 8)


def random_lhs_suite(
    trials: int,
    rng_seed: int = 0,
    spec: SteeringGameSpec | None = None,
    include_probes: bool = True,
) -> LhsSuiteReport:
    """Verify no hidden-state model wins, over random draws plus boundary probes.

    Trial t draws from the child generator seeded by (rng_seed, t), with
    hidden dimension ``_LHS_DIMS[t % 3]`` and hidden-variable count
    ``_LHS_LAMBDA_SIZES[(t // 3) % 3]``.  A trial fails when its exact
    payoff exceeds 1e-9 or the two evaluation routes disagree beyond
    1e-10; failing strategies are serialised into the report.
    """
    if spec is None:
        spec = SteeringGameSpec.ideal()
    max_payoff = -np.inf
    max_gap = 0.0
    failures = []

    def _evaluate(strategy, label):
        nonlocal max_payoff, max_gap
        direct, reduced = lhs_payoff_routes(strategy, spec)
        gap = abs(direct - reduced)
        max_payoff = max(max_payoff, direct)
        max_gap = max(max_gap, gap)
        if direct > 1e-9 or gap > 1e-10:
            failures.append(
                {
                    "label": label,
                    "payoff": direct,
                    "route_gap": gap,
                    "strategy": strategy_to_json(strategy),
                }
            )

    for t in range(int(trials)):
        rng = np.random.default_rng([int(rng_seed), t])
        d = _LHS_DIMS[t % len(_LHS_DIMS)]
        n_lambda = _LHS_LAMBDA_SIZES[(t // len(_LHS_DIMS)) % len(_LHS_LAMBDA_SIZES)]
        _evaluate(random_lhs_strategy(rng, d, n_lambda), f"trial-{t}")

    n_probes = 0
    if include_probes:
        for i, direction in enumerate(_PROBE_DIRECTIONS):
            _evaluate(_extremal_lhs_strategy(direction), f"probe-{i}")
            n_probes += 1

    return LhsSuiteReport(
        trials=int(trials),
        probes=n_probes,
        seed=int(rng_seed),
        max_payoff=float(max_payoff),
        max_route_gap=float(max_gap),
        failures=failures,
    )


@dataclass(frozen=True)
class ThresholdScan:
    """Werner-family sweep of every functional against its bound."""

    rows: list
    crossings: dict


@dataclass(frozen=True, eq=False)
class WernerColumns:
    """The r-independent part of a threshold scan, one entry per W.

    ``rows[i]`` holds ``w`` and the witness2, steering2, steering3 and
    chsh values of ``werner_state(w)``; ``tables[i]`` is the honest
    strategy's correlation table on that state under the ideal signal
    ensemble, whose <ab> and <b> do not depend on r.
    """

    rows: tuple
    tables: tuple


_SCAN_BOUNDS = {
    "witness2": 1.0,
    "steering2": np.sqrt(2.0),
    "steering3": np.sqrt(3.0),
    "chsh": 2.0,
    "qrs_payoff": 0.0,
}


def werner_columns(w_grid) -> WernerColumns:
    """Evaluate everything a threshold scan needs that does not depend on r.

    The steering correlations use Alice's optimal observables -sigma_j,
    computed from raw traces; the honest tables run through the full
    exact engine.  Build the columns once and pass them to
    :func:`threshold_scan` for each r.
    """
    grid = [float(w) for w in w_grid]
    if not grid:
        raise ValueError("empty Werner grid")
    spec = SteeringGameSpec.ideal()
    honest = honest_strategy()
    rows = []
    tables = []
    for w in grid:
        state = werner_state(w)
        c = [correlator(state, -pauli(j), pauli(j)) for j in (1, 2, 3)]
        rows.append(
            {
                "w": w,
                "witness2": witness2_value(state),
                "steering2": steering2_value(c[0], c[1]),
                "steering3": steering3_value(c[0], c[1], c[2]),
                "chsh": chsh_from_state(state),
            }
        )
        tables.append(correlation_table(spec, honest, state))
    return WernerColumns(rows=tuple(rows), tables=tuple(tables))


def threshold_scan(columns: WernerColumns, r: float = 1.0) -> ThresholdScan:
    """Tabulate witness/steering/CHSH values and the honest game payoff on
    Werner states, locating where each first exceeds its bound.

    ``columns`` are the :class:`WernerColumns` that :func:`werner_columns`
    built from a W grid.  Only ``qrs_payoff`` depends on r, so a sweep
    over r builds the columns once and passes them here for each r.
    """
    spec = SteeringGameSpec.ideal(r=r)
    rows = [
        {**base, "qrs_payoff": table.payoff(spec)}
        for base, table in zip(columns.rows, columns.tables)
    ]
    crossings = {}
    for name, bound in _SCAN_BOUNDS.items():
        crossing = None
        for row in rows:
            if row[name] > bound:
                crossing = row["w"]
                break
        crossings[name] = crossing
    return ThresholdScan(rows=rows, crossings=crossings)
