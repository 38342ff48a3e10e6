"""Brute-force and randomized verification of the game's no-win guarantees.

The cheat grids recompute payoffs from raw traces over explicit operator
grids, independently of the closed forms the test suite freezes, and
check their argmax against ``games.qrs_payoff_exact``.  The hidden-state
suite compares both routes of ``strategies.lhs_payoff_routes``, evaluated
for a whole group of equally sized models at once; the Werner scan
evaluates all its states as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product

import numpy as np

from .games import (
    _CANONICAL_CHSH_OPERATORS,
    SIGNALS,
    SteeringGameSpec,
    _check_correlations,
    _correlations,
    _payoffs,
    chsh_value,
    outcome_table,
    qrs_payoff_exact,
    steering2_value,
    steering3_value,
)
from .qcore import (
    _PAULI,
    _SIGMA_PAIRS,
    _STACK_BLOCK,
    BlochVector,
    DensityOperator,
    Povm,
    _check_density_stack,
    _check_povm_stack,
    _gram,
    _normalized_povm,
    _unit_trace,
    _werner_matrices,
    pauli,
    tensor,
)
from .serialize import strategy_to_json
from .strategies import (
    ALICE_RULES_BA,
    LhsStrategy,
    NoStateCheat,
    _as_stack,
    _checked_lhs_weights,
    _conditional_setting_weights,
    _lhs_routes,
    honest_strategy,
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


#: Points per block of the estimator grid: the grid searches hold one
#: block at a time, about 3.5 MB traced at any resolution.
_GRID_BLOCK = 8192


def _estimator_grid(spec: SteeringGameSpec, grid_resolution: int):
    """The sphere-and-interior estimator grid both cheat searches sweep.

    Directions come from a Fibonacci lattice (2 R^2 points) and radii
    are swept in R steps; point i is m_i = radii[i // 2R^2] dirs[i % 2R^2].
    Returns (blocks, n_points, cell): an iterator over consecutive
    blocks of at most ``_GRID_BLOCK`` points, the point count 2 R^3 and
    the grid cell size.  Each block is (m, c, mu_hi, mu_lo): its grid
    vectors m, c[k, i] = Tr[(1 + m_i . sigma) omega_k] for each signal
    condition k, and the admissible mu endpoints per point.  No array
    spans the whole grid.
    """
    res = int(grid_resolution)
    if res < 10:
        raise ValueError(f"grid resolution must be >= 10, got {grid_resolution!r}")
    n_dir = 2 * res * res
    n_points = res * n_dir
    dirs = fibonacci_sphere(n_dir)
    radii = np.linspace(1.0 / res, 1.0, res)
    signals = spec.delivered_signals()

    def blocks():
        for start in range(0, n_points, _GRID_BLOCK):
            idx = np.arange(start, min(start + _GRID_BLOCK, n_points))
            m = radii[idx // n_dir, None] * dirs[idx % n_dir]
            m_hat = np.eye(2, dtype=np.complex128)[None, :, :] + np.einsum(
                "ik,kab->iab", m, _PAULI
            )
            c = np.einsum("iab,kba->ki", m_hat, signals).real
            mu_hi = 1.0 / (1.0 + np.linalg.norm(m, axis=1))
            yield m, c, mu_hi, mu_hi / res

    cell = float(np.sqrt(4.0 * np.pi / n_dir) + (radii[1] - radii[0]))
    return blocks(), n_points, cell


_SIGNS = np.array([sig[1] for sig in SIGNALS], dtype=np.float64)
_PLUS_ROWS = [SIGNALS.index((j, 1)) for j in (1, 2, 3)]
_MINUS_ROWS = [SIGNALS.index((j, -1)) for j in (1, 2, 3)]


def _best_rule_point(spec: SteeringGameSpec, blocks, rules):
    """Best grid estimator for each deterministic reply rule, block by block.

    ``blocks`` are the grid blocks of :func:`_estimator_grid`, consumed
    in one pass.  ``rules`` lists (bob_rule, alice_map) pairs: Bob replies b = 1 on
    the guesses listed in ``bob_rule``; Alice answers
    ``alice_map[guess]``.  Per condition k, with p = mu c[k] the
    probability of guess +1, e_ab = p a+ g+ + (1 - p) a- g- and e_b
    likewise, so the payoff is affine in mu: only the admissible
    endpoints mu_hi and mu_lo matter.

    Returns (best, max_ratio).  ``best[r]`` is (payoff, BlochVector) at
    the first grid point that maximises rule r, as np.argmax over the
    whole grid would pick it; ``max_ratio`` is the largest
    sign-discrimination ratio tp / fp over the grid.
    """
    coeff = spec.penalty_coefficient
    lines = []
    for bob_rule, alice_map in rules:
        g_plus = 1.0 if 1 in bob_rule else 0.0
        g_minus = 1.0 if -1 in bob_rule else 0.0
        a_plus, a_minus = alice_map[1], alice_map[-1]
        k1 = _SIGNS * (a_plus * g_plus - a_minus * g_minus) - coeff * (g_plus - g_minus)
        const = float(np.sum(_SIGNS * a_minus * g_minus - coeff * g_minus))
        lines.append((k1, const))
    w_plus = _conditional_setting_weights(spec, 1)
    w_minus = _conditional_setting_weights(spec, -1)

    best = [None] * len(lines)
    max_ratio = -np.inf
    for m, c, mu_hi, mu_lo in blocks:
        for r, (k1, const) in enumerate(lines):
            slope = k1 @ c
            mu = np.where(slope > 0.0, mu_hi, mu_lo)
            payoff = 2.0 * (mu * slope + const)
            k = int(np.argmax(payoff))
            if best[r] is None or payoff[k] > best[r][0]:
                best[r] = (payoff[k], m[k].copy(), mu[k])
        tp = w_plus @ c[_PLUS_ROWS]
        fp = w_minus @ c[_MINUS_ROWS]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(fp > 0.0, tp / np.where(fp > 0.0, fp, 1.0), np.inf)
        max_ratio = max(max_ratio, float(np.max(ratio)))
    best = [(float(p), BlochVector(m, float(mu))) for p, m, mu in best]
    return best, max_ratio


def grid_max_cheat(spec: SteeringGameSpec, grid_resolution: int) -> GridCheatResult:
    """Sweep the full estimator family mu*(1 + m.sigma) on the estimator grid.

    The no-state cheat is the reply rule "b = 1 on guess +1, a = +1",
    evaluated from raw traces of the grid operator against the spec's
    actual signal ensemble.  Also tracks the sign-discrimination ratio
    across the grid.
    """
    blocks, n_points, cell = _estimator_grid(spec, grid_resolution)
    best, max_ratio = _best_rule_point(
        spec, blocks, [((1,), ALICE_RULES_BA["constant_plus"])]
    )
    ((max_payoff, argmax),) = best

    exact = qrs_payoff_exact(spec, NoStateCheat(argmax, "constant"))
    if abs(exact - max_payoff) > 1e-10 * max(1.0, abs(exact)):
        raise RuntimeError(
            "grid payoff disagrees with exact cheat evaluation at the argmax: "
            f"{max_payoff!r} vs {exact!r}"
        )

    return GridCheatResult(
        max_payoff=max_payoff,
        argmax=argmax,
        max_ratio=max_ratio,
        grid_cell_size=cell,
        n_points=n_points,
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
    estimator sweeps the same grid as :func:`grid_max_cheat`, all 16
    rule pairs in one pass.
    """
    pairs = [(bob, name) for bob in _BA_BOB_RULES for name in ALICE_RULES_BA]
    blocks, n_points, _ = _estimator_grid(spec, grid_resolution)
    best, _ = _best_rule_point(
        spec, blocks, [(bob, ALICE_RULES_BA[name]) for bob, name in pairs]
    )
    # max() keeps the first of equal payoffs, in enumeration order
    i = max(range(len(pairs)), key=lambda i: best[i][0])
    return CommBaGridResult(*best[i], *pairs[i], n_points=n_points)


def _draw_lhs(rng: np.random.Generator, hidden_dim: int, n_lambda: int):
    """The raw random draws of one hidden-state model, in generator order.

    Dirichlet weights, then each hidden state's complex Gaussian (real
    part, then imaginary part), then the uniform response biases, then
    the Gaussians of Bob's two joint-POVM operators: the numbers that
    drawing each state, then the POVM, one object at a time consumes.
    """
    weights = rng.dirichlet(np.ones(n_lambda))
    states = rng.standard_normal((n_lambda, 2, hidden_dim, hidden_dim))
    responses = rng.uniform(-1.0, 1.0, size=(n_lambda, 3))
    povm = rng.standard_normal((2, 2, 2 * hidden_dim, 2 * hidden_dim))
    return weights, states, responses, povm


def _lhs_parameters(weights, states, responses, povm):
    """Model parameters from stacked raw draws of :func:`_draw_lhs`.

    Each state is G^dag G at unit trace and Bob's POVM the sum-normalised
    pair; returns (weights, states, responses, povm elements) as stacks.
    """
    return weights, _unit_trace(_gram(states)), responses, _normalized_povm(_gram(povm))


def _lhs_strategy(weights, states, responses, elements) -> LhsStrategy:
    return LhsStrategy(
        weights, tuple(DensityOperator(m) for m in states), responses, Povm(tuple(elements))
    )


def random_lhs_strategy(
    rng: np.random.Generator, hidden_dim: int, n_lambda: int
) -> LhsStrategy:
    """Draw a random hidden-state model (Dirichlet weights, G^dag G states,
    uniform response biases, sum-normalised random joint POVM)."""
    return _lhs_strategy(*_lhs_parameters(*_draw_lhs(rng, hidden_dim, n_lambda)))


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

#: Most trials the suite evaluates as one stack.  Larger groups save no
#: measurable time but raise ``verify``'s peak RSS through the allocator's
#: high-water mark: about 0.3 MB at 32 trials, 0.1 MB at 16.
_LHS_GROUP = 8


def random_lhs_suite(
    trials: int,
    rng_seed: int = 0,
    spec: SteeringGameSpec | None = None,
) -> LhsSuiteReport:
    """Verify no hidden-state model wins, over random draws plus boundary probes.

    Trial t draws from the child generator seeded by (rng_seed, t), with
    hidden dimension ``_LHS_DIMS[t % 3]`` and hidden-variable count
    ``_LHS_LAMBDA_SIZES[(t // 3) % 3]``.  A trial fails when its exact
    payoff exceeds 1e-9 or the two evaluation routes disagree beyond
    1e-10 max(1, c), c = ``spec.penalty_coefficient``: both routes carry
    the penalty term 2c, whose rounding grows with c; failing strategies
    are serialised into the report.

    The trials are evaluated in groups of equal (dimension, count), each
    of at most ``_LHS_GROUP`` trials, and the probes as one more group
    (28 groups for the default 200 trials).  Each group's
    states and POVMs are validated as stacks, and both routes of
    ``strategies._lhs_routes`` run over the whole group.  Every model
    gets the bits it gets alone, and the report lists trials then probes
    in order.
    """
    if spec is None:
        spec = SteeringGameSpec.ideal()
    gap_bound = 1e-10 * max(1.0, spec.penalty_coefficient)
    groups = {}
    for t in range(int(trials)):
        d = _LHS_DIMS[t % len(_LHS_DIMS)]
        n_lambda = _LHS_LAMBDA_SIZES[(t // len(_LHS_DIMS)) % len(_LHS_LAMBDA_SIZES)]
        groups.setdefault((d, n_lambda), []).append(t)

    def outcome(label, direct, reduced, build):
        """(label, payoff, route gap, the model's JSON if it fails, else None)."""
        direct = float(direct)
        gap = abs(direct - float(reduced))
        failed = direct > 1e-9 or gap > gap_bound
        return label, direct, gap, strategy_to_json(build()) if failed else None

    outcomes = [None] * int(trials)
    blocks = [
        (key, ts[start:start + _LHS_GROUP])
        for key, ts in groups.items()
        for start in range(0, len(ts), _LHS_GROUP)
    ]
    for (d, n_lambda), ts in blocks:
        draws = [_draw_lhs(np.random.default_rng([int(rng_seed), t]), d, n_lambda) for t in ts]
        weights, states, responses, elements = _lhs_parameters(
            *(np.stack(arrays) for arrays in zip(*draws))
        )
        _check_density_stack(states.reshape(-1, d, d))
        _check_povm_stack(elements)
        weights = _checked_lhs_weights(weights, responses)
        routes = _lhs_routes(spec, weights, states, responses, elements[:, 1])
        for i, (t, direct, reduced) in enumerate(zip(ts, *routes)):
            build = partial(_lhs_strategy, weights[i], states[i], responses[i], elements[i])
            outcomes[t] = outcome(f"trial-{t}", direct, reduced, build)

    probes = [_extremal_lhs_strategy(direction) for direction in _PROBE_DIRECTIONS]
    routes = _lhs_routes(spec, *map(np.concatenate, zip(*map(_as_stack, probes))))
    for i, (probe, direct, reduced) in enumerate(zip(probes, *routes)):
        outcomes.append(outcome(f"probe-{i}", direct, reduced, lambda probe=probe: probe))

    max_payoff = -np.inf
    max_gap = 0.0
    failures = []
    for label, direct, gap, strategy in outcomes:
        max_payoff = max(max_payoff, direct)
        max_gap = max(max_gap, gap)
        if strategy is not None:
            failures.append(
                {"label": label, "payoff": direct, "route_gap": gap, "strategy": strategy}
            )

    return LhsSuiteReport(
        trials=int(trials),
        probes=len(_PROBE_DIRECTIONS),
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
    chsh values of ``werner_state(w)``; ``e_ab[i]`` and ``e_b[i]`` are the
    honest strategy's <ab> and <b> on that state under the ideal signal
    ensemble, in ``SIGNALS`` order, which do not depend on r.
    """

    rows: tuple
    e_ab: np.ndarray
    e_b: np.ndarray


_SCAN_BOUNDS = {
    "witness2": 1.0,
    "steering2": np.sqrt(2.0),
    "steering3": np.sqrt(3.0),
    "chsh": 2.0,
    "qrs_payoff": 0.0,
}


#: The operators whose expectations a scan row needs, as one read-only
#: (9, 4, 4) stack: (-sigma_j) x sigma_j for j = 1, 2, 3 (the steering
#: correlators with Alice's optimal observables -sigma_j), sigma_j x
#: sigma_j for j = 1, 2 (the witness), and the four canonical CHSH
#: correlators in ``chsh_value``'s argument order.
_SCAN_OPERATORS = np.concatenate(
    [
        np.stack([tensor(-pauli(j), pauli(j)) for j in (1, 2, 3)]),
        _SIGMA_PAIRS[:2],
        _CANONICAL_CHSH_OPERATORS,
    ]
)
_SCAN_OPERATORS.setflags(write=False)


def werner_columns(w_grid) -> WernerColumns:
    """Evaluate everything a threshold scan needs that does not depend on r.

    All W states are built as one (n, 4, 4) stack.  The honest
    strategy's outcome tables are one call over the stack, which
    validates it, and the exact engine turns them into <ab> and <b>;
    every steering, witness and CHSH expectation is one stacked trace.  Each W gets the bits it
    gets alone.  Build the columns once and pass them to
    :func:`threshold_scan` for each r.
    """
    grid = [float(w) for w in w_grid]
    if not grid:
        raise ValueError("empty Werner grid")
    states = _werner_matrices(grid)
    # the honest call validates the stack, before any trace is taken
    tables = outcome_table(SteeringGameSpec.ideal(), honest_strategy(), states)
    x = np.empty((len(grid), len(_SCAN_OPERATORS)))
    for start in range(0, len(grid), _STACK_BLOCK):
        block = slice(start, start + _STACK_BLOCK)
        x[block] = np.trace(_SCAN_OPERATORS @ states[block, None], axis1=-2, axis2=-1).real
    c1, c2, c3 = x[:, 0], x[:, 1], x[:, 2]
    columns = {
        "witness2": abs(x[:, 3] + x[:, 4]),  # witness2_value's sum
        "steering2": steering2_value(c1, c2),
        "steering3": steering3_value(c1, c2, c3),
        "chsh": chsh_value(*x[:, 5:].T),
    }
    rows = [
        {"w": w, **dict(zip(columns, values))}
        for w, values in zip(grid, zip(*(v.tolist() for v in columns.values())))
    ]
    e_ab, e_b = _correlations(tables, np.ones(1))
    _check_correlations(e_ab, e_b)
    return WernerColumns(rows=tuple(rows), e_ab=e_ab, e_b=e_b)


def threshold_scan(columns: WernerColumns, r: float = 1.0) -> ThresholdScan:
    """Tabulate witness/steering/CHSH values and the honest game payoff on
    Werner states, locating where each first exceeds its bound.

    ``columns`` are the :class:`WernerColumns` that :func:`werner_columns`
    built from a W grid.  Only ``qrs_payoff`` depends on r, so a sweep
    over r builds the columns once and passes them here for each r.
    """
    spec = SteeringGameSpec.ideal(r=r)
    payoffs = _payoffs(columns.e_ab, columns.e_b, spec.penalty_coefficient).tolist()
    rows = [{**base, "qrs_payoff": p} for base, p in zip(columns.rows, payoffs)]
    crossings = {}
    for name, bound in _SCAN_BOUNDS.items():
        crossing = None
        for row in rows:
            if row[name] > bound:
                crossing = row["w"]
                break
        crossings[name] = crossing
    return ThresholdScan(rows=rows, crossings=crossings)
