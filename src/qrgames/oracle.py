"""Exact and randomized verification of the game's no-win guarantees.

One eigenvalue problem decides every cheat check: lambda*, the largest
eigenvalue of the payoff operator Z(alpha) of
``games._payoff_operators`` over Alice's eight answer vertices, bounds
every no-state cheat, hidden-state model and Bob-to-Alice cheat; the
estimator-grid searches the tests keep are its independent cross-check.
The hidden-state suite compares both routes of
``strategies._lhs_routes``, the second of which reads the same Z, for
each model it draws or probes, one model at a time; both hold for any
referee, channel included, that a spec describes.  The Werner scan
evaluates all its states as one stack into one float table, columns in
``SCAN_FIELDS``, the honest payoff taken under the spec's delivered
signals and scored with the penalty coefficient it is given.  Every
check here reads the spec it is given and builds none of its own; a fact
no setting moves, such as the local CHSH bound of 2 or the dual-map
identity that pulls a line's noise into Bob's measurement, is left to
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .games import (
    _CANONICAL_CHSH_OPERATORS,
    SteeringGameSpec,
    _expectations,
    _payoff_operators,
    _payoffs,
    chsh_value,
    outcome_table,
    steering2_value,
    steering3_value,
)
from .qcore import (
    _PAULI,
    _SIGMA_PAIRS,
    _STACK_BLOCK,
    DensityOperator,
    Povm,
    _gram,
    _normalized_povm,
    _unit_trace,
    _werner_matrices,
    pauli,
    tensor,
)
from .strategies import LhsStrategy, _lhs_routes, honest_strategy


#: Alice's answers (alpha_1, alpha_2, alpha_3) in the order the no-state
#: certificate tries them; the first maximiser is the one reported.
_ALPHAS = tuple(product((1, -1), repeat=3))


@dataclass(frozen=True)
class CheatCertificates:
    """The safety number lambda* and the best payoff of the no-state cheats.

    ``lambda_max`` is lambda* = max_alpha lambda_max(Z(alpha)); ``alpha``
    is Alice's answer per setting at the no-state maximum ``no_state``.
    """

    lambda_max: float
    no_state: float
    alpha: tuple


def cheat_certificates(spec: SteeringGameSpec) -> CheatCertificates:
    """lambda*, which bounds every cheat without a quantum state, and the
    best no-state payoff.

    With Z(alpha) the payoff operator of ``games._payoff_operators``, a
    no-state cheat, a hidden-state model and a Bob-to-Alice cheat (any
    message alphabet, Alice's answer any function of j and the message)
    each pay 2 sum_k p_k Tr[X_k Z(alpha^k)] with sum_k p_k X_k <= 1, so
    at most 2 Tr[1] max(lambda*, 0) = 4 max(lambda*, 0).  lambda_max is
    convex and Z affine in alpha, so lambda* is reached at one of the
    eight vertices alpha in {+-1}^3, and when lambda* > 0 the no-state
    cheat replying on the positive eigenspace wins.  The no-state
    certificate is 2 max_alpha Tr[Z(alpha)_+], ties going to the first
    alpha in ``_ALPHAS`` order; the estimator-grid searches the tests
    keep lie below both.  Tr Z(alpha) = -6c < 0, so Z(alpha) has at most
    one positive eigenvalue, and Tr[Z(alpha)_+] is the top one clipped
    at 0.
    """
    eig = np.linalg.eigvalsh(_payoff_operators(spec, np.array(_ALPHAS)))
    no_state = 2.0 * np.maximum(eig[:, -1], 0.0)
    i = int(np.argmax(no_state))
    return CheatCertificates(
        lambda_max=float(eig[:, -1].max()),
        no_state=float(no_state[i]),
        alpha=_ALPHAS[i],
    )


def _random_lhs_strategy(rng: np.random.Generator, hidden_dim: int, n_lambda: int):
    """A random hidden-state model, validated by its construction.

    Draws, in generator order: Dirichlet weights, then each hidden
    state's complex Gaussian G (real part, then imaginary part), then the
    uniform response biases, then the Gaussians of Bob's two joint-POVM
    operators.  Each state is G^dag G at unit trace and Bob's POVM the
    sum-normalised pair.
    """
    weights = rng.dirichlet(np.ones(n_lambda))
    states = _unit_trace(_gram(rng.standard_normal((n_lambda, 2, hidden_dim, hidden_dim))))
    responses = rng.uniform(-1.0, 1.0, size=(n_lambda, 3))
    povm = _normalized_povm(_gram(rng.standard_normal((2, 2, 2 * hidden_dim, 2 * hidden_dim))))
    hidden = tuple(DensityOperator(m) for m in states)
    return LhsStrategy(weights, hidden, responses, Povm(tuple(povm)))


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


def random_lhs_suite(spec: SteeringGameSpec, trials: int, rng_seed: int = 0) -> LhsSuiteReport:
    """Verify no hidden-state model of the game ``spec`` wins, over random
    draws plus boundary probes.

    Trial t draws from the child generator seeded by (rng_seed, t), with
    hidden dimension ``_LHS_DIMS[t % 3]`` and hidden-variable count
    ``_LHS_LAMBDA_SIZES[(t // 3) % 3]``.  A trial fails when its exact
    payoff exceeds 1e-9 or the two evaluation routes disagree beyond
    1e-10 max(1, c), c = ``spec.penalty_coefficient``: both routes carry
    the penalty term 2c, whose rounding grows with c; failing strategies
    are serialised into the report.

    Each trial's model, then each boundary probe, is built as an
    :class:`LhsStrategy`, whose construction validates it, and scored by
    one ``strategies._lhs_routes`` call; the report lists trials then
    probes in order.
    """
    gap_bound = 1e-10 * max(1.0, spec.penalty_coefficient)

    def models():
        for t in range(int(trials)):
            d = _LHS_DIMS[t % len(_LHS_DIMS)]
            n_lambda = _LHS_LAMBDA_SIZES[(t // len(_LHS_DIMS)) % len(_LHS_LAMBDA_SIZES)]
            rng = np.random.default_rng([int(rng_seed), t])
            yield f"trial-{t}", _random_lhs_strategy(rng, d, n_lambda)
        for i, direction in enumerate(_PROBE_DIRECTIONS):
            yield f"probe-{i}", _extremal_lhs_strategy(direction)

    max_payoff = -np.inf
    max_gap = 0.0
    failures = []
    for label, model in models():
        direct, reduced = _lhs_routes(spec, model)
        gap = abs(direct - reduced)
        max_payoff = max(max_payoff, direct)
        max_gap = max(max_gap, gap)
        if direct > 1e-9 or gap > gap_bound:
            from .serialize import strategy_to_json

            failures.append({
                "label": label,
                "payoff": direct,
                "route_gap": gap,
                "strategy": strategy_to_json(model),
            })

    return LhsSuiteReport(
        trials=int(trials),
        probes=len(_PROBE_DIRECTIONS),
        seed=int(rng_seed),
        max_payoff=float(max_payoff),
        max_route_gap=float(max_gap),
        failures=failures,
    )


#: The columns of a scan table; :func:`werner_columns` holds the first
#: five, which do not depend on r.
SCAN_FIELDS = ("w", "witness2", "steering2", "steering3", "chsh", "qrs_payoff")

#: The bound of each functional column, ``SCAN_FIELDS[1:]`` in order.
_SCAN_BOUNDS = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0, 0.0])


@dataclass(frozen=True, eq=False)
class ThresholdScan:
    """Werner-family sweep of every functional against its bound: ``rows`` is
    an (n, 6) float array, and ``crossings`` maps each functional to the
    first W strictly above its bound, or ``None`` (NaN never crosses)."""

    rows: np.ndarray
    crossings: dict


@dataclass(frozen=True, eq=False)
class WernerColumns:
    """The r-independent part of a threshold scan, one entry per W.

    ``rows`` is a read-only (n, 5) float array: ``w`` and the witness2,
    steering2, steering3 and chsh values of ``werner_state(w)``;
    ``e_ab[i]`` and ``e_b[i]`` are the honest strategy's <ab> and <b> on
    that state under the signals a spec delivers, in ``SIGNALS`` order.
    """

    rows: np.ndarray
    e_ab: np.ndarray
    e_b: np.ndarray


#: The operators whose expectations a scan row needs, as one read-only
#: (9, 4, 4) stack: (-sigma_j) x sigma_j for j = 1, 2, 3 (the steering
#: correlators with Alice's optimal observables -sigma_j), sigma_j x
#: sigma_j for j = 1, 2 (the witness), and the four canonical CHSH
#: correlators in ``chsh_value``'s argument order.
_SCAN_OPERATORS = np.concatenate(
    [
        tensor(-_PAULI, _PAULI),
        _SIGMA_PAIRS[:2],
        _CANONICAL_CHSH_OPERATORS,
    ]
)
_SCAN_OPERATORS.setflags(write=False)


def werner_columns(spec: SteeringGameSpec, w_grid) -> WernerColumns:
    """Evaluate everything a threshold scan needs that does not depend on
    the penalty coefficient.

    All W states are built as one (n, 4, 4) stack.  The honest
    strategy's outcome tables are one call over the stack under
    ``spec.delivered_signals``, which validates it, and the exact engine
    turns them into <ab> and <b>; every steering, witness and CHSH
    expectation is one stacked trace.  Each W gets the bits it gets
    alone.  Build the columns once and pass them to
    :func:`threshold_scan` for each penalty coefficient.
    """
    grid = [float(w) for w in w_grid]
    if not grid:
        raise ValueError("empty Werner grid")
    states = _werner_matrices(grid)
    # the honest call validates the stack, before any trace is taken
    tables = outcome_table(spec, honest_strategy(), states)
    x = np.empty((len(grid), len(_SCAN_OPERATORS)))
    for start in range(0, len(grid), _STACK_BLOCK):
        block = slice(start, start + _STACK_BLOCK)
        x[block] = np.trace(_SCAN_OPERATORS @ states[block, None], axis1=-2, axis2=-1).real
    c1, c2, c3 = x[:, 0], x[:, 1], x[:, 2]
    rows = np.column_stack([
        grid,
        abs(x[:, 3] + x[:, 4]),  # |<sigma_1 x sigma_1> + <sigma_2 x sigma_2>|
        steering2_value(c1, c2),
        steering3_value(c1, c2, c3),
        chsh_value(*x[:, 5:].T),
    ])
    rows.setflags(write=False)
    e_ab, e_b = _expectations(tables, np.ones(1))
    return WernerColumns(rows=rows, e_ab=e_ab, e_b=e_b)


def threshold_scan(columns: WernerColumns, c: float) -> ThresholdScan:
    """Tabulate witness/steering/CHSH values and the honest game payoff on
    Werner states, locating where each first exceeds its bound.

    ``columns`` are the :class:`WernerColumns` that :func:`werner_columns`
    built from a spec and a W grid, and ``c`` is the penalty coefficient
    that scores their honest expectations, ``spec.penalty_coefficient``
    for that spec's game.  Only ``qrs_payoff`` depends on c, so a sweep
    over r builds the columns once and passes them here for each c.
    """
    payoffs = _payoffs(columns.e_ab, columns.e_b, c)
    rows = np.column_stack([columns.rows, payoffs])
    above = rows[:, 1:] > _SCAN_BOUNDS
    crossings = {
        name: float(rows[hit.argmax(), 0]) if hit.any() else None
        for name, hit in zip(SCAN_FIELDS[1:], above.T)
    }
    return ThresholdScan(rows=rows, crossings=crossings)
