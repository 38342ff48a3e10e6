"""The estimator-grid cheat searches and the sign-discrimination statistics.

``verify`` decides its cheat checks by the exact certificates of
``oracle.cheat_certificates``.  These searches are the independent
cross-check the tests hold the certificates to: they recompute payoffs
from raw traces over explicit estimator grids, a sampled lower bound on
the same maxima.  Only tests call them, so each search builds its whole
grid at once: 2 R^3 points, about 56 MB traced at the largest resolution
the tests use (R = 50).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qrgames.games import SIGNALS, SteeringGameSpec, qrs_payoff_exact
from qrgames.qcore import _PAULI, BlochVector
from qrgames.strategies import ClassicalCheat

from reference_cheats import ALICE_RULES


@dataclass(frozen=True)
class DiscriminationStats:
    """Bob's sign-discrimination quality for one estimator.

    ``true_positive`` is the average probability of guessing +1 when
    s = +1, ``false_positive`` the same when s = -1, averaged over the
    referee's setting distribution.  Winning as a no-state cheat at
    r = 1 would require the ratio to exceed (sqrt(3)+1)/(sqrt(3)-1),
    which no valid estimator reaches against the calibrated ensemble.
    """

    true_positive: float
    false_positive: float

    @property
    def ratio(self) -> float:
        if self.false_positive <= 0.0:
            return float("inf")
        return self.true_positive / self.false_positive


#: p(j | s) for j = 1, 2, 3, the same for either sign s: the referee
#: draws the conditions uniformly.
_SETTING_WEIGHTS = np.full(3, 1.0 / 3.0)


def discrimination_stats(
    estimator: BlochVector, spec: SteeringGameSpec
) -> DiscriminationStats:
    """Exact guess probabilities p(+|s) of an estimator against a game's signals."""
    m_plus = estimator.povm_pair()[0]
    rates = {}
    for s in (1, -1):
        rate = 0.0
        for j, weight in zip((1, 2, 3), _SETTING_WEIGHTS.tolist()):
            omega = spec.signal_ensemble[(j, s)]
            rate += weight * float(np.trace(m_plus @ omega.matrix).real)
        rates[s] = rate
    return DiscriminationStats(true_positive=rates[1], false_positive=rates[-1])


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


def _estimator_grid(spec: SteeringGameSpec, grid_resolution: int):
    """The sphere-and-interior estimator grid both cheat searches sweep.

    Directions come from a Fibonacci lattice (2 R^2 points) and radii
    are swept in R steps: 2 R^3 points m.  Returns (m, c, mu_hi, mu_lo,
    cell): the grid vectors m, c[k, i] = Tr[(1 + m_i . sigma) omega_k]
    for each signal condition k, the admissible mu endpoints per point
    and the grid cell size.
    """
    res = int(grid_resolution)
    if res < 10:
        raise ValueError(f"grid resolution must be >= 10, got {grid_resolution!r}")
    n_dir = 2 * res * res
    dirs = fibonacci_sphere(n_dir)
    radii = np.linspace(1.0 / res, 1.0, res)
    m = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    m_hat = np.eye(2, dtype=np.complex128)[None, :, :] + np.einsum(
        "ik,kab->iab", m, _PAULI
    )
    c = np.einsum("iab,kba->ki", m_hat, spec.delivered_signals).real
    mu_hi = 1.0 / (1.0 + np.linalg.norm(m, axis=1))
    cell = float(np.sqrt(4.0 * np.pi / n_dir) + (radii[1] - radii[0]))
    return m, c, mu_hi, mu_hi / res, cell


_SIGNS = np.array([sig[1] for sig in SIGNALS], dtype=np.float64)
_PLUS_ROWS = [SIGNALS.index((j, 1)) for j in (1, 2, 3)]
_MINUS_ROWS = [SIGNALS.index((j, -1)) for j in (1, 2, 3)]


def _best_rule_point(spec: SteeringGameSpec, grid, bob_rule, alice_map):
    """Best grid estimator for one deterministic reply rule.

    ``grid`` is the output of :func:`_estimator_grid`.  Bob replies
    b = 1 on the guesses listed in ``bob_rule``; Alice answers
    ``alice_map[guess]``.  Per condition k, with p = mu c[k] the
    probability of guess +1, e_ab = p a+ g+ + (1 - p) a- g- and e_b
    likewise, so the payoff is affine in mu: only the admissible
    endpoints mu_hi and mu_lo matter.  Returns (payoff, BlochVector) at
    the first grid point that maximises the rule.
    """
    m, c, mu_hi, mu_lo, _ = grid
    coeff = spec.penalty_coefficient
    g_plus = 1.0 if 1 in bob_rule else 0.0
    g_minus = 1.0 if -1 in bob_rule else 0.0
    a_plus, a_minus = alice_map[1], alice_map[-1]
    k1 = _SIGNS * (a_plus * g_plus - a_minus * g_minus) - coeff * (g_plus - g_minus)
    const = float(np.sum(_SIGNS * a_minus * g_minus - coeff * g_minus))
    slope = k1 @ c
    mu = np.where(slope > 0.0, mu_hi, mu_lo)
    payoff = 2.0 * (mu * slope + const)
    k = int(np.argmax(payoff))
    return float(payoff[k]), BlochVector(m[k], float(mu[k]))


def grid_max_cheat(spec: SteeringGameSpec, grid_resolution: int) -> GridCheatResult:
    """Sweep the full estimator family mu*(1 + m.sigma) on the estimator grid.

    The no-state cheat is the reply rule "b = 1 on guess +1, a = +1",
    evaluated from raw traces of the grid operator against the spec's
    actual signal ensemble.  Also tracks the sign-discrimination ratio
    across the grid.
    """
    grid = _estimator_grid(spec, grid_resolution)
    m, c, _, _, cell = grid
    max_payoff, argmax = _best_rule_point(
        spec, grid, (1,), ALICE_RULES["constant_plus"]
    )
    tp = _SETTING_WEIGHTS @ c[_PLUS_ROWS]
    fp = _SETTING_WEIGHTS @ c[_MINUS_ROWS]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(fp > 0.0, tp / np.where(fp > 0.0, fp, 1.0), np.inf)

    exact = qrs_payoff_exact(spec, ClassicalCheat(argmax))
    if abs(exact - max_payoff) > 1e-10 * max(1.0, abs(exact)):
        raise RuntimeError(
            "grid payoff disagrees with exact cheat evaluation at the argmax: "
            f"{max_payoff!r} vs {exact!r}"
        )

    return GridCheatResult(
        max_payoff=max_payoff,
        argmax=argmax,
        max_ratio=float(np.max(ratio)),
        grid_cell_size=cell,
        n_points=len(m),
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
    pairs = [(bob, name) for bob in _BA_BOB_RULES for name in ALICE_RULES]
    grid = _estimator_grid(spec, grid_resolution)
    best = [_best_rule_point(spec, grid, bob, ALICE_RULES[name]) for bob, name in pairs]
    # max() keeps the first of equal payoffs, in enumeration order
    i = max(range(len(pairs)), key=lambda i: best[i][0])
    return CommBaGridResult(*best[i], *pairs[i], n_points=len(grid[0]))
