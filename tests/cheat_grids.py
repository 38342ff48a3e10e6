"""The estimator-grid cheat searches and the sign-discrimination statistics.

``verify`` decides its cheat checks by the exact certificates of
``oracle.cheat_certificates``.  These searches are the independent
cross-check the tests hold the certificates to: they recompute payoffs
from raw traces over explicit estimator grids, a sampled lower bound on
the same maxima.  Only tests call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qrgames.games import SIGNALS, SteeringGameSpec, qrs_payoff_exact
from qrgames.qcore import _PAULI, BlochVector
from qrgames.strategies import ALICE_RULES_BA, NoStateCheat


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


def _conditional_setting_weights(spec: SteeringGameSpec, s: int) -> np.ndarray:
    """p(j | s) for j = 1, 2, 3: the referee draws the conditions uniformly."""
    return np.full(3, 1.0 / 3.0)


def discrimination_stats(
    estimator: BlochVector, spec: SteeringGameSpec
) -> DiscriminationStats:
    """Exact guess probabilities p(+|s) of an estimator against a game's signals."""
    m_plus = estimator.povm_pair()[0]
    rates = {}
    for s in (1, -1):
        weights = _conditional_setting_weights(spec, s).tolist()
        rate = 0.0
        for j in (1, 2, 3):
            omega = spec.signal_ensemble[(j, s)]
            rate += weights[j - 1] * float(np.trace(m_plus @ omega.matrix).real)
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
