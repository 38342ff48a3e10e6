"""The exact payoff as the dict round trip it replaced.

``games.qrs_payoff_exact`` reduces an outcome table to the six <ab> and
<b> with ``games._expectations`` and aggregates those arrays directly.
Before, it put the expectations into per-condition dicts keyed by
``SIGNALS``, read them back in ``SIGNALS`` order and aggregated them
there, with the list weights read from the strategy's answer list.
:func:`round_trip_payoff` keeps that formula as the reference the one
reduction is held to bit for bit; :func:`expectation_dicts` is the
per-condition view of the engine's own reduction that the closed-form
tests read, and :func:`round_payoff` is one round's payoff written out,
which the transcripts are held to.
"""

import numpy as np

from qrgames.games import (
    OUTCOMES,
    SIGNALS,
    SQRT3,
    _check_correlations,
    _expectations,
    _list_weights,
    _payoffs,
    outcome_table,
)


def round_trip_payoff(spec, strategy, shared_state=None) -> float:
    """The payoff through per-condition dicts, as the old entry point computed it."""
    table = outcome_table(spec, strategy, shared_state)
    answers = getattr(strategy, "answer_list", None)
    if answers is None:
        weights = np.ones(1)
    else:
        n = len(answers)
        weights = np.array([answers.count(1) / n, answers.count(-1) / n])
    probs = (table * weights[:, None]).sum(axis=-2)
    a = np.array([out[0] for out in OUTCOMES])
    b = np.array([out[1] for out in OUTCOMES])
    ab_by_signal = {sig: float(v) for sig, v in zip(SIGNALS, probs @ (a * b))}
    b_by_signal = {sig: float(v) for sig, v in zip(SIGNALS, probs @ b)}
    e_ab = np.array([ab_by_signal[sig] for sig in SIGNALS])
    e_b = np.array([b_by_signal[sig] for sig in SIGNALS])
    _check_correlations(e_ab, e_b)
    return float(_payoffs(e_ab, e_b, spec.penalty_coefficient))


def expectation_dicts(spec, strategy, shared_state=None):
    """The engine's <ab> and <b> of a strategy, each a dict keyed by ``SIGNALS``."""
    table = outcome_table(spec, strategy, shared_state)
    e_ab, e_b = _expectations(table, _list_weights(strategy, table))
    return dict(zip(SIGNALS, e_ab.tolist())), dict(zip(SIGNALS, e_b.tolist()))


def round_payoff(a, b, s, r=1.0, payoff_bound=SQRT3) -> float:
    """One round's payoff 12 (s a b - c b), with c = r * payoff_bound / 3."""
    c = r * payoff_bound / 3.0
    return 12.0 * (s * a * b - c * b)
