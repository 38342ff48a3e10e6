"""The exact payoff as the dict round trip it replaced.

``games.qrs_payoff_exact`` reduces an outcome table to the six <ab> and
<b> with ``games._expectations`` and aggregates those arrays directly.
Before, it put the expectations into the per-condition dicts of a
:class:`CorrelationTable`, read them back in ``SIGNALS`` order and
aggregated them there, with the list weights read from the strategy's
answer list.  :func:`round_trip_payoff` keeps that formula as the
reference the one reduction is held to bit for bit.
"""

import numpy as np

from qrgames.games import OUTCOMES, SIGNALS, CorrelationTable, _payoffs, outcome_table


def round_trip_payoff(spec, strategy, shared_state=None) -> float:
    """The payoff through a :class:`CorrelationTable`, as the old entry point computed it."""
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
    corr = CorrelationTable(dict(zip(SIGNALS, probs @ (a * b))), dict(zip(SIGNALS, probs @ b)))
    e_ab = np.array([corr.e_ab[sig] for sig in SIGNALS])
    e_b = np.array([corr.e_b[sig] for sig in SIGNALS])
    return float(_payoffs(e_ab, e_b, spec.penalty_coefficient))
