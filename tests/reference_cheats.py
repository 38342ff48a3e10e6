"""The classical cheats' outcome tables as two formulas, one per play.

``ClassicalCheat`` builds every table from one relative-guess rule.  These
are the formulas it replaced, kept as references it is held to bit for
bit: :func:`no_state_table` for the cheat without communication (Alice
answers +1, or a +-1 list's value, and Bob replies b = 1 when his guess
matches her answer) and :func:`comm_table` for the one-way-communication
cheats.  Both return ``(6, V, 4)`` tables as ``outcome_distribution`` does.
"""

import numpy as np

from qrgames.games import OUTCOMES, SIGNALS, SteeringGameSpec
from qrgames.strategies import _clean_distribution

#: Alice's answer a to each guess Bob transmits, per Bob-to-Alice rule.
ALICE_RULES = {
    "follow_estimate": {1: 1, -1: -1},
    "negate_estimate": {1: -1, -1: 1},
    "constant_plus": {1: 1, -1: 1},
    "constant_minus": {1: -1, -1: -1},
}

_IDEAL_SIGNALS = SteeringGameSpec().delivered_signals


def no_state_table(estimator, answer_list, signals) -> np.ndarray:
    """The table of the cheat without communication; a list adds the a = -1 variant."""
    p_plus = np.trace(estimator.povm_pair()[0] @ signals, axis1=1, axis2=2).real
    p_minus = 1.0 - p_plus
    zero = np.zeros_like(p_plus)
    # b = 1 exactly when Bob's guess matches Alice's answer, in OUTCOMES order
    variants = [(p_minus, p_plus, zero, zero)]  # a = +1
    if answer_list is not None:
        variants.append((zero, zero, 1.0 - p_minus, p_minus))  # a = -1
    table = np.stack([np.stack(v, axis=-1) for v in variants], axis=1)
    return _clean_distribution(table)


def comm_table(direction, estimator, bob_outputs_one_when, alice_rule, signals) -> np.ndarray:
    """The table of a one-way-communication cheat.

    ``alice_to_bob``: Bob measures sigma_j, answers b = 1 on guess +1, and
    Alice answers +1.  ``bob_to_alice``: Bob guesses with the estimator,
    replies b = 1 on the guesses listed, and Alice maps his guess by the
    named rule.
    """
    if direction == "alice_to_bob":
        m_plus = np.repeat(_IDEAL_SIGNALS[::2], 2, axis=0)
    else:
        m_plus = estimator.povm_pair()[0]
    p_plus = np.trace(m_plus @ signals, axis1=1, axis2=2).real
    table = np.zeros((len(SIGNALS), 1, len(OUTCOMES)))
    for guess, p in ((1, p_plus), (-1, 1.0 - p_plus)):
        if direction == "alice_to_bob":
            a, b = 1, (1 if guess == 1 else 0)
        else:
            b = 1 if guess in bob_outputs_one_when else 0
            a = ALICE_RULES[alice_rule][guess]
        table[:, 0, OUTCOMES.index((a, b))] += p
    return _clean_distribution(table)
