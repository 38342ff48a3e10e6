"""Quantum-refereed steering games: exact evaluation, simulation, verification.

A referee announces a measurement axis to Alice and sends Bob a qubit
that encodes a sign along that axis; the pair tries to certify their
shared entangled state through the referee's payoff.  This package
evaluates strategies exactly (honest partial-Bell measurements,
hidden-state models, and one class for the classical cheats, silent or
with one-way communication), simulates rounds reproducibly, and verifies
that no cheat wins an honestly calibrated game.

Only ``run`` needs :mod:`qrgames.simulator`, so its five names in ``__all__``
(``PayoffEstimate``, ``RunConfig``, ``run_game``, ``write_summary_json``,
``write_transcript_csv``) load it on first use.
"""

import os
import sys

# every operator here is a qubit or two-qubit matrix, too small for BLAS threads;
# OpenBLAS reads the variable once, when numpy loads, and a user's setting wins
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .games import (
    SIGNALS,
    SQRT2,
    SQRT3,
    SteeringGameSpec,
    canonical_chsh_settings,
    chsh_value,
    ideal_signal_ensemble,
    outcome_table,
    qrs_payoff_exact,
    single_axis_ensemble,
    steering2_value,
    steering3_value,
)
from .qcore import (
    BlochVector,
    DensityOperator,
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    bloch_operator,
    depolarizing_channel,
    identity_channel,
    pauli,
    signal_state,
    singlet_projector,
    tensor,
    werner_state,
)
from .strategies import (
    ClassicalCheat,
    HonestStrategy,
    LhsStrategy,
    best_estimator,
    honest_strategy,
    partial_bell_povm,
)

_SIMULATOR_NAMES = frozenset(
    ("PayoffEstimate", "RunConfig", "run_game", "write_summary_json", "write_transcript_csv")
)


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator
        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "SIGNALS",
    "SQRT2",
    "SQRT3",
    "BlochVector",
    "ClassicalCheat",
    "DensityOperator",
    "HonestStrategy",
    "LhsStrategy",
    "PayoffEstimate",
    "Povm",
    "QuantumChannel",
    "RunConfig",
    "SteeringGameSpec",
    "amplitude_damping_channel",
    "best_estimator",
    "bloch_operator",
    "canonical_chsh_settings",
    "chsh_value",
    "depolarizing_channel",
    "honest_strategy",
    "ideal_signal_ensemble",
    "identity_channel",
    "outcome_table",
    "partial_bell_povm",
    "pauli",
    "qrs_payoff_exact",
    "run_game",
    "signal_state",
    "single_axis_ensemble",
    "singlet_projector",
    "steering2_value",
    "steering3_value",
    "tensor",
    "werner_state",
    "write_summary_json",
    "write_transcript_csv",
]
