"""The package's public names."""

import importlib
import inspect

import qrgames
from qrgames import games
from qrgames.qcore import DensityOperator


def test_public_names_resolve_once():
    names = qrgames.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qrgames, name) is not None


#: Names that left the package, each with the module that defined it.
_REMOVED = {
    "cheat_payoff_no_state": "strategies",
    "comm_cheat_payoff": "strategies",
    "lhs_payoff_exact": "strategies",
    "dual_channel": "qcore",
    "discrimination_stats": "strategies",
    "Transcript": "simulator",
    "classical_witness_payoff": "games",
    "correlator": "games",
    "chsh_from_state": "games",
    "witness2_value": "games",
    "CorrelationTable": "games",
    "correlation_table": "games",
    "apply_channel": "qcore",
    "partial_trace": "qcore",
    "programmed_povm": "strategies",
    "ChshEnumeration": "oracle",
    "enumerate_chsh_deterministic": "oracle",
    "modified_povm": "simulator",
    "noisy_equivalence_check": "simulator",
    "EquivalenceReport": "simulator",
    "_EQUIVALENCE_TOL": "simulator",
    "_state_basis": "simulator",
    "per_round_payoff": "games",
}


def test_removed_payoff_wrappers_are_not_exported():
    for name, module in _REMOVED.items():
        assert name not in qrgames.__all__
        assert not hasattr(qrgames, name)
        assert not hasattr(importlib.import_module(f"qrgames.{module}"), name)


def test_removed_knobs_are_gone():
    assert not hasattr(DensityOperator, "expectation")
    assert "check" not in inspect.signature(games._expectations).parameters
