"""JSON serialisation for strategies and the operators inside them.

Matrices are encoded as ``{"real": [[...]], "imag": [[...]]}`` with
row-major nested lists; Bloch estimators as ``{"m": [x, y, z], "mu": mu}``.
Strategy documents carry a ``"type"`` tag and round-trip losslessly
through :func:`strategy_to_json` / :func:`strategy_from_json`.  The
matching JSON Schema is published as :data:`STRATEGY_SCHEMA` and printed
by the command-line ``schema`` subcommand.
"""

from __future__ import annotations

import numpy as np

from .qcore import BlochVector, DensityOperator, Povm, QuantumChannel
from .strategies import _ALICE_ANSWERS, ClassicalCheat, HonestStrategy, LhsStrategy


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=np.complex128)
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    real = np.asarray(obj["real"], dtype=np.float64)
    imag = np.asarray(obj["imag"], dtype=np.float64)
    if real.shape != imag.shape:
        raise ValueError("real and imag parts must have matching shapes")
    return real + 1j * imag


def bloch_to_json(b: BlochVector) -> dict:
    return {"m": [float(x) for x in b.m], "mu": float(b.mu)}


def bloch_from_json(obj) -> BlochVector:
    return BlochVector(np.asarray(obj["m"], dtype=np.float64), float(obj["mu"]))


def povm_to_json(povm: Povm) -> list:
    return [matrix_to_json(el) for el in povm]


def povm_from_json(obj) -> Povm:
    return Povm(tuple(matrix_from_json(el) for el in obj))


def channel_to_json(channel: QuantumChannel) -> dict:
    return {"kraus": [matrix_to_json(k) for k in channel.kraus_operators]}


def density_to_json(state: DensityOperator) -> dict:
    return matrix_to_json(state.matrix)


def density_from_json(obj) -> DensityOperator:
    return DensityOperator(matrix_from_json(obj))


def strategy_to_json(strategy) -> dict:
    if isinstance(strategy, HonestStrategy):
        return {
            "type": "honest",
            "alice_povms": {str(j): povm_to_json(strategy.alice_povms[j]) for j in (1, 2, 3)},
            "bob_joint_povm": povm_to_json(strategy.bob_joint_povm),
        }
    if isinstance(strategy, LhsStrategy):
        return {
            "type": "lhs",
            "weights": strategy.weights.tolist(),
            "hidden_states": [density_to_json(st) for st in strategy.hidden_states],
            "alice_responses": strategy.alice_responses.tolist(),
            "bob_joint_povm": povm_to_json(strategy.bob_joint_povm),
        }
    if isinstance(strategy, ClassicalCheat):
        if strategy.direction is None:
            answers = strategy.answer_list
            return {
                "type": "no_state_cheat",
                "estimator": bloch_to_json(strategy.estimator),
                "alice_rule": "constant" if answers is None else {"list": list(answers)},
            }
        out = {
            "type": "comm_cheat",
            "direction": strategy.direction,
            "bob_outputs_one_when": list(strategy.bob_outputs_one_when),
            "alice_rule": strategy.alice_rule,
        }
        if strategy.estimator is not None:
            out["estimator"] = bloch_to_json(strategy.estimator)
        return out
    raise ValueError(f"cannot serialise strategy of type {type(strategy).__name__}")


def strategy_from_json(obj) -> object:
    kind = obj.get("type")
    if kind == "honest":
        alice = {int(j): povm_from_json(p) for j, p in obj["alice_povms"].items()}
        return HonestStrategy(
            alice_povms=alice, bob_joint_povm=povm_from_json(obj["bob_joint_povm"])
        )
    if kind == "no_state_cheat":
        rule = obj.get("alice_rule", "constant")
        if isinstance(rule, dict):
            answers = rule["list"]
        elif rule == "constant":
            answers = None
        else:
            raise ValueError(f"unknown alice_rule {rule!r} of a no_state_cheat")
        return ClassicalCheat(bloch_from_json(obj["estimator"]), answer_list=answers)
    if kind == "lhs":
        return LhsStrategy(
            weights=np.asarray(obj["weights"], dtype=np.float64),
            hidden_states=tuple(density_from_json(st) for st in obj["hidden_states"]),
            alice_responses=np.asarray(obj["alice_responses"], dtype=np.float64),
            bob_joint_povm=povm_from_json(obj["bob_joint_povm"]),
        )
    if kind == "comm_cheat":
        est = obj.get("estimator")
        if obj["direction"] is None:  # no direction is what no_state_cheat documents hold
            raise ValueError("unknown communication direction None")
        return ClassicalCheat(
            estimator=None if est is None else bloch_from_json(est),
            direction=obj["direction"],
            bob_outputs_one_when=tuple(obj.get("bob_outputs_one_when", (1,))),
            alice_rule=obj.get("alice_rule", "follow_estimate"),
        )
    raise ValueError(f"unknown strategy type {kind!r}")


_MATRIX_SCHEMA = {
    "type": "object",
    "properties": {
        "real": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "imag": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
    },
    "required": ["real", "imag"],
    "additionalProperties": False,
}

_POVM_SCHEMA = {"type": "array", "items": _MATRIX_SCHEMA, "minItems": 1}

_BLOCH_SCHEMA = {
    "type": "object",
    "properties": {
        "m": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 3,
            "maxItems": 3,
        },
        "mu": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["m", "mu"],
    "additionalProperties": False,
}

_SIGN_LIST_SCHEMA = {
    "type": "array",
    "items": {"enum": [1, -1]},
    "minItems": 1,
}

STRATEGY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qrgames strategy",
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "honest"},
                "alice_povms": {
                    "type": "object",
                    "properties": {
                        "1": _POVM_SCHEMA,
                        "2": _POVM_SCHEMA,
                        "3": _POVM_SCHEMA,
                    },
                    "required": ["1", "2", "3"],
                    "additionalProperties": False,
                },
                "bob_joint_povm": _POVM_SCHEMA,
            },
            "required": ["type", "alice_povms", "bob_joint_povm"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "no_state_cheat"},
                "estimator": _BLOCH_SCHEMA,
                "alice_rule": {
                    "oneOf": [
                        {"const": "constant"},
                        {
                            "type": "object",
                            "properties": {"list": _SIGN_LIST_SCHEMA},
                            "required": ["list"],
                            "additionalProperties": False,
                        },
                    ]
                },
            },
            "required": ["type", "estimator"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "lhs"},
                "weights": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1,
                },
                "hidden_states": {"type": "array", "items": _MATRIX_SCHEMA, "minItems": 1},
                "alice_responses": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number", "minimum": -1, "maximum": 1},
                        "minItems": 3,
                        "maxItems": 3,
                    },
                    "minItems": 1,
                },
                "bob_joint_povm": _POVM_SCHEMA,
            },
            "required": [
                "type",
                "weights",
                "hidden_states",
                "alice_responses",
                "bob_joint_povm",
            ],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "comm_cheat"},
                "direction": {"enum": ["alice_to_bob", "bob_to_alice"]},
                "estimator": _BLOCH_SCHEMA,
                "bob_outputs_one_when": {
                    "type": "array",
                    "items": {"enum": [1, -1]},
                    "maxItems": 2,
                },
                "alice_rule": {"enum": list(_ALICE_ANSWERS)},
            },
            "required": ["type", "direction"],
            "additionalProperties": False,
        },
    ],
}
