"""JSON round-trips for operators, channels, and strategy descriptions."""

import json
import re

import jsonschema
import numpy as np
import pytest

from qrgames.games import SteeringGameSpec, qrs_payoff_exact
from qrgames.qcore import (
    BlochVector,
    QuantumChannel,
    depolarizing_channel,
    werner_state,
)
from qrgames.serialize import (
    STRATEGY_SCHEMA,
    bloch_from_json,
    bloch_to_json,
    channel_to_json,
    density_from_json,
    density_to_json,
    matrix_from_json,
    matrix_to_json,
    povm_from_json,
    povm_to_json,
    strategy_from_json,
    strategy_to_json,
)
from qrgames.strategies import (
    ClassicalCheat,
    LhsStrategy,
    best_estimator,
    honest_strategy,
)

from random_draws import random_density, random_povm


def _round_trip(obj):
    """Force a pass through actual JSON text, not just dicts."""
    return json.loads(json.dumps(obj))


def _channel_from_json(obj) -> QuantumChannel:
    """Decode a ``channel_to_json`` document; the package only writes channels."""
    return QuantumChannel(tuple(matrix_from_json(k) for k in obj["kraus"]))


def test_matrix_round_trip(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = matrix_from_json(_round_trip(matrix_to_json(m)))
    assert np.allclose(back, m, atol=0)
    assert back.dtype == np.complex128


def test_bloch_round_trip():
    b = best_estimator()
    back = bloch_from_json(_round_trip(bloch_to_json(b)))
    assert np.array_equal(back.m, b.m)
    assert back.mu == b.mu


def test_povm_round_trip(rng):
    povm = random_povm(rng, 4, 3)
    back = povm_from_json(_round_trip(povm_to_json(povm)))
    assert back.n_outcomes == 3
    for orig, copy in zip(povm, back):
        assert np.allclose(orig, copy, atol=0)


def test_channel_round_trip():
    ch = depolarizing_channel(0.3)
    back = _channel_from_json(_round_trip(channel_to_json(ch)))
    state = random_density(np.random.default_rng(5), 2)
    assert np.allclose(
        ch.apply_to_matrix(state.matrix), back.apply_to_matrix(state.matrix), atol=0
    )


def test_density_round_trip():
    state = werner_state(0.8)
    back = density_from_json(_round_trip(density_to_json(state)))
    assert np.allclose(back.matrix, state.matrix, atol=0)


@pytest.mark.parametrize(
    "strategy",
    [
        honest_strategy(),
        ClassicalCheat(best_estimator()),
        ClassicalCheat(BlochVector(np.array([0.4, -0.2, 0.1]), 0.3), answer_list=(1, -1, 1)),
        ClassicalCheat(direction="alice_to_bob"),
        ClassicalCheat(best_estimator(), "bob_to_alice", (1, -1), "negate_estimate"),
    ],
    ids=["honest", "cheat-const", "cheat-list", "comm-ab", "comm-ba"],
)
def test_strategy_round_trip_preserves_payoff(strategy):
    spec = SteeringGameSpec.ideal(r=1.081)
    blob = _round_trip(strategy_to_json(strategy))
    jsonschema.validate(blob, STRATEGY_SCHEMA)
    back = strategy_from_json(blob)
    assert type(back) is type(strategy)
    assert strategy_to_json(back) == blob
    state = werner_state(0.9) if strategy.needs_shared_state else None
    assert qrs_payoff_exact(spec, back, shared_state=state) == pytest.approx(
        qrs_payoff_exact(spec, strategy, shared_state=state), abs=1e-14
    )


def test_alice_to_bob_documents_load_only_with_the_default_fields():
    written = strategy_to_json(ClassicalCheat(direction="alice_to_bob"))
    assert written == {
        "type": "comm_cheat",
        "direction": "alice_to_bob",
        "bob_outputs_one_when": [1],
        "alice_rule": "follow_estimate",
    }
    for doc in (written, {"type": "comm_cheat", "direction": "alice_to_bob"}):
        assert strategy_to_json(strategy_from_json(doc)) == written
    for key, value in (
        ("alice_rule", "negate_estimate"),
        ("bob_outputs_one_when", [-1]),
        ("estimator", bloch_to_json(best_estimator())),
    ):
        jsonschema.validate({**written, key: value}, STRATEGY_SCHEMA)
        with pytest.raises(ValueError):
            strategy_from_json({**written, key: value})


def test_lhs_strategy_round_trip(rng):
    weights = rng.dirichlet(np.ones(3))
    states = tuple(random_density(rng, 2) for _ in range(3))
    responses = rng.uniform(-1, 1, size=(3, 3))
    strategy = LhsStrategy(weights, states, responses, random_povm(rng, 4, 2))
    blob = _round_trip(strategy_to_json(strategy))
    jsonschema.validate(blob, STRATEGY_SCHEMA)
    back = strategy_from_json(blob)
    spec = SteeringGameSpec.ideal()
    assert qrs_payoff_exact(spec, back) == pytest.approx(
        qrs_payoff_exact(spec, strategy), abs=1e-14
    )


def test_strategy_schema_rejects_malformed():
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"type": "honest"}, STRATEGY_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"type": "warp-drive"}, STRATEGY_SCHEMA)
    blob = strategy_to_json(ClassicalCheat(best_estimator()))
    blob["estimator"]["mu"] = "half"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(blob, STRATEGY_SCHEMA)


def test_strategy_from_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        strategy_from_json({"type": "warp-drive"})


def test_strategy_from_json_refuses_malformed_cheat_documents():
    estimator = bloch_to_json(best_estimator())
    for doc in (
        {"type": "no_state_cheat", "estimator": estimator, "alice_rule": "alternate"},
        {"type": "comm_cheat", "direction": None, "estimator": estimator},
    ):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, STRATEGY_SCHEMA)
        with pytest.raises(ValueError):
            strategy_from_json(doc)


def _no_state_cheat_document(**rule):
    return {"type": "no_state_cheat", "estimator": bloch_to_json(best_estimator()), **rule}


@pytest.mark.parametrize("rule", [[1, -1], "follow_estimate"], ids=["bare-list", "comm-rule"])
def test_a_no_state_cheat_rule_outside_the_schema_is_refused_by_name(rule):
    doc = _no_state_cheat_document(alice_rule=rule)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, STRATEGY_SCHEMA)
    message = f"unknown alice_rule {rule!r} of a no_state_cheat"
    with pytest.raises(ValueError, match=re.escape(message)):
        strategy_from_json(doc)


@pytest.mark.parametrize(
    "rule, answers",
    [({}, None), ({"alice_rule": "constant"}, None), ({"alice_rule": {"list": [1]}}, (1,))],
    ids=["absent", "constant", "list"],
)
def test_the_no_state_cheat_rules_of_the_schema_load(rule, answers):
    cheat = strategy_from_json(_no_state_cheat_document(**rule))
    assert cheat.answer_list == answers
    assert strategy_to_json(cheat)["alice_rule"] == rule.get("alice_rule", "constant")
    spec = SteeringGameSpec.ideal()
    want = qrs_payoff_exact(spec, ClassicalCheat(best_estimator()))
    assert qrs_payoff_exact(spec, cheat) == want


def test_serialized_strategies_are_plain_json():
    """No numpy scalars sneak into the emitted documents."""
    for strategy in (honest_strategy(), ClassicalCheat(best_estimator())):
        text = json.dumps(strategy_to_json(strategy))
        assert isinstance(text, str) and len(text) > 2
