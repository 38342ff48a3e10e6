"""The built-in schema checker against ``jsonschema``, the reference.

A seeded corpus of valid documents for every published schema, and
one-field mutations of them, must be accepted and rejected alike; a
rejection must carry jsonschema's message and JSON path.
"""

import copy
import functools
import json
import math
import random

import jsonschema
import numpy as np
import pytest

from qrgames._schema_check import SchemaViolation, validate
from qrgames.cli import CONFIG_SCHEMAS, _CHANNEL_CONFIG_SCHEMA
from qrgames.serialize import STRATEGY_SCHEMA, strategy_to_json
from qrgames.strategies import (
    ClassicalCheat,
    HonestStrategy,
    best_estimator,
    honest_strategy,
)

from random_draws import random_lhs_strategy, random_povm

SCHEMAS = {
    "run": CONFIG_SCHEMAS["run"],
    "verify": CONFIG_SCHEMAS["verify"],
    "sweep": CONFIG_SCHEMAS["sweep"],
    "strategy": STRATEGY_SCHEMA,
    "channel": _CHANNEL_CONFIG_SCHEMA,
}

IMPLEMENTED = {
    "type", "properties", "required", "additionalProperties", "items", "minItems",
    "maxItems", "enum", "const", "oneOf", "minimum", "maximum", "exclusiveMinimum",
}
SKIPPED = {"$schema", "title", "description", "default"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])
    for sub in schema.get("oneOf", ()):
        yield from _subschemas(sub)


def _strategy_docs():
    rng = np.random.default_rng(7)
    strategies = [
        honest_strategy(),
        HonestStrategy({j: random_povm(rng, 2) for j in (1, 2, 3)}, random_povm(rng, 4)),
        ClassicalCheat(best_estimator()),
        ClassicalCheat(best_estimator(), answer_list=(1, -1, -1, 1)),
        random_lhs_strategy(rng, 2, 3),
        ClassicalCheat(direction="alice_to_bob"),
        ClassicalCheat(best_estimator(), "bob_to_alice", (1, -1), "negate_estimate"),
    ]
    return [json.loads(json.dumps(strategy_to_json(s))) for s in strategies]


def _valid_docs(rnd):
    """(schema name, document) pairs that the named schema accepts."""
    strategies = _strategy_docs()
    docs = [("strategy", doc) for doc in strategies]
    channels = [{"kind": "identity"}, {"kind": "depolarizing", "parameter": 0.3},
                {"kind": "amplitude_damping", "parameter": 1}]
    docs += [("channel", c) for c in channels]
    for _ in range(12):
        run = {
            "strategy": rnd.choice(["honest", "cheat-nostate", "x.json", rnd.choice(strategies)]),
            "werner": rnd.uniform(-1 / 3, 1),
            "r": rnd.choice([1, 1.081, rnd.uniform(1, 5)]),
            "payoff_bound": rnd.uniform(0.1, 3),
            "rounds": rnd.randrange(1, 10 ** 7),
            "seed": rnd.choice([0, 2 ** 64 - 1, rnd.randrange(2 ** 64)]),
            "channel": rnd.choice(channels),
            "preparation": rnd.choice(["ideal", "single_axis"]),
            "keep_transcript": rnd.choice([True, False]),
        }
        verify = {
            "r": rnd.uniform(1, 3),
            "payoff_bound": rnd.uniform(0.5, 2),
            "preparation": rnd.choice(["ideal", "single_axis"]),
            "lhs_trials": rnd.randrange(1, 10001),
            "grid_resolution": rnd.randrange(10, 65),
            "scan_step": rnd.choice([0.1, rnd.uniform(1e-3, 0.1)]),
            "seed": rnd.randrange(2 ** 32),
        }
        sweep = {
            "w_start": rnd.uniform(-0.3, 0.5), "w_stop": rnd.uniform(0.5, 1),
            "w_step": rnd.uniform(1e-3, 0.1), "r_start": rnd.uniform(1, 2),
            "r_stop": rnd.uniform(1, 3), "r_step": rnd.uniform(1e-3, 0.1),
        }
        for name, doc in (("run", run), ("verify", verify), ("sweep", sweep)):
            keys = rnd.sample(sorted(doc), rnd.randrange(1, len(doc) + 1))
            docs.append((name, {k: copy.deepcopy(doc[k]) for k in keys}))
    return docs


def _locations(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _locations(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _locations(value, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    _get(out, path[:-1])[path[-1]] = value
    return out


def _bounds(schema):
    values = set()
    for sub in _subschemas(schema):
        for key in ("minimum", "maximum", "exclusiveMinimum"):
            if key in sub:
                b = sub[key]
                values |= {b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)}
                if isinstance(b, int):
                    values |= {b - 1, b + 1}
    return sorted(values)


def _mutations(rnd, schema, doc):
    """One-field mutations of a valid document."""
    paths = list(_locations(doc))
    numbers = [p for p in paths if type(_get(doc, p)) in (int, float)]
    integers = [p for p in paths if type(_get(doc, p)) is int]
    objects = [p for p in paths if isinstance(_get(doc, p), dict)]
    lists = [p for p in paths if isinstance(_get(doc, p), list)]
    signs = [p for p in integers if _get(doc, p) in (1, -1)]
    pick = lambda seq, k=3: rnd.sample(seq, min(k, len(seq)))  # noqa: E731
    out = []
    for p in pick(paths, 6):
        out.append(_replaced(doc, p, rnd.choice(["x", None, [], {}, True, 3, 2.5, [1, -1]])))
    for p in pick(numbers, 4):
        out += [_replaced(doc, p, v) for v in (True, False, math.nan, math.inf, -math.inf, 1e308)]
        out += [_replaced(doc, p, b) for b in _bounds(schema)]
    for p in pick(integers):
        value = _get(doc, p)
        out += [_replaced(doc, p, float(value)), _replaced(doc, p, value + 0.5)]
    for p in pick(signs):
        out += [_replaced(doc, p, v) for v in (True, False, 1.0, -1.0, 0, 2)]
    for p in pick(objects):
        out.append(_replaced(doc, p, {**_get(doc, p), "extra": 1}))
        for key in pick(sorted(_get(doc, p)), 2):
            out.append(_replaced(doc, p, {k: v for k, v in _get(doc, p).items() if k != key}))
    for p in pick(lists):
        items = _get(doc, p)
        out += [_replaced(doc, p, []), _replaced(doc, p, items + items[:1] * 3)]
    return out


def _reference(doc, schema):
    """What ``jsonschema.validate`` raises, less its check of the schema itself."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    return None if error is None else (error.message, error.json_path)


def _checked(doc, schema):
    try:
        validate(doc, schema)
    except SchemaViolation as exc:
        return exc.message, exc.json_path
    return None


@functools.lru_cache(maxsize=None)
def _corpus(name):
    """(document, jsonschema's verdict) of the valid documents and their mutations."""
    rnd = random.Random(20261018)
    schema = SCHEMAS[name]
    out = []
    for doc_name, doc in _valid_docs(rnd):
        mutated = _mutations(rnd, SCHEMAS[doc_name], doc)
        if doc_name == name:
            assert _reference(doc, schema) is None, doc
            out += [(d, _reference(d, schema)) for d in [doc, *mutated]]
    return out


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_checker_agrees_with_jsonschema(name):
    corpus = _corpus(name)
    for doc, want in corpus:
        # accept and reject alike; a rejection with the same message and path
        assert _checked(doc, SCHEMAS[name]) == want, doc
    rejected = sum(want is not None for _, want in corpus)
    assert 20 <= rejected < len(corpus)


@pytest.mark.parametrize(
    "schema, doc",
    [
        ({"type": "number"}, True),
        ({"type": "integer"}, 1.0),
        ({"type": "integer"}, 1.5),
        ({"type": "integer"}, math.nan),
        ({"enum": [1, -1]}, True),
        ({"const": 1}, True),
        ({"const": 1}, 1.0),
        ({"enum": ["a", 1]}, [1]),
        ({"oneOf": [{"type": "number"}, {"minimum": 0}]}, 3),
        ({"oneOf": [{"type": "number"}, {"type": "string"}]}, None),
        ({"additionalProperties": False, "properties": {"a": {}}}, {"b": 1, "it's": 2}),
        ({"properties": {"a b": {"type": "string"}}}, {"a b": 1}),
        ({"minItems": 1}, []),
        ({"maxItems": 0}, [1]),
    ],
)
def test_keyword_semantics_match_draft_07(schema, doc):
    schema = {"$schema": "http://json-schema.org/draft-07/schema#", **schema}
    assert _checked(doc, schema) == _reference(doc, schema)


def test_published_schemas_use_only_implemented_keywords():
    for name, schema in SCHEMAS.items():
        jsonschema.Draft7Validator.check_schema(schema)
        for sub in _subschemas(schema):
            assert set(sub) <= IMPLEMENTED | SKIPPED, (name, set(sub) - IMPLEMENTED - SKIPPED)
            assert sub.get("additionalProperties", False) is False
            assert isinstance(sub.get("type", ""), str)
            values = sub.get("enum", []) + [sub.get("const")]
            assert all(isinstance(v, (str, int, float, type(None))) for v in values), name


@pytest.mark.parametrize("command", sorted(CONFIG_SCHEMAS))
def test_published_defaults_meet_their_own_property(command):
    properties = CONFIG_SCHEMAS[command]["properties"]
    # only the Werner weight, the channel and sweep's r_stop go without one
    without = {key for key, sub in properties.items() if "default" not in sub}
    assert without == {"run": {"werner", "channel"}, "verify": set(), "sweep": {"r_stop"}}[command]
    for key, sub in properties.items():
        if "default" in sub:
            validate(sub["default"], sub)
            jsonschema.Draft7Validator(sub).validate(sub["default"])


def test_other_keywords_raise():
    with pytest.raises(ValueError, match="'pattern' is not supported"):
        validate("x", {"pattern": "y"})
    with pytest.raises(ValueError, match="'additionalProperties' is not supported"):
        validate({}, {"additionalProperties": {"type": "string"}})
