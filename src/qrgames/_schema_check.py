"""Draft-07 checking of documents against the JSON schemas qrgames publishes.

:func:`validate` stands in for ``jsonschema.validate`` on these schemas.
It implements only the keywords they use: ``type``, ``properties``,
``required``, ``additionalProperties: false``, ``items``, ``minItems``,
``maxItems``, ``enum``, ``const``, ``oneOf``, ``minimum``, ``maximum``
and ``exclusiveMinimum``, with one type name per ``type`` and scalar
``enum`` and ``const`` values.  It skips the annotations ``$schema``,
``title``, ``description`` and ``default`` and raises ``ValueError`` on
any other keyword.  A bool
is never a number, an integral float is an integer, and ``enum`` and
``const`` tell ``True`` from ``1``.  Of the violations it picks the one
``jsonschema`` reports (its ``best_match``), with the same message and
JSON path.
"""

from __future__ import annotations

import numbers
import re

_SKIPPED = frozenset(("$schema", "title", "description", "default"))
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")
_CLASSES = {"array": list, "boolean": bool, "null": type(None), "object": dict, "string": str}


class SchemaViolation(ValueError):
    """The violation ``jsonschema`` would report: ``message`` and ``json_path``."""

    def __init__(self, message: str, path: tuple):
        super().__init__(message)
        self.message = message
        self.path = path

    @property
    def json_path(self) -> str:
        out = "$"
        for key in self.path:
            if isinstance(key, int):
                out += f"[{key}]"
            elif _PLAIN_KEY.match(key):
                out += "." + key
            else:
                out += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
        return out


class _Error:
    __slots__ = ("path", "message", "context", "relevance")

    def __init__(self, path, keyword, message, context, matches_type):
        self.path, self.message, self.context = path, message, context
        # jsonschema's relevance key, less its entry for "strong" keywords (none)
        self.relevance = (-len(path), path, keyword != "oneOf", not matches_type)


def _is_type(value, name: str) -> bool:
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, numbers.Number):
            return False
        return name == "number" or isinstance(value, int) or (
            isinstance(value, float) and value.is_integer()
        )
    return isinstance(value, _CLASSES[name])


def _equal(instance, value) -> bool:
    """JSON equality against an ``enum`` or ``const`` value, all scalars here: True is not 1."""
    return instance == value and isinstance(instance, bool) == isinstance(value, bool)


def _errors(instance, schema: dict, path: tuple):
    """Every violation, in the order jsonschema's ``iter_errors`` yields them."""
    matches = "type" in schema and _is_type(instance, schema["type"])
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    is_number = _is_type(instance, "number")
    for keyword, value in schema.items():
        if keyword in _SKIPPED:
            continue
        message, context = None, ()
        if keyword == "type":
            if not matches:
                message = f"{instance!r} is not of type {value!r}"
        elif keyword == "properties":
            for name, sub in value.items() if is_object else ():
                if name in instance:
                    yield from _errors(instance[name], sub, path + (name,))
        elif keyword == "required":
            for name in value if is_object else ():
                if name not in instance:
                    yield _Error(path, keyword, f"{name!r} is a required property", (), matches)
        elif keyword == "additionalProperties" and value is False:
            known = schema.get("properties", {})
            extras = sorted((k for k in instance if k not in known), key=str) if is_object else []
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                message = (f"Additional properties are not allowed "
                           f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif keyword == "items":
            for i, item in enumerate(instance) if is_array else ():
                yield from _errors(item, value, path + (i,))
        elif keyword == "minItems":
            if is_array and len(instance) < value:
                rule = "should be non-empty" if value == 1 else "is too short"
                message = f"{instance!r} {rule}"
        elif keyword == "maxItems":
            if is_array and len(instance) > value:
                rule = "is expected to be empty" if value == 0 else "is too long"
                message = f"{instance!r} {rule}"
        elif keyword == "enum":
            if not any(_equal(instance, each) for each in value):
                message = f"{instance!r} is not one of {value!r}"
        elif keyword == "const":
            if not _equal(instance, value):
                message = f"{value!r} was expected"
        elif keyword == "oneOf":
            context = []
            for i, sub in enumerate(value):
                found = list(_errors(instance, sub, path))
                if not found:
                    rest = value[i + 1:]
                    also = [s for s in rest if next(_errors(instance, s, path), None) is None]
                    if also:
                        valid = ", ".join(map(repr, also + [sub]))
                        message, context = f"{instance!r} is valid under each of {valid}", ()
                    break
                context += found
            else:
                message = f"{instance!r} is not valid under any of the given schemas"
        elif keyword == "minimum":
            if is_number and instance < value:
                message = f"{instance!r} is less than the minimum of {value!r}"
        elif keyword == "maximum":
            if is_number and instance > value:
                message = f"{instance!r} is greater than the maximum of {value!r}"
        elif keyword == "exclusiveMinimum":
            if is_number and instance <= value:
                message = f"{instance!r} is less than or equal to the minimum of {value!r}"
        else:
            raise ValueError(f"schema keyword {keyword!r} is not supported")
        if message is not None:
            yield _Error(path, keyword, message, context, matches)


def validate(instance, schema: dict) -> None:
    """Raise :class:`SchemaViolation` for jsonschema's best match, if any."""
    key = lambda error: error.relevance  # noqa: E731
    best = max(_errors(instance, schema, ()), key=key, default=None)
    if best is None:
        return
    # a oneOf error gives way to its most specific cause, unless that ties
    while best.context:
        first, *rest = sorted(best.context, key=key)[:2]
        if rest and first.relevance == rest[0].relevance:
            break
        best = first
    raise SchemaViolation(best.message, best.path)
