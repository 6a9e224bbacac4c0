"""Strict reading of the JSON input files: run config, scenario, pipeline.

One reader serves all three loaders. It refuses NaN and Infinity, which
json.load accepts by default, and it re-raises every error met while
converting the parsed fields as the loader's own error class, naming
the field.
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager


class InputError(ValueError):
    """An input file failed validation; the message names the field."""


class FieldError(ValueError):
    """A field holds a value of the wrong type; fields() names the field."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


_REQUIRED = object()


def _value(obj: dict, key: str, default):
    return obj[key] if default is _REQUIRED else obj.get(key, default)


def read_int(obj: dict, key: str, default=_REQUIRED) -> int:
    """obj[key], or default when the key is absent, as an int.

    A JSON integer or a float with an integral value (2.0) is accepted;
    a boolean, a fraction (2.9) or any other value raises FieldError,
    and a missing key without a default raises KeyError.
    """
    value = _value(obj, key, default)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise FieldError(key, f"expected an integer, got {value!r}")


def read_float(obj: dict, key: str, default=_REQUIRED) -> float:
    """obj[key], or default when the key is absent, as a float; only a
    JSON number (integer or float) is accepted, not a string or a boolean."""
    value = _value(obj, key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise FieldError(key, f"expected a number, got {value!r}")


def read_str(obj: dict, key: str, default=_REQUIRED) -> str:
    """obj[key], or default when the key is absent; only a JSON string."""
    value = _value(obj, key, default)
    if isinstance(value, str):
        return value
    raise FieldError(key, f"expected a string, got {value!r}")


def read_str_list(obj: dict, key: str) -> tuple[str, ...]:
    """obj[key] as a tuple, or () when the key is absent; only a JSON list
    of strings."""
    value = obj.get(key, [])
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise FieldError(key, f"expected a list of strings, got {value!r}")


def read_bool(obj: dict, key: str, default: bool) -> bool:
    """obj[key], or default when the key is absent; only true or false."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise FieldError(key, f"expected true or false, got {value!r}")
    return value


def check_keys(obj, allowed: set[str], ctx: str, error=InputError):
    if not isinstance(obj, dict):
        raise error(f"{ctx}: expected an object, got {type(obj).__name__}")
    extra = set(obj) - allowed
    if extra:
        raise error(f"{ctx}: unknown fields {sorted(extra)}")


@contextmanager
def fields(ctx: str, error=InputError):
    """Re-raise a KeyError, TypeError or ValueError from the block as
    error, prefixed with ctx (a FieldError with ctx.key); an InputError
    passes unchanged."""
    try:
        yield
    except InputError:
        raise
    except FieldError as e:
        raise error(f"{ctx}.{e.key}: {e}") from None
    except KeyError as e:
        raise error(f"{ctx}: missing field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise error(f"{ctx}: {e}") from None


def refuse_constant(name: str):
    """parse_constant for json.load(s): refuses NaN and Infinity."""
    raise ValueError(f"non-finite number {name}")


def load_json(path, convert, error, ctx: str):
    """convert(the parsed file), every input failure raised as error."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f, parse_constant=refuse_constant)
        except ValueError as e:     # json.JSONDecodeError is a ValueError
            raise error(f"{path}: malformed JSON: {e}") from None
    with fields(ctx, error):
        return convert(obj)
