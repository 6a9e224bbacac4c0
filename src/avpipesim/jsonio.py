"""Strict, table-driven reading and writing of the JSON input files (run
config, scenario, pipeline), and reading of trace records.

A record of an input file is a dataclass, or a tuple whose items sit
under named keys. An attribute's JSON key, type and default come from
dataclasses.fields() and the annotations; each module keeps a field
table next to its dataclasses, {class: {attribute: Key}}, for the
exceptions only. The reader refuses unknown and missing keys, values of
the wrong type and numbers no float holds finitely (NaN, Infinity, 1e999,
10**400, all of which json.load parses), and each message names the
field. Value bounds sit in no table: each record checks its own in
__post_init__, with check_min.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from enum import Enum

MISSING = dataclasses.MISSING
_FLOAT_MAX = sys.float_info.max


class InputError(ValueError):
    """An input file failed validation; the message names the field."""


def loads(text: str):
    """json.loads; a text with an integer too long for int() is parsed again."""
    try:
        return json.loads(text)
    except ValueError as e:     # "Exceeds the limit (4300 digits) for integer string conversion..."
        if "integer string conversion" not in str(e):
            raise
        return json.loads(text, parse_int=read_int)


class TooLong(typing.NamedTuple):     # an integer literal of more digits than int() reads
    digits: int

    def __repr__(self):     # as a message shows it
        return f"an integer too long to read ({self.digits} digits)"


def read_int(literal: str):
    """int(literal), or a TooLong where it has more digits than int() reads."""
    try:
        return int(literal)
    except ValueError:
        return TooLong(len(literal.lstrip("-")))


def shown(value) -> str:
    """value as a message shows it: a string quoted, an integer of more
    than 24 digits as its first 12 and its length."""
    text = repr(value) if type(value) is str else str(value)
    n = len(text) - (value < 0) if type(value) is int else 0
    return f"{text[:12 + (value < 0)]}...({n} digits)" if n > 24 else text


class Key(typing.NamedTuple):
    """How an attribute, or an item of a tuple record, sits in a file. In
    a field table, None in place of a Key leaves the attribute out."""
    name: str = ""              # the JSON key, where it is not the attribute's name
    default: object = MISSING   # the JSON value of a missing key, where the dataclass has none
    omit: bool = False          # not written while it equals the dataclass default
    flat: bool = False          # a record whose keys sit in its parent's object
    cols: tuple = ()            # tuples written as objects, their items under these keys
    by: str = ""                # {name: record} written as a list sorted by this attribute


# scalar type: (whether a parsed JSON value is one, what a message calls it)
_SCALARS = {
    int: (lambda v: type(v) is int or type(v) is float and v.is_integer()
          and abs(v) <= 2 ** 53, "an integer"),
    float: (lambda v: type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX, "a number"),
    str: (lambda v: type(v) is str, "a string"),
    bool: (lambda v: type(v) is bool, "true or false"),
    tuple[str, ...]: (lambda v: type(v) is list and all(type(s) is str for s in v),
                      "a list of strings"),
}


def as_scalar(tp, value):
    """value as tp, a key of _SCALARS. An integer may be given as a float
    with an integral value up to 2**53 (2.0, not 2.9 or 1e30), and a
    number as an integer that a float holds; anything else raises ValueError."""
    is_tp, what = _SCALARS[tp]
    if not is_tp(value):
        raise ValueError(f"expected {what}, got {shown(value)}")
    return tp(value)


_PLANS: dict = {}      # (type, cols) -> plan; each class is in one module's table


def _plan(tp, table, cols=()) -> tuple[list, set]:
    """(fields, keys) of a record type: per field, (attribute, JSON key,
    type, Key, dataclass default), and the keys its JSON object may hold.
    A record is a dataclass, or a tuple of type tp whose items sit under
    the Keys cols."""
    if (tp, cols) not in _PLANS:
        if cols:
            plan = [(i, k.name, t, k, MISSING) for i, (k, t) in enumerate(zip(cols, tp.__args__))]
        else:
            hints, keys = typing.get_type_hints(tp), table.get(tp, {})
            plan = [(f.name, k.name or f.name, hints[f.name], k,
                     f.default if f.default_factory is MISSING else f.default_factory())
                    for f in dataclasses.fields(tp) if (k := keys.get(f.name, Key())) is not None]
        _PLANS[tp, cols] = plan, set().union(*(_plan(t, table)[1] if k.flat else {key}
                                               for _, key, t, k, _ in plan))
    return _PLANS[tp, cols]


def _expect(value, kind, ctx: str):
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise InputError(f"{ctx}: expected {what}, got {type(value).__name__}")


def _read_record(tp, obj, ctx: str, inner: str, table, cols=(), extra=frozenset()):
    """The record of type tp in obj. ctx names it, inner prefixes its
    fields' names, and obj may hold extra keys besides its own (None for
    a flat record: its parent checked the keys)."""
    fields, keys = _plan(tp, table, cols)
    if extra is not None:
        _expect(obj, dict, ctx)
        if obj.keys() - keys - extra:
            raise InputError(f"{ctx}: unknown fields {sorted(obj.keys() - keys - extra)}")
    values = {}
    for attr, key, t, k, default in fields:
        if k.flat:
            values[attr] = _read_record(t, obj, ctx, inner, table, extra=None)
        elif key in obj or k.default is not MISSING:
            values[attr] = _read(t, obj.get(key, k.default), ctx, key, inner, k, table)
        elif default is MISSING:
            raise InputError(f"{ctx}: missing field {key!r}")
    try:
        return tuple(values.values()) if cols else tp(**values)
    except (TypeError, ValueError) as e:
        raise InputError(f"{ctx}: {e}") from None


def _read(tp, value, ctx: str, key: str, inner: str, k: Key, table):
    """value, found under key in the record ctx, as type tp."""
    if tp in _SCALARS:
        try:
            return as_scalar(tp, value)
        except ValueError as e:
            raise InputError(f"{ctx}.{key}: {e}") from None
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError as e:     # "'x' is not a valid NodeRole", named by the record
            raise InputError(f"{ctx}: {e}") from None
    if typing.get_origin(tp) is typing.Union:     # Optional[X]: null reads as None
        return None if value is None else _read(tp.__args__[0], value, ctx, key, inner, k, table)
    ctx = inner + key
    if dataclasses.is_dataclass(tp):
        return _read_record(tp, value, ctx, ctx + ".", table)
    if typing.get_origin(tp) is dict and not k.by:      # {enum: number}
        _expect(value, dict, ctx)
        return {_read(tp.__args__[0], name, ctx, name, "", Key(), table):
                _read(tp.__args__[1], v, ctx, name, "", Key(), table)
                for name, v in value.items()}
    _expect(value, list, ctx)
    item = tp.__args__[1 if k.by else 0]   # dict[str, record], tuple[record, ...], list[pair]
    if typing.get_origin(item) is tuple and not k.cols:     # [x, y] pairs, read as a list
        return [_pair(item.__args__, v, f"{ctx}[{i}]") for i, v in enumerate(value)]
    records = [_read_record(item, v, f"{ctx}[{i}]", f"{ctx}[{i}].", table, k.cols)
               for i, v in enumerate(value)]
    if not k.by:
        return tuple(records)
    out = {}
    for i, rec in enumerate(records):
        if out.setdefault(getattr(rec, k.by), rec) is not rec:
            raise InputError(f"{ctx}[{i}]: duplicate {k.by} {getattr(rec, k.by)!r}")
    return out


def _pair(types, value, ctx: str) -> tuple:
    """value, a JSON list of one scalar per item of types, as a tuple."""
    if type(value) is not list or len(value) != len(types):
        raise InputError(f"{ctx}: expected a list of {len(types)} items, got {value!r}")
    try:
        return tuple(as_scalar(t, v) for t, v in zip(types, value))
    except ValueError as e:
        raise InputError(f"{ctx}: {e}") from None


def _write_record(tp, rec, table, out: dict, cols=()) -> dict:
    values = dict(enumerate(rec)) if cols else vars(rec)
    for attr, key, t, k, default in _plan(tp, table, cols)[0]:
        value = values[attr]
        if k.flat:
            _write_record(t, value, table, out)
        elif not (k.omit and value == default):
            out[key] = value if type(value) in _SCALARS else _write(t, value, k, table)
    return out


def _write(tp, value, k: Key, table):
    """The JSON of value, of type tp."""
    if k.cols:
        return [_write_record(tp.__args__[0], row, table, {}, k.cols) for row in value]
    if k.by:
        value = tuple(value[name] for name in sorted(value))
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return _write_record(type(value), value, table, {})
    if isinstance(value, dict):         # {enum: number}
        return {kind.value: v for kind, v in value.items()}
    if isinstance(value, tuple):
        return [_write(None, v, Key(), table) for v in value]
    return value


def from_json(cls, obj, ctx: str, version: int, error, table):
    """The record cls in a parsed input file of format version; any
    failure is raised as error, naming the field."""
    try:
        if isinstance(obj, dict):
            fmt = obj.get("format")
            if not _SCALARS[int][0](fmt) or fmt != version:     # True == 1 in Python
                raise InputError(f"format: expected {version}, got {fmt!r}")
        return _read_record(cls, obj, ctx, "", table, extra={"format"})
    except InputError as e:
        raise error(str(e)) from None


def read_record(tp, obj: dict, ctx: str, table):
    """The record tp in obj, which must hold every one of its keys, those
    the dataclass defaults too (a trace record, always written whole);
    raises InputError naming the field."""
    if missing := _plan(tp, table)[1] - obj.keys():
        raise InputError(f"{ctx}: missing fields {sorted(missing)}")
    return _read_record(tp, obj, ctx, ctx + ".", table)


def to_json(rec, version: int, table) -> dict:
    """The JSON object of an input file of format version holding rec."""
    return _write_record(type(rec), rec, table, {"format": version})


def check_min(rec, low, *names, error=InputError, strict=False, high=None):
    """Raise error naming the first attribute in names whose value on rec is
    below low (with strict, at or below it), above high if given, or NaN;
    records call it in __post_init__."""
    for name in names:
        check_value(name, getattr(rec, name), low, error, strict, high)


def check_value(name: str, value, low, error=InputError, strict=False, high=None):
    """check_min for one value, which name names."""
    if not (value > low if strict else value >= low):
        raise error(f"{name}: expected {'>' if strict else '>='} {low}, got {shown(value)}")
    if high is not None and not value <= high:
        top = f"{high:g}" if type(high) is float else high     # 1e+12; an int in full
        raise error(f"{name}: expected <= {top}, got {shown(value)}")


def load_json(path, convert, error):
    """convert(the parsed file); malformed JSON is raised as error."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = loads(f.read())
        except ValueError as e:     # json.JSONDecodeError is a ValueError
            raise error(f"{path}: malformed JSON: {e}") from None
    return convert(obj)


def dumps(obj) -> str:
    """obj as strict JSON text (NaN and Infinity refused), indented, keys sorted."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def save_json(obj, path):
    """dumps(obj) written to path; nothing is written if encoding fails."""
    text = dumps(obj)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
