"""The trace format: a run's records, and their NDJSON (format 2) writer
and reader. The engine and the world model build these records; analysis
and the command line read them back.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import starmap
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .jsonio import InputError, check_min, check_value, loads, read_record
from .scenario import MAX_TIME_US


@dataclass
class Span:
    node: str
    frame_seq: int
    start_us: int
    end_us: int
    worker: str
    ready_us: int
    path: str = "normal"
    guest: bool = False
    residual: bool = False


class SpanLog(Sequence):
    """A run's spans, read as a sequence of Span records and stored in
    one flat list, five slots a span: its key (node, worker, path, guest,
    residual), then frame_seq, start_us, end_us and ready_us. Equal keys
    of str and bool values are one tuple, so a run holds a key per node,
    worker and kind of pass, not an object per span."""
    __slots__ = ("slots", "_keys")

    def __init__(self, spans=()):
        self.slots, self._keys = [], {}
        for span in spans:
            self.append(span)

    def add(self, key: tuple, seq, start, end, ready):
        """Append a span whose key holds only str and bool values."""
        self.slots += (self._keys.setdefault(key, key), seq, start, end, ready)

    def append(self, span: Span):
        key = (span.node, span.worker, span.path, span.guest, span.residual)
        times = (span.frame_seq, span.start_us, span.end_us, span.ready_us)
        if tuple(map(type, key)) == _KEY_TYPES:
            self.add(key, *times)
        else:   # kept as it is: an equal key of other types (1 for True) is written otherwise
            self.slots += (key, *times)

    def rows(self):
        """(key, frame_seq, start_us, end_us, ready_us) per span, in order."""
        slot = iter(self.slots)
        return zip(slot, slot, slot, slot, slot)

    def __len__(self):
        return len(self.slots) // 5

    def __iter__(self):
        return starmap(_span, self.rows())

    def __getitem__(self, i):
        at = range(0, len(self.slots), 5)[i]     # refuses what a list index refuses
        if isinstance(at, range):
            return [_span(*self.slots[j:j + 5]) for j in at]
        return _span(*self.slots[at:at + 5])

    def __eq__(self, other):
        if isinstance(other, SpanLog):
            return self.slots == other.slots
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return f"SpanLog({list(self)!r})"


_KEY_TYPES = (str, str, str, bool, bool)


def _span(key: tuple, seq, start, end, ready) -> Span:
    node, worker, path, guest, residual = key
    return Span(node, seq, start, end, worker, ready, path, guest, residual)


@dataclass
class FrameRecord:
    seq: int                # newest sensor frame feeding this output
    sensor_ts: int
    done_ts: int
    e2e_us: int
    module_us: int
    bubble_us: int
    terminal: str
    path: str
    has_critical: bool
    partial: bool


@dataclass
class ReactionRecord:
    hazard_ts: int          # T0
    agent_id: str
    label: str
    reacted: bool
    decision_ts: int = 0    # T1
    t_sensor_us: int = 0
    t_module_us: int = 0
    t_bubble_us: int = 0
    path: str = "normal"


@dataclass
class SafetySample:
    t_us: int
    agent_id: str
    level: str
    lon_gap_m: float
    lat_gap_m: float


@dataclass
class ClosestApproach:
    """An agent's smallest longitudinal gap >= 0 and when it first occurred."""
    agent_id: str
    t_us: int
    lon_gap_m: float


class TraceError(ValueError):
    """A trace file failed to parse; lineno is the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(message)
        self.lineno = lineno


TRACE_FORMAT = 2


@dataclass
class RunTrace:
    """One run's records. safety_samples holds the non-safe samples only;
    closest holds, in scenario agent order, each agent's closest approach
    over every sample, safe or not."""
    scenario_digest: str
    seed: int
    duration_us: int
    spans: SpanLog = field(default_factory=SpanLog)
    frames: list[FrameRecord] = field(default_factory=list)
    reactions: list[ReactionRecord] = field(default_factory=list)
    safety_samples: list[SafetySample] = field(default_factory=list)
    closest: list[ClosestApproach] = field(default_factory=list)
    ego_segments: list[tuple[int, float]] = field(default_factory=list)
    busy_us_by_group: dict[str, int] = field(default_factory=dict)
    worker_count_by_group: dict[str, int] = field(default_factory=dict)
    budget_violations: int = 0
    steals_admitted: int = 0
    steals_rejected: int = 0

    def e2e_samples(self) -> list[int]:
        return [f.e2e_us for f in self.frames]

    def busy_fraction(self) -> float:
        total_workers = sum(self.worker_count_by_group.values())
        if total_workers == 0 or self.duration_us == 0:
            return 0.0
        busy = sum(self.busy_us_by_group.values())
        return busy / (total_workers * self.duration_us)

    def ndjson_lines(self) -> Iterator[str]:
        """The trace as NDJSON (format 2), one newline-terminated line at a
        time; raises ValueError on a non-finite float."""
        encode = _ENCODER.encode
        # per key, by identity: an equal key of other types, such as
        # (..., 0, False) for (..., False, False), is written otherwise
        templates = {}
        for key, seq, start, end, ready in self.spans.rows():
            parts = templates.get(id(key))    # the rows hold every key, so an id is one key
            if parts is None:
                parts = templates[id(key)] = _span_template(*key)
            if parts and type(seq) is int and type(start) is int and type(end) is int \
                    and type(ready) is int:
                after_seq, after_ready, after_start = parts
                yield (f'{{"end_us": {end}, "frame_seq": {seq}{after_seq}{ready}{after_ready}'
                       f'{start}{after_start}')
            else:
                yield encode({"type": "span", **vars(_span(key, seq, start, end, ready))}) + "\n"
        for kind, name in _OTHER_LISTS:
            for rec in getattr(self, name):
                yield encode({"type": kind, **vars(rec)}) + "\n"
        yield encode({"type": "summary", "format": TRACE_FORMAT,
                      **{name: getattr(self, name) for name in _SUMMARY_FIELDS}}) + "\n"

    def to_ndjson(self) -> str:
        return "".join(self.ndjson_lines())

    @classmethod
    def from_ndjson(cls, lines) -> "RunTrace":
        """Read a trace of format 2. lines is the text or an iterable of
        lines, such as an open file. Raises TraceError."""
        if isinstance(lines, str):
            lines = lines.splitlines()
        records = {kind: SpanLog() if kind == "span" else [] for kind in _RECORD_TYPES}
        lineno = 0
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = loads(line)
            except ValueError as e:     # json.JSONDecodeError is a ValueError
                raise TraceError(lineno, f"malformed JSON: {e}") from None
            kind = obj.pop("type", None) if isinstance(obj, dict) else None
            if kind not in _RECORD_TYPES:
                raise TraceError(lineno, f"unknown trace record type {kind!r}")
            if kind == "summary":
                if records["summary"]:
                    raise TraceError(lineno, "second summary record")
                fmt = obj.pop("format", None)
                if type(fmt) is not int or fmt != TRACE_FORMAT:
                    raise TraceError(lineno, f"unsupported trace format {fmt!r}")
            try:    # the engine writes int64 instants; a line read back may hold any integer
                rec = read_record(_RECORD_TYPES[kind], obj, kind, _TRACE_SCHEMA)
                named = lambda msg: InputError(f"{kind}: {msg}")
                check_min(rec, -MAX_TIME_US, *_TRACE_INTS[kind], high=MAX_TIME_US, error=named)
                for i, (start, _) in enumerate(rec.ego_segments if kind == "summary" else ()):
                    check_value(f"ego_segments[{i}][0]", start, -MAX_TIME_US, error=named,
                                high=MAX_TIME_US)
            except InputError as e:
                raise TraceError(lineno, str(e)) from None
            records[kind].append(rec)
        if not records["summary"]:
            raise TraceError(lineno, "trace has no summary record")
        trace = records.pop("summary")[0]
        for kind, name in _RECORD_LISTS.items():
            setattr(trace, name, records[kind])
        return trace


# trace record type -> its dataclass; a summary is a RunTrace without its
# record lists, which hold the other types, written in this order
_RECORD_TYPES = {"span": Span, "frame": FrameRecord, "reaction": ReactionRecord,
                 "safety": SafetySample, "closest": ClosestApproach, "summary": RunTrace}
_RECORD_LISTS = {"span": "spans", "frame": "frames", "reaction": "reactions",
                 "safety": "safety_samples", "closest": "closest"}
_OTHER_LISTS = tuple(_RECORD_LISTS.items())[1:]     # the lists written without a template
_TRACE_SCHEMA = {RunTrace: dict.fromkeys(_RECORD_LISTS.values())}     # a jsonio field table
# each record type's int fields but the seed, which may be any integer
_TRACE_INTS = {kind: tuple(f.name for f in fields(tp) if f.type == "int" and f.name != "seed")
               for kind, tp in _RECORD_TYPES.items()}
# the RunTrace fields a summary record holds, besides "type" and "format"
_SUMMARY_FIELDS = tuple(f.name for f in fields(RunTrace) if f.name not in _TRACE_SCHEMA[RunTrace])


# every trace field is a primitive, so records encode from vars() directly
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _span_template(node, worker, path, guest, residual) -> tuple:
    """The text of a span record of this key, formatted as _ENCODER would
    format it, that follows its frame_seq, ready_us and start_us values;
    () if a field of the key is of another type."""
    if not (type(node) is str and type(worker) is str and type(path) is str
            and type(guest) is bool and type(residual) is bool):
        return ()
    node, worker, path = map(encode_basestring_ascii, (node, worker, path))
    return (f', "guest": {"true" if guest else "false"}, "node": {node}, "path": {path}, '
            f'"ready_us": ', f', "residual": {"true" if residual else "false"}, "start_us": ',
            f', "type": "span", "worker": {worker}}}\n')
