"""Dataset ingestion, result serialization, and case-crossover preparation.

Datasets travel as flat CSV with header ``sid,event,timestamp,label`` (one
row per event, label constant per sid).  Mining results serialize to JSON,
CSV, or Graphviz DOT; infinite constraint bounds are encoded as JSON null,
never as sentinel numbers.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import ConfigError, InputError
from .model import (
    NEGATIVE,
    POSITIVE,
    Chronicle,
    Event,
    MinedChronicle,
    Sequence,
    SequenceDataset,
)

DATASET_HEADER = ["sid", "event", "timestamp", "label"]
TIMELINE_HEADER = ["sid", "event", "timestamp"]


# ---------------------------------------------------------------------------
# dataset CSV

def _parse_event(path, lineno: int, sid: str, etype: str, raw_ts: str) -> Event:
    """Event of one CSV row; rejects empty ids and non-finite timestamps."""
    if not sid:
        raise InputError(f"{path}:{lineno}: empty sid")
    if not etype:
        raise InputError(f"{path}:{lineno}: empty event type")
    try:
        timestamp = float(raw_ts)
    except ValueError:
        raise InputError(f"{path}:{lineno}: bad timestamp {raw_ts!r}") from None
    if not math.isfinite(timestamp):
        raise InputError(f"{path}:{lineno}: non-finite timestamp {raw_ts!r}")
    return Event(etype, timestamp)


@contextmanager
def _text_in(path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; a byte that does not decode is an
    InputError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.start + 1].hex()
            raise InputError(f"{path}: not UTF-8 text (byte 0x{bad}: {exc.reason})") from None


def _rows(path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The line number and fields of each non-blank row of a CSV file after
    its ``header``; InputError for another header or a row with another
    field count."""
    with _text_in(path) as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise InputError(f"{path}: expected header {','.join(header)!r}, got {found}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row


def _sequence(path, sid: str, events: list[Event], label: str) -> Sequence:
    """The sequence of a file's rows; a time span that is not a finite float
    is an InputError naming the file and the sid."""
    try:
        return Sequence(sid=sid, events=tuple(events), label=label)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_csv(path) -> SequenceDataset:
    """Read a labeled event CSV into a dataset.

    Raises InputError with the offending line number for malformed rows
    (wrong field count, empty sid or event type, a timestamp that is not a
    finite number, a bad label) and with the sid for label inconsistencies
    and for a sequence whose events span more than the float range.
    """
    events: dict[str, list[Event]] = {}
    labels: dict[str, str] = {}
    for lineno, (sid, etype, raw_ts, label) in _rows(path, DATASET_HEADER):
        event = _parse_event(path, lineno, sid, etype, raw_ts)
        if label not in (POSITIVE, NEGATIVE):
            raise InputError(f"{path}:{lineno}: bad label {label!r}")
        if sid in labels and labels[sid] != label:
            raise InputError(f"{path}: sequence {sid!r} carries inconsistent labels")
        labels[sid] = label
        events.setdefault(sid, []).append(event)
    sequences = [_sequence(path, sid, evs, labels[sid]) for sid, evs in events.items()]
    return SequenceDataset.from_sequences(sequences)


@contextmanager
def _text_out(out: TextIO | str | os.PathLike | None) -> Iterator[TextIO]:
    """``out`` as a text stream: a path is opened for writing (and closed),
    None is stdout, and a stream is used as it is."""
    if out is None:
        yield sys.stdout
    elif isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield out


def save_dataset_csv(
    dataset: SequenceDataset, out: TextIO | str | os.PathLike | None
) -> None:
    """Inverse of load_csv, written to a path, a text stream, or stdout;
    timestamps keep full precision."""
    with _text_out(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for seq in dataset.sequences:
            for ev in seq.events:
                writer.writerow([seq.sid, ev.event_type, repr(ev.timestamp), seq.label])


def load_timeline_csv(path) -> dict[str, list[Event]]:
    """Read an unlabeled per-patient event CSV (header sid,event,timestamp).

    Rows are checked as in ``load_csv``, with the line number in the error,
    and so is each patient's time span, with the sid.
    """
    timelines: dict[str, list[Event]] = {}
    for lineno, (sid, etype, raw_ts) in _rows(path, TIMELINE_HEADER):
        timelines.setdefault(sid, []).append(_parse_event(path, lineno, sid, etype, raw_ts))
    for sid, events in timelines.items():
        _sequence(path, sid, events, POSITIVE)
    return timelines


# ---------------------------------------------------------------------------
# chronicle serialization

def _number_to_json(value: float):
    return None if math.isinf(value) else value


def json_number(value, what: str, kind: type = float, null: float | None = None):
    """A JSON number as ``kind``: int takes only an integer, float any
    number, and a bool is neither; with ``null`` given, a JSON null stands
    for it.  Otherwise a TypeError naming ``what``, and a ValueError for an
    integer beyond the float range."""
    if value is None and null is not None:
        return null
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        expected = "an integer" if kind is int else "a number"
        if null is not None:
            expected = f"null or {expected}"
        raise TypeError(f"{what} must be {expected}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{what} {value} is out of range") from None


def chronicle_to_obj(mined: MinedChronicle) -> dict:
    c = mined.chronicle
    return {
        "items": list(c.items),
        "constraints": [
            {
                "from": tc.from_index,
                "to": tc.to_index,
                "lower": _number_to_json(tc.lower),
                "upper": _number_to_json(tc.upper),
            }
            for tc in c.constraints
        ],
        "supp_pos": mined.supp_pos,
        "supp_neg": mined.supp_neg,
        "growth": _number_to_json(mined.growth_rate),
    }


def chronicle_from_obj(obj: Mapping) -> Chronicle:
    """Parse the JSON chronicle shape back into a Chronicle.

    ``items`` must be a list of strings and each constraint's ``from`` and
    ``to`` integers.  Supports (and growth) are ignored if present; they
    are recomputed by whoever needs them.
    """
    try:
        items = obj["items"]
        if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
            raise TypeError(f"items must be a list of strings, got {items!r}")
        raw = [
            (
                json_number(c["from"], "item position", int),
                json_number(c["to"], "item position", int),
                json_number(c.get("lower"), "a bound", null=-math.inf),
                json_number(c.get("upper"), "a bound", null=math.inf),
            )
            for c in obj.get("constraints", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed chronicle object: {exc}") from None
    try:
        return Chronicle.build(items, raw)
    except ValueError as exc:
        raise InputError(f"invalid chronicle: {exc}") from None


def load_json(path):
    """The JSON value in a UTF-8 file; InputError naming the file if it is
    not one."""
    with _text_in(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None


def load_chronicles_json(path) -> list[Chronicle]:
    """Read one chronicle object or a list of them from a JSON file; an
    error names the file and, in a list, the chronicle's index."""
    data = load_json(path)
    listed = isinstance(data, list)
    chronicles = []
    for k, obj in enumerate(data if listed else [data]):
        try:
            chronicles.append(chronicle_from_obj(obj))
        except InputError as exc:
            where = f"{path}: chronicle {k}" if listed else path
            raise InputError(f"{where}: {exc}") from None
    return chronicles


# ---------------------------------------------------------------------------
# result export

def _number_text(value: float) -> str:
    """A bound or growth rate as CSV and DOT text; infinities read "inf"
    and "-inf"."""
    return f"{value:g}"


def _interval_text(lower: float, upper: float) -> str:
    return f"[{_number_text(lower)},{_number_text(upper)}]"


def render_json(results: Iterable[MinedChronicle]) -> str:
    return json.dumps([chronicle_to_obj(m) for m in results], indent=2)


def render_csv(results: Iterable[MinedChronicle]) -> str:
    import io as stringio

    buf = stringio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["items", "constraints", "supp_pos", "supp_neg", "growth"])
    for m in results:
        c = m.chronicle
        constraints = ";".join(
            f"{tc.from_index}->{tc.to_index}:{_interval_text(tc.lower, tc.upper)}"
            for tc in c.constraints
        )
        growth = _number_text(m.growth_rate)
        writer.writerow(["|".join(c.items), constraints, m.supp_pos, m.supp_neg, growth])
    return buf.getvalue()


def render_dot(results: Iterable[MinedChronicle]) -> str:
    """One digraph per chronicle: nodes are event types, edges carry the
    constraint interval; unconstrained pairs draw no edge.  A backslash or
    double quote in an event type is escaped in its label."""
    lines = []
    for idx, m in enumerate(results):
        c = m.chronicle
        growth = _number_text(m.growth_rate)
        lines.append(f"digraph chronicle_{idx} {{")
        lines.append("  rankdir=LR;")
        lines.append(
            f'  label="supp+={m.supp_pos} supp-={m.supp_neg} growth={growth}";'
        )
        for pos, etype in enumerate(c.items):
            label = etype.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  e{pos} [label="{label}"];')
        for tc in c.constraints:
            lines.append(
                f'  e{tc.from_index} -> e{tc.to_index} '
                f'[label="{_interval_text(tc.lower, tc.upper)}"];'
            )
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")


_RENDERERS = {"json": render_json, "csv": render_csv, "dot": render_dot}
EXPORT_FORMATS = tuple(_RENDERERS)


def render(results: Iterable[MinedChronicle], fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ConfigError(f"unknown format {fmt!r}; choose one of {EXPORT_FORMATS}")
    return _RENDERERS[fmt](list(results))


def export(
    results: Iterable[MinedChronicle], fmt: str, out: TextIO | str | os.PathLike | None
) -> None:
    """Render results and write them to a path, a text stream, or stdout."""
    text = render(results, fmt)
    with _text_out(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# case-crossover windowing

@dataclass(frozen=True)
class CrossoverConfig:
    """Window layout for the self-controlled split.

    Each patient's first ``outcome`` event anchors two adjacent windows of
    ``window`` days each, ending ``gap`` days before the outcome: the later
    one becomes the patient's positive sequence, the earlier one the
    negative sequence.
    """

    outcome: str
    gap: float = 3.0
    window: float = 90.0

    def __post_init__(self):
        for name, value in (("gap", self.gap), ("window", self.window)):
            if not -math.inf < value < math.inf:  # also false for NaN
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.gap < 0:
            raise ConfigError(f"gap must be >= 0, got {self.gap}")
        if self.window <= 0:
            raise ConfigError(f"window length must be > 0, got {self.window}")


def crossover_split(
    timelines: Mapping[str, Iterable[Event]], cfg: CrossoverConfig
) -> SequenceDataset:
    """Build a labeled dataset from per-patient timelines.

    Window boundaries are half-open [start, end) so no event lands in both
    windows.  Patients without an outcome event are skipped with a warning.
    """
    sequences = []
    for sid in sorted(timelines):
        events = list(timelines[sid])
        outcome_times = [e.timestamp for e in events if e.event_type == cfg.outcome]
        if not outcome_times:
            warnings.warn(f"patient {sid!r} has no {cfg.outcome!r} event; skipped")
            continue
        t0 = min(outcome_times)
        pos_start = t0 - cfg.gap - cfg.window
        neg_start = t0 - cfg.gap - 2 * cfg.window
        pos_events = tuple(e for e in events if pos_start <= e.timestamp < t0 - cfg.gap)
        neg_events = tuple(e for e in events if neg_start <= e.timestamp < pos_start)
        sequences.append(Sequence(sid=f"{sid}+", events=pos_events, label=POSITIVE))
        sequences.append(Sequence(sid=f"{sid}-", events=neg_events, label=NEGATIVE))
    return SequenceDataset.from_sequences(sequences)
