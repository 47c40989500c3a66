"""Occurrence matching: decide and enumerate where a chronicle occurs in a
sequence, and count sequence-level support.

An occurrence maps every chronicle item to a distinct event of the same
type so that all temporal constraints hold.  The mapping need not follow
the time order of the sequence.  Items of the same type are
interchangeable, so occurrences that differ only by permuting equal-typed
items denote the same sub-sequence; the matcher emits one canonical
representative per sub-sequence: within each run of equal-typed items the
mapped events are taken in (timestamp, position) order.  Constraints are
evaluated on that canonical assignment.

A mining run does not call the matcher per chronicle: it indexes the
dataset once (``TypeIndex``: per event type, its count in each sequence and
all its timestamps in one array), builds each multiset's unconstrained
occurrences from those arrays with no search, and scores constrained
chronicles from those rows (see ``rules``).  The backtracking search here
serves the public API (``enumerate_occurrences``, ``occurs``,
``support``); ``support`` is the reference count, and the fallback for
sequences whose occurrences the cap truncated.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import Chronicle, Event, Sequence, SequenceDataset

#: Enumeration stops (with a warning) after this many occurrences in one
#: sequence; occurrence counts are worst-case exponential in pattern size.
DEFAULT_OCCURRENCE_CAP = 10_000


class OccurrenceCapWarning(RuntimeWarning):
    """Raised (as a warning) when enumeration is truncated by the cap."""


@dataclass(frozen=True)
class Occurrence:
    """One canonical occurrence: per-item event positions and timestamps."""

    sid: str
    mapping: tuple[int, ...]
    timestamps: tuple[float, ...]


def _bucketize(events: tuple[Event, ...]) -> dict[str, list[int]]:
    """Event positions per type, each list in sequence order."""
    buckets: dict[str, list[int]] = {}
    for pos, ev in enumerate(events):
        buckets.setdefault(ev.event_type, []).append(pos)
    return buckets


class TypeIndex:
    """Event types of a dataset, indexed once for a whole mining run.

    ``sequences`` holds the positives, then the negatives, in dataset order;
    a sequence is named by its position ``s`` in that tuple, so positions
    below ``n_pos`` are positive.  Each event type ``t`` has three arrays:

    * ``count[t][s]``: the number of type-``t`` events in sequence ``s``;
    * ``start[t][s]``: the offset of sequence ``s``'s events in ``stamps[t]``;
    * ``stamps[t]``: every type-``t`` timestamp, in (sequence, position)
      order, so ``stamps[t][start[t][s] + i]`` is the time of the ``i``-th
      type-``t`` event of sequence ``s``.  Within a sequence that is
      (timestamp, position) order, the matcher's canonical order.

    ``count`` and ``start`` are int32, one entry per sequence.
    """

    def __init__(self, dataset: SequenceDataset):
        self.sequences = dataset.sequences
        self.n_pos = len(dataset.positives)
        events: dict[str, tuple[list[int], list[float]]] = {}
        for s, seq in enumerate(self.sequences):
            for ev in seq.events:
                found = events.get(ev.event_type)
                if found is None:
                    found = events[ev.event_type] = ([], [])
                found[0].append(s)
                found[1].append(ev.timestamp)
        self.count: dict[str, np.ndarray] = {}
        self.start: dict[str, np.ndarray] = {}
        self.stamps: dict[str, np.ndarray] = {}
        for etype, (owner, times) in events.items():
            count = np.bincount(owner, minlength=len(self.sequences)).astype(np.int32)
            self.count[etype] = count
            self.start[etype] = (np.cumsum(count) - count).astype(np.int32)
            self.stamps[etype] = np.array(times, dtype=float)

    def containing(self, multiset: Iterable[str]) -> np.ndarray:
        """Positions, ascending, of the sequences that hold the multiset."""
        multiset = tuple(multiset)
        held = np.ones(len(self.sequences), dtype=bool)
        for etype in dict.fromkeys(multiset):
            count = self.count.get(etype)
            if count is None:
                return np.empty(0, dtype=np.intp)
            held &= count >= multiset.count(etype)
        return held.nonzero()[0]


def _search(
    chronicle: Chronicle, sequence: Sequence
) -> Iterator[tuple[tuple[int, ...], tuple[float, ...]]]:
    """Yield canonical (mapping, timestamps) pairs by backtracking.

    Items are assigned in multiset order; candidate events come from the
    sequence's per-type buckets, and a partial assignment is abandoned as
    soon as any constraint among already-mapped items fails.  Buckets of
    different types are disjoint, so injectivity only needs enforcing
    within a type, which the strictly-increasing bucket index for
    equal-typed runs already does.
    """
    items = chronicle.items
    m = len(items)
    if m == 0:
        yield (), ()
        return

    events = sequence.events
    buckets = _bucketize(events)

    for etype, count in Counter(items).items():
        if len(buckets.get(etype, ())) < count:
            return

    # incoming[k] = constraints whose later endpoint is item k
    incoming: list[list[tuple[int, float, float]]] = [[] for _ in range(m)]
    for tc in chronicle.constraints:
        incoming[tc.to_index].append((tc.from_index, tc.lower, tc.upper))

    yield from _extend(0, 0, items, events, buckets, incoming, [0] * m, [0.0] * m)


def _extend(
    k: int, start: int, items, events, buckets, incoming, mapping, times
) -> Iterator[tuple[tuple[int, ...], tuple[float, ...]]]:
    """Yield ``_search``'s results that map item ``k`` to an event of its
    bucket from index ``start`` on, and items 0..k-1 as they are mapped now.

    The other arguments are the search's own: ``mapping`` and ``times``
    hold the current partial assignment.  A module-level function, not a
    closure: a closure that calls itself is a reference cycle, which only
    the cyclic garbage collector frees (see ``itemsets._grow``).
    """
    bucket = buckets[items[k]]
    checks = incoming[k]
    for bi in range(start, len(bucket)):
        pos = bucket[bi]
        t = events[pos].timestamp
        if any(not (lo <= t - times[i] <= hi) for i, lo, hi in checks):
            continue
        mapping[k] = pos
        times[k] = t
        if k + 1 == len(items):
            yield tuple(mapping), tuple(times)
        else:
            next_start = bi + 1 if items[k + 1] == items[k] else 0
            yield from _extend(k + 1, next_start, items, events, buckets, incoming, mapping, times)


def enumerate_occurrences(
    chronicle: Chronicle, sequence: Sequence, cap: int | None = DEFAULT_OCCURRENCE_CAP
) -> list[Occurrence]:
    """All canonical occurrences of ``chronicle`` in ``sequence``.

    Enumeration is exhaustive and deterministic.  If ``cap`` is not None and
    the sequence holds more occurrences, the list is truncated and an
    OccurrenceCapWarning is emitted.
    """
    out: list[Occurrence] = []
    for mapping, times in _search(chronicle, sequence):
        if cap is not None and len(out) >= cap:
            warnings.warn(
                f"occurrence cap {cap} reached in sequence {sequence.sid!r}; "
                "enumeration truncated",
                OccurrenceCapWarning,
                stacklevel=2,
            )
            break
        out.append(Occurrence(sequence.sid, mapping, times))
    return out


def occurs(chronicle: Chronicle, sequence: Sequence) -> bool:
    """True iff at least one occurrence exists (stops at the first witness)."""
    return next(_search(chronicle, sequence), None) is not None


def support(chronicle: Chronicle, sequences: Iterable[Sequence]) -> int:
    """Number of sequences containing the chronicle (each counted once)."""
    return sum(1 for s in sequences if occurs(chronicle, s))
