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
dataset once (``TypeIndex``), enumerates each multiset's unconstrained
occurrences over the sequences that hold it, and scores constrained
chronicles from those rows (see ``rules``).  ``support`` remains the
reference count, and the fallback for sequences whose enumeration hit the
occurrence cap.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping
from typing import Sequence as SequenceType

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
    a sequence is named by its position ``k`` in that tuple, so positions
    below ``n_pos`` are positive.  ``positions[t][k]`` lists, in sequence
    order, the positions of the type-``t`` events of sequence ``k``; only
    the sequences that hold ``t`` have an entry.
    """

    def __init__(self, dataset: SequenceDataset):
        self.sequences = dataset.sequences
        self.n_pos = len(dataset.positives)
        self.positions: dict[str, dict[int, tuple[int, ...]]] = {}
        for k, seq in enumerate(self.sequences):
            for etype, found in _bucketize(seq.events).items():
                self.positions.setdefault(etype, {})[k] = tuple(found)
        # sequences holding at least n > 1 events of a type, keyed by (type, n)
        self._at_least: dict[tuple[str, int], set[int]] = {}

    def _holders(self, etype: str, n: int) -> AbstractSet[int]:
        """Sequences holding at least ``n`` events of ``etype``."""
        per_seq = self.positions.get(etype, {})
        if n == 1:
            return per_seq.keys()
        if (etype, n) not in self._at_least:
            self._at_least[etype, n] = {k for k, p in per_seq.items() if len(p) >= n}
        return self._at_least[etype, n]

    def containing(self, multiset: Iterable[str]) -> list[int]:
        """Positions, ascending, of the sequences that hold the multiset."""
        need = Counter(multiset)
        if not need:
            return list(range(len(self.sequences)))
        held = None
        for etype, n in need.items():
            holders = self._holders(etype, n)
            held = holders if held is None else held & holders
        return sorted(held)

    def buckets(self, k: int, types: Iterable[str]) -> dict[str, tuple[int, ...]]:
        """Event positions per type in sequence ``k``, for types it holds."""
        return {t: self.positions[t][k] for t in types}

    def supports(self, multiset: Iterable[str]) -> tuple[int, int]:
        """(positive, negative) support of the constraint-free chronicle."""
        held = self.containing(multiset)
        supp_pos = bisect_left(held, self.n_pos)
        return supp_pos, len(held) - supp_pos


def _search(
    chronicle: Chronicle,
    sequence: Sequence,
    buckets: Mapping[str, SequenceType[int]] | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple[float, ...]]]:
    """Yield canonical (mapping, timestamps) pairs by backtracking.

    Items are assigned in multiset order; candidate events come from the
    sequence's per-type buckets (built here unless the caller passes them),
    and a partial assignment is abandoned as soon as any constraint among
    already-mapped items fails.  Buckets of different types are disjoint, so
    injectivity only needs enforcing within a type, which the
    strictly-increasing bucket index for equal-typed runs already does.
    """
    items = chronicle.items
    m = len(items)
    if m == 0:
        yield (), ()
        return

    events = sequence.events
    if buckets is None:
        buckets = _bucketize(events)

    for etype, count in Counter(items).items():
        if len(buckets.get(etype, ())) < count:
            return

    # incoming[k] = constraints whose later endpoint is item k
    incoming: list[list[tuple[int, float, float]]] = [[] for _ in range(m)]
    for tc in chronicle.constraints:
        incoming[tc.to_index].append((tc.from_index, tc.lower, tc.upper))

    mapping = [0] * m
    times = [0.0] * m

    def extend(k: int, start: int) -> Iterator[tuple[tuple[int, ...], tuple[float, ...]]]:
        bucket = buckets[items[k]]
        checks = incoming[k]
        for bi in range(start, len(bucket)):
            pos = bucket[bi]
            t = events[pos].timestamp
            if any(not (lo <= t - times[i] <= hi) for i, lo, hi in checks):
                continue
            mapping[k] = pos
            times[k] = t
            if k + 1 == m:
                yield tuple(mapping), tuple(times)
            else:
                next_start = bi + 1 if items[k + 1] == items[k] else 0
                yield from extend(k + 1, next_start)

    yield from extend(0, 0)


def _enumerate_capped(
    chronicle: Chronicle, sequence: Sequence, cap: int | None
) -> tuple[list[Occurrence], bool]:
    """Enumerate occurrences up to ``cap``; returns (occurrences, truncated)."""
    out: list[Occurrence] = []
    for mapping, times in _search(chronicle, sequence):
        if cap is not None and len(out) >= cap:
            return out, True
        out.append(Occurrence(sequence.sid, mapping, times))
    return out, False


def enumerate_occurrences(
    chronicle: Chronicle, sequence: Sequence, cap: int | None = DEFAULT_OCCURRENCE_CAP
) -> list[Occurrence]:
    """All canonical occurrences of ``chronicle`` in ``sequence``.

    Enumeration is exhaustive and deterministic.  If ``cap`` is not None and
    the sequence holds more occurrences, the list is truncated and an
    OccurrenceCapWarning is emitted.
    """
    occurrences, truncated = _enumerate_capped(chronicle, sequence, cap)
    if truncated:
        warnings.warn(
            f"occurrence cap {cap} reached in sequence {sequence.sid!r}; "
            "enumeration truncated",
            OccurrenceCapWarning,
            stacklevel=2,
        )
    return occurrences


def occurs(chronicle: Chronicle, sequence: Sequence) -> bool:
    """True iff at least one occurrence exists (stops at the first witness)."""
    return next(_search(chronicle, sequence), None) is not None


def support(chronicle: Chronicle, sequences: Iterable[Sequence]) -> int:
    """Number of sequences containing the chronicle (each counted once)."""
    return sum(1 for s in sequences if occurs(chronicle, s))
