"""Core domain types: events, labeled sequences, chronicles, and the
elementary predicates on them (constraint satisfaction, growth rate,
discriminancy).

A chronicle is a multiset of event types plus interval constraints on the
signed duration between pairs of its items.  All types here are immutable
and hashable; every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable

POSITIVE = "+"
NEGATIVE = "-"

#: Interval meaning "no constraint" on a pair.
UNBOUNDED = (-math.inf, math.inf)


@dataclass(frozen=True)
class Event:
    """A single timestamped occurrence of an event type; the timestamp is a
    float, and not NaN."""

    event_type: str
    timestamp: float

    def __post_init__(self):
        timestamp = float(self.timestamp)
        if timestamp != timestamp:  # only NaN differs from itself
            raise ValueError(f"event {self.event_type!r} has a NaN timestamp")
        object.__setattr__(self, "timestamp", timestamp)


#: The order of a sequence's events: by timestamp, ties broken by type.
_EVENT_ORDER = attrgetter("timestamp", "event_type")


@dataclass(frozen=True)
class Sequence:
    """A labeled, time-ordered sequence of events.

    Events are stored sorted by (timestamp, event_type) regardless of the
    order they were supplied in.  Duplicate events are kept.  The time span
    from the first event to the last must be a finite float, so that every
    duration between two events is one.
    """

    sid: str
    events: tuple[Event, ...]
    label: str

    def __post_init__(self):
        if self.label not in (POSITIVE, NEGATIVE):
            raise ValueError(f"label must be {POSITIVE!r} or {NEGATIVE!r}, got {self.label!r}")
        events = tuple(sorted(self.events, key=_EVENT_ORDER))
        if events and not math.isfinite(events[-1].timestamp - events[0].timestamp):
            raise ValueError(
                f"sequence {self.sid!r} spans {events[0].timestamp!r} to "
                f"{events[-1].timestamp!r}, a duration that is not a finite float"
            )
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class SequenceDataset:
    """Positive and negative sequence sets sharing one event-type alphabet.

    Sequence ids must be unique across both sets and every event type must
    belong to the alphabet.  Sequences are stored sorted by sid so datasets
    compare and serialize deterministically.
    """

    positives: tuple[Sequence, ...]
    negatives: tuple[Sequence, ...]
    alphabet: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "positives", tuple(sorted(self.positives, key=lambda s: s.sid)))
        object.__setattr__(self, "negatives", tuple(sorted(self.negatives, key=lambda s: s.sid)))
        object.__setattr__(self, "alphabet", tuple(sorted(self.alphabet)))
        for seq, expected in [(s, POSITIVE) for s in self.positives] + [
            (s, NEGATIVE) for s in self.negatives
        ]:
            if seq.label != expected:
                raise ValueError(f"sequence {seq.sid!r} labeled {seq.label!r} is in the wrong set")
        ids = [s.sid for s in self.sequences]
        if len(set(ids)) != len(ids):
            dup = sorted({x for x in ids if ids.count(x) > 1})
            raise ValueError(f"duplicate sequence ids: {dup}")
        known = set(self.alphabet)
        for seq in self.sequences:
            for ev in seq.events:
                if ev.event_type not in known:
                    raise ValueError(
                        f"event type {ev.event_type!r} in sequence {seq.sid!r} "
                        "is not in the alphabet"
                    )

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[Sequence], alphabet: Iterable[str] | None = None
    ) -> "SequenceDataset":
        """Split sequences by label and collect the alphabet from the data."""
        seqs = list(sequences)
        types = {ev.event_type for s in seqs for ev in s.events}
        if alphabet is not None:
            types |= set(alphabet)
        return cls(
            positives=tuple(s for s in seqs if s.label == POSITIVE),
            negatives=tuple(s for s in seqs if s.label == NEGATIVE),
            alphabet=tuple(sorted(types)),
        )

    @property
    def sequences(self) -> tuple[Sequence, ...]:
        return self.positives + self.negatives


@dataclass(frozen=True, order=True)
class TemporalConstraint:
    """Interval constraint on the duration between two chronicle items.

    Semantics: the event mapped to position ``to_index`` must occur between
    ``lower`` and ``upper`` time units after the event mapped to
    ``from_index`` (bounds may be infinite but not NaN, negative values
    mean "before").
    Constraints are stored only on ordered pairs (from_index < to_index);
    the reversed direction is expressed by negating and swapping the bounds.
    Constraints order by (from_index, to_index, lower, upper).
    """

    from_index: int
    to_index: int
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if self.from_index >= self.to_index:
            raise ValueError(
                f"constraint must relate an earlier item position to a later one, "
                f"got ({self.from_index}, {self.to_index})"
            )
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError(f"NaN bound in [{self.lower}, {self.upper}]")
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @classmethod
    def normalized(cls, i: int, j: int, lower: float, upper: float) -> "TemporalConstraint":
        """Build a constraint from endpoints in either order.

        A reversed pair (i > j) is flipped via the symmetry rule
        [a, b] -> [-b, -a].  Self-pairs (i == j) are rejected.
        """
        if i == j:
            raise ValueError(f"constraint cannot relate item {i} to itself")
        if i > j:
            i, j, lower, upper = j, i, -upper, -lower
        return cls(i, j, lower, upper)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def _constraint_key(tc: TemporalConstraint) -> tuple[int, int]:
    return (tc.from_index, tc.to_index)


@dataclass(frozen=True, order=True)
class Chronicle:
    """An event-type multiset with temporal constraints between its items.

    ``items`` is the multiset stored as a non-decreasing tuple (duplicates
    allowed).  ``constraints`` holds at most one constraint per ordered item
    pair, sorted by pair; an absent pair is unconstrained.  Chronicles
    order by items, then by their constraints in turn, which is how ``dcm``
    breaks ties between chronicles of equal supports.
    """

    items: tuple[str, ...]
    constraints: tuple[TemporalConstraint, ...] = ()

    def __post_init__(self):
        items = tuple(self.items)
        if any(items[i] > items[i + 1] for i in range(len(items) - 1)):
            raise ValueError(f"chronicle items must be sorted, got {items}")
        constraints = tuple(sorted(self.constraints))
        pairs = [_constraint_key(tc) for tc in constraints]
        if len(set(pairs)) != len(pairs):
            raise ValueError("more than one constraint on the same item pair")
        for tc in constraints:
            if tc.to_index >= len(items):
                raise ValueError(
                    f"constraint {_constraint_key(tc)} references a position "
                    f"outside the {len(items)}-item multiset"
                )
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "constraints", constraints)

    @classmethod
    def build(
        cls,
        items: Iterable[str],
        constraints: Iterable[tuple[int, int, float, float]] = (),
    ) -> "Chronicle":
        """Build a chronicle from raw (i, j, lower, upper) constraint tuples.

        Constraint endpoints may be given in either order; reversed pairs are
        normalized.  Items must already be sorted.
        """
        return cls(
            items=tuple(items),
            constraints=tuple(TemporalConstraint.normalized(*c) for c in constraints),
        )

    @classmethod
    def unconstrained(cls, items: Iterable[str]) -> "Chronicle":
        """The chronicle over ``items`` with every pair unconstrained."""
        return cls(items=tuple(items))

    @cached_property
    def constraint_map(self) -> dict[tuple[int, int], tuple[float, float]]:
        return {_constraint_key(tc): tc.interval for tc in self.constraints}

    def bounds(self, i: int, j: int) -> tuple[float, float]:
        """Effective interval for pair (i, j), (-inf, +inf) when absent."""
        return self.constraint_map.get((i, j), UNBOUNDED)

    def __len__(self) -> int:
        return len(self.items)


def satisfies(constraint: TemporalConstraint, t_from: float, t_to: float) -> bool:
    """True iff the duration t_to - t_from lies inside the closed interval."""
    return constraint.lower <= (t_to - t_from) <= constraint.upper


def growth_rate(supp_pos: int, supp_neg: int) -> float:
    """Ratio of positive to negative support; +inf when absent from negatives.

    0/0 is defined as +inf; such patterns never pass the support threshold
    anyway.
    """
    if supp_neg == 0:
        return math.inf
    return supp_pos / supp_neg


@dataclass(frozen=True)
class MinedChronicle:
    """A chronicle annotated with its supports; its growth rate is derived
    from them.  Whether it is discriminant is ``is_discriminant``'s
    decision, not a comparison of ``growth_rate`` with a threshold."""

    chronicle: Chronicle
    supp_pos: int
    supp_neg: int

    @property
    def growth_rate(self) -> float:
        return growth_rate(self.supp_pos, self.supp_neg)


def meets_growth(supp_pos: int, supp_neg: int, g_min: float) -> bool:
    """The growth test of discriminancy: positive support at least g_min
    times negative support.

    This is the one place the comparison is made; the shortcut, the
    learner's acceptance test and the emission of learned chronicles all
    call it.  It is a product, not a ratio, so it never divides: a
    ``growth_rate`` that rounds up to g_min does not pass it.
    """
    return supp_pos >= g_min * supp_neg


def is_discriminant(mined: MinedChronicle, sigma_min: int, g_min: float) -> bool:
    """True iff the pattern is frequent enough in positives (``sigma_min``)
    and passes ``meets_growth`` at ``g_min``."""
    return mined.supp_pos >= sigma_min and meets_growth(mined.supp_pos, mined.supp_neg, g_min)
