"""Shared fixtures: the six-sequence reference dataset, reference
chronicles, the verbatim duration fixture, an independent brute-force
occurrence oracle used to cross-check the matcher, and the constraint-free
supports of a multiset read from a ``TypeIndex``."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from chronomine import Chronicle, Event, Sequence, SequenceDataset
from chronomine.rules import DurationTable

#: Property tests that mine take this profile: no deadline, because their
#: run time follows the host's load, and few examples, to keep the suite short.
settings.register_profile("bounded", deadline=None, max_examples=30)
BOUNDED = settings.get_profile("bounded")

REFERENCE_ROWS = [
    ("1", [("A", 1), ("B", 3), ("A", 4), ("C", 5), ("C", 6), ("D", 7)], "+"),
    ("2", [("B", 2), ("D", 4), ("A", 5), ("C", 7)], "+"),
    ("3", [("A", 1), ("B", 4), ("C", 5), ("B", 6), ("C", 8), ("D", 9)], "+"),
    ("4", [("B", 4), ("A", 6), ("E", 8), ("C", 9)], "-"),
    ("5", [("B", 1), ("A", 3), ("C", 4)], "-"),
    ("6", [("C", 4), ("B", 5), ("A", 6), ("C", 7), ("D", 10)], "-"),
]


def make_sequence(sid, pairs, label):
    return Sequence(sid=sid, events=tuple(Event(e, t) for e, t in pairs), label=label)


@pytest.fixture(scope="session")
def reference_sequences():
    return {sid: make_sequence(sid, pairs, label) for sid, pairs, label in REFERENCE_ROWS}


@pytest.fixture(scope="session")
def reference_dataset(reference_sequences):
    return SequenceDataset.from_sequences(reference_sequences.values())


@pytest.fixture(scope="session")
def five_item_chronicle():
    # {{A,B,C,C,D}} with constraints on pairs (A,B), (A,C1), (B,C1), (B,D), (C1,C2)
    return Chronicle.build(
        ("A", "B", "C", "C", "D"),
        [(0, 1, -1, 3), (0, 2, -3, 5), (1, 2, -2, 2), (1, 4, 4, 5), (2, 3, 1, 3)],
    )


@pytest.fixture(scope="session")
def positives_only_chronicle():
    # occurs exactly in sequences 1 and 3 of the reference dataset
    return Chronicle.build(("C", "C", "D"), [(1, 2, 1, 2)])


@pytest.fixture(scope="session")
def negatives_only_chronicle():
    # occurs exactly in sequence 6 of the reference dataset
    return Chronicle.build(("C", "D"), [(0, 1, 3, 3)])


@pytest.fixture()
def duration_fixture():
    """Six-row relational duration fixture for the rule learner.

    Columns follow pair order (0,1)=A->B, (0,2)=A->C, (1,2)=B->C.  The rows
    come from reference sequences 1, 1, 2, 3, 5 and 6, at their positions
    in the reference dataset.
    """
    return DurationTable(
        multiset=("A", "B", "C"),
        durations=np.array(
            [
                [2, 4, 2],
                [-1, 1, 2],
                [5, 3, -2],
                [3, 3, 0],
                [-1, 1, 3],
                [6, 5, -1],
            ],
            dtype=float,
        ),
        labels=np.array([1, 1, 1, 1, 0, 0], dtype=bool),
        seq_index=np.array([0, 0, 1, 2, 4, 5]),
    )


# ---------------------------------------------------------------------------
# independent oracle

def brute_force_occurrences(chronicle, sequence):
    """Exhaustive enumeration over all injective item->event mappings,
    keeping canonical ones (equal-typed runs in (timestamp, position) order)
    that satisfy every constraint.  Returns the set of mapping tuples."""
    events = sequence.events
    items = chronicle.items
    out = set()
    for mapping in itertools.permutations(range(len(events)), len(items)):
        if any(events[p].event_type != items[k] for k, p in enumerate(mapping)):
            continue
        canonical = True
        for k in range(1, len(items)):
            if items[k] == items[k - 1]:
                a, b = mapping[k - 1], mapping[k]
                if (events[a].timestamp, a) >= (events[b].timestamp, b):
                    canonical = False
                    break
        if not canonical:
            continue
        satisfied = all(
            tc.lower
            <= events[mapping[tc.to_index]].timestamp
            - events[mapping[tc.from_index]].timestamp
            <= tc.upper
            for tc in chronicle.constraints
        )
        if satisfied:
            out.add(mapping)
    return out


def index_supports(index, multiset):
    """(positive, negative) support of the constraint-free multiset: the
    sequences ``index.containing`` finds, split at ``index.n_pos``."""
    held = index.containing(multiset)
    supp_pos = int(np.count_nonzero(held < index.n_pos))
    return supp_pos, len(held) - supp_pos


def brute_force_support(chronicle, sequences):
    return sum(1 for s in sequences if brute_force_occurrences(chronicle, s))


def random_sequence(rng, sid="s", max_events=8, alphabet=("a", "b", "c"), label="+"):
    n = rng.randint(0, max_events)
    events = tuple(
        Event(rng.choice(alphabet), float(rng.randint(0, 9))) for _ in range(n)
    )
    return Sequence(sid=sid, events=events, label=label)


def random_chronicle(rng, max_items=3, alphabet=("a", "b", "c"), items=None):
    """Random chronicle; with ``items`` given, random constraints on them."""
    if items is None:
        m = rng.randint(0, max_items)
        items = tuple(sorted(rng.choice(alphabet) for _ in range(m)))
    m = len(items)
    constraints = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.7:
                lo = rng.randint(-8, 8)
                hi = lo + rng.randint(0, 8)
                constraints.append((i, j, float(lo), float(hi)))
    return Chronicle.build(items, constraints)
