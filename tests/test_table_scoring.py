"""Differential tests of the fast path: the type index against brute-force
multiset containment, duration tables against the matcher's occurrences,
and rule scoring from a table against rescoring with the matcher, including
tables the occurrence cap truncated."""

import random
import warnings
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import chronomine.rules as rules
from chronomine import (
    Chronicle,
    DcmConfig,
    Event,
    OccurrenceCapWarning,
    Sequence,
    SequenceDataset,
    build_duration_table,
    dcm,
    enumerate_occurrences,
    generate_synthetic,
    induce_rules_batch,
    reevaluate,
    translate,
)
from chronomine.matcher import TypeIndex
from chronomine.rules import induce_chronicles

from conftest import BOUNDED, random_sequence
from test_pipeline import planted_spec

ALPHABET = ("a", "b", "c")
SEEDS = st.integers(0, 2**32 - 1)


def random_dataset(rng, n=6, alphabet=ALPHABET):
    return SequenceDataset.from_sequences(
        [random_sequence(rng, f"p{i}", alphabet=alphabet, label="+") for i in range(n)]
        + [random_sequence(rng, f"n{i}", alphabet=alphabet, label="-") for i in range(n)],
        alphabet=alphabet,
    )


def multisets(alphabet, sizes):
    return [ms for m in sizes for ms in combinations_with_replacement(alphabet, m)]


def holds(sequence, multiset):
    have = Counter(ev.event_type for ev in sequence.events)
    return all(have[t] >= n for t, n in Counter(multiset).items())


@settings(BOUNDED)
@given(seed=SEEDS)
def test_index_supports_equal_brute_force_containment(seed):
    ds = random_dataset(random.Random(seed))
    index = TypeIndex(ds)
    for ms in multisets(ALPHABET + ("z",), range(5)):
        expected = (
            sum(holds(s, ms) for s in ds.positives),
            sum(holds(s, ms) for s in ds.negatives),
        )
        assert index.supports(ms) == expected
        held = [k for k, s in enumerate(ds.sequences) if holds(s, ms)]
        assert index.containing(ms).tolist() == held


@settings(BOUNDED)
@given(seed=SEEDS, cap=st.sampled_from([None, 1, 2, 5]))
def test_table_rows_equal_the_matchers_occurrences(seed, cap):
    # sizes up to 4 over 3 types cover runs of 1 to 4 equal types, and the
    # integer timestamps of random_sequence give ties within a run
    ds = random_dataset(random.Random(seed))
    index = TypeIndex(ds)
    for ms in multisets(ALPHABET, (2, 3, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OccurrenceCapWarning)
            table = build_duration_table(ms, ds, cap=cap, index=index)
        chronicle = Chronicle.unconstrained(ms)
        sids, seq_index, rows, capped = [], [], [], []
        for k, seq in enumerate(ds.sequences):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", OccurrenceCapWarning)
                occurrences = enumerate_occurrences(chronicle, seq, cap=cap)
            if caught:
                capped.append(k)
            for occ in occurrences:
                t = occ.timestamps
                sids.append(seq.sid)
                seq_index.append(k)
                rows.append([t[j] - t[i] for i, j in table.pairs])
        assert table.sids == tuple(sids)
        assert table.seq_index.tolist() == seq_index
        assert np.array_equal(table.durations, np.asarray(rows).reshape(table.durations.shape))
        assert table.labels.tolist() == [sid.startswith("p") for sid in sids]
        assert table.capped == tuple(capped)


def test_cap_warns_once_per_capped_sequence_in_sequence_order():
    # rows per sequence are C(#a, 2) * #b
    counts = {"p0": (3, 2), "p1": (2, 1), "p2": (4, 1), "n0": (2, 6), "n1": (3, 1), "n2": (1, 5)}
    ds = SequenceDataset.from_sequences(
        Sequence(
            sid=sid,
            events=tuple(Event("a", float(t)) for t in range(n_a))
            + tuple(Event("b", float(t)) for t in range(n_b)),
            label="+" if sid.startswith("p") else "-",
        )
        for sid, (n_a, n_b) in counts.items()
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = build_duration_table(("a", "a", "b"), ds, cap=5)
    assert [str(w.message) for w in caught] == [
        f"occurrence cap 5 reached in sequence {sid!r}; duration table truncated"
        for sid in ("p0", "p2", "n0")
    ]
    assert all(w.category is OccurrenceCapWarning for w in caught)
    assert all(w.filename == __file__ for w in caught)
    assert [ds.sequences[k].sid for k in table.capped] == ["p0", "p2", "n0"]
    assert np.bincount(table.seq_index).tolist() == [5, 1, 5, 5, 3]


def test_cap_holds_where_the_occurrence_count_overflows_int64():
    # 20 types of 9 events each: 9**20 occurrences, more than 2**63
    types = [f"t{i:02d}" for i in range(20)]
    seq = Sequence(
        sid="p0",
        events=tuple(Event(t, float(i * 10 + k)) for i, t in enumerate(types) for k in range(9)),
        label="+",
    )
    ds = SequenceDataset.from_sequences([seq])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OccurrenceCapWarning)
        table = build_duration_table(types, ds, cap=5)
        occurrences = enumerate_occurrences(Chronicle.unconstrained(types), seq, cap=5)
    assert table.capped == (0,)
    expected = [[o.timestamps[j] - o.timestamps[i] for i, j in table.pairs] for o in occurrences]
    assert table.durations.tolist() == expected


@settings(BOUNDED)
@given(seed=SEEDS, cap=st.sampled_from([None, 2, 3, 5]))
def test_table_scores_equal_matcher_scores(seed, cap):
    # the learner reads each rule's supports from its table's covered rows;
    # the matcher recounts them, also over the sequences the cap truncated
    ds = random_dataset(random.Random(seed))
    index = TypeIndex(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OccurrenceCapWarning)
        tables = [
            build_duration_table(ms, ds, cap=cap, index=index)
            for ms in multisets(ALPHABET, (2, 3))
        ]
    seeds = [seed + k for k in range(len(tables))]
    expected = []
    for table, rules in zip(tables, induce_rules_batch(tables, 1.5, seeds)):
        for rule in rules:
            mined = reevaluate(translate(rule, table.multiset), ds)
            if mined.supp_pos >= 1 and mined.growth_rate >= 1.5:
                expected.append(mined)
    assert induce_chronicles(tables, ds, 1.5, seeds, 1) == expected


@settings(BOUNDED)
@given(seed=SEEDS, cap=st.sampled_from([None, 1, 2, 5]))
def test_mined_supports_equal_the_matchers(seed, cap):
    ds = random_dataset(random.Random(seed), n=8)
    config = DcmConfig(sigma_min=2, g_min=1.5, occurrence_cap=cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OccurrenceCapWarning)
        results = dcm(ds, config)
    for mined in results:
        assert reevaluate(mined.chronicle, ds) == mined


def test_untruncated_mining_never_calls_the_matcher(monkeypatch):
    ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
    config = DcmConfig(sigma_min=0.1, g_min=2.0)

    def refuse(*args, **kwargs):
        raise AssertionError("the matcher rescored a chronicle")

    monkeypatch.setattr(rules, "support", refuse)
    results = dcm(ds, config)
    monkeypatch.undo()
    assert any(m.chronicle.constraints for m in results)
    for mined in results:
        assert reevaluate(mined.chronicle, ds) == mined


def test_capped_mining_falls_back_to_the_matcher_and_stays_exact(monkeypatch):
    ds = random_dataset(random.Random(7), n=12)
    config = DcmConfig(sigma_min=2, g_min=1.5, occurrence_cap=2)
    calls = []
    support = rules.support

    def counting(chronicle, sequences):
        calls.append(len(sequences))
        return support(chronicle, sequences)

    monkeypatch.setattr(rules, "support", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OccurrenceCapWarning)
        results = dcm(ds, config)
    monkeypatch.undo()
    assert calls
    assert any(m.chronicle.constraints for m in results)
    for mined in results:
        assert reevaluate(mined.chronicle, ds) == mined

