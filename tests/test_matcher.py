import gc
import random

import pytest

from chronomine import Chronicle, Occurrence, enumerate_occurrences, occurs, support
from chronomine.matcher import OccurrenceCapWarning

from conftest import (
    brute_force_occurrences,
    brute_force_support,
    make_sequence,
    random_chronicle,
    random_sequence,
)


class TestEnumerate:
    def test_two_occurrences_sharing_a_suffix(self, five_item_chronicle, reference_sequences):
        occurrences = enumerate_occurrences(five_item_chronicle, reference_sequences["1"])
        assert len(occurrences) == 2
        timestamps = sorted(o.timestamps for o in occurrences)
        assert timestamps == [
            (1.0, 3.0, 5.0, 6.0, 7.0),
            (4.0, 3.0, 5.0, 6.0, 7.0),
        ]

    def test_missing_event_type_gives_nothing(self, five_item_chronicle, reference_sequences):
        assert enumerate_occurrences(five_item_chronicle, reference_sequences["4"]) == []

    def test_non_monotone_mapping(self, five_item_chronicle, reference_sequences):
        occurrences = enumerate_occurrences(five_item_chronicle, reference_sequences["6"])
        assert len(occurrences) == 1
        assert occurrences[0].timestamps == (6.0, 5.0, 4.0, 7.0, 10.0)

    def test_mapping_positions_are_injective(self, five_item_chronicle, reference_sequences):
        for occ in enumerate_occurrences(five_item_chronicle, reference_sequences["1"]):
            assert len(set(occ.mapping)) == len(occ.mapping)

    def test_cap_truncates_with_warning(self):
        seq = make_sequence("s", [("A", t) for t in range(10)], "+")
        chronicle = Chronicle.unconstrained(("A", "A"))
        with pytest.warns(OccurrenceCapWarning):
            occurrences = enumerate_occurrences(chronicle, seq, cap=5)
        assert len(occurrences) == 5

    def test_no_cap_enumerates_everything(self):
        seq = make_sequence("s", [("A", t) for t in range(10)], "+")
        chronicle = Chronicle.unconstrained(("A", "A"))
        assert len(enumerate_occurrences(chronicle, seq, cap=None)) == 45


class TestOccurs:
    def test_reference_occurrence_set(self, five_item_chronicle, reference_sequences):
        expected = {"1": True, "2": False, "3": True, "4": False, "5": False, "6": True}
        got = {sid: occurs(five_item_chronicle, seq) for sid, seq in reference_sequences.items()}
        assert got == expected

    def test_empty_chronicle_occurs_everywhere(self, reference_sequences):
        empty = Chronicle.unconstrained(())
        assert all(occurs(empty, s) for s in reference_sequences.values())
        assert enumerate_occurrences(empty, reference_sequences["5"]) == [
            Occurrence("5", (), ())
        ]

    def test_unconstrained_is_submultiset_test(self, reference_sequences):
        c = Chronicle.unconstrained(("A", "B", "C"))
        assert occurs(c, reference_sequences["2"])

    def test_agrees_with_enumeration(self, five_item_chronicle, reference_sequences):
        for seq in reference_sequences.values():
            assert occurs(five_item_chronicle, seq) == bool(
                enumerate_occurrences(five_item_chronicle, seq)
            )


class TestSupport:
    def test_reference_supports(
        self,
        five_item_chronicle,
        positives_only_chronicle,
        negatives_only_chronicle,
        reference_dataset,
    ):
        assert support(five_item_chronicle, reference_dataset.sequences) == 3
        assert support(five_item_chronicle, reference_dataset.positives) == 2
        assert support(five_item_chronicle, reference_dataset.negatives) == 1
        assert support(positives_only_chronicle, reference_dataset.positives) == 2
        assert support(positives_only_chronicle, reference_dataset.negatives) == 0
        assert support(negatives_only_chronicle, reference_dataset.positives) == 0
        assert support(negatives_only_chronicle, reference_dataset.negatives) == 1

    def test_multiple_occurrences_count_once(self, five_item_chronicle, reference_sequences):
        assert support(five_item_chronicle, [reference_sequences["1"]]) == 1


class TestOracleEquivalence:
    def test_reference_chronicle_matches_oracle(self, five_item_chronicle, reference_sequences):
        for seq in reference_sequences.values():
            got = {o.mapping for o in enumerate_occurrences(five_item_chronicle, seq)}
            assert got == brute_force_occurrences(five_item_chronicle, seq)

    def test_randomized_trials(self):
        rng = random.Random(20250810)
        for _ in range(300):
            seq = random_sequence(rng)
            chronicle = random_chronicle(rng)
            got = {o.mapping for o in enumerate_occurrences(chronicle, seq, cap=None)}
            assert got == brute_force_occurrences(chronicle, seq)


class TestAntiMonotonicity:
    def test_widening_never_loses_support(self):
        rng = random.Random(99)
        for _ in range(100):
            seqs = [random_sequence(rng, sid=str(i)) for i in range(6)]
            chronicle = random_chronicle(rng)
            widened = Chronicle.build(
                chronicle.items,
                [
                    (
                        tc.from_index,
                        tc.to_index,
                        tc.lower - rng.randint(0, 4),
                        tc.upper + rng.randint(0, 4),
                    )
                    for tc in chronicle.constraints
                ],
            )
            assert support(chronicle, seqs) <= support(widened, seqs)

    def test_constraints_never_beat_unconstrained(self):
        rng = random.Random(7)
        for _ in range(100):
            seqs = [random_sequence(rng, sid=str(i)) for i in range(5)]
            chronicle = random_chronicle(rng)
            bare = Chronicle.unconstrained(chronicle.items)
            assert support(chronicle, seqs) <= support(bare, seqs)

    def test_sub_multiset_has_at_least_the_support(self):
        rng = random.Random(41)
        for _ in range(100):
            seqs = [random_sequence(rng, sid=str(i)) for i in range(6)]
            items = sorted(rng.choice("abc") for _ in range(rng.randint(1, 4)))
            sub = sorted(rng.sample(items, rng.randint(0, len(items))))
            big = support(Chronicle.unconstrained(tuple(items)), seqs)
            small = support(Chronicle.unconstrained(tuple(sub)), seqs)
            assert big <= small

    def test_support_matches_oracle_on_reference(self, five_item_chronicle, reference_dataset):
        assert support(five_item_chronicle, reference_dataset.sequences) == brute_force_support(
            five_item_chronicle, reference_dataset.sequences
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda c, seqs: occurs(c, seqs[0]),
        lambda c, seqs: support(c, seqs),
        lambda c, seqs: enumerate_occurrences(c, seqs[0]),
    ],
    ids=["occurs", "support", "enumerate_occurrences"],
)
def test_leaves_no_garbage_cycles(call, five_item_chronicle, reference_sequences):
    # the search state must be freed by reference counting when the call
    # returns, not whenever the cyclic collector next runs
    seqs = [reference_sequences[sid] for sid in "123456"]
    gc.collect()
    gc.disable()
    try:
        assert call(five_item_chronicle, seqs)
        assert gc.collect() == 0
    finally:
        gc.enable()
