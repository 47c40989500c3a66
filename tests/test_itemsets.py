import gc
import itertools
import random
from collections import Counter

import pytest

from chronomine import (
    Chronicle,
    IndexedItem,
    Transaction,
    decode_to_multisets,
    encode,
    mine_frequent_itemsets,
    support,
)

from conftest import make_sequence, random_sequence


def item(etype, k):
    return IndexedItem(etype, k)


class TestEncode:
    def test_multiplicities_expand_to_indexed_items(self, reference_sequences):
        (tx,) = encode([reference_sequences["1"]])
        assert tx.items == frozenset(
            {item("A", 1), item("A", 2), item("B", 1), item("C", 1), item("C", 2), item("D", 1)}
        )

    def test_empty_sequence(self):
        (tx,) = encode([make_sequence("e", [], "+")])
        assert tx.items == frozenset()

    def test_single_occurrences(self, reference_sequences):
        (tx,) = encode([reference_sequences["5"]])
        assert tx.items == frozenset({item("A", 1), item("B", 1), item("C", 1)})

    def test_downward_closure_validated(self):
        with pytest.raises(ValueError, match="downward"):
            Transaction("x", frozenset({item("A", 2)}))
        with pytest.raises(ValueError, match=">= 1"):
            Transaction("x", frozenset({item("A", 0)}))


class TestMine:
    @pytest.fixture()
    def positive_transactions(self, reference_dataset):
        return encode(reference_dataset.positives)

    def test_frequent_singletons_at_three(self, positive_transactions):
        frequent = mine_frequent_itemsets(positive_transactions, sigma_min=3)
        singles = {next(iter(s)) for s in frequent if len(s) == 1}
        assert singles == {item("A", 1), item("B", 1), item("C", 1), item("D", 1)}

    def test_threshold_above_dataset_size(self, positive_transactions):
        assert mine_frequent_itemsets(positive_transactions, sigma_min=4) == {}

    def test_double_occurrence_item_at_two(self, positive_transactions):
        frequent = mine_frequent_itemsets(positive_transactions, sigma_min=2)
        assert frozenset({item("C", 2)}) in frequent
        assert frequent[frozenset({item("C", 2)})] == 2

    def test_supports_count_transactions(self, positive_transactions):
        frequent = mine_frequent_itemsets(positive_transactions, sigma_min=1)
        assert frequent[frozenset({item("A", 2)})] == 1
        assert frequent[frozenset({item("A", 1), item("B", 1), item("C", 1), item("D", 1)})] == 3

    def test_max_items_bounds_cardinality(self, positive_transactions):
        frequent = mine_frequent_itemsets(positive_transactions, sigma_min=1, max_items=2)
        assert max(len(s) for s in frequent) == 2

    def test_bad_sigma_rejected(self, positive_transactions):
        with pytest.raises(ValueError):
            mine_frequent_itemsets(positive_transactions, sigma_min=0)

    def test_leaves_no_garbage_cycles(self):
        # the tidsets must be freed by reference counting when the call
        # returns, not whenever the cyclic collector next runs
        rng = random.Random(4)
        transactions = encode(
            random_sequence(rng, sid=str(k), alphabet=tuple("abcdef")) for k in range(40)
        )
        gc.collect()
        gc.disable()
        try:
            assert mine_frequent_itemsets(transactions, sigma_min=2)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDecode:
    def test_indexed_item_expands_to_copies(self):
        out = decode_to_multisets([frozenset({item("A", 2), item("B", 1)})])
        assert out == {("A", "A", "B")}

    def test_redundant_encoding_dropped(self):
        out = decode_to_multisets([frozenset({item("A", 1), item("A", 2)})])
        assert out == set()

    def test_empty_itemset_dropped(self):
        assert decode_to_multisets([frozenset()]) == set()


class TestMinerProperties:
    def _mine_multisets(self, sequences, sigma):
        itemsets = mine_frequent_itemsets(encode(sequences), sigma)
        return decode_to_multisets(itemsets)

    def test_soundness_against_matcher(self, reference_dataset):
        sigma = 2
        for ms in self._mine_multisets(reference_dataset.positives, sigma):
            assert support(Chronicle.unconstrained(ms), reference_dataset.positives) >= sigma

    def test_singleton_encoding_counts_sequences(self, reference_dataset):
        transactions = encode(reference_dataset.positives)
        frequent = mine_frequent_itemsets(transactions, sigma_min=1)
        for itemset, supp in frequent.items():
            if len(itemset) != 1:
                continue
            it = next(iter(itemset))
            direct = sum(
                1
                for s in reference_dataset.positives
                if Counter(e.event_type for e in s.events)[it.event_type]
                >= it.occurrence_index
            )
            assert supp == direct

    def test_anti_monotone_output(self, reference_dataset):
        multisets = self._mine_multisets(reference_dataset.positives, 2)
        for ms in multisets:
            for size in range(1, len(ms)):
                for sub in set(itertools.combinations(ms, size)):
                    assert tuple(sorted(sub)) in multisets

    def test_completeness_against_brute_force(self):
        rng = random.Random(4242)
        for _ in range(25):
            seqs = [
                random_sequence(rng, sid=str(i), max_events=6, alphabet="abcde")
                for i in range(rng.randint(1, 6))
            ]
            sigma = rng.randint(1, 3)
            mined = self._mine_multisets(seqs, sigma)

            # brute force: every sub-multiset within per-type maxima, kept if
            # enough sequences contain it
            maxima = Counter()
            for s in seqs:
                for etype, n in Counter(e.event_type for e in s.events).items():
                    maxima[etype] = max(maxima[etype], n)
            expected = set()
            ranges = [range(0, maxima[e] + 1) for e in sorted(maxima)]
            for combo in itertools.product(*ranges):
                ms = tuple(
                    itertools.chain.from_iterable(
                        [e] * k for e, k in zip(sorted(maxima), combo)
                    )
                )
                if not ms:
                    continue
                if support(Chronicle.unconstrained(ms), seqs) >= sigma:
                    expected.add(ms)
            assert mined == expected
