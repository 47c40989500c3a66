"""The bitset multiset miner against the indexed-item reference
(``encode`` -> ``mine_frequent_itemsets`` -> ``decode_to_multisets``, scored
with ``index_supports``), and ``dcm`` with that reference path switched
off."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chronomine.pipeline as pipeline
from chronomine import DcmConfig, SequenceDataset, dcm, frequent_multisets
from chronomine.itemsets import decode_to_multisets, encode, mine_frequent_itemsets
from chronomine.matcher import TypeIndex

from conftest import BOUNDED, index_supports, random_sequence


def reference_multisets(dataset, sigma, min_size, max_size):
    itemsets = mine_frequent_itemsets(encode(dataset.positives), sigma, max_size)
    index = TypeIndex(dataset)
    return [
        (multiset, *index_supports(index, multiset))
        for multiset in sorted(decode_to_multisets(itemsets))
        if len(multiset) >= min_size and (max_size is None or len(multiset) <= max_size)
    ]


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seqs=st.integers(1, 12),
    sigma=st.integers(1, 3),
    min_size=st.integers(1, 3),
    max_size=st.sampled_from([None, 1, 2, 3, 4]),
)
def test_bitset_miner_agrees_with_the_indexed_item_reference(
    seed, n_seqs, sigma, min_size, max_size
):
    rng = random.Random(seed)
    # a two-letter alphabet and up to 7 events repeat types often
    dataset = SequenceDataset.from_sequences(
        random_sequence(
            rng, sid=f"s{k}{label}", max_events=7, alphabet=("a", "b"), label=label
        )
        for k in range(n_seqs)
        for label in ("+", "-")
        if label == "+" or rng.random() < 0.7
    )
    got = frequent_multisets(TypeIndex(dataset), sigma, min_size, max_size)
    assert got == reference_multisets(dataset, sigma, min_size, max_size)


def test_reference_dataset_multisets(reference_dataset):
    got = frequent_multisets(TypeIndex(reference_dataset), sigma=2, min_size=2)
    assert got == [
        (("A", "B"), 3, 3),
        (("A", "B", "C"), 3, 3),
        (("A", "B", "C", "C"), 2, 1),
        (("A", "B", "C", "C", "D"), 2, 1),
        (("A", "B", "C", "D"), 3, 1),
        (("A", "B", "D"), 3, 1),
        (("A", "C"), 3, 3),
        (("A", "C", "C"), 2, 1),
        (("A", "C", "C", "D"), 2, 1),
        (("A", "C", "D"), 3, 1),
        (("A", "D"), 3, 1),
        (("B", "C"), 3, 3),
        (("B", "C", "C"), 2, 1),
        (("B", "C", "C", "D"), 2, 1),
        (("B", "C", "D"), 3, 1),
        (("B", "D"), 3, 1),
        (("C", "C"), 2, 1),
        (("C", "C", "D"), 2, 1),
        (("C", "D"), 3, 1),
    ]


def test_size_bounds_and_threshold(reference_dataset):
    index = TypeIndex(reference_dataset)
    singletons = frequent_multisets(index, sigma=3, min_size=1, max_size=1)
    assert singletons == [(("A",), 3, 3), (("B",), 3, 3), (("C",), 3, 3), (("D",), 3, 1)]
    assert frequent_multisets(index, sigma=4) == []
    with pytest.raises(ValueError, match=">= 1"):
        frequent_multisets(index, sigma=0)


@pytest.mark.parametrize(
    "config",
    [
        DcmConfig(sigma_min=2, g_min=2.0),
        DcmConfig(sigma_min=1, g_min=1.5, min_size=1, max_size=3),
    ],
)
def test_dcm_needs_neither_the_reference_miner_nor_a_supports_recount(
    reference_dataset, config, monkeypatch
):
    expected = dcm(reference_dataset, config)

    def unused(*args, **kwargs):
        raise AssertionError("dcm must not call this")

    # perfbench's tracer wraps these pipeline names, so they must stay
    for name in ("encode", "mine_frequent_itemsets", "decode_to_multisets"):
        assert hasattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, unused)
    assert dcm(reference_dataset, config) == expected
