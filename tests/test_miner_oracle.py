"""Oracle test of the miner: on tiny random datasets, every multiset of up
to 3 items is enumerated by brute force and scored with the brute-force
occurrence oracle, independently of the type index and the itemset miner."""

import random
from itertools import combinations_with_replacement

from hypothesis import given
from hypothesis import strategies as st

from chronomine import Chronicle, DcmConfig, SequenceDataset, dcm

from conftest import BOUNDED, brute_force_support, random_sequence

ALPHABET = ("a", "b", "c")


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seqs=st.integers(2, 10),
    sigma_min=st.sampled_from([1, 2, 3]),
    g_min=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    min_size=st.sampled_from([1, 2]),
)
def test_dcm_agrees_with_a_brute_force_miner(seed, n_seqs, sigma_min, g_min, min_size):
    rng = random.Random(seed)
    dataset = SequenceDataset.from_sequences(
        random_sequence(rng, sid=f"s{k}", max_events=6, label="+" if k % 2 else "-")
        for k in range(n_seqs)
    )
    config = DcmConfig(sigma_min=sigma_min, g_min=g_min, min_size=min_size, max_size=3)
    sigma = config.resolve_sigma(len(dataset.positives))

    def supports(chronicle):
        return (
            brute_force_support(chronicle, dataset.positives),
            brute_force_support(chronicle, dataset.negatives),
        )

    expected = set()
    for size in range(min_size, 4):
        for items in combinations_with_replacement(ALPHABET, size):
            supp_pos, supp_neg = supports(Chronicle.unconstrained(items))
            if supp_pos >= sigma and supp_pos >= g_min * supp_neg:
                expected.add((items, supp_pos, supp_neg))

    results = dcm(dataset, config)
    # a learned chronicle always carries a constraint, so the unconstrained
    # ones are exactly the shortcut's
    shortcut = {
        (m.chronicle.items, m.supp_pos, m.supp_neg)
        for m in results
        if not m.chronicle.constraints
    }
    assert shortcut == expected
    for mined in results:
        if mined.chronicle.constraints:
            supp_pos, supp_neg = supports(mined.chronicle)
            assert (supp_pos, supp_neg) == (mined.supp_pos, mined.supp_neg)
            assert supp_pos >= sigma and supp_pos >= g_min * supp_neg
