"""An end-to-end reference for ``dcm``, built from the tests' oracles.

``reference_dcm`` shares no fast path with the pipeline: it enumerates
every multiset up to ``max_size`` and scores it with the brute-force
occurrence oracle, builds each duration table from the matcher's
``enumerate_occurrences`` under the occurrence cap, learns its rules with
the pure-Python learner oracle and the pipeline's per-multiset seeds,
rescoring every rule with the matcher's ``support``, and sorts the output
by an order written out here.  ``dcm`` must render the same JSON, on fixed
cases and on small random datasets and configs.
"""

import dataclasses
import os
import random
import warnings
from itertools import combinations, combinations_with_replacement
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chronomine.rules as rules
from chronomine import (
    Chronicle,
    DcmConfig,
    MinedChronicle,
    OccurrenceCapWarning,
    PlantedPattern,
    SequenceDataset,
    SyntheticSpec,
    dcm,
    enumerate_occurrences,
    generate_synthetic,
    is_discriminant,
    render,
    support,
    translate,
)
from chronomine.pipeline import THREADS_ENV_VAR, _multiset_seed
from chronomine.rules import DurationTable

from conftest import BOUNDED, brute_force_support, random_sequence
from test_learner_oracle import oracle_induce_rules


def reference_table(items, dataset, cap):
    """The duration table of ``items``: one row per occurrence that the
    matcher enumerates in each sequence, at most ``cap`` of them."""
    chronicle = Chronicle.unconstrained(items)
    pairs = list(combinations(range(len(items)), 2))
    rows, labels, seq_index = [], [], []
    for k, seq in enumerate(dataset.sequences):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OccurrenceCapWarning)
            occurrences = enumerate_occurrences(chronicle, seq, cap=cap)
        for occ in occurrences:
            rows.append([occ.timestamps[j] - occ.timestamps[i] for i, j in pairs])
            labels.append(seq.label == "+")
            seq_index.append(k)
    return DurationTable(
        multiset=items,
        durations=np.array(rows, dtype=float).reshape(len(rows), len(pairs)),
        labels=np.array(labels, dtype=bool),
        seq_index=np.array(seq_index, dtype=np.int64),
    )


def reference_dcm(dataset, config):
    """``dcm``'s output computed from the oracles; ``config.max_size``
    bounds the multisets enumerated, so it must be given."""
    sigma = config.resolve_sigma(len(dataset.positives))

    def scored(chronicle, count):
        return MinedChronicle(
            chronicle, count(chronicle, dataset.positives), count(chronicle, dataset.negatives)
        )

    results = []
    for size in range(config.min_size, config.max_size + 1):
        for items in combinations_with_replacement(dataset.alphabet, size):
            mined = scored(Chronicle.unconstrained(items), brute_force_support)
            if mined.supp_pos < sigma:
                continue
            if is_discriminant(mined, sigma, config.g_min):
                results.append(mined)
                continue
            if size == 1:
                continue
            table = reference_table(items, dataset, config.occurrence_cap)
            seed = _multiset_seed(config.seed, items)
            for rule in oracle_induce_rules(table, config.g_min, seed=seed):
                learned = scored(translate(rule, items), support)
                if is_discriminant(learned, sigma, config.g_min):
                    results.append(learned)
    # descending growth rate, then descending positive support, then the
    # items and the (from, to, lower, upper) constraints, ascending
    return sorted(
        results,
        key=lambda m: (
            -m.growth_rate,
            -m.supp_pos,
            m.chronicle.items,
            [(c.from_index, c.to_index, c.lower, c.upper) for c in m.chronicle.constraints],
        ),
    )


def planted_dataset():
    """60 sequences of about 4 events over A, B, C and D: (A, B) is planted
    10 to 20 apart in 80% of the positives and 5% of the negatives, and a
    decoy 40 to 80 apart in 70% of the negatives."""
    spec = SyntheticSpec(
        n_pos=30,
        n_neg=30,
        patterns=(
            PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), 0.8, 0.05),
            PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 40, 80)]), 0.0, 0.7),
        ),
        noise_types=("A", "C", "D"),
        noise_events=2,
        horizon=90.0,
    )
    return generate_synthetic(spec, seed=5)


CASES = {
    "reference": (None, DcmConfig(sigma_min=1, g_min=1.5, max_size=4)),
    "planted": (planted_dataset, DcmConfig(sigma_min=0.1, g_min=2.0, max_size=3)),
}


@pytest.mark.parametrize("cap", [None, 1, 2])
@pytest.mark.parametrize("case", CASES)
def test_dcm_renders_the_reference_output(case, cap, reference_dataset):
    make, config = CASES[case]
    dataset = reference_dataset if make is None else make()
    config = dataclasses.replace(config, occurrence_cap=cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OccurrenceCapWarning)
        got = dcm(dataset, config)
    assert any(m.chronicle.constraints for m in got)  # some chronicle is learned
    assert render(got, "json") == render(reference_dcm(dataset, config), "json")


def mined_json(dataset, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OccurrenceCapWarning)
        return render(dcm(dataset, config), "json")


#: How ``dcm`` also runs in some examples, as (environment, batch bound):
#: in two processes, and with every table learned alone or all of a width
#: in one batch.
VARIANTS = {
    "none": None,
    "two processes": ({THREADS_ENV_VAR: "2"}, rules.BATCH_CELLS),
    "batch bound 1": ({}, 1),
    "batch bound 10**9": ({}, 10**9),
}


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_pos=st.integers(8, 20),
    n_neg=st.integers(4, 20),
    cap=st.sampled_from([None, 1, 2, 5]),
    min_size=st.integers(1, 2),
    max_size=st.integers(2, 3),
    sigma_min=st.sampled_from([1, 2, 3, 0.25, 0.5]),
    g_min=st.floats(1.0, 3.0),
    variant=st.sampled_from(sorted(VARIANTS)),
)
def test_dcm_renders_the_reference_output_on_random_data(
    seed, n_pos, n_neg, cap, min_size, max_size, sigma_min, g_min, variant
):
    rng = random.Random(seed)
    dataset = SequenceDataset.from_sequences(
        [random_sequence(rng, f"p{k}", label="+") for k in range(n_pos)]
        + [random_sequence(rng, f"n{k}", label="-") for k in range(n_neg)],
        alphabet=("a", "b", "c"),
    )
    config = DcmConfig(
        sigma_min=sigma_min,
        g_min=g_min,
        min_size=min_size,
        max_size=max_size,
        occurrence_cap=cap,
        seed=seed % 7,
    )
    expected = render(reference_dcm(dataset, config), "json")
    assert mined_json(dataset, config) == expected
    if VARIANTS[variant] is not None:
        environ, cells = VARIANTS[variant]
        with mock.patch.dict(os.environ, environ), mock.patch.object(rules, "BATCH_CELLS", cells):
            assert mined_json(dataset, config) == expected
