"""Metamorphic tests of ``dcm``: input transformations whose effect on the
output is known without knowing the output."""

import random
import string
from dataclasses import replace
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

import chronomine.pipeline as pipeline
from chronomine import (
    Chronicle,
    DcmConfig,
    Event,
    MinedChronicle,
    PlantedPattern,
    Sequence,
    SequenceDataset,
    SyntheticSpec,
    dcm,
    generate_synthetic,
    is_discriminant,
    reevaluate,
)
from chronomine.io import render

from conftest import BOUNDED, random_sequence


def _retimed(dataset, new_time):
    """The dataset with each event's timestamp t in sequence sid replaced by
    new_time(sid, t)."""
    return SequenceDataset.from_sequences(
        Sequence(
            sid=s.sid,
            events=tuple(Event(e.event_type, new_time(s.sid, e.timestamp)) for e in s.events),
            label=s.label,
        )
        for s in dataset.sequences
    )


def _assert_shift_invariant(dataset, config, rng):
    # integer timestamps and shifts keep every duration, and so every
    # learned threshold, exact
    shifts = {s.sid: float(rng.randint(-1000, 1000)) for s in dataset.sequences}
    moved = _retimed(dataset, lambda sid, t: t + shifts[sid])
    expected = dcm(dataset, config)
    assert render(dcm(moved, config), "json") == render(expected, "json")
    return expected


def test_per_sequence_shift_leaves_planted_output_unchanged():
    spec = SyntheticSpec(
        n_pos=100,
        n_neg=100,
        patterns=(PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), 0.8, 0.05),),
        noise_types=("N1", "N2", "N3"),
        noise_events=4,
        horizon=90.0,
    )
    dataset = _retimed(generate_synthetic(spec, seed=5), lambda sid, t: float(round(t)))
    results = _assert_shift_invariant(dataset, DcmConfig(sigma_min=0.05, g_min=2.0), random.Random(1))
    # the learner ran: some emitted chronicle carries a learned constraint
    assert any(m.chronicle.constraints for m in results)


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seqs=st.integers(4, 14),
    sigma_min=st.sampled_from([1, 2]),
    g_min=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_per_sequence_shift_leaves_output_unchanged(seed, n_seqs, sigma_min, g_min):
    rng = random.Random(seed)
    dataset = SequenceDataset.from_sequences(
        random_sequence(rng, sid=f"s{k}", label="+" if k % 2 else "-") for k in range(n_seqs)
    )
    _assert_shift_invariant(dataset, DcmConfig(sigma_min=sigma_min, g_min=g_min), rng)


def _assert_rename_invariant(dataset, config, rng):
    # equal-length new names keep the order of the types and also of the
    # learner's attribute names "X->Y", which break ties between conditions
    types = sorted(dataset.alphabet)
    names = set()
    while len(names) < len(types):
        names.add("".join(rng.choice(string.ascii_uppercase) for _ in range(3)))
    rename = dict(zip(types, sorted(names)))
    back = {new: old for old, new in rename.items()}
    renamed = SequenceDataset.from_sequences(
        Sequence(
            sid=s.sid,
            events=tuple(Event(rename[e.event_type], e.timestamp) for e in s.events),
            label=s.label,
        )
        for s in dataset.sequences
    )

    expected = [
        MinedChronicle(
            chronicle=Chronicle(
                items=tuple(rename[t] for t in m.chronicle.items),
                constraints=m.chronicle.constraints,
            ),
            supp_pos=m.supp_pos,
            supp_neg=m.supp_neg,
        )
        for m in dcm(dataset, config)
    ]
    # the learner seeds its grow/prune splits from the multiset's type
    # names; the renamed run draws the original names' seeds
    seed_of = pipeline._multiset_seed
    with mock.patch.object(
        pipeline, "_multiset_seed", lambda base, ms: seed_of(base, tuple(back[t] for t in ms))
    ):
        results = dcm(renamed, config)
    assert render(results, "json") == render(expected, "json")
    return expected


def test_order_preserving_rename_renames_planted_output():
    spec = SyntheticSpec(
        n_pos=100,
        n_neg=100,
        patterns=(PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), 0.8, 0.05),),
        noise_types=("N1", "N2", "N3"),
        noise_events=4,
        horizon=90.0,
    )
    dataset = generate_synthetic(spec, seed=5)
    results = _assert_rename_invariant(dataset, DcmConfig(sigma_min=0.05, g_min=2.0), random.Random(2))
    assert any(m.chronicle.constraints for m in results)


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seqs=st.integers(4, 14),
    sigma_min=st.sampled_from([1, 2]),
    g_min=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_order_preserving_rename_renames_output(seed, n_seqs, sigma_min, g_min):
    rng = random.Random(seed)
    dataset = SequenceDataset.from_sequences(
        random_sequence(rng, sid=f"s{k}", label="+" if k % 2 else "-") for k in range(n_seqs)
    )
    _assert_rename_invariant(dataset, DcmConfig(sigma_min=sigma_min, g_min=g_min), rng)


def _assert_duplication_doubles_supports(dataset, config):
    # a copy of every sequence under a new sid, and twice the absolute
    # support threshold: every multiset's supports double, so the same
    # multisets are frequent and take the shortcut, with the same growth
    # rates.  The learner's grow/prune split draws over twice as many
    # sequences, so its rules may differ; they must still be discriminant.
    doubled = SequenceDataset.from_sequences(
        [*dataset.sequences]
        + [Sequence(sid=f"{s.sid}-copy", events=s.events, label=s.label) for s in dataset.sequences]
    )
    doubled_config = replace(config, sigma_min=2 * config.sigma_min)
    sigma = doubled_config.resolve_sigma(len(doubled.positives))
    original = dcm(dataset, config)
    expected = [
        MinedChronicle(chronicle=m.chronicle, supp_pos=2 * m.supp_pos, supp_neg=2 * m.supp_neg)
        for m in original
        if not m.chronicle.constraints
    ]
    results = dcm(doubled, doubled_config)
    for output in (original, results):  # dcm has no dedupe: none is needed
        assert len({m.chronicle for m in output}) == len(output)
    shortcut = [m for m in results if not m.chronicle.constraints]
    assert shortcut == expected
    assert [m.growth_rate for m in shortcut] == [
        m.supp_pos / m.supp_neg if m.supp_neg else float("inf") for m in expected
    ]
    learned = [m for m in results if m.chronicle.constraints]
    for mined in learned:
        assert reevaluate(mined.chronicle, doubled) == mined
        assert is_discriminant(mined, sigma, config.g_min)
    return learned


def test_duplicating_sequences_doubles_planted_supports():
    spec = SyntheticSpec(
        n_pos=100,
        n_neg=100,
        patterns=(
            PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), 0.8, 0.05),
            PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 40, 80)]), 0.0, 0.75),
        ),
        noise_types=("N1", "N2", "N3"),
        noise_events=4,
        horizon=90.0,
    )
    learned = _assert_duplication_doubles_supports(
        generate_synthetic(spec, seed=5), DcmConfig(sigma_min=5, g_min=2.0)
    )
    assert learned  # the learner ran on the doubled dataset


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_seqs=st.integers(4, 14),
    sigma_min=st.sampled_from([1, 2]),
    g_min=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_duplicating_sequences_doubles_supports(seed, n_seqs, sigma_min, g_min):
    rng = random.Random(seed)
    dataset = SequenceDataset.from_sequences(
        random_sequence(rng, sid=f"s{k}", label="+" if k % 2 else "-") for k in range(n_seqs)
    )
    _assert_duplication_doubles_supports(dataset, DcmConfig(sigma_min=sigma_min, g_min=g_min))
