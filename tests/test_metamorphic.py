"""Metamorphic tests of ``dcm``: input transformations whose effect on the
output is known without knowing the output."""

import random

from hypothesis import given
from hypothesis import strategies as st

from chronomine import (
    Chronicle,
    DcmConfig,
    Event,
    PlantedPattern,
    Sequence,
    SequenceDataset,
    SyntheticSpec,
    dcm,
    generate_synthetic,
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
