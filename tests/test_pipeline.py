import math
import os

import pytest

import chronomine.pipeline as pipeline
from chronomine import (
    Chronicle,
    DcmConfig,
    PlantedPattern,
    SequenceDataset,
    SyntheticSpec,
    check_multiset_discriminancy,
    dcm,
    generate_synthetic,
    is_discriminant,
    reevaluate,
    support,
)
from chronomine.errors import ConfigError

from conftest import make_sequence


def planted_spec(p_pos=0.8, p_neg=0.05, with_decoy=False, n=200):
    patterns = [
        PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), p_pos, p_neg)
    ]
    if with_decoy:
        patterns.append(
            PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 40, 80)]), 0.0, 0.75)
        )
    return SyntheticSpec(
        n_pos=n,
        n_neg=n,
        patterns=tuple(patterns),
        noise_types=("N1", "N2", "N3", "N4", "N5"),
        noise_events=3,
        horizon=90.0,
    )


class TestConfig:
    def test_fraction_resolves_by_ceiling(self):
        cfg = DcmConfig(sigma_min=0.05)
        assert cfg.resolve_sigma(200) == 10
        assert DcmConfig(sigma_min=0.005).resolve_sigma(8379) == 42

    def test_absolute_counts_pass_through(self):
        assert DcmConfig(sigma_min=3).resolve_sigma(100) == 3
        assert DcmConfig(sigma_min=1.0).resolve_sigma(100) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_min": 0},
            {"g_min": 0.5},
            {"min_size": 0},
            {"min_size": 3, "max_size": 2},
            {"occurrence_cap": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DcmConfig(**kwargs)


class TestMultisetDiscriminancy:
    def test_balanced_multiset_is_not_discriminant(self, reference_dataset):
        cfg = DcmConfig(sigma_min=2, g_min=2.0)
        assert not check_multiset_discriminancy(("A", "B", "C"), reference_dataset, cfg)

    def test_absent_from_negatives_is_discriminant(self, reference_dataset):
        cfg = DcmConfig(sigma_min=1, g_min=1000.0)
        # only sequence 3 (positive) holds two B events
        assert check_multiset_discriminancy(("B", "B"), reference_dataset, cfg)

    def test_strict_mode_changes_boundary_case(self, reference_dataset):
        # {{A,B,C,C}} is in positives 1, 3 and negative 6: 2 >= 2*1 but not >
        lax = DcmConfig(sigma_min=1, g_min=2.0)
        strict = DcmConfig(sigma_min=1, g_min=2.0, strict_growth=True)
        assert check_multiset_discriminancy(("A", "B", "C", "C"), reference_dataset, lax)
        assert not check_multiset_discriminancy(
            ("A", "B", "C", "C"), reference_dataset, strict
        )


class TestDcm:
    def test_reference_dataset_output_is_sound(self, reference_dataset):
        cfg = DcmConfig(sigma_min=2, g_min=2.0)
        results = dcm(reference_dataset, cfg)
        sigma = cfg.resolve_sigma(len(reference_dataset.positives))
        for mined in results:
            recomputed = reevaluate(mined.chronicle, reference_dataset)
            assert (recomputed.supp_pos, recomputed.supp_neg) == (
                mined.supp_pos,
                mined.supp_neg,
            )
            assert is_discriminant(mined, sigma, cfg.g_min)

    def test_no_positives_is_an_error(self):
        ds = SequenceDataset.from_sequences([make_sequence("n", [("A", 1)], "-")])
        with pytest.raises(ValueError, match="no positive sequences"):
            dcm(ds)

    def test_identical_classes_give_empty_output(self):
        rows = [("A", 1), ("B", 5), ("A", 9)]
        ds = SequenceDataset.from_sequences(
            [make_sequence(f"p{i}", rows, "+") for i in range(3)]
            + [make_sequence(f"n{i}", rows, "-") for i in range(3)]
        )
        assert dcm(ds, DcmConfig(sigma_min=1, g_min=2.0)) == []

    def test_planted_pattern_recovered(self):
        ds = generate_synthetic(planted_spec(), seed=17)
        results = dcm(ds, DcmConfig(sigma_min=0.05, g_min=2.0))
        hits = [
            m
            for m in results
            if m.chronicle.items == ("A", "B")
            and m.chronicle.bounds(0, 1)[0] <= 20
            and m.chronicle.bounds(0, 1)[1] >= 10
            and m.growth_rate >= 2.0
        ]
        assert hits

    def test_planted_pattern_recovered_via_rule_learning(self):
        # decoy occurrences in negatives make the bare multiset non-discriminant,
        # so only the constrained pattern can be emitted
        ds = generate_synthetic(planted_spec(with_decoy=True), seed=5)
        cfg = DcmConfig(sigma_min=0.05, g_min=2.0)
        assert not check_multiset_discriminancy(("A", "B"), ds, cfg)
        results = dcm(ds, cfg)
        hits = [
            m
            for m in results
            if m.chronicle.items == ("A", "B")
            and m.chronicle.bounds(0, 1)[0] <= 20
            and m.chronicle.bounds(0, 1)[1] >= 10
            and m.growth_rate >= 2.0
        ]
        assert hits
        for m in hits:
            assert m.chronicle.constraints  # learned, not the bare shortcut

    def test_shortcut_and_learned_multisets_are_disjoint(self):
        ds = generate_synthetic(planted_spec(with_decoy=True), seed=23)
        results = dcm(ds, DcmConfig(sigma_min=0.05, g_min=2.0))
        bare = {m.chronicle.items for m in results if not m.chronicle.constraints}
        constrained = {m.chronicle.items for m in results if m.chronicle.constraints}
        assert bare & constrained == set()

    def test_output_sorted_by_growth_then_support(self):
        ds = generate_synthetic(planted_spec(), seed=2)
        results = dcm(ds, DcmConfig(sigma_min=0.05, g_min=2.0))
        keys = [(-m.growth_rate, -m.supp_pos, m.chronicle.items) for m in results]
        assert keys == sorted(keys)

    def test_deterministic(self):
        ds = generate_synthetic(planted_spec(with_decoy=True), seed=11)
        cfg = DcmConfig(sigma_min=0.05, g_min=2.0, seed=4)
        assert dcm(ds, cfg) == dcm(ds, cfg)

    def test_raising_thresholds_never_adds_chronicles(self):
        # raising sigma_min shrinks the output chronicle-for-chronicle; for
        # g_min only the multiset set shrinks, because a multiset that stops
        # being discriminant on its own moves to the constraint-learning
        # branch and resurfaces with constraints attached
        ds = generate_synthetic(planted_spec(), seed=13)
        lax = dcm(ds, DcmConfig(sigma_min=0.05, g_min=2.0, seed=0))
        stricter_g = dcm(ds, DcmConfig(sigma_min=0.05, g_min=4.0, seed=0))
        stricter_s = dcm(ds, DcmConfig(sigma_min=0.2, g_min=2.0, seed=0))
        assert {m.chronicle for m in stricter_s} <= {m.chronicle for m in lax}
        assert {m.chronicle.items for m in stricter_g} <= {
            m.chronicle.items for m in lax
        }

    def test_min_and_max_size_bound_output(self):
        ds = generate_synthetic(planted_spec(), seed=29)
        results = dcm(ds, DcmConfig(sigma_min=0.05, g_min=2.0, min_size=2, max_size=2))
        assert results
        assert all(len(m.chronicle.items) == 2 for m in results)

    def test_worker_pool_matches_sequential(self, monkeypatch):
        ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
        cfg = DcmConfig(sigma_min=0.1, g_min=2.0)
        sequential = dcm(ds, cfg)
        monkeypatch.setenv("CHRONOMINE_THREADS", "2")
        parallel = dcm(ds, cfg)
        assert parallel == sequential

    def test_batch_bounds_and_pool_slices_leave_output_unchanged(self, monkeypatch):
        # 90 learned multisets: more than one batch of tables, and more
        # than the pool's 2 * SLICES_PER_WORKER slices
        ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
        cfg = DcmConfig(sigma_min=0.05, g_min=2.0)
        batches = []
        learn = pipeline.induce_chronicles

        def counted(tables, *args, **kwargs):
            batches.append(len(tables))
            if len(tables) > 1:
                assert sum(table.durations.size for table in tables) <= pipeline.BATCH_CELLS
            return learn(tables, *args, **kwargs)

        monkeypatch.setattr(pipeline, "induce_chronicles", counted)
        default = dcm(ds, cfg)
        learned = sum(batches)
        assert learned > pipeline.BATCH_TABLES
        assert learned > 2 * pipeline.SLICES_PER_WORKER
        assert len(batches) > 1

        for tables, cells in [(1, 1), (5, 10**9), (pipeline.BATCH_TABLES, 40)]:
            batches.clear()
            monkeypatch.setattr(pipeline, "BATCH_TABLES", tables)
            monkeypatch.setattr(pipeline, "BATCH_CELLS", cells)
            assert dcm(ds, cfg) == default
            assert sum(batches) == learned and max(batches) <= tables
        assert batches.count(1) < len(batches)  # the cell bound mixes sizes
        monkeypatch.undo()

        monkeypatch.setenv("CHRONOMINE_THREADS", "2")
        assert dcm(ds, cfg) == default

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_count_warns_and_runs_sequentially(self, monkeypatch, value):
        ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
        cfg = DcmConfig(sigma_min=0.1, g_min=2.0)
        sequential = dcm(ds, cfg)
        monkeypatch.setenv("CHRONOMINE_THREADS", value)
        with pytest.warns(RuntimeWarning, match=f"CHRONOMINE_THREADS='{value}'"):
            assert dcm(ds, cfg) == sequential

    def test_min_size_one_learns_nothing_for_singletons(self, reference_dataset):
        cfg = DcmConfig(sigma_min=1, g_min=2.0, min_size=1)
        results = dcm(reference_dataset, cfg)
        assert {m.chronicle.items for m in results} >= {("C", "C"), ("D",)}
        for mined in results:
            if len(mined.chronicle.items) == 1:
                assert not mined.chronicle.constraints
            assert reevaluate(mined.chronicle, reference_dataset) == mined
            assert is_discriminant(mined, 1, cfg.g_min)

    def test_reference_chronicle_scores(self, five_item_chronicle, reference_dataset):
        mined = reevaluate(five_item_chronicle, reference_dataset)
        assert (mined.supp_pos, mined.supp_neg, mined.growth_rate) == (2, 1, 2.0)
