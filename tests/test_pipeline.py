import math
import multiprocessing
import os
import weakref
from fractions import Fraction

import numpy as np
import pytest

import chronomine.pipeline as pipeline
import chronomine.rules as rules
from chronomine import (
    Chronicle,
    DcmConfig,
    PlantedPattern,
    SequenceDataset,
    SyntheticSpec,
    build_duration_table,
    dcm,
    frequent_multisets,
    generate_synthetic,
    is_discriminant,
    reevaluate,
    support,
)
from chronomine.errors import ConfigError
from chronomine.matcher import TypeIndex
from chronomine.model import meets_growth
from chronomine.rules import induce_chronicles

from conftest import index_supports, make_sequence


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
            {"occurrence_cap": 2.5},
            {"occurrence_cap": True},
            {"seed": 1.5},
            {"seed": "1"},
            {"seed": np.float64(1)},
            {"min_size": 2.0},
            {"min_size": True},
            {"max_size": 3.5},
            {"sigma_min": "2"},
            {"g_min": "3"},
            {"sigma_min": True},
            {"g_min": True},
            {"sigma_min": None},
            {"g_min": np.bool_(True)},
            {"g_min": [2.0]},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DcmConfig(**kwargs)

    def test_numpy_integers_are_stored_as_ints(self, reference_dataset):
        cfg = DcmConfig(min_size=np.int64(2), max_size=np.int32(3), seed=np.uint8(4))
        assert (cfg.min_size, cfg.max_size, cfg.seed) == (2, 3, 4)
        assert all(type(v) is int for v in (cfg.min_size, cfg.max_size, cfg.seed))
        assert dcm(reference_dataset, cfg) == dcm(reference_dataset, DcmConfig(max_size=3, seed=4))

    def test_real_number_thresholds_accepted(self):
        cfg = DcmConfig(sigma_min=np.float32(0.25), g_min=np.float64(1.5))
        assert cfg.resolve_sigma(100) == 25
        assert DcmConfig(sigma_min=np.int64(3), g_min=Fraction(3, 2)).resolve_sigma(100) == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["sigma_min", "g_min"])
    def test_non_finite_thresholds_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            DcmConfig(**{name: value})


def bare_multiset_meets_growth(multiset, dataset, g_min):
    """The shortcut's growth test on the constraint-free multiset."""
    return meets_growth(*index_supports(TypeIndex(dataset), multiset), g_min)


class TestMultisetDiscriminancy:
    def test_balanced_multiset_is_not_discriminant(self, reference_dataset):
        assert not bare_multiset_meets_growth(("A", "B", "C"), reference_dataset, 2.0)

    def test_absent_from_negatives_is_discriminant(self, reference_dataset):
        # only sequence 3 (positive) holds two B events
        assert bare_multiset_meets_growth(("B", "B"), reference_dataset, 1000.0)


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
        assert not bare_multiset_meets_growth(("A", "B"), ds, cfg.g_min)
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

    def test_batch_bounds_and_pool_shards_leave_output_unchanged(self, monkeypatch):
        # 90 learned multisets of four widths, learned at several batch
        # bounds and by 1, 2 and 3 processes
        ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
        cfg = DcmConfig(sigma_min=0.05, g_min=2.0)
        batches = []  # (tables, width) of each batch
        cover = rules._cover

        def counted(tables, *args):
            widths = {len(table.pairs) for table in tables}
            assert len(widths) == 1
            if len(tables) > 1:
                assert sum(table.durations.size for table in tables) <= rules.BATCH_CELLS
            batches.append((len(tables), *widths))
            return cover(tables, *args)

        monkeypatch.setattr(rules, "_cover", counted)
        default = dcm(ds, cfg)
        learned = sum(n for n, _ in batches)
        widths = {width for _, width in batches}
        assert learned > 3
        assert 1 < len(widths) <= len(batches) < learned

        for cells in (1, 40, 10**9):
            batches.clear()
            monkeypatch.setattr(rules, "BATCH_CELLS", cells)
            assert dcm(ds, cfg) == default
            sizes = [n for n, _ in batches]
            assert sum(sizes) == learned
            if cells == 1:
                assert set(sizes) == {1}
            elif cells == 40:
                assert sizes.count(1) < len(sizes)  # the bound mixes sizes
            else:
                assert sorted(width for _, width in batches) == sorted(widths)
        monkeypatch.undo()

        for processes in ("2", "3"):
            monkeypatch.setenv("CHRONOMINE_THREADS", processes)
            assert dcm(ds, cfg) == default

    def test_the_caller_learns_shard_0_and_the_pool_the_rest(self, monkeypatch):
        # a fake pool that runs its shards in this process, lazily, as the
        # caller collects them; at 3 processes and at more processes than
        # multisets learned, where each of n = len(learned) gets one
        ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
        cfg = DcmConfig(sigma_min=0.1, g_min=2.0)
        calls = []  # the multisets of each _learn call, in call order
        learn = pipeline._learn

        def recorded(multisets, *args):
            calls.append(list(multisets))
            return learn(multisets, *args)

        pools = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                self.max_workers = max_workers
                initializer(*initargs)
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, shards):
                self.shards = list(shards)
                return (fn(shard) for shard in self.shards)

        monkeypatch.setattr(pipeline, "_learn", recorded)
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(pipeline, "_WORKER_STATE", None)
        sequential = dcm(ds, cfg)
        (learned,) = calls
        assert len(learned) > 3
        for asked, n in ((3, 3), (len(learned) + 5, len(learned))):
            calls.clear()
            pools.clear()
            monkeypatch.setenv("CHRONOMINE_THREADS", str(asked))
            assert dcm(ds, cfg) == sequential
            (pool,) = pools
            assert pool.max_workers == n - 1
            assert pool.shards == [learned[k::n] for k in range(1, n)]
            assert calls == [learned[k::n] for k in range(n)]  # the caller's first
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("raiser", ["caller", "worker"])
    def test_a_pooled_run_leaves_no_child_process(self, monkeypatch, raiser):
        ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
        cfg = DcmConfig(sigma_min=0.1, g_min=2.0)
        monkeypatch.setenv("CHRONOMINE_THREADS", "3")
        assert dcm(ds, cfg)
        assert multiprocessing.active_children() == []

        caller = os.getpid()
        learn = pipeline._learn

        def failing(*args):
            if (os.getpid() == caller) == (raiser == "caller"):
                raise RuntimeError(f"{raiser} failed")
            return learn(*args)

        monkeypatch.setattr(pipeline, "_learn", failing)
        with pytest.raises(RuntimeError, match=f"{raiser} failed"):
            dcm(ds, cfg)
        assert multiprocessing.active_children() == []

    def test_learner_streams_its_tables(self, monkeypatch):
        # induce_chronicles reads a generator as it reads a list, holds one
        # pending batch per width, and frees the tables of a learned batch
        ds = generate_synthetic(planted_spec(with_decoy=True, n=60), seed=31)
        index = TypeIndex(ds)
        multisets = [m for m, _, _ in frequent_multisets(index, 3, 2)]
        seeds = list(range(len(multisets)))
        tables = [build_duration_table(m, ds, index=index) for m in multisets]
        expected = induce_chronicles(tables, ds, 2.0, seeds, 3)
        # a bound that the first two one-column tables fill exactly
        one_column = [t.durations.size for t in tables if len(t.pairs) == 1]
        bound = one_column[0] + one_column[1]
        del tables
        assert expected
        with pytest.raises(ValueError):
            induce_chronicles([], ds, 2.0, [1], 3)

        monkeypatch.setattr(rules, "BATCH_CELLS", bound)
        built = []  # weak references: a DurationTable is not hashable
        learned = []
        batches = []
        cover = rules._cover

        def check_waiting(batch=()):
            # apart from the batch being learned and the table read last,
            # every live table waits, unlearned, in the pending batch of its
            # width, which holds fewer cells than the bound
            waiting = [
                table
                for table in (ref() for ref in built[:-1])
                if table is not None and not any(table is t for t in batch)
            ]
            assert not any(table is ref() for table in waiting for ref in learned)
            for width in {len(table.pairs) for table in waiting}:
                cells = sum(t.durations.size for t in waiting if len(t.pairs) == width)
                assert cells < rules.BATCH_CELLS
            del waiting

        def watched(batch, *args):
            check_waiting(batch)
            learned.extend(weakref.ref(table) for table in batch)
            batches.append((len(batch), sum(table.durations.size for table in batch)))
            return cover(batch, *args)

        def stream():
            for multiset in multisets:
                check_waiting()
                table = build_duration_table(multiset, ds, index=index)
                built.append(weakref.ref(table))
                yield table
                del table

        monkeypatch.setattr(rules, "_cover", watched)
        assert induce_chronicles(stream(), ds, 2.0, seeds, 3) == expected
        sizes = [n for n, _ in batches]
        assert sum(sizes) == len(multisets)
        assert 1 < sizes.count(1) < len(sizes)
        assert (2, bound) in batches  # learned once it held the bound
        assert all(ref() is None for ref in built)

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

    def test_learned_growth_uses_the_shortcut_predicate(self):
        # (A, B) with B - A <= 15 holds in 55 positives and 50 negatives:
        # 55 / 50 rounds to 1.1, but 55 < 1.1 * 50, so it is not discriminant
        ds = SequenceDataset.from_sequences(
            [make_sequence(f"p{k}", [("A", 0), ("B", 15)], "+") for k in range(55)]
            + [make_sequence(f"n{k}", [("A", 0), ("B", 15)], "-") for k in range(50)]
            + [make_sequence(f"m{k}", [("A", 0), ("B", 50)], "-") for k in range(165)]
        )
        cfg = DcmConfig(sigma_min=2, g_min=1.1)
        results = dcm(ds, cfg)
        for mined in results:
            assert is_discriminant(mined, 2, cfg.g_min)
        assert [m for m in results if (m.supp_pos, m.supp_neg) == (55, 50)] == []

    def test_reference_chronicle_scores(self, five_item_chronicle, reference_dataset):
        mined = reevaluate(five_item_chronicle, reference_dataset)
        assert (mined.supp_pos, mined.supp_neg, mined.growth_rate) == (2, 1, 2.0)
