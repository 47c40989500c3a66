import math

import numpy as np
import pytest

from chronomine import (
    Chronicle,
    NumericalRule,
    build_duration_table,
    induce_rules,
    reevaluate,
    support,
    translate,
)
from chronomine.matcher import OccurrenceCapWarning
from chronomine.model import meets_growth
from chronomine.rules import DurationTable, attribute_names

from conftest import brute_force_support, make_sequence


class TestBuildDurationTable:
    def test_reference_rows(self, reference_dataset):
        table = build_duration_table(("A", "B", "C"), reference_dataset)
        # 4 + 1 + 4 + 1 + 1 + 2 canonical occurrences over the six sequences
        assert len(table) == 13
        rows = {tuple(r) for r in table.durations[table.seq_index == 0]}  # sequence "1"
        # pair columns: A->B, A->C, B->C
        assert (2.0, 4.0, 2.0) in rows  # occurrence (A@1, B@3, C@5)
        assert (-1.0, 1.0, 2.0) in rows  # occurrence (A@4, B@3, C@5): negative duration

    def test_labels_follow_sequences(self, reference_dataset):
        table = build_duration_table(("A", "B", "C"), reference_dataset)
        for k, label in zip(table.seq_index, table.labels):
            assert label == (reference_dataset.sequences[k].sid in {"1", "2", "3"})

    def test_absent_multiset_contributes_no_rows(self, reference_dataset):
        table = build_duration_table(("D", "E"), reference_dataset)
        assert len(table) == 0

    def test_needs_two_items(self, reference_dataset):
        with pytest.raises(ValueError):
            build_duration_table(("A",), reference_dataset)

    def test_cap_sets_truncated_flag(self):
        seqs = [
            make_sequence("big", [("A", t) for t in range(12)], "+"),
            make_sequence("n", [("A", 0), ("A", 1)], "-"),
        ]
        from chronomine import SequenceDataset

        ds = SequenceDataset.from_sequences(seqs)
        with pytest.warns(OccurrenceCapWarning):
            table = build_duration_table(("A", "A"), ds, cap=10)
        assert table.truncated

    def test_attribute_names_disambiguate_duplicates(self):
        assert attribute_names(("A", "A", "B")) == ("A->A", "A->B[0]", "A->B[1]")
        assert attribute_names(("A", "B", "C")) == ("A->B", "A->C", "B->C")


class TestInduceRules:
    def test_golden_fixture(self, duration_fixture):
        rules = induce_rules(duration_fixture, g_min=2.0)
        assert rules
        first = rules[0]
        mask = first.covers_mask(duration_fixture)
        assert int(np.count_nonzero(mask & duration_fixture.labels)) == 4
        assert int(np.count_nonzero(mask & ~duration_fixture.labels)) == 0
        pairs = {(i, j) for i, j, _, _ in first.conditions}
        assert pairs == {(0, 1), (1, 2)}
        bounds = {(i, j): (lo, hi) for i, j, lo, hi in first.conditions}
        assert bounds[(0, 1)][0] == -math.inf and 3 <= bounds[(0, 1)][1] <= 5
        assert bounds[(1, 2)][0] == -math.inf and 0 <= bounds[(1, 2)][1] <= 2

    def test_identical_classes_yield_nothing(self):
        table = DurationTable(
            multiset=("A", "B"),
            durations=np.array([[1.0], [2.0], [1.0], [2.0]]),
            labels=np.array([1, 1, 0, 0], dtype=bool),
            seq_index=np.arange(4),
        )
        assert induce_rules(table, g_min=2.0) == []

    def test_single_separating_attribute(self):
        table = DurationTable(
            multiset=("A", "B"),
            durations=np.array([[10.0], [10.0], [0.0], [0.0]]),
            labels=np.array([1, 1, 0, 0], dtype=bool),
            seq_index=np.arange(4),
        )
        rules = induce_rules(table, g_min=2.0)
        assert len(rules) == 1
        ((i, j, lo, hi),) = rules[0].conditions
        assert (i, j) == (0, 1)
        assert lo <= 10 <= hi and not (lo <= 0 <= hi)

    def test_positive_only_table_gives_unconstrained_rule(self):
        table = DurationTable(
            multiset=("A", "B"),
            durations=np.array([[1.0], [2.0]]),
            labels=np.array([1, 1], dtype=bool),
            seq_index=np.arange(2),
        )
        assert induce_rules(table, g_min=2.0) == [NumericalRule()]

    def test_negative_only_table_gives_nothing(self):
        table = DurationTable(
            multiset=("A", "B"),
            durations=np.array([[1.0]]),
            labels=np.array([0], dtype=bool),
            seq_index=np.arange(1),
        )
        assert induce_rules(table, g_min=2.0) == []

    def test_every_rule_meets_row_growth(self):
        rng = np.random.default_rng(5)
        n = 120
        durations = rng.uniform(-10, 50, size=(n, 1))
        labels = np.zeros(n, dtype=bool)
        labels[: n // 2] = True
        durations[labels, 0] = rng.uniform(10, 20, size=n // 2)
        table = DurationTable(
            multiset=("A", "B"),
            durations=durations,
            labels=labels,
            seq_index=np.arange(n),
        )
        g_min = 2.0
        rules = induce_rules(table, g_min=g_min, seed=11)
        assert rules
        for rule in rules:
            mask = rule.covers_mask(table)
            p = int(np.count_nonzero(mask & labels))
            n = int(np.count_nonzero(mask & ~labels))
            assert p >= 1
            assert meets_growth(p, n, g_min)

    def test_deterministic_under_seed(self, duration_fixture):
        a = induce_rules(duration_fixture, g_min=1.0, seed=3)
        b = induce_rules(duration_fixture, g_min=1.0, seed=3)
        assert a == b

    def test_at_most_one_condition_per_attribute(self):
        with pytest.raises(ValueError):
            NumericalRule(conditions=((0, 1, 0.0, 5.0), (0, 1, 1.0, 2.0)))


class TestTranslate:
    def test_interval_conditions_become_constraints(self):
        rule = NumericalRule(
            conditions=((0, 1, -math.inf, 5.0), (1, 2, -math.inf, 2.0))
        )
        c = translate(rule, ("A", "B", "C"))
        assert c.items == ("A", "B", "C")
        assert c.bounds(0, 1) == (-math.inf, 5.0)
        assert c.bounds(1, 2) == (-math.inf, 2.0)
        assert c.bounds(0, 2) == (-math.inf, math.inf)

    def test_empty_rule_gives_unconstrained_chronicle(self):
        c = translate(NumericalRule(), ("A", "B"))
        assert c.constraints == ()

    def test_two_sided_condition(self):
        rule = NumericalRule(conditions=((0, 2, 1.0, 3.0),))
        c = translate(rule, ("A", "B", "C"))
        assert c.bounds(0, 2) == (1.0, 3.0)
        assert len(c.constraints) == 1


class TestReevaluate:
    def test_reference_chronicle(self, five_item_chronicle, reference_dataset):
        mined = reevaluate(five_item_chronicle, reference_dataset)
        assert (mined.supp_pos, mined.supp_neg, mined.growth_rate) == (2, 1, 2.0)

    def test_matches_brute_force(self, reference_dataset):
        translated = Chronicle.build(
            ("A", "B", "C"), [(0, 1, -math.inf, 5), (1, 2, -math.inf, 2)]
        )
        mined = reevaluate(translated, reference_dataset)
        assert mined.supp_pos == brute_force_support(translated, reference_dataset.positives)
        assert mined.supp_neg == brute_force_support(translated, reference_dataset.negatives)
        # row-level perfection on the duration fixture does not carry over to
        # sequence level: one positive sequence only realizes B->C = 5
        assert (mined.supp_pos, mined.supp_neg) == (2, 1)

    def test_unsatisfiable_data_gives_zero_supports(self):
        from chronomine import SequenceDataset

        ds = SequenceDataset.from_sequences(
            [
                make_sequence("p", [("A", 0), ("B", 100)], "+"),
                make_sequence("n", [("A", 0), ("B", 100)], "-"),
            ]
        )
        c = Chronicle.build(("A", "B"), [(0, 1, 5, 5)])
        mined = reevaluate(c, ds)
        assert (mined.supp_pos, mined.supp_neg) == (0, 0)

    def test_tightening_never_raises_support(self, reference_dataset):
        wide = Chronicle.build(("A", "B", "C"), [(0, 1, -10, 10)])
        tight = Chronicle.build(("A", "B", "C"), [(0, 1, -1, 3)])
        wide_m = reevaluate(wide, reference_dataset)
        tight_m = reevaluate(tight, reference_dataset)
        assert tight_m.supp_pos <= wide_m.supp_pos
        assert tight_m.supp_neg <= wide_m.supp_neg
