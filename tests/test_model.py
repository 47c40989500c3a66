import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronomine import (
    Chronicle,
    Event,
    MinedChronicle,
    Sequence,
    SequenceDataset,
    TemporalConstraint,
    growth_rate,
    is_discriminant,
    satisfies,
)
from chronomine.model import meets_growth


class TestSatisfies:
    def test_interval_contains_duration(self):
        tc = TemporalConstraint(0, 1, -1, 3)
        assert satisfies(tc, 1, 3)  # duration 2

    def test_zero_width_interval_zero_duration(self):
        tc = TemporalConstraint(0, 1, 0, 0)
        assert satisfies(tc, 5, 5)
        assert not satisfies(tc, 5, 6)

    def test_boundaries_are_closed(self):
        tc = TemporalConstraint(0, 1, 4, 5)
        assert satisfies(tc, 3, 7)  # duration 4
        assert not satisfies(tc, 3, 9)  # duration 6
        assert satisfies(tc, 3, 8)  # duration 5

    @given(
        a=st.integers(-20, 20),
        width=st.integers(0, 10),
        t=st.integers(-30, 30),
        u=st.integers(-30, 30),
    )
    def test_symmetry(self, a, width, t, u):
        forward = TemporalConstraint(0, 1, a, a + width)
        backward = TemporalConstraint(0, 1, -(a + width), -a)
        assert satisfies(forward, t, u) == satisfies(backward, u, t)


class TestGrowthRate:
    @pytest.mark.parametrize(
        "pos,neg,expected",
        [(2, 1, 2.0), (2, 0, math.inf), (0, 1, 0.0), (0, 0, math.inf), (3, 2, 1.5)],
    )
    def test_values(self, pos, neg, expected):
        assert growth_rate(pos, neg) == expected

    @given(
        pos=st.integers(0, 100),
        neg=st.integers(1, 100),
        bump=st.integers(1, 10),
    )
    def test_monotone(self, pos, neg, bump):
        assert growth_rate(pos + bump, neg) >= growth_rate(pos, neg)
        assert growth_rate(pos, neg + bump) <= growth_rate(pos, neg)


class TestIsDiscriminant:
    def _mined(self, pos, neg):
        return MinedChronicle(Chronicle.unconstrained(("A",)), pos, neg)

    def test_reference_values(self):
        assert is_discriminant(self._mined(2, 1), sigma_min=1, g_min=2)
        assert not is_discriminant(self._mined(2, 1), sigma_min=1, g_min=2.5)
        assert not is_discriminant(self._mined(0, 1), sigma_min=1, g_min=1)

    def test_zero_support_fails_threshold(self):
        assert not is_discriminant(self._mined(0, 0), sigma_min=1, g_min=1)

    def test_infinite_growth_still_needs_support(self):
        assert is_discriminant(self._mined(3, 0), sigma_min=3, g_min=100)
        assert not is_discriminant(self._mined(2, 0), sigma_min=3, g_min=1)

    def test_growth_is_a_product_not_a_ratio(self):
        # 55 / 50 == 1.1, but 1.1 * 50 == 55.00000000000001
        assert growth_rate(55, 50) == 1.1
        assert not meets_growth(55, 50, 1.1)
        assert not is_discriminant(self._mined(55, 50), sigma_min=1, g_min=1.1)
        assert meets_growth(56, 50, 1.1) and meets_growth(0, 0, 5)
        assert meets_growth(4, 2, 2)


class TestTemporalConstraint:
    def test_rejects_reversed_pair(self):
        with pytest.raises(ValueError):
            TemporalConstraint(2, 1, 0, 1)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            TemporalConstraint(1, 1, 0, 1)
        with pytest.raises(ValueError):
            TemporalConstraint.normalized(1, 1, 0, 1)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            TemporalConstraint(0, 1, 5, 4)

    def test_normalized_flips_reversed_input(self):
        tc = TemporalConstraint.normalized(3, 1, -2, 5)
        assert (tc.from_index, tc.to_index) == (1, 3)
        assert tc.interval == (-5.0, 2.0)

    def test_infinite_bounds_allowed(self):
        tc = TemporalConstraint(0, 1, -math.inf, 5)
        assert tc.lower == -math.inf

    @pytest.mark.parametrize("bounds", [(math.nan, 5), (0, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_bound(self, bounds):
        with pytest.raises(ValueError, match="NaN bound"):
            TemporalConstraint(0, 1, *bounds)
        with pytest.raises(ValueError, match="NaN bound"):
            Chronicle.build(("A", "B"), [(1, 0, *bounds)])


class TestEvent:
    @pytest.mark.parametrize("timestamp", [math.nan, "nan", -math.nan])
    def test_nan_timestamp_rejected(self, timestamp):
        with pytest.raises(ValueError, match="'A' has a NaN timestamp"):
            Event("A", timestamp)

    def test_timestamp_stored_as_float(self):
        assert Event("A", 3).timestamp == 3.0 and type(Event("A", 3).timestamp) is float
        assert Event("A", -math.inf).timestamp == -math.inf


class TestSequence:
    def test_nan_event_in_the_middle_rejected(self):
        # the span check sees only the first and last sorted events
        with pytest.raises(ValueError, match="NaN"):
            Sequence("p", (Event("A", 1), Event("B", math.nan), Event("C", 2)), "+")

    def test_events_sorted_by_time_then_type(self):
        seq = Sequence(
            "s", (Event("B", 3), Event("A", 3), Event("C", 1)), "+"
        )
        assert [(e.event_type, e.timestamp) for e in seq.events] == [
            ("C", 1.0),
            ("A", 3.0),
            ("B", 3.0),
        ]

    def test_duplicate_events_kept(self):
        seq = Sequence("s", (Event("A", 1), Event("A", 1)), "-")
        assert len(seq) == 2

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            Sequence("s", (), "positive")

    def test_span_beyond_the_float_range_rejected(self):
        # every timestamp is finite, but B - A overflows to inf
        events = (Event("B", 1e308), Event("C", 0), Event("A", -1e308))
        with pytest.raises(ValueError, match=r"sequence 'p0' spans -1e\+308 to 1e\+308, .* not a"):
            Sequence("p0", events, "+")

    def test_finite_spans_accepted(self):
        assert len(Sequence("s", (Event("A", -5e307), Event("B", 1e308)), "+")) == 2
        assert len(Sequence("s", (Event("A", 1.7e308),), "-")) == 1
        assert len(Sequence("s", (), "-")) == 0


class TestSequenceDataset:
    def test_duplicate_sids_rejected(self):
        a = Sequence("x", (), "+")
        b = Sequence("x", (), "-")
        with pytest.raises(ValueError, match="duplicate"):
            SequenceDataset(positives=(a,), negatives=(b,), alphabet=())

    def test_event_type_outside_alphabet_rejected(self):
        seq = Sequence("x", (Event("Z", 1),), "+")
        with pytest.raises(ValueError, match="alphabet"):
            SequenceDataset(positives=(seq,), negatives=(), alphabet=("A",))

    def test_from_sequences_collects_alphabet(self, reference_dataset):
        assert reference_dataset.alphabet == ("A", "B", "C", "D", "E")
        assert len(reference_dataset.positives) == 3
        assert len(reference_dataset.negatives) == 3

    def test_mislabeled_partition_rejected(self):
        seq = Sequence("x", (), "-")
        with pytest.raises(ValueError, match="wrong set"):
            SequenceDataset(positives=(seq,), negatives=(), alphabet=())


BOUNDS = [-math.inf, -1.0, 0.0, 2.0, math.inf]


class TestChronicle:
    def test_unsorted_items_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Chronicle(items=("B", "A"))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="same item pair"):
            Chronicle.build(("A", "B"), [(0, 1, 0, 1), (1, 0, -3, -2)])

    def test_out_of_range_constraint_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Chronicle.build(("A", "B"), [(0, 2, 0, 1)])

    def test_build_normalizes_reversed_constraints(self):
        c = Chronicle.build(("A", "B"), [(1, 0, 2, 4)])
        assert c.bounds(0, 1) == (-4.0, -2.0)

    def test_absent_pair_is_unbounded(self):
        c = Chronicle.unconstrained(("A", "B", "C"))
        assert c.bounds(0, 2) == (-math.inf, math.inf)

    def test_hashable_and_equal(self):
        c1 = Chronicle.build(("A", "B"), [(0, 1, 1, 2)])
        c2 = Chronicle.build(("A", "B"), [(0, 1, 1, 2)])
        assert c1 == c2 and hash(c1) == hash(c2)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("AB"), min_size=2, max_size=3).map(sorted),
                st.lists(st.sampled_from(BOUNDS), min_size=6, max_size=6),
                st.sets(st.integers(0, 2)),
            ),
            max_size=8,
        )
    )
    def test_order_is_items_then_each_constraints_fields(self, drawn):
        chronicles = []
        for items, bounds, kept in drawn:
            pairs = [(i, j) for i in range(len(items)) for j in range(i + 1, len(items))]
            constraints = [
                (i, j, *sorted(bounds[2 * k : 2 * k + 2]))
                for k, (i, j) in enumerate(pairs)
                if k in kept
            ]
            chronicles.append(Chronicle.build(items, constraints))
        written_out = lambda c: (
            c.items,
            [(tc.from_index, tc.to_index, tc.lower, tc.upper) for tc in c.constraints],
        )
        assert sorted(chronicles) == sorted(chronicles, key=written_out)


class TestMinedChronicle:
    def test_growth_computed_when_omitted(self):
        m = MinedChronicle(Chronicle.unconstrained(("A",)), 4, 2)
        assert m.growth_rate == 2.0

    def test_inconsistent_growth_rejected(self):
        # the growth rate is derived from the supports, so none can be passed
        with pytest.raises(TypeError, match="growth_rate"):
            MinedChronicle(Chronicle.unconstrained(("A",)), 4, 2, growth_rate=3.0)
        m = MinedChronicle(Chronicle.unconstrained(("A",)), 4, 3)
        assert m.growth_rate == growth_rate(4, 3)

    def test_infinite_growth(self):
        m = MinedChronicle(Chronicle.unconstrained(("A",)), 4, 0)
        assert m.growth_rate == math.inf
