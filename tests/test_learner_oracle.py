"""Differential tests of the rule learner against a pure-Python oracle.

The oracle below is the learner as it was before its columns were
presorted and its gains computed in numpy, and before several tables were
learned in one segmented batch: one table at a time, ``np.unique`` per
column, one ``math.log2`` per label boundary, a grow/prune split that
counts rows per sequence position in a ``Counter``, reduced-error pruning
with one mask per condition, and rule merging by intervals per pair.  Both
learners must return identical rules.
"""

import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chronomine import rules
from chronomine.model import meets_growth
from chronomine.rules import (
    MIN_ROWS_FOR_PRUNING,
    PRUNE_FRACTION,
    DurationTable,
    NumericalRule,
    _Batch,
    _induce,
    induce_rules,
)

from conftest import BOUNDED

_LE, _GE = 0, 1


def oracle_best_condition(durations, labels, covered, names):
    p0 = int(np.count_nonzero(labels & covered))
    n0 = int(np.count_nonzero(~labels & covered))
    if p0 == 0:
        return None
    base = math.log2(p0 / (p0 + n0))

    best = None  # sort key: (-gain, -p1, name, threshold, direction)
    result = None
    for col in range(durations.shape[1]):
        vals = durations[covered, col]
        labs = labels[covered]
        uniq, inverse = np.unique(vals, return_inverse=True)
        if len(uniq) < 2:
            continue
        pos_per = np.bincount(inverse, weights=labs).astype(np.int64)
        tot_per = np.bincount(inverse)
        neg_per = tot_per - pos_per
        # +1 pure positive, -1 pure negative, 0 mixed
        sign = np.where(neg_per == 0, 1, np.where(pos_per == 0, -1, 0))
        boundary = ~((sign[:-1] == sign[1:]) & (sign[:-1] != 0))
        if not boundary.any():
            continue
        cpos = np.cumsum(pos_per)
        cneg = np.cumsum(neg_per)
        idx = np.nonzero(boundary)[0]
        for t in idx:
            for direction, threshold, p1, n1 in (
                (_LE, uniq[t], int(cpos[t]), int(cneg[t])),
                (_GE, uniq[t + 1], p0 - int(cpos[t]), n0 - int(cneg[t])),
            ):
                if p1 == 0:
                    continue
                gain = p1 * (math.log2(p1 / (p1 + n1)) - base)
                if gain <= 1e-12:
                    continue
                key = (-gain, -p1, names[col], threshold, direction)
                if best is None or key < best:
                    best = key
                    result = (gain, p1, col, direction, float(threshold))
    return result


def oracle_grow(durations, labels, names):
    covered = np.ones(len(labels), dtype=bool)
    conditions = []
    while np.count_nonzero(~labels & covered) > 0:
        found = oracle_best_condition(durations, labels, covered, names)
        if found is None:
            break
        _, _, col, direction, threshold = found
        conditions.append((col, direction, threshold))
        if direction == _LE:
            covered &= durations[:, col] <= threshold
        else:
            covered &= durations[:, col] >= threshold
    return conditions


def oracle_split_rows(seq_index, labels, active, rng):
    """Grow and prune rows, each class's sequences shuffled in position
    order; None when a class is too small to split."""
    seqs = np.asarray(seq_index).tolist()
    grow = active.copy()
    prune = np.zeros_like(active)
    for label_value in (True, False):
        rows_idx = np.nonzero(active & (labels == label_value))[0]
        n_rows = len(rows_idx)
        counts = Counter(seqs[i] for i in rows_idx)
        class_seqs = sorted(counts)
        if n_rows < MIN_ROWS_FOR_PRUNING or len(class_seqs) < 2:
            return None
        rng.shuffle(class_seqs)
        target = n_rows * PRUNE_FRACTION
        taken = 0
        chosen = set()
        for seq in class_seqs[:-1]:  # at least one sequence stays in the grow set
            if taken >= target:
                break
            chosen.add(seq)
            taken += counts[seq]
        in_prune = np.fromiter(
            (seqs[i] in chosen for i in rows_idx), dtype=bool, count=n_rows
        )
        prune_rows = rows_idx[in_prune]
        grow[prune_rows] = False
        prune[prune_rows] = True
    return grow, prune


def oracle_prune(conditions, durations, labels):
    """Reduced-error pruning: drop final conditions while (p - n) / (p + n)
    on the prune rows does not decrease.  Never prunes below one condition."""
    if len(conditions) <= 1 or len(labels) == 0:
        return conditions

    masks = np.ones((len(conditions), len(durations)), dtype=bool)
    for row, (col, direction, threshold) in enumerate(conditions):
        if direction == _LE:
            masks[row] = durations[:, col] <= threshold
        else:
            masks[row] = durations[:, col] >= threshold
    prefix_cover = np.logical_and.accumulate(masks, axis=0)

    def value(k):
        cov = prefix_cover[k - 1]
        p = int(np.count_nonzero(cov & labels))
        n = int(np.count_nonzero(cov & ~labels))
        if p + n == 0:
            return -1.0
        return (p - n) / (p + n)

    keep = len(conditions)
    best = value(keep)
    while keep > 1 and value(keep - 1) >= best:
        keep -= 1
        best = value(keep)
    return conditions[:keep]


def oracle_merge_conditions(conditions, pairs):
    intervals = {}
    for col, direction, threshold in conditions:
        lo, hi = intervals.setdefault(pairs[col], [-math.inf, math.inf])
        if direction == _LE:
            intervals[pairs[col]][1] = min(hi, threshold)
        else:
            intervals[pairs[col]][0] = max(lo, threshold)
    return NumericalRule(
        conditions=tuple((i, j, lo, hi) for (i, j), (lo, hi) in intervals.items())
    )


def oracle_induce_rules(table, g_min, seed=0):
    labels = table.labels
    n_pos = int(np.count_nonzero(labels))
    n_neg = len(labels) - n_pos
    if n_pos == 0:
        return []
    if n_neg == 0:
        return [NumericalRule()]

    rng = random.Random(seed)
    durations = table.durations
    names = table.names
    remaining = labels.copy()
    rules = []
    while np.count_nonzero(remaining) > 0:
        active = remaining | ~labels
        split = oracle_split_rows(table.seq_index, labels, active, rng)
        if split is None:
            grow_mask, prune_mask = active, None
        else:
            grow_mask, prune_mask = split
        grow_idx = np.nonzero(grow_mask)[0]
        conditions = oracle_grow(durations[grow_idx], labels[grow_idx], names)
        if not conditions:
            break
        if prune_mask is not None:
            prune_idx = np.nonzero(prune_mask)[0]
            conditions = oracle_prune(conditions, durations[prune_idx], labels[prune_idx])
        rule = oracle_merge_conditions(conditions, table.pairs)
        mask = rule.covers_mask(table)
        p_full = int(np.count_nonzero(mask & labels))
        n_full = int(np.count_nonzero(mask & ~labels))
        if p_full == 0 or not meets_growth(p_full, n_full, g_min):
            break
        if not (mask & remaining).any():
            break
        rules.append(rule)
        remaining &= ~mask
    return rules


@st.composite
def duration_tables(draw, size=None):
    """Tables of 1, 3 or 6 columns (``size`` items) over a multiset that
    may repeat a type, several rows per sequence, and few distinct integer
    durations, so that values, gains and tie-break keys often tie.  Each
    sequence has its own position, in no order of the labels and with the
    gaps that a dataset's sequences without the multiset leave, and rows
    may interleave sequences."""
    if size is None:
        size = draw(st.integers(2, 4))
    multiset = tuple(sorted(draw(st.lists(st.sampled_from("AB"), min_size=size, max_size=size))))
    n_cols = size * (size - 1) // 2
    n_seqs = draw(st.integers(1, 12))
    positions = draw(st.lists(st.integers(0, 40), min_size=n_seqs, max_size=n_seqs, unique=True))
    seq_labels = draw(st.lists(st.booleans(), min_size=n_seqs, max_size=n_seqs))
    rows_per_seq = draw(st.lists(st.integers(1, 5), min_size=n_seqs, max_size=n_seqs))
    row_seqs = [k for k in range(n_seqs) for _ in range(rows_per_seq[k])]
    if draw(st.booleans()):
        row_seqs = draw(st.permutations(row_seqs))
    high = draw(st.integers(0, 4))
    values = draw(
        st.lists(
            st.integers(-high, high),
            min_size=len(row_seqs) * n_cols,
            max_size=len(row_seqs) * n_cols,
        )
    )
    return DurationTable(
        multiset=multiset,
        durations=np.array(values, dtype=float),
        labels=np.array([seq_labels[k] for k in row_seqs], dtype=bool),
        seq_index=np.array([positions[k] for k in row_seqs], dtype=np.int32),
    )


@st.composite
def table_batches(draw):
    """1-8 drawn tables, mixed with an empty, an all-positive and an
    all-negative table at drawn places."""
    tables = draw(st.lists(duration_tables(), min_size=1, max_size=8))
    model = tables[0]
    special = [
        DurationTable(
            multiset=model.multiset,
            durations=np.empty((0, len(model.pairs))),
            labels=np.empty(0, dtype=bool),
            seq_index=np.empty(0, dtype=np.int32),
        ),
        *(
            DurationTable(
                multiset=model.multiset,
                durations=model.durations,
                labels=np.full(len(model), label),
                seq_index=model.seq_index,
            )
            for label in (True, False)
        ),
    ]
    for table in special:
        tables.insert(draw(st.integers(0, len(tables))), table)
    return tables


def covering_batch(tables, covered):
    """A batch of ``tables`` that covers the masks ``covered`` of the
    tables that cover a positive row, as the learner covers its grow rows."""
    batch = _Batch(tables)
    batch.cover(np.concatenate([c & (c & t.labels).any() for t, c in zip(tables, covered)]))
    return batch


def segmented_best(tables, covered, batch=None):
    """One ``_Batch.best`` step over tables of equal width, each with its
    own covered row mask; per table (gain, p1, column, direction,
    threshold) or None.  As in the learner, only tables that cover a
    positive row take part, and n1 is checked against a recount.  The step
    runs on a new ``covering_batch``, or on ``batch``, which must already
    cover just those masks."""
    if batch is None:
        batch = covering_batch(tables, covered)
    ts, p0, n0 = [], [], []
    for t, (table, cov) in enumerate(zip(tables, covered)):
        p = int(np.count_nonzero(cov & table.labels))
        if p:
            ts.append(t)
            p0.append(p)
            n0.append(int(np.count_nonzero(cov & ~table.labels)))
    found = dict(zip(ts, batch.best(ts, p0, n0))) if ts else {}
    out = []
    for t, (table, cov) in enumerate(zip(tables, covered)):
        f = found.get(t)
        if f is not None:
            gain, p1, n1, col, direction, threshold = f
            column = table.durations[:, col]
            cond = cov & (column <= threshold if direction == _LE else column >= threshold)
            assert n1 == int(np.count_nonzero(cond & ~table.labels))
            f = (gain, p1, col, direction, threshold)
        out.append(f)
    return out


def exact_gain(table, covered, found):
    """FOIL gain of a found condition, recounted and computed with math.log2."""
    _, _, col, direction, threshold = found
    column = table.durations[:, col]
    cond = covered & (column <= threshold if direction == _LE else column >= threshold)
    labels = table.labels
    p0 = int(np.count_nonzero(covered & labels))
    n0 = int(np.count_nonzero(covered & ~labels))
    p1 = int(np.count_nonzero(cond & labels))
    n1 = int(np.count_nonzero(cond & ~labels))
    return p1 * (math.log2(p1 / (p1 + n1)) - math.log2(p0 / (p0 + n0)))


@BOUNDED
@given(
    table=duration_tables(),
    g_min=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(0, 2**16),
)
def test_induce_rules_matches_oracle(table, g_min, seed):
    got = induce_rules(table, g_min, seed=seed)
    assert got == oracle_induce_rules(table, g_min, seed=seed)


@BOUNDED
@given(tables=table_batches(), data=st.data())
def test_batched_learning_matches_oracle(tables, data):
    g_min = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=len(tables), max_size=len(tables)))

    def learned(tables, seeds):
        return [[NumericalRule(r) for r, *_ in found] for _, found in _induce(tables, g_min, seeds)]

    got = learned(tables, seeds)
    assert got == [
        oracle_induce_rules(table, g_min, seed=seed) for table, seed in zip(tables, seeds)
    ]
    assert learned(tables[::-1], seeds[::-1]) == got[::-1]


@BOUNDED
@given(size=st.integers(2, 4), data=st.data())
def test_best_condition_matches_oracle_bitwise(size, data):
    # several tables' covered masks in one segmented step
    tables = data.draw(st.lists(duration_tables(size=size), min_size=1, max_size=4))
    covered = [
        np.array(data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t))), dtype=bool)
        for t in tables
    ]
    for table, cov, found in zip(tables, covered, segmented_best(tables, covered)):
        durations, labels = table.durations, table.labels
        expected = oracle_best_condition(
            durations[cov], labels[cov], np.ones(int(cov.sum()), dtype=bool), table.names
        )
        assert found == expected
        if found is not None:
            assert found[0].hex() == exact_gain(table, cov, found).hex()


@BOUNDED
@given(size=st.integers(2, 4), data=st.data())
def test_grow_step_after_restrict_matches_a_new_batch(size, data):
    # the second step filters the entries the first one kept; it must find
    # what a new batch finds from the narrowed masks
    tables = data.draw(st.lists(duration_tables(size=size), min_size=1, max_size=4))
    covered = [
        np.array(data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t))), dtype=bool)
        for t in tables
    ]
    batch = covering_batch(tables, covered)
    first = segmented_best(tables, covered, batch)
    narrowed = []
    for t, (table, cov, found) in enumerate(zip(tables, covered, first)):
        if found is None:
            batch.uncover(t)
            narrowed.append(np.zeros_like(cov))
            continue
        _, _, col, direction, threshold = found
        batch.restrict(t, col, direction, threshold)
        column = table.durations[:, col]
        narrowed.append(cov & (column <= threshold if direction == _LE else column >= threshold))
    assert (batch.covered == np.concatenate(narrowed)).all()
    assert segmented_best(tables, narrowed, batch) == segmented_best(tables, narrowed)


@BOUNDED
@given(table=duration_tables(size=3), seed=st.integers(0, 2**16))
def test_rules_do_not_depend_on_the_durations_layout(table, seed):
    # a table learned alone is read in place when F-ordered, as tables are
    # built, and copied when C-ordered or a strided view
    durations = table.durations
    padded = np.zeros((2 * len(table), 2 * durations.shape[1]))
    padded[::2, ::2] = durations
    got = []
    for layout in (np.ascontiguousarray(durations), np.asfortranarray(durations), padded[::2, ::2]):
        copy = DurationTable(
            multiset=table.multiset,
            durations=layout,
            labels=table.labels,
            seq_index=table.seq_index,
        )
        assert copy.durations.strides == layout.strides
        got.append(induce_rules(copy, 1.5, seed=seed))
    assert got[0] == got[1] == got[2] == oracle_induce_rules(table, 1.5, seed=seed)


@BOUNDED
@given(tables=table_batches(), data=st.data())
def test_batched_split_matches_oracle(tables, data):
    # one split of a round's tables in each batch of equal width, against
    # each table's split alone; the tables outside the round make no draw.
    # As in the learner, every negative row is active and any positive one.
    tables = [table for table in tables if len(table)]
    for width in {len(table.pairs) for table in tables}:
        group = [table for table in tables if len(table.pairs) == width]
        flags = [st.lists(st.booleans(), min_size=len(t), max_size=len(t)) for t in group]
        actives = [~t.labels | np.array(data.draw(f)) for t, f in zip(group, flags)]
        # and a table, all active, whose positives are sequences of 1 and 8
        # rows, whose prune target only the last one reaches, and whose
        # negatives are three sequences of 3 rows, whose target two reach
        row_seqs = [0] + [1] * 8 + [2] * 3 + [3] * 3 + [4] * 3
        at = data.draw(st.integers(0, len(group)))
        actives.insert(at, np.ones(len(row_seqs), dtype=bool))
        group.insert(
            at,
            DurationTable(
                multiset=group[0].multiset,
                durations=np.zeros((len(row_seqs), width)),
                labels=np.array([k < 2 for k in row_seqs]),
                seq_index=np.array(row_seqs),
            ),
        )
        batch = _Batch(group)
        ts = sorted(data.draw(st.sets(st.sampled_from(range(len(group))), min_size=1)))
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=len(group), max_size=len(group)))
        rngs = [random.Random(seed) for seed in seeds]
        active = np.concatenate([a & (t in ts) for t, a in enumerate(actives)])
        prune = batch.split(ts, active, rngs)
        for t, table in enumerate(group):
            rows = slice(batch.start[t], batch.stop[t])
            rng = random.Random(seeds[t])
            expected = None
            if t in ts:
                expected = oracle_split_rows(table.seq_index, table.labels, actives[t], rng)
            if expected is None:
                assert not prune[rows].any()
            else:
                assert (active[rows] & ~prune[rows] == expected[0]).all()
                assert (prune[rows] == expected[1]).all()
            assert rngs[t].getstate() == rng.getstate()


@BOUNDED
@given(size=st.integers(2, 4), data=st.data())
def test_batched_pruning_and_acceptance_match_reference(size, data):
    # 1-4 conditions per table, both directions and any column, so a
    # column may take "<=" and ">=" or the same direction twice; "<= v"
    # has v >= 0 and ">= v" has v <= 0, so no interval is empty, as in a
    # grown rule
    tables = data.draw(st.lists(duration_tables(size=size), min_size=1, max_size=4))
    batch = _Batch(tables)
    columns = st.integers(0, len(tables[0].pairs) - 1)
    condition = st.one_of(
        st.tuples(columns, st.just(_LE), st.integers(0, 4).map(float)),
        st.tuples(columns, st.just(_GE), st.integers(-4, 0).map(float)),
    )
    ts = sorted(data.draw(st.sets(st.sampled_from(range(len(tables))), min_size=1)))
    conditions = {t: data.draw(st.lists(condition, min_size=1, max_size=4)) for t in ts}
    # no prune row, as for a table too small to split, keeps every condition
    n = len(batch.labels)
    prune = np.zeros(n, dtype=bool)
    if data.draw(st.booleans()):
        prune = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    keep, bounds, used, covered = batch.accept(ts, conditions, prune)
    for t, table in enumerate(tables):
        rows = slice(batch.start[t], batch.stop[t])
        if t not in ts:
            assert not covered[rows].any()
            continue
        kept = oracle_prune(conditions[t], table.durations[prune[rows]], table.labels[prune[rows]])
        assert keep[t] == len(kept)
        rule = oracle_merge_conditions(kept, table.pairs)
        assert (covered[rows] == rule.covers_mask(table)).all()
        merged = [(*pair, *bounds[:, c, t]) for c, pair in enumerate(table.pairs) if used[c, t]]
        assert NumericalRule(tuple(merged)) == rule


def test_winning_gain_is_math_log2_where_numpy_differs():
    # a column with one mixed group (p positives, n negatives) below a
    # negative-only group: the only candidate is "<=" with gain
    # p * (log2(p / (p + n)) - base).  Choose p, n where np.log2 and
    # math.log2 disagree in the last bit, if this build has such a pair.
    ratios = [(p, n) for p in range(1, 120) for n in range(1, 120)]
    p, n = next(
        ((p, n) for p, n in ratios if np.log2(p / (p + n)) != math.log2(p / (p + n))),
        (3, 1),
    )
    n_rows = p + n + 5
    labels = np.zeros(n_rows, dtype=bool)
    labels[:p] = True
    durations = np.zeros((n_rows, 1))
    durations[p + n :] = 1.0
    covered = np.ones(n_rows, dtype=bool)
    table = DurationTable(
        multiset=("A", "B"), durations=durations, labels=labels, seq_index=np.arange(n_rows)
    )
    (found,) = segmented_best([table], [covered])
    expected = p * (math.log2(p / (p + n)) - math.log2(p / n_rows))
    assert found == (expected, p, 0, _LE, 0.0)
    assert found[0].hex() == expected.hex()


def test_split_keeps_one_sequence_of_each_class_for_growing():
    # one sequence per class holds most of its class's rows, so the prune
    # target is only met by taking it; it must stay on the grow side when
    # the shuffle puts it last
    row_seqs = [0] + [1] * 8 + [2] * 7 + [3]
    labels = np.array([k < 2 for k in row_seqs])
    table = DurationTable(
        multiset=("A", "B"),
        durations=np.zeros((len(row_seqs), 1)),
        labels=labels,
        seq_index=np.array(row_seqs),
    )
    active = np.ones(len(table), dtype=bool)
    batch = _Batch([table])
    for seed in range(8):
        prune = batch.split([0], active, [random.Random(seed)])
        grow = active & ~prune
        expected = oracle_split_rows(table.seq_index, labels, active, random.Random(seed))
        assert (grow == expected[0]).all() and (prune == expected[1]).all()
        assert (grow & labels).any() and (grow & ~labels).any()


def test_array_log_only_shortlists(monkeypatch):
    # "<= 0" on column 0 covers 1 positive, on column 1 2 positives and
    # 1 negative, out of 4 and 5: the gains are equal in exact arithmetic,
    # and with math.log2 column 0's is 1 ulp larger.  An array log2 that is
    # off in its last bits reverses that order; the winner must not change.
    # Column 2 holds one value, so it has no candidate.
    durations = np.ones((9, 3))
    durations[0, 0] = 0.0
    durations[[0, 1, 4], 1] = 0.0
    labels = np.arange(9) < 4
    covered = np.ones(9, dtype=bool)
    table = DurationTable(
        multiset=("A", "B", "C"), durations=durations, labels=labels, seq_index=np.arange(9)
    )
    expected = oracle_best_condition(durations, labels, covered, table.names)
    assert expected[1:] == (1, 0, _LE, 0.0)
    off_by_bits = SimpleNamespace(**{**vars(np), "log2": lambda x: np.log2(x) * (1 - 1e-13)})
    monkeypatch.setattr(rules, "np", off_by_bits)
    assert segmented_best([table], [covered]) == [expected]
