"""Differential tests of the rule learner against a pure-Python oracle.

The oracle below is the learner as it was before its columns were
presorted and its gains computed in numpy: ``np.unique`` per column, one
``math.log2`` per label boundary, and a grow/prune split that counts rows
per sid string.  Reduced-error pruning and rule merging are shared with
the library.  Both learners must return identical rules.
"""

import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chronomine import rules
from chronomine.rules import (
    MIN_ROWS_FOR_PRUNING,
    PRUNE_FRACTION,
    DurationTable,
    NumericalRule,
    _best_condition,
    _merge_conditions,
    _presort,
    _prune,
    _sid_ranks,
    _split_rows,
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


def oracle_split_rows(sids, labels, active, rng):
    grow = active.copy()
    prune = np.zeros_like(active)
    for label_value in (True, False):
        rows_idx = np.nonzero(active & (labels == label_value))[0]
        n_rows = len(rows_idx)
        counts = Counter(sids[i] for i in rows_idx)
        class_sids = sorted(counts)
        if n_rows < MIN_ROWS_FOR_PRUNING or len(class_sids) < 2:
            return None
        rng.shuffle(class_sids)
        target = n_rows * PRUNE_FRACTION
        taken = 0
        chosen = set()
        for sid in class_sids[:-1]:  # at least one sid stays in the grow set
            if taken >= target:
                break
            chosen.add(sid)
            taken += counts[sid]
        in_prune = np.fromiter(
            (sids[i] in chosen for i in rows_idx), dtype=bool, count=n_rows
        )
        prune_rows = rows_idx[in_prune]
        grow[prune_rows] = False
        prune[prune_rows] = True
    return grow, prune


def oracle_induce_rules(table, g_min, seed=0, prune=True):
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
        split = oracle_split_rows(table.sids, labels, active, rng) if prune else None
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
            conditions = _prune(conditions, durations[prune_idx], labels[prune_idx])
        rule = _merge_conditions(conditions, table.pairs)
        mask = rule.covers_mask(table)
        p_full = int(np.count_nonzero(mask & labels))
        n_full = int(np.count_nonzero(mask & ~labels))
        growth = math.inf if n_full == 0 else p_full / n_full
        if p_full == 0 or growth < g_min:
            break
        if not (mask & remaining).any():
            break
        rules.append(rule)
        remaining &= ~mask
    return rules


@st.composite
def duration_tables(draw):
    """Tables of 1, 3 or 6 columns over a multiset that may repeat a type,
    several rows per sequence, and few distinct integer durations, so that
    values, gains and tie-break keys often tie.  Sid order differs from
    sequence order ("10" < "9"), and rows may interleave sequences."""
    size = draw(st.integers(2, 4))
    multiset = tuple(sorted(draw(st.lists(st.sampled_from("AB"), min_size=size, max_size=size))))
    n_cols = size * (size - 1) // 2
    n_seqs = draw(st.integers(1, 12))
    sid_numbers = draw(st.lists(st.integers(0, 40), min_size=n_seqs, max_size=n_seqs, unique=True))
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
    seq_index = None
    if draw(st.booleans()):  # positions in a dataset, as build_duration_table gives
        positions = draw(st.permutations(range(n_seqs)))
        seq_index = np.array([positions[k] for k in row_seqs], dtype=np.int32)
    return DurationTable(
        multiset=multiset,
        sids=tuple(str(sid_numbers[k]) for k in row_seqs),
        durations=np.array(values, dtype=float),
        labels=np.array([seq_labels[k] for k in row_seqs], dtype=bool),
        seq_index=seq_index,
    )


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
    prune=st.booleans(),
)
def test_induce_rules_matches_oracle(table, g_min, seed, prune):
    got = induce_rules(table, g_min, seed=seed, prune=prune)
    assert got == oracle_induce_rules(table, g_min, seed=seed, prune=prune)


@BOUNDED
@given(table=duration_tables(), data=st.data())
def test_best_condition_matches_oracle_bitwise(table, data):
    covered = np.array(
        data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table))),
        dtype=bool,
    )
    durations, labels = table.durations, table.labels
    found = _best_condition(durations, labels, _presort(durations, labels), covered, table.names)
    expected = oracle_best_condition(
        durations[covered], labels[covered], np.ones(int(covered.sum()), dtype=bool), table.names
    )
    assert found == expected
    if found is not None:
        assert found[0].hex() == exact_gain(table, covered, found).hex()


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
    found = _best_condition(durations, labels, _presort(durations, labels), covered, ("A->B",))
    expected = p * (math.log2(p / (p + n)) - math.log2(p / n_rows))
    assert found == (expected, p, 0, _LE, 0.0)
    assert found[0].hex() == expected.hex()


def test_split_keeps_one_sequence_of_each_class_for_growing():
    # one sequence per class holds most of its class's rows, so the prune
    # target is only met by taking it; it must stay on the grow side when
    # the shuffle puts it last
    row_sids = ["1"] + ["2"] * 8 + ["3"] * 7 + ["4"]
    labels = np.array([sid in ("1", "2") for sid in row_sids])
    table = DurationTable(
        multiset=("A", "B"),
        sids=tuple(row_sids),
        durations=np.zeros((len(row_sids), 1)),
        labels=labels,
    )
    active = np.ones(len(table), dtype=bool)
    for seed in range(8):
        grow, prune = _split_rows(_sid_ranks(table), labels, active, random.Random(seed))
        expected = oracle_split_rows(table.sids, labels, active, random.Random(seed))
        assert (grow == expected[0]).all() and (prune == expected[1]).all()
        assert (grow & labels).any() and (grow & ~labels).any()


def test_array_log_only_shortlists(monkeypatch):
    # "<= 0" on column 0 covers 1 positive, on column 1 2 positives and
    # 1 negative, out of 4 and 5: the gains are equal in exact arithmetic,
    # and with math.log2 column 0's is 1 ulp larger.  An array log2 that is
    # off in its last bits reverses that order; the winner must not change.
    durations = np.ones((9, 2))
    durations[0, 0] = 0.0
    durations[[0, 1, 4], 1] = 0.0
    labels = np.arange(9) < 4
    covered = np.ones(9, dtype=bool)
    names = ("A->B", "A->C")
    expected = oracle_best_condition(durations, labels, covered, names)
    assert expected[1:] == (1, 0, _LE, 0.0)
    off_by_bits = SimpleNamespace(**{**vars(np), "log2": lambda x: np.log2(x) * (1 - 1e-13)})
    monkeypatch.setattr(rules, "np", off_by_bits)
    assert _best_condition(durations, labels, _presort(durations, labels), covered, names) == expected
