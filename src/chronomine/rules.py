"""Numerical rule induction over inter-event durations.

For a frequent multiset, every canonical occurrence in the dataset becomes
one row of a relational duration table: one signed-duration attribute per
ordered item pair, labeled with the sequence label.  The occurrences of an
unconstrained multiset need no search: in each sequence that holds it they
are the product, over its runs of equal types, of the combinations of that
type's events, so the rows are built in closed form from the type index's
timestamp arrays, in the order the matcher would yield them.  A
sequential-covering learner (grow by FOIL information gain, prune by
reduced error) induces interval rules for the positive class; each rule
translates directly into a set of temporal constraints.

Several rows may come from one sequence, so a translated chronicle is
re-scored at sequence level.  Given the multiset's table, ``reevaluate``
counts the distinct positive and negative sequences among the rows the
constraints cover: the rows and the matcher's candidates are the same
canonical assignments, so this count is exact.  The matcher runs only on
sequences whose enumeration hit the occurrence cap and that have no
covered row.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterable

import numpy as np

from .matcher import DEFAULT_OCCURRENCE_CAP, OccurrenceCapWarning, TypeIndex, support
from .model import (
    POSITIVE,
    Chronicle,
    MinedChronicle,
    SequenceDataset,
    TemporalConstraint,
)

#: Reduced-error pruning needs a meaningful grow/prune split; below this many
#: rows (or with a single sequence) per class the rule is grown on all rows.
MIN_ROWS_FOR_PRUNING = 6
PRUNE_FRACTION = 1 / 3


def pair_attributes(multiset: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Ordered item pairs (i, j), i < j, of a multiset."""
    n = len(multiset)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def attribute_names(multiset: tuple[str, ...]) -> tuple[str, ...]:
    """Human-readable attribute name per pair, e.g. "A->B".

    When several pairs share a name (duplicate types), a [k] suffix in pair
    order disambiguates.
    """
    pairs = pair_attributes(multiset)
    base = [f"{multiset[i]}->{multiset[j]}" for i, j in pairs]
    counts = {name: base.count(name) for name in base}
    seen: dict[str, int] = {}
    names = []
    for name in base:
        if counts[name] == 1:
            names.append(name)
        else:
            k = seen.get(name, 0)
            seen[name] = k + 1
            names.append(f"{name}[{k}]")
    return tuple(names)


@dataclass
class DurationTable:
    """Relational dataset of inter-event durations for one multiset.

    One row per canonical occurrence over all sequences; ``durations`` is a
    (rows x pairs) float array where column p holds timestamp(j) -
    timestamp(i) for pair (i, j).  ``labels`` is True for rows from positive
    sequences.  ``seq_index`` gives each row's sequence as its position in
    ``dataset.sequences`` (numbered by first appearance when not given), and
    ``capped`` lists the positions of the sequences whose enumeration hit
    the occurrence cap, so their rows are incomplete.
    """

    multiset: tuple[str, ...]
    sids: tuple[str, ...]
    durations: np.ndarray
    labels: np.ndarray
    seq_index: np.ndarray | None = None
    capped: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        self.pairs = pair_attributes(self.multiset)
        self.durations = np.asarray(self.durations, dtype=float).reshape(
            len(self.sids), len(self.pairs)
        )
        self.labels = np.asarray(self.labels, dtype=bool).reshape(len(self.sids))
        if self.seq_index is None:
            first: dict[str, int] = {}
            self.seq_index = np.fromiter(
                (first.setdefault(sid, len(first)) for sid in self.sids),
                dtype=np.int64,
                count=len(self.sids),
            )
        self.seq_index = np.asarray(self.seq_index).reshape(len(self.sids))

    def __len__(self) -> int:
        return len(self.sids)

    @property
    def truncated(self) -> bool:
        """Whether any sequence hit the occurrence cap during construction."""
        return bool(self.capped)

    @property
    def names(self) -> tuple[str, ...]:
        return attribute_names(self.multiset)

    def to_csv(self, path) -> None:
        """Debug dump: sid, one column per pair attribute, label."""
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sid", *self.names, "label"])
            for sid, row, lab in zip(self.sids, self.durations, self.labels):
                writer.writerow([sid, *(repr(v) for v in row), "+" if lab else "-"])


#: Row count standing for "more than any table can hold" when no cap applies.
_NO_CAP = int(np.iinfo(np.int64).max)


@lru_cache(maxsize=64)
def _combinations(n: int, k: int, limit: int) -> np.ndarray:
    """The first ``limit`` k-combinations of range(n) in lexicographic
    order, one per row (all of them when there are fewer)."""
    rows = min(math.comb(n, k), limit)
    flat = np.fromiter(
        chain.from_iterable(islice(combinations(range(n), k), rows)),
        dtype=np.int32,
        count=rows * k,
    )
    flat.flags.writeable = False
    return flat.reshape(rows, k)


def _pick_tables(
    n: np.ndarray, k: int, limit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ways to pick ``k`` of ``n[s]`` events, clipped at ``limit``, for each
    sequence ``s``; with the concatenated ``_combinations`` tables of the
    distinct counts and each sequence's offset into them."""
    distinct = sorted(set(n.tolist()))
    tables = [_combinations(v, k, limit) for v in distinct]
    sizes = np.array([len(t) for t in tables], dtype=np.int64)
    size_of = np.zeros(distinct[-1] + 1, dtype=np.int64)
    size_of[distinct] = sizes
    offset_of = np.zeros_like(size_of)
    offset_of[distinct] = np.cumsum(sizes) - sizes
    table = tables[0] if len(tables) == 1 else np.concatenate(tables)
    return size_of[n], table, offset_of[n]


def build_duration_table(
    multiset: Iterable[str],
    dataset: SequenceDataset,
    cap: int | None = DEFAULT_OCCURRENCE_CAP,
    index: TypeIndex | None = None,
) -> DurationTable:
    """Duration table over all canonical occurrences in the whole dataset.

    Only the sequences that hold the multiset contribute; ``index`` is the
    dataset's ``TypeIndex``, built here when not given.  The rows are built
    in closed form from the index's timestamp arrays, with no search.

    The sorted multiset splits into runs of equal types, e.g. (A, B, B) is
    A x 1 and B x 2.  In a sequence with ``n`` events of a run's type, the
    run's items take one of the C(n, k) k-combinations of those events, so
    the sequence's occurrences are the product of its runs' combinations.
    Row ``r`` of a sequence is the product element of rank ``r``: its
    mixed-radix digits, last run least significant, each pick the
    lexicographically ``digit``-th combination of a run.  That is the order
    in which the matcher's backtracking yields the occurrences, so a capped
    sequence keeps the same first ``cap`` rows.  A digit of a run with
    ``k = 1`` is the event's index; for ``k >= 2`` it indexes a cached table
    of the first ``cap + 1`` combinations of range(n).  The picked events'
    timestamps are read from ``stamps[t][start[t][s] + index]``, and the
    durations are ``stamps[:, j] - stamps[:, i]`` per pair (i, j).

    The binomials of runs with ``k >= 2``, and every partial product, are
    clipped at ``cap + 1``, so no count overflows.  That decides ``capped``
    (product > cap) before any row is made, and the clipped radices give
    the same digits: a row rank is below ``cap``, so a run whose radix was
    clipped gets the rank itself as its digit and passes a zero quotient to
    the runs before it, as it would with the true radix.
    """
    multiset = tuple(multiset)
    if len(multiset) < 2:
        raise ValueError("duration attributes need a multiset of at least 2 items")
    if list(multiset) != sorted(multiset):
        raise ValueError(f"multiset items must be sorted, got {multiset}")
    if index is None:
        index = TypeIndex(dataset)
    held = index.containing(multiset)
    runs = [(etype, multiset.count(etype)) for etype in dict.fromkeys(multiset)]
    limit = _NO_CAP if cap is None else min(cap + 1, _NO_CAP)

    # per run: each held sequence's events of the type, the ways to pick k
    # of them, and their product over the runs so far, all clipped at limit
    counts = np.ones(len(held), dtype=np.int64)
    picks = []
    for etype, k in runs:
        n = index.count[etype][held].astype(np.int64)
        if k == 1 or not len(held):  # with no sequence there is nothing to pick
            radix, table, offset = n, None, None
        else:
            radix, table, offset = _pick_tables(n, k, limit)
        picks.append((radix, table, offset))
        counts = np.where(counts > limit // radix, limit, counts * radix)
    capped: tuple[int, ...] = ()
    if cap is not None:
        capped = tuple(held[counts > cap].tolist())
        for k in capped:
            warnings.warn(
                f"occurrence cap {cap} reached in sequence {index.sequences[k].sid!r}; "
                "duration table truncated",
                OccurrenceCapWarning,
                stacklevel=2,
            )
        counts = np.minimum(counts, cap)

    ends = np.cumsum(counts)
    seq_of_row = np.repeat(np.arange(len(held)), counts)
    rank = np.arange(len(seq_of_row)) - np.repeat(ends - counts, counts)
    stamps = np.empty((len(seq_of_row), len(multiset)))
    col = len(multiset)
    for (etype, k), (radix, table, offset) in zip(reversed(runs), reversed(picks)):
        col -= k
        if col:
            rank, digit = np.divmod(rank, radix[seq_of_row])
        else:
            digit = rank  # the most significant digit is what is left
        first = np.repeat(index.start[etype][held], counts)
        if table is None:
            stamps[:, col] = index.stamps[etype][first + digit]
        else:
            event = first[:, None] + table[offset[seq_of_row] + digit]
            stamps[:, col : col + k] = index.stamps[etype][event]

    sids = np.array([index.sequences[k].sid for k in held.tolist()], dtype=object)
    seq_index = np.repeat(held.astype(np.int32), counts)
    first, second = np.asarray(pair_attributes(multiset)).T
    return DurationTable(
        multiset=multiset,
        sids=tuple(sids[seq_of_row].tolist()),
        durations=stamps[:, second] - stamps[:, first],
        labels=seq_index < index.n_pos,
        seq_index=seq_index,
        capped=capped,
    )


def _covers(
    conditions: Iterable[tuple[int, int, float, float]], table: DurationTable
) -> np.ndarray:
    """Boolean row mask of the table rows with lo <= t[j] - t[i] <= hi for
    every (i, j, lo, hi) condition, the same comparison the matcher makes."""
    mask = np.ones(len(table), dtype=bool)
    index = {pair: col for col, pair in enumerate(table.pairs)}
    for i, j, lo, hi in conditions:
        col = table.durations[:, index[(i, j)]]
        mask &= (col >= lo) & (col <= hi)
    return mask


@dataclass(frozen=True)
class NumericalRule:
    """Conjunction of interval conditions over pair attributes, predicting
    the positive class.  ``conditions`` holds (i, j, lower, upper) per
    constrained pair, at most one entry per pair."""

    conditions: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self):
        conds = tuple(sorted(self.conditions, key=lambda c: (c[0], c[1])))
        pairs = [(i, j) for i, j, _, _ in conds]
        if len(set(pairs)) != len(pairs):
            raise ValueError("more than one condition on the same attribute")
        for i, j, lo, hi in conds:
            if lo > hi:
                raise ValueError(f"empty condition interval [{lo}, {hi}]")
        object.__setattr__(self, "conditions", conds)

    def covers_mask(self, table: DurationTable) -> np.ndarray:
        """Boolean row mask of the table rows satisfying every condition."""
        return _covers(self.conditions, table)


def row_growth(rule: NumericalRule, table: DurationTable) -> float:
    """Row-level growth rate of a rule: covered positives / covered negatives."""
    mask = rule.covers_mask(table)
    p = int(np.count_nonzero(mask & table.labels))
    n = int(np.count_nonzero(mask & ~table.labels))
    return math.inf if n == 0 else p / n


# ---------------------------------------------------------------------------
# growing

# Directions of a threshold condition: "attr <= v" and "attr >= v".
_LE, _GE = 0, 1

#: Array gains within this share of (|best gain| + p0) of the best one are
#: rescored with math.log2.  np.log2 may differ from math.log2 in the last
#: bits of log2(p1 / (p1 + n1)), whose magnitude is below 64, so a gain moves
#: by less than p1 * 1e-13.  Scaling by p0 >= p1 keeps the true winner in the
#: shortlist also when the gain's two terms cancel.
_SHORTLIST = 1e-9


def _presort(durations: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row order of each duration column: a (columns x rows) index array,
    ascending by value and, among equal values, negative rows first."""
    by_label = np.argsort(labels, kind="stable")
    order = np.argsort(durations[by_label], axis=0, kind="stable")
    return by_label[order.T]


def _best_condition(
    durations: np.ndarray,
    labels: np.ndarray,
    order: np.ndarray,
    covered: np.ndarray,
    names: tuple[str, ...],
) -> tuple[float, int, int, int, float] | None:
    """Single threshold condition maximizing FOIL information gain over the
    covered rows.

    ``order`` is ``_presort(durations, labels)``: filtering it by the
    ``covered`` row mask gives every column's covered rows in value order,
    with no sort.  Thresholds are observed values next to a label boundary
    in that order: a split between two groups of equal values, unless both
    groups hold only positives or both only negatives.  "attr <= v" takes
    the value left of the boundary, "attr >= v" the value right of it.
    Every candidate's gain is computed in one array expression; the ones
    within ``_SHORTLIST`` of the best are rescored with ``math.log2``, so
    the gains compared are exact.  Among gains above 1e-12 the winner has
    the smallest (-gain, -p1, name, threshold, direction).  Returns (gain,
    p1, column, direction, threshold) for the winner or None when no
    condition gains.
    """
    p0 = int(np.count_nonzero(labels & covered))
    if p0 == 0:
        return None
    m = int(np.count_nonzero(covered))
    n0 = m - p0
    base = math.log2(p0 / (p0 + n0))

    # every column's covered rows in value order, one column after another
    rows = order[covered[order]]
    n_cols = len(order)
    vals = durations[rows.reshape(n_cols, m), np.arange(n_cols)[:, None]].ravel()
    labs = labels[rows]
    del rows  # free the largest temporary before the next ones are made
    # ends: the last row of each group of equal values; a column's last row
    # always ends one, so no group spans two columns
    end = np.empty(len(vals), dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=end[:-1])
    end[m - 1 :: m] = True
    ends = end.nonzero()[0]
    # negatives sort first among equal values, so a group holds only
    # positives iff its first label is True, only negatives iff its last is
    # False; split i lies between groups i and i + 1
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    first = labs[starts]
    last = labs[ends]
    split = (
        (starts[1:] % m != 0)
        & ~(first[:-1] & first[1:])
        & (last[:-1] | last[1:])
    )
    at = ends[:-1][split]  # last row left of each boundary
    if not len(at):
        return None
    p_le = labs.reshape(n_cols, m).cumsum(axis=1).ravel()[at]
    n_le = at % m + 1 - p_le
    p1 = np.concatenate((p_le, p0 - p_le))
    n1 = np.concatenate((n_le, n0 - n_le))
    # p1 == 0 would be log2(0); its gain is set to 0 and it is skipped below
    gains = p1 * (np.log2(p1 / (p1 + n1) + (p1 == 0)) - base)
    top = float(gains.max())
    close = (gains >= top - _SHORTLIST * (abs(top) + p0)).nonzero()[0]

    best: tuple | None = None  # sort key: (-gain, -p1, name, threshold, direction)
    result: tuple[float, int, int, int, float] | None = None
    for j, p, n in zip(close.tolist(), p1[close].tolist(), n1[close].tolist()):
        if p == 0:
            continue
        gain = p * (math.log2(p / (p + n)) - base)
        if gain <= 1e-12:
            continue
        direction = _LE if j < len(at) else _GE
        k = int(at[j % len(at)])
        threshold = float(vals[k] if direction == _LE else vals[k + 1])
        key = (-gain, -p, names[k // m], threshold, direction)
        if best is None or key < best:
            best = key
            result = (gain, p, k // m, direction, threshold)
    return result


def _grow(
    durations: np.ndarray,
    labels: np.ndarray,
    order: np.ndarray,
    grow: np.ndarray,
    names: tuple[str, ...],
) -> list[tuple[int, int, float]]:
    """Greedily add threshold conditions, learned on the rows of the
    ``grow`` mask, until no negative grow row is covered or no condition
    improves; returns the ordered (column, direction, threshold)
    conditions.  ``order`` is the table's ``_presort``."""
    covered = grow.copy()
    negatives = ~labels
    conditions: list[tuple[int, int, float]] = []
    while np.count_nonzero(negatives & covered) > 0:
        found = _best_condition(durations, labels, order, covered, names)
        if found is None:
            break
        _, _, col, direction, threshold = found
        conditions.append((col, direction, threshold))
        if direction == _LE:
            covered &= durations[:, col] <= threshold
        else:
            covered &= durations[:, col] >= threshold
    return conditions


def _condition_masks(
    durations: np.ndarray, conditions: list[tuple[int, int, float]]
) -> np.ndarray:
    masks = np.ones((len(conditions), len(durations)), dtype=bool)
    for row, (col, direction, threshold) in enumerate(conditions):
        if direction == _LE:
            masks[row] = durations[:, col] <= threshold
        else:
            masks[row] = durations[:, col] >= threshold
    return masks


def _prune(
    conditions: list[tuple[int, int, float]],
    durations: np.ndarray,
    labels: np.ndarray,
) -> list[tuple[int, int, float]]:
    """Reduced-error pruning: drop final conditions while (p - n) / (p + n)
    on the prune rows does not decrease.  Never prunes below one condition."""
    if len(conditions) <= 1 or len(labels) == 0:
        return conditions

    masks = _condition_masks(durations, conditions)
    prefix_cover = np.logical_and.accumulate(masks, axis=0)

    def value(k: int) -> float:
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


def _merge_conditions(
    conditions: list[tuple[int, int, float]], pairs: tuple[tuple[int, int], ...]
) -> NumericalRule:
    intervals: dict[tuple[int, int], list[float]] = {}
    for col, direction, threshold in conditions:
        lo, hi = intervals.setdefault(pairs[col], [-math.inf, math.inf])
        if direction == _LE:
            intervals[pairs[col]][1] = min(hi, threshold)
        else:
            intervals[pairs[col]][0] = max(lo, threshold)
    return NumericalRule(
        conditions=tuple((i, j, lo, hi) for (i, j), (lo, hi) in intervals.items())
    )


def _sid_ranks(table: DurationTable) -> np.ndarray:
    """Each row's sequence, numbered in the order of the sequences' sids."""
    sid_of = dict(zip(table.seq_index.tolist(), table.sids))
    ranked = sorted(sid_of, key=sid_of.__getitem__)
    rank = np.zeros(max(ranked) + 1, dtype=np.intp)
    rank[ranked] = np.arange(len(ranked))
    return rank[table.seq_index]


def _split_rows(
    ranks: np.ndarray,
    labels: np.ndarray,
    active: np.ndarray,
    rng: random.Random,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Grow/prune split of the active rows, stratified by label with whole
    sequences kept on one side.  Returns None when either class is too small
    to split meaningfully.

    ``ranks`` is ``_sid_ranks(table)``.  Rows are counted per sequence with
    one bincount over it; the sequences present come out in sid order, are
    shuffled, and the chosen ones are marked in a boolean array indexed by
    rank.
    """
    grow = active.copy()
    prune = np.zeros_like(active)
    for in_class in (labels, ~labels):
        rows = active & in_class
        counts = np.bincount(ranks[rows])
        class_seqs = counts.nonzero()[0].tolist()
        n_rows = int(np.count_nonzero(rows))
        if n_rows < MIN_ROWS_FOR_PRUNING or len(class_seqs) < 2:
            return None
        rng.shuffle(class_seqs)
        target = n_rows * PRUNE_FRACTION
        taken = 0
        chosen = np.zeros(len(ranks), dtype=bool)  # a table has no more sequences than rows
        for k in class_seqs[:-1]:  # at least one sequence stays in the grow set
            if taken >= target:
                break
            chosen[k] = True
            taken += int(counts[k])
        in_prune = rows & chosen[ranks]
        grow &= ~in_prune
        prune |= in_prune
    return grow, prune


def induce_rules(
    table: DurationTable,
    g_min: float,
    seed: int = 0,
    prune: bool = True,
) -> list[NumericalRule]:
    """Sequential covering over the duration table.

    Each accepted rule is grown by FOIL gain (optionally reduced-error
    pruned) and must reach row-level growth >= g_min on the full table;
    covered positive rows are removed between rules.  The support threshold
    is not applied here: it is enforced at sequence level after
    reevaluation.  Degenerate tables: all-positive rows yield the single
    unconstrained rule, all-negative (or empty) tables yield nothing.
    """
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
    order = _presort(durations, labels)
    ranks = _sid_ranks(table) if prune else None
    remaining = labels.copy()  # positive rows not yet covered
    rules: list[NumericalRule] = []

    while np.count_nonzero(remaining) > 0:
        active = remaining | ~labels
        split = _split_rows(ranks, labels, active, rng) if prune else None
        if split is None:
            grow_mask = active
            prune_mask = None
        else:
            grow_mask, prune_mask = split

        conditions = _grow(durations, labels, order, grow_mask, names)
        if not conditions:
            break
        if prune_mask is not None:
            conditions = _prune(conditions, durations[prune_mask], labels[prune_mask])

        rule = _merge_conditions(conditions, table.pairs)
        mask = rule.covers_mask(table)
        p_full = int(np.count_nonzero(mask & labels))
        n_full = int(np.count_nonzero(mask & ~labels))
        growth = math.inf if n_full == 0 else p_full / n_full
        if p_full == 0 or growth < g_min:
            break
        newly = mask & remaining
        if not newly.any():
            break
        rules.append(rule)
        remaining &= ~mask
    return rules


def translate(rule: NumericalRule, multiset: Iterable[str]) -> Chronicle:
    """Turn a rule's interval conditions into the equivalent chronicle.

    Each condition on pair (i, j) with bounds [x, y] becomes the constraint
    "item j occurs between x and y after item i"; unmentioned pairs stay
    unconstrained.
    """
    multiset = tuple(multiset)
    constraints = tuple(TemporalConstraint(i, j, lo, hi) for i, j, lo, hi in rule.conditions)
    return Chronicle(items=multiset, constraints=constraints)


def _distinct(ids: np.ndarray) -> int:
    """Number of distinct values in an integer array."""
    # np.sort, not np.unique: unique imports numpy.ma on first use
    ids = np.sort(ids)
    return int(ids.size and 1 + np.count_nonzero(ids[1:] != ids[:-1]))


def reevaluate(
    chronicle: Chronicle, dataset: SequenceDataset, table: DurationTable | None = None
) -> MinedChronicle:
    """Sequence-level supports and growth rate of the chronicle.

    Without a table the matcher recounts them over every sequence.  With
    the duration table of the chronicle's multiset, built from this
    dataset, a sequence supports the chronicle iff one of its rows is
    covered by the constraints; the matcher decides only the capped
    sequences that have no covered row.
    """
    if table is None:
        supp_pos = support(chronicle, dataset.positives)
        supp_neg = support(chronicle, dataset.negatives)
        return MinedChronicle(chronicle=chronicle, supp_pos=supp_pos, supp_neg=supp_neg)
    if chronicle.items != table.multiset:
        raise ValueError(
            f"table of {table.multiset} cannot score a chronicle over {chronicle.items}"
        )
    mask = _covers(
        ((tc.from_index, tc.to_index, tc.lower, tc.upper) for tc in chronicle.constraints),
        table,
    )
    supp_pos = _distinct(table.seq_index[mask & table.labels])
    supp_neg = _distinct(table.seq_index[mask & ~table.labels])
    if table.capped:
        covered = set(table.seq_index[mask].tolist())
        sequences = dataset.sequences
        unresolved = [sequences[k] for k in table.capped if k not in covered]
        pos = [s for s in unresolved if s.label == POSITIVE]
        neg = [s for s in unresolved if s.label != POSITIVE]
        if pos:
            supp_pos += support(chronicle, pos)
        if neg:
            supp_neg += support(chronicle, neg)
    return MinedChronicle(chronicle=chronicle, supp_pos=supp_pos, supp_neg=supp_neg)
