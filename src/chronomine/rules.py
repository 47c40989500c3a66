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

The learner takes a batch of tables (``induce_rules_batch``); one table is
a batch of one (``induce_rules``).  The tables with the same number of
columns are stacked and their columns presorted once.  Their covering
rounds run in lockstep, each table with its own seeded grow/prune split,
and every grow step scores the candidate thresholds of all the tables
still growing in a few segmented numpy calls, so a small table no longer
pays numpy's per-call cost alone.  A batch holds all its tables at once:
callers bound its size.

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
    ``dataset.sequences``, so within one class their order is sid order
    (numbered in sid order when not given), and
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
            rank = {sid: k for k, sid in enumerate(sorted(set(self.sids)))}
            self.seq_index = np.fromiter(
                (rank[sid] for sid in self.sids), dtype=np.int64, count=len(self.sids)
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
# learning

# Directions of a threshold condition: "attr <= v" and "attr >= v".
_LE, _GE = 0, 1

#: Array gains within this share of (|best gain| + p0) of a table's best one
#: are rescored with math.log2.  np.log2 may differ from math.log2 in the
#: last bits of log2(p1 / (p1 + n1)), whose magnitude is below 64, so a gain
#: moves by less than p1 * 1e-13.  Scaling by p0 >= p1 keeps the true winner
#: in the shortlist also when the gain's two terms cancel.
_SHORTLIST = 1e-9


class _Batch:
    """Tables with the same columns, learned together as one segmented table.

    The tables' rows are stacked, table after table, in ``values`` and
    ``labels``: table ``t`` owns rows ``start[t]`` up to ``stop[t]``.
    ``covered`` marks the rows covered by the conditions grown so far.
    ``order`` has one row per column, which lists each table's rows in turn,
    ascending by that column's value and, among equal values, negatives
    first; it is sorted once per batch.

    A grow step filters ``order`` by ``covered``.  Every column keeps the
    same rows, so each column of the result holds one segment per table,
    and a segment's length is its table's covered row count: the segment
    bounds come from those counts, with no per-entry segment id.  The step
    reads a working set of tables, rebuilt when the tables it serves hold
    at most half of the set's rows; a table outside the step covers no row,
    so it adds nothing to the filtered arrays.
    """

    def __init__(self, tables: list[DurationTable]):
        self.names = [table.names for table in tables]
        self.width = len(tables[0].pairs)
        lengths = [len(table) for table in tables]
        self.stop = np.cumsum(lengths).tolist()
        self.start = [stop - n for stop, n in zip(self.stop, lengths)]
        order = []
        for table, start in zip(tables, self.start):
            by_label = np.argsort(table.labels, kind="stable")
            rank = np.argsort(table.durations[by_label].T, axis=1, kind="stable")
            rows = by_label[rank]
            del rank
            rows += start
            order.append(rows)
        if len(tables) == 1:
            self.values, self.labels, self.order = tables[0].durations, tables[0].labels, order[0]
        else:
            self.values = np.concatenate([table.durations for table in tables])
            self.labels = np.concatenate([table.labels for table in tables])
            self.order = np.concatenate(order, axis=1)
        # the values in memory order, with no copy of a table's C- or
        # F-ordered durations: row r, column c is cell r * steps[0] + c * steps[1]
        if not (self.values.flags.c_contiguous or self.values.flags.f_contiguous):
            self.values = np.ascontiguousarray(self.values)
        self._cells = self.values.ravel(order="K")
        steps = [stride // self.values.itemsize for stride in self.values.strides]
        self._row_step = steps[0]
        self._column_cells = np.arange(self.width)[:, None] * steps[1]
        self.covered = np.zeros(len(self.labels), dtype=bool)
        self._work = list(range(len(tables)))
        self._work_order = self.order.ravel()

    def cover(self, t: int, rows: np.ndarray | None) -> None:
        """Cover the rows of table ``t`` in the ``rows`` mask; None covers none."""
        self.covered[self.start[t] : self.stop[t]] = False if rows is None else rows

    def restrict(self, t: int, column: int, direction: int, threshold: float) -> None:
        """Uncover the rows of table ``t`` that fail a threshold condition."""
        values = self.values[self.start[t] : self.stop[t], column]
        keep = values <= threshold if direction == _LE else values >= threshold
        self.covered[self.start[t] : self.stop[t]] &= keep

    def best(
        self, ts: list[int], p0: list[int], n0: list[int]
    ) -> list[tuple[float, int, int, int, int, float] | None]:
        """One grow step: each table's single threshold condition maximizing
        FOIL information gain over its covered rows.

        ``ts`` lists the tables in ascending order; table ``ts[i]`` covers
        ``p0[i] > 0`` positive and ``n0[i]`` negative rows, and every other
        table covers none.  Thresholds are observed values next to a label
        boundary in a segment: a split between two groups of equal values,
        unless both groups hold only positives or both only negatives.
        "attr <= v" takes the value left of the boundary, "attr >= v" the
        value right of it.  Every candidate's gain is computed in one array
        expression and each segment's best taken with
        ``np.maximum.reduceat``; the candidates within ``_SHORTLIST`` of
        their table's best are rescored with ``math.log2``, so the gains
        compared are exact.  Among gains above 1e-12 a table's winner has
        the smallest (-gain, -p1, name, threshold, direction).  Returns, per
        table, (gain, p1, n1, column, direction, threshold) for the winner,
        or None when no condition gains.
        """
        width = self.width
        if ts != self._work:
            served = sum(self.stop[t] - self.start[t] for t in ts) * width
            if not set(ts) <= set(self._work) or 2 * served <= len(self._work_order):
                self._work = list(ts)
                self._work_order = np.concatenate(
                    [self.order[:, self.start[t] : self.stop[t]] for t in ts], axis=1
                ).ravel()
        # the covered entries of every column, in value order; take and
        # compress, because indexing with a boolean mask is several times slower
        rows = self._work_order.compress(self.covered.take(self._work_order))
        labs = self.labels.take(rows)
        if width > 1:  # turn the rows into the cells of their columns
            cells = rows.reshape(width, -1)
            cells *= self._row_step
            cells += self._column_cells
        vals = self._cells.take(rows)
        del rows

        n_tables = len(ts)
        sizes = [p + n for p, n in zip(p0, n0)]  # each table's segment length
        per_column = sum(sizes)  # entries in each column's block
        seg_stop = np.cumsum(sizes)  # where each table's segment ends in a block
        seg_end = np.add.outer(np.arange(0, len(vals), per_column), seg_stop - 1).ravel()
        # ends: the last entry of each group of equal values; a segment's
        # last entry always ends one, so no group spans two segments
        end = np.empty(len(vals), dtype=bool)
        np.not_equal(vals[1:], vals[:-1], out=end[:-1])
        end[seg_end] = True
        ends = end.nonzero()[0]
        del end
        # negatives sort first among equal values, so a group holds only
        # positives iff its first label is True, only negatives iff its last
        # is False; split i lies between groups i and i + 1 of one segment
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        first = labs[starts]
        last = labs[ends]
        inner = np.ones(len(ends), dtype=bool)
        inner[np.searchsorted(ends, seg_end)] = False
        split = inner[:-1] & ~(first[:-1] & first[1:]) & (last[:-1] | last[1:])
        at = ends[:-1].compress(split)  # last entry left of each boundary
        del starts, first, last, inner, split
        if not len(at):
            return [None] * n_tables
        column, offset = np.divmod(at, per_column)
        table = np.searchsorted(seg_stop, offset, side="right")
        seg_first = at - offset
        seg_first += (seg_stop - sizes)[table]
        del offset
        # positives before each entry; cast first, because a cumsum that
        # casts allocates a second array of the same size
        cum = np.empty(len(labs) + 1, dtype=np.intp)
        cum[0] = 0
        cum[1:] = labs
        np.cumsum(cum[1:], out=cum[1:])
        p1 = np.empty((2, len(at)), dtype=np.intp)
        n1 = np.empty_like(p1)
        np.subtract(cum[at + 1], cum[seg_first], out=p1[_LE])
        del cum
        np.subtract(at + 1 - seg_first, p1[_LE], out=n1[_LE])
        del seg_first
        np.subtract(np.asarray(p0)[table], p1[_LE], out=p1[_GE])
        np.subtract(np.asarray(n0)[table], n1[_LE], out=n1[_GE])
        bases = [math.log2(p / (p + n)) for p, n in zip(p0, n0)]
        # p1 == 0 would be log2(0); its gain is set to 0 and it is skipped below
        gains = p1 * (np.log2(p1 / (p1 + n1) + (p1 == 0)) - np.array(bases)[table])
        # the boundaries run column by column, table by table within a column
        seg = column * n_tables + table
        opens = np.empty(len(seg), dtype=bool)
        opens[0] = True
        np.not_equal(seg[1:], seg[:-1], out=opens[1:])
        first_of_seg = opens.nonzero()[0]
        top = np.full(len(seg_end), -np.inf)
        top[seg[first_of_seg]] = np.maximum.reduceat(gains.max(axis=0), first_of_seg)
        top = top.reshape(width, n_tables).max(axis=0)
        floor = top - _SHORTLIST * (np.abs(top) + p0)
        direction, close = (gains >= floor[table]).nonzero()

        k = at[close]
        threshold = np.where(direction == _LE, vals[k], vals[k + 1])
        found: list[tuple | None] = [None] * n_tables
        keys: list[tuple | None] = [None] * n_tables  # (-gain, -p1, name, threshold, direction)
        for i, d, p, n, c, v in zip(
            table[close].tolist(),
            direction.tolist(),
            p1[direction, close].tolist(),
            n1[direction, close].tolist(),
            column[close].tolist(),
            threshold.tolist(),
        ):
            if p == 0:
                continue
            gain = p * (math.log2(p / (p + n)) - bases[i])
            if gain <= 1e-12:
                continue
            key = (-gain, -p, self.names[ts[i]][c], v, d)
            if keys[i] is None or key < keys[i]:
                keys[i] = key
                found[i] = (gain, p, n, c, d, v)
        return found


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


def _split_rows(
    seq_index: np.ndarray,
    labels: np.ndarray,
    active: np.ndarray,
    rng: random.Random,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Grow/prune split of the active rows, stratified by label with whole
    sequences kept on one side.  Returns None when either class is too small
    to split meaningfully.

    ``seq_index`` is the table's: within one class, the order of sequence
    positions is sid order.  Rows are counted per sequence with one
    bincount; the sequences present come out in sid order, are shuffled,
    and the chosen ones are marked in a boolean array indexed by position.
    """
    grow = active.copy()
    prune = np.zeros_like(active)
    for in_class in (labels, ~labels):
        rows = (active & in_class).nonzero()[0]
        seqs = seq_index[rows]
        counts = np.bincount(seqs)
        class_seqs = counts.nonzero()[0].tolist()
        if len(rows) < MIN_ROWS_FOR_PRUNING or len(class_seqs) < 2:
            return None
        rng.shuffle(class_seqs)
        target = len(rows) * PRUNE_FRACTION
        taken = 0
        chosen = np.zeros(len(counts), dtype=bool)
        for k in class_seqs[:-1]:  # at least one sequence stays in the grow set
            if taken >= target:
                break
            chosen[k] = True
            taken += int(counts[k])
        in_prune = rows[chosen[seqs]]
        grow[in_prune] = False
        prune[in_prune] = True
    return grow, prune


class _Covering:
    """Sequential covering of one table: its split draws, the positive rows
    not yet covered, the rules accepted (appended to ``rules``), and the
    rule of the current round."""

    def __init__(
        self, table: DurationTable, seed: int, prune: bool, rules: list[NumericalRule]
    ):
        self.table = table
        self.rng = random.Random(seed) if prune else None
        self.remaining = table.labels.copy()  # positive rows not yet covered
        self.rules = rules

    def start_round(self) -> np.ndarray:
        """Split the rows still in play; returns the grow mask and sets the
        counts of the positive and negative rows it covers."""
        labels = self.table.labels
        active = self.remaining | ~labels
        split = None
        if self.rng is not None:
            split = _split_rows(self.table.seq_index, labels, active, self.rng)
        grow, self.prune_rows = (active, None) if split is None else split
        self.conditions: list[tuple[int, int, float]] = []
        self.p0 = int(np.count_nonzero(grow & labels))
        self.n0 = int(np.count_nonzero(grow)) - self.p0
        return grow

    def finish_round(self, g_min: float) -> bool:
        """Prune the grown rule and keep it if it reaches ``g_min`` on the
        whole table and covers a new positive row; whether to go on."""
        conditions = self.conditions
        if not conditions:
            return False
        table = self.table
        labels = table.labels
        if self.prune_rows is not None:
            rows = self.prune_rows
            conditions = _prune(conditions, table.durations[rows], labels[rows])
        rule = _merge_conditions(conditions, table.pairs)
        mask = rule.covers_mask(table)
        p_full = int(np.count_nonzero(mask & labels))
        n_full = int(np.count_nonzero(mask)) - p_full
        growth = math.inf if n_full == 0 else p_full / n_full
        if p_full == 0 or growth < g_min or not (mask & self.remaining).any():
            return False
        self.rules.append(rule)
        self.remaining &= ~mask
        return bool(self.remaining.any())


def _cover(states: list[_Covering], g_min: float) -> None:
    """Run the covering rounds of tables with the same columns in lockstep."""
    batch = _Batch([state.table for state in states])
    covering = list(range(len(states)))
    while covering:
        growing = []
        for t in covering:
            grow = states[t].start_round()
            if states[t].p0 and states[t].n0:
                batch.cover(t, grow)
                growing.append(t)
        while growing:
            found = batch.best(
                growing, [states[t].p0 for t in growing], [states[t].n0 for t in growing]
            )
            still = []
            for t, best in zip(growing, found):
                if best is None:
                    batch.cover(t, None)
                    continue
                _, p1, n1, column, direction, threshold = best
                state = states[t]
                state.conditions.append((column, direction, threshold))
                state.p0, state.n0 = p1, n1
                if n1:
                    batch.restrict(t, column, direction, threshold)
                    still.append(t)
                else:
                    batch.cover(t, None)
            growing = still
        covering = [t for t in covering if states[t].finish_round(g_min)]


def induce_rules_batch(
    tables: Iterable[DurationTable],
    g_min: float,
    seeds: Iterable[int],
    prune: bool = True,
) -> list[list[NumericalRule]]:
    """``induce_rules`` on several tables at once: each table's rules, the
    same as it gets alone with its seed.

    The tables with the same number of columns form one ``_Batch``, whose
    columns are presorted once.  Its covering rounds run in lockstep: each
    table draws its own grow/prune split, then every table that still grows
    takes its next condition from one segmented ``_Batch.best`` step, until
    none grows; pruning and the acceptance test stay per table.  So a grow
    step costs a few numpy calls for the whole batch, not a few per table.
    The arrays hold all the tables at once, so callers bound how many.
    """
    tables = list(tables)
    out: list[list[NumericalRule]] = [[] for _ in tables]
    by_width: dict[int, list[_Covering]] = {}
    for table, seed, rules in zip(tables, seeds, out):
        n_pos = int(np.count_nonzero(table.labels))
        if n_pos == len(table) and n_pos:
            rules.append(NumericalRule())
        elif n_pos:
            state = _Covering(table, seed, prune, rules)
            by_width.setdefault(len(table.pairs), []).append(state)
    for states in by_width.values():
        _cover(states, g_min)
    return out


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
    unconstrained rule, all-negative (or empty) tables yield nothing.  This
    is a batch of one of ``induce_rules_batch``.
    """
    return induce_rules_batch([table], g_min, [seed], prune)[0]


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
