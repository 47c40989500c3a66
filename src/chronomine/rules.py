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
translates directly into a set of temporal constraints.  Every round
prunes: a table too small for a grow/prune split has no prune rows, so
it keeps every condition it grew.

Each row names its sequence by its position in the dataset
(``seq_index``), the one key by which the learner groups a table's rows.
The learner (``_induce``) takes a stream of tables, as ``induce_chronicles``
passes them; ``induce_rules`` learns one table alone, as a stream of one.
It reads them one at a time and learns them in batches of one width
(column count), bounded by ``BATCH_CELLS``: each width has one pending
batch, learned before a table that would take it past ``BATCH_CELLS``
cells joins it and once it holds that many, so a larger table is learned
alone, right after it is read.  A batch's tables are stacked and their
columns presorted once.  Their covering rounds run in lockstep, and each
step of a round serves all the tables in it with a few segmented numpy
calls, over a (table, sequence) group id that each row gets once per
batch: one grow/prune split, in which each table still shuffles its own
sequences with its own seeded ``random.Random``; one grow step per
condition, which scores the candidate thresholds of every table still
growing; and one pruning pass and one acceptance test.  So a small table
no longer pays numpy's per-call cost alone, and the bound caps the memory
a batch holds.

Several rows may come from one sequence, so a learned rule is re-scored
at sequence level.  The acceptance test already holds the rows the rule
covers, and ``induce_chronicles`` reads its supports from them: the
distinct covered groups of each class.  The rows and the matcher's
candidates are the same canonical assignments, so this count is exact.
The matcher (``support``) runs only on sequences whose enumeration hit
the occurrence cap and that have no covered row.  ``reevaluate`` counts
a chronicle's supports with the matcher alone.

Growth is decided by one predicate, ``model.meets_growth`` (p >= g_min * n):
the acceptance test applies it to a rule's covered rows, and emission
applies it, through ``is_discriminant``, to its sequence-level supports,
the same test the pipeline's shortcut makes.  A kept rule's conditions
become the chronicle's constraints with ``Chronicle.build``.
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
    is_discriminant,
    meets_growth,
)

#: Reduced-error pruning needs a meaningful grow/prune split; below this many
#: rows (or with a single sequence) per class the rule is grown on all rows.
MIN_ROWS_FOR_PRUNING = 6
PRUNE_FRACTION = 1 / 3
#: A batch holds tables of one width and no more cells (rows x columns)
#: than this unless it is one table: the bound caps what a batch holds at
#: once (its tables, their presorted columns and a ``random.Random`` each),
#: and a larger table is learned alone, with no copy.
BATCH_CELLS = 4096


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
    ``dataset.sequences``, so within one class their order is sid order,
    and ``capped`` lists the positions of the sequences whose enumeration
    hit the occurrence cap, so their rows are incomplete.
    """

    multiset: tuple[str, ...]
    durations: np.ndarray
    labels: np.ndarray
    seq_index: np.ndarray
    capped: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        self.pairs = pair_attributes(self.multiset)
        self.seq_index = np.asarray(self.seq_index).reshape(-1)
        rows = len(self.seq_index)
        self.durations = np.asarray(self.durations, dtype=float).reshape(rows, len(self.pairs))
        self.labels = np.asarray(self.labels, dtype=bool).reshape(rows)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def truncated(self) -> bool:
        """Whether any sequence hit the occurrence cap during construction."""
        return bool(self.capped)

    @property
    def names(self) -> tuple[str, ...]:
        return attribute_names(self.multiset)


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

    seq_index = np.repeat(held.astype(np.int32), counts)
    first, second = np.asarray(pair_attributes(multiset)).T
    return DurationTable(
        multiset=multiset,
        durations=stamps[:, second] - stamps[:, first],
        labels=seq_index < index.n_pos,
        seq_index=seq_index,
        capped=capped,
    )


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
        """Boolean row mask of the table rows with lo <= t[j] - t[i] <= hi
        for every (i, j, lo, hi) condition, the comparison the matcher makes."""
        mask = np.ones(len(table), dtype=bool)
        for i, j, lo, hi in self.conditions:
            col = table.durations[:, table.pairs.index((i, j))]
            mask &= (col >= lo) & (col <= hi)
        return mask


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

    The tables' rows are stacked, table after table, in ``labels`` and in
    ``columns``, a C-contiguous (columns x rows) array: table ``t`` owns
    rows ``start[t]`` up to ``stop[t]``, and the value of row ``r`` in
    column ``c`` is ``columns[c, r]``, flat cell ``c * len(labels) + r``.
    ``covered`` marks the rows covered by the conditions grown so far.
    ``order`` has one row per column, which lists each table's rows in turn,
    ascending by that column's value and, among equal values, negatives
    first; it is sorted once per batch.

    A grow step filters ``order`` by ``covered``.  Every column keeps the
    same rows, so each column of the result holds one segment per table,
    and a segment's length is its table's covered row count: the segment
    bounds come from those counts, with no per-entry segment id.  Between
    two ``cover`` calls rows only leave ``covered``, so a step filters the
    entries the step before it kept; ``cover`` starts again from all of
    ``order``.  A table outside the step covers no row, so it adds nothing
    to the filtered arrays.

    The rest of a covering round also serves all the tables at once.  Row
    ``r`` belongs to table ``row_table[r]`` and to group ``gid[r]``, the
    rows of one sequence of one class in one table.  Groups are numbered
    table by table, positives first, in sequence order; ``group_seq`` holds
    each group's sequence and ``group_seg`` its (table, class) segment, 2t
    for table t's positives and 2t + 1 for its negatives, whose groups
    start at ``seg_start``.
    """

    def __init__(self, tables: list[DurationTable]):
        self.names = [table.names for table in tables]
        self.width = len(tables[0].pairs)
        lengths = [len(table) for table in tables]
        self.stop = np.cumsum(lengths).tolist()
        self.start = [stop - n for stop, n in zip(self.stop, lengths)]
        if len(tables) == 1:  # no copy of an F-ordered table's durations
            self.columns = np.ascontiguousarray(tables[0].durations.T)
            self.labels = tables[0].labels
        else:
            self.columns = np.concatenate([table.durations.T for table in tables], axis=1)
            self.labels = np.concatenate([table.labels for table in tables])
        order = []
        for start, stop in zip(self.start, self.stop):
            by_label = start + np.argsort(self.labels[start:stop], kind="stable")
            order.append(by_label[np.argsort(self.columns[:, by_label], axis=1, kind="stable")])
        self.order = order[0] if len(tables) == 1 else np.concatenate(order, axis=1)
        self.row_table = np.repeat(np.arange(len(tables)), lengths)
        self.cover(np.zeros(len(self.labels), dtype=bool))

        seq = np.concatenate([table.seq_index for table in tables]).astype(np.int64)
        n_seq = int(seq.max(initial=0)) + 1
        key = (2 * self.row_table + ~self.labels) * n_seq + seq  # (segment, sequence)
        key, self.gid = np.unique(key, return_inverse=True)
        self.group_seg, self.group_seq = np.divmod(key, n_seq)
        self.seg_start = np.searchsorted(self.group_seg, np.arange(2 * len(tables) + 1))

    def rows_of(self, ts: list[int]):
        """Mask of the rows of tables ``ts``; with one table, a scalar."""
        flags = np.zeros(len(self.start), dtype=bool)
        flags[ts] = True
        return self.per_row(flags)

    def per_row(self, x: np.ndarray, tables: np.ndarray | None = None):
        """The entries of the per-table array ``x`` (tables on the last
        axis) for each row, or for each of the given rows' ``tables``; with
        one table, the table's entry, which broadcasts."""
        if x.shape[-1] == 1:
            return x[..., 0] if x.ndim == 1 else x[..., :1]
        return x.take(self.row_table if tables is None else tables, axis=-1)

    def cover(self, rows: np.ndarray) -> None:
        """Cover the rows in the ``rows`` mask, which the batch then owns,
        and filter the next grow step from all of ``order``."""
        self.covered = rows
        self._step = self.order.ravel()

    def uncover(self, t: int) -> None:
        """Cover none of the rows of table ``t``."""
        self.covered[self.start[t] : self.stop[t]] = False

    def per_table(self, rows: np.ndarray) -> np.ndarray:
        """Each table's count of the rows in the ``rows`` mask."""
        return np.add.reduceat(rows, self.start, dtype=np.intp)

    def _within(self, ts: list[int], bounds: np.ndarray) -> np.ndarray:
        """The rows of tables ``ts`` whose value in each column c lies in
        the interval ``bounds[:, c, t]`` (low, high) of their table t."""
        inside = np.broadcast_to(self.rows_of(ts), self.labels.shape).copy()
        for values, lo, hi in zip(self.columns, *bounds):
            if (lo > -math.inf).any():
                inside &= values >= self.per_row(lo)
            if (hi < math.inf).any():
                inside &= values <= self.per_row(hi)
        return inside

    def restrict(self, t: int, column: int, direction: int, threshold: float) -> None:
        """Uncover the rows of table ``t`` that fail a threshold condition."""
        values = self.columns[column, self.start[t] : self.stop[t]]
        keep = values <= threshold if direction == _LE else values >= threshold
        self.covered[self.start[t] : self.stop[t]] &= keep

    def split(self, ts: list[int], active: np.ndarray, rngs: list[random.Random]) -> np.ndarray:
        """Grow/prune split of the ``active`` rows of tables ``ts``; returns
        the prune rows.

        Each table's split is stratified by label and keeps whole sequences
        on one side.  Table ``t`` shuffles its active positive, then
        negative sequences, each list by ``seq_index``, with ``rngs[t]``, and a
        class sends its shuffled sequences to the prune side until they hold
        ``PRUNE_FRACTION`` of its active rows, keeping the last one for
        growing.  A table with a class of fewer than
        ``MIN_ROWS_FOR_PRUNING`` active rows or one sequence gets no prune
        rows (it still drew the positives' shuffle when only its negatives
        fall short).  The rows are counted per group with one bincount, and
        one prefix sum over every drawn list marks the prune groups.
        """
        counts = np.bincount(self.gid.compress(active), minlength=len(self.group_seq))
        rows = np.bincount(self.group_seg, counts, 2 * len(self.start)).astype(np.intp).tolist()
        present = counts.nonzero()[0]
        at = np.searchsorted(present, self.seg_start).tolist()
        present = present.tolist()
        drawn = []  # (shuffled groups, prune target) of each class of the tables that split
        for t in ts:
            classes = []
            for s in (2 * t, 2 * t + 1):
                groups = present[at[s] : at[s + 1]]
                if rows[s] < MIN_ROWS_FOR_PRUNING or len(groups) < 2:
                    break
                rngs[t].shuffle(groups)
                classes.append((groups, rows[s] * PRUNE_FRACTION))
            else:
                drawn += classes
        prune = np.zeros(len(counts), dtype=bool)
        if drawn:
            groups = np.concatenate([groups for groups, _ in drawn])
            sizes = [len(groups) for groups, _ in drawn]
            ends = np.cumsum(sizes)
            taken = counts[groups]
            before = np.cumsum(taken) - taken  # rows drawn ahead, then ahead within the class
            before -= np.repeat(before[ends - sizes], sizes)
            chosen = before < np.repeat([target for _, target in drawn], sizes)
            chosen[ends - 1] = False
            prune[groups[chosen]] = True
        return active & prune.take(self.gid)

    def accept(
        self, ts: list[int], conditions: dict[int, list], prune: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Reduced-error pruning of the rules grown for tables ``ts``, and
        the rows the pruned rules cover.

        ``conditions[t]`` lists table ``t``'s grown (column, direction,
        threshold) conditions and ``prune`` marks the prune rows.  Pruning
        drops final conditions while (p - n) / (p + n) over the prune rows
        covered does not decrease (-1 when none is), never below one
        condition; a table with no prune row keeps all.  One pass counts,
        for every prune row, how many leading conditions of its table it
        meets: the first k conditions cover the rows with a count of at
        least k.  So a table keeps the largest k for which the first k
        conditions score above the first k - 1, or one.  The kept
        conditions on one column intersect into an interval, as in the
        rule they form.  Returns how many conditions each table keeps, the
        intervals, ``bounds[:, c, t]`` (low, high) for column c of table t,
        which constrain where ``used[c, t]``, and the rows they cover.
        """
        n_tables = len(self.start)
        flat = [(t, k, *c) for t in ts for k, c in enumerate(conditions[t])]
        flat = np.array(flat, dtype=float).reshape(-1, 5).T
        table, order, column, direction = flat[:4].astype(np.intp)
        threshold = flat[4]
        side = 1 - direction  # which end of its interval a condition bounds
        keep = np.bincount(table, minlength=n_tables)
        longest = int(keep.max(initial=0))
        if longest > 1:
            rows = prune.nonzero()[0]
            tab = self.row_table.take(rows)
            # condition k of table t: column[k, t] within bounds[:, k, t];
            # the padding (-inf, inf) holds for every row
            bounds = np.full((2, longest, n_tables), [[[-math.inf]], [[math.inf]]])
            bounds[side, order, table] = threshold
            column_of = np.zeros((longest, n_tables), dtype=np.intp)
            column_of[order, table] = column
            cells = self.per_row(column_of * len(self.labels), tab) + rows
            values = self.columns.take(cells)
            lo, hi = self.per_row(bounds, tab)
            meets = np.logical_and.accumulate((values >= lo) & (values <= hi), axis=0)
            lead = meets.sum(axis=0)
            # prune rows meeting at least k conditions, for k = 0 .. longest
            cell = tab * (longest + 1) + lead
            tot, pos = (
                np.bincount(c, minlength=n_tables * (longest + 1)).reshape(n_tables, -1)
                for c in (cell, cell.compress(self.labels.take(rows)))
            )
            tot, pos = (x[:, ::-1].cumsum(axis=1)[:, ::-1] for x in (tot, pos))
            value = np.full(tot.shape, -1.0)
            np.divide(2 * pos - tot, tot, out=value, where=tot > 0)
            k = np.arange(1, longest + 1)
            gains = (k == 1) | (value[:, :-1] < value[:, 1:])
            last = np.where(gains & (k <= keep[:, None]), k, 0).max(axis=1)
            keep = np.where((keep > 1) & (tot[:, 0] > 0), last, keep)
        kept = order < keep.take(table)
        table, column, side, threshold = table[kept], column[kept], side[kept], threshold[kept]
        bounds = np.full((2, self.width, n_tables), [[[-math.inf]], [[math.inf]]])
        low = side == 0
        np.maximum.at(bounds[0], (column[low], table[low]), threshold[low])
        np.minimum.at(bounds[1], (column[~low], table[~low]), threshold[~low])
        used = np.zeros((self.width, n_tables), dtype=bool)
        used[column, table] = True
        return keep, bounds, used, self._within(ts, bounds)

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
        # the covered entries of every column, in value order; take and
        # compress, because indexing with a boolean mask is several times slower
        rows = self._step = self._step.compress(self.covered.take(self._step))
        labs = self.labels.take(rows)
        cells = rows.reshape(width, -1) + np.arange(width)[:, None] * len(self.labels)
        vals = self.columns.take(cells).ravel()
        del cells

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


def _cover(tables: list[DurationTable], g_min: float, seeds: list[int]) -> list[list[tuple]]:
    """Sequential covering of tables with the same columns, in lockstep.

    A round draws every table's grow/prune split (``_Batch.split``), grows
    a rule for each table that has positive and negative grow rows (one
    ``_Batch.best`` step per condition for all of them), then prunes them
    and takes their covers (``_Batch.accept``).  A table keeps its rule if
    its covered rows of the whole table pass ``meets_growth`` at ``g_min``
    (it always covers a positive row not yet covered); an all-positive
    table keeps the empty rule.  A table goes on to another round while it
    has uncovered positive rows.
    The supports of the rules kept in a round are the covered groups per
    class, counted with one bincount.

    Returns each table's rules, each as its (i, j, lower, upper)
    conditions, the numbers of positive and negative sequences whose rows
    it covers, and the capped sequences with no covered row.
    """
    batch = _Batch(tables)
    labels, n_tables = batch.labels, len(tables)
    rngs = [random.Random(seed) for seed in seeds]
    only_positive = (batch.per_table(~labels) == 0).tolist()
    remaining = labels.copy()  # positive rows not yet covered
    found: list[list[tuple]] = [[] for _ in tables]
    covering = list(range(n_tables))
    while covering:
        active = (remaining | ~labels) & batch.rows_of(covering)
        prune_rows = batch.split(covering, active, rngs)
        grow = active & ~prune_rows
        p0 = batch.per_table(grow & labels).tolist()
        n0 = (batch.per_table(grow) - p0).tolist()
        conditions: dict[int, list] = {t: [] for t in covering}
        growing = [t for t in covering if p0[t] and n0[t]]
        batch.cover(grow & batch.rows_of(growing))
        while growing:
            still = []
            step = batch.best(growing, [p0[t] for t in growing], [n0[t] for t in growing])
            for t, best in zip(growing, step):
                if best is not None:
                    _, p0[t], n0[t], *condition = best
                    conditions[t].append(condition)
                if best is not None and n0[t]:
                    batch.restrict(t, *condition)
                    still.append(t)
                else:
                    batch.uncover(t)
            growing = still

        ts = [t for t in covering if conditions[t] or only_positive[t]]
        if not ts:
            break
        _, bounds, used, covered = batch.accept(ts, conditions, prune_rows)
        # a rule covers an uncovered positive row: the positive grow rows
        # its last condition kept, which pruning and the whole table widen
        p_full = batch.per_table(covered & labels).tolist()
        n_full = (batch.per_table(covered) - p_full).tolist()
        covering = [t for t in ts if meets_growth(p_full[t], n_full[t], g_min)]
        remaining &= ~covered  # a table that keeps no rule stops here
        seen = np.zeros(len(batch.group_seq), dtype=bool)
        seen[batch.gid.compress(covered)] = True
        supports = np.bincount(batch.group_seg.compress(seen), minlength=2 * n_tables).tolist()
        (low, high), used = bounds.tolist(), used.T.tolist()
        for t in covering:
            groups = slice(batch.seg_start[2 * t], batch.seg_start[2 * t + 2])
            hit = set(batch.group_seq[groups][seen[groups]].tolist()) if tables[t].capped else ()
            unresolved = tuple(k for k in tables[t].capped if k not in hit)
            rule = tuple(
                (*pair, low[c][t], high[c][t])
                for c, pair in enumerate(tables[t].pairs)
                if used[t][c]
            )
            found[t].append((rule, supports[2 * t], supports[2 * t + 1], unresolved))
        left = batch.per_table(remaining).tolist()
        covering = [t for t in covering if left[t]]
    return found


def _induce(
    tables: Iterable[DurationTable], g_min: float, seeds: Iterable[int]
) -> list[tuple[tuple[str, ...], list[tuple]]]:
    """Each table's multiset and its rules as ``_cover`` returns them, in
    table order; a table with no positive row learns none.

    ``tables`` is read one table at a time, with one seed each, and the
    rules a table learns in a batch are those it learns alone with its
    seed.  The tables of each width (column count) wait in one pending
    batch, which is learned, with one ``_cover`` call, before a table that
    would take it past ``BATCH_CELLS`` cells joins it, and once it holds
    ``BATCH_CELLS`` cells; the batches still pending at the end are learned
    then.  So a larger table is learned alone, and the only tables held are
    the pending batches, the batch being learned and the table read last.
    """
    found: list[tuple[tuple[str, ...], list[tuple]]] = []
    pending: dict[int, tuple[int, list]] = {}  # width -> (cells, batch)

    def learn(batch: list[tuple[int, DurationTable, int]]) -> None:
        ks, members, member_seeds = zip(*batch)
        for k, rules in zip(ks, _cover(list(members), g_min, list(member_seeds))):
            found[k][1].extend(rules)

    for table, seed in zip(tables, seeds, strict=True):
        found.append((table.multiset, []))
        if table.labels.any():
            width, size = len(table.pairs), table.durations.size
            cells, batch = pending.pop(width, (0, []))
            if batch and cells + size > BATCH_CELLS:
                learn(batch)
                cells, batch = 0, []
            batch.append((len(found) - 1, table, seed))
            if cells + size < BATCH_CELLS:
                pending[width] = (cells + size, batch)
            else:
                learn(batch)
            del batch  # a learned batch is freed before the next table is read
    for width in list(pending):
        learn(pending.pop(width)[1])
    return found


def induce_chronicles(
    tables: Iterable[DurationTable],
    dataset: SequenceDataset,
    g_min: float,
    seeds: Iterable[int],
    sigma: int,
) -> list[MinedChronicle]:
    """The discriminant chronicles among the tables' rules, as ``_induce``
    learns them: those that pass
    ``is_discriminant`` at ``sigma`` and ``g_min`` at sequence level, in
    table order.  The tables must be built from ``dataset``; they are read
    one at a time, so they may come from a generator that builds them.

    The supports are read from the acceptance test's cover: the distinct
    covered sequences of each class, which are exactly the sequences that
    support the rule's chronicle, except that the matcher decides the
    capped sequences that have no covered row.  So a rule without one is
    judged, with the same ``meets_growth`` test, before its chronicle is
    built.
    """
    sequences = dataset.sequences
    out = []
    for multiset, found in _induce(tables, g_min, seeds):
        for rule, supp_pos, supp_neg, unresolved in found:
            if not unresolved and (supp_pos < sigma or not meets_growth(supp_pos, supp_neg, g_min)):
                continue  # the supports are final: no need to build the chronicle
            chronicle = Chronicle.build(multiset, rule)
            pos = [sequences[k] for k in unresolved if sequences[k].label == POSITIVE]
            neg = [sequences[k] for k in unresolved if sequences[k].label != POSITIVE]
            if pos:
                supp_pos += support(chronicle, pos)
            if neg:
                supp_neg += support(chronicle, neg)
            mined = MinedChronicle(chronicle, supp_pos, supp_neg)
            if is_discriminant(mined, sigma, g_min):
                out.append(mined)
    return out


def induce_rules(table: DurationTable, g_min: float, seed: int = 0) -> list[NumericalRule]:
    """Sequential covering over the duration table.

    Each accepted rule is grown by FOIL gain, then pruned by reduced
    error, and its covered rows of the full table must pass
    ``meets_growth`` at g_min; covered positive rows are removed between
    rules.  The support threshold is not applied here: it is enforced at
    sequence level after reevaluation.  Degenerate tables: all-positive rows
    yield the single unconstrained rule, all-negative (or empty) tables
    yield nothing.  The table is ``_induce``'s stream of one.
    """
    ((_, found),) = _induce([table], g_min, [seed])
    return [NumericalRule(rule) for rule, *_ in found]


def translate(rule: NumericalRule, multiset: Iterable[str]) -> Chronicle:
    """Turn a rule's interval conditions into the equivalent chronicle.

    Each condition on pair (i, j) with bounds [x, y] becomes the constraint
    "item j occurs between x and y after item i"; unmentioned pairs stay
    unconstrained.
    """
    return Chronicle.build(multiset, rule.conditions)


def reevaluate(chronicle: Chronicle, dataset: SequenceDataset) -> MinedChronicle:
    """Sequence-level supports and growth rate of the chronicle, counted
    by the matcher over every sequence."""
    supp_pos = support(chronicle, dataset.positives)
    supp_neg = support(chronicle, dataset.negatives)
    return MinedChronicle(chronicle=chronicle, supp_pos=supp_pos, supp_neg=supp_neg)
