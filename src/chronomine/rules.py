"""Numerical rule induction over inter-event durations.

For a frequent multiset, every canonical occurrence in the dataset becomes
one row of a relational duration table: one signed-duration attribute per
ordered item pair, labeled with the sequence label.  The rows come from one
enumeration over only the sequences that hold the multiset.  A
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
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from .matcher import DEFAULT_OCCURRENCE_CAP, OccurrenceCapWarning, TypeIndex, _search, support
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


def build_duration_table(
    multiset: Iterable[str],
    dataset: SequenceDataset,
    cap: int | None = DEFAULT_OCCURRENCE_CAP,
    index: TypeIndex | None = None,
) -> DurationTable:
    """Duration table over all canonical occurrences in the whole dataset.

    Only the sequences that hold the multiset are enumerated; ``index`` is
    the dataset's ``TypeIndex``, built here when not given.
    """
    multiset = tuple(multiset)
    if len(multiset) < 2:
        raise ValueError("duration attributes need a multiset of at least 2 items")
    if index is None:
        index = TypeIndex(dataset)
    chronicle = Chronicle.unconstrained(multiset)

    types = set(multiset)
    sids: list[str] = []
    times: list[tuple[float, ...]] = []
    held: list[int] = []
    rows_per_seq: list[int] = []
    capped: list[int] = []
    for k in index.containing(multiset):
        seq = index.sequences[k]
        occurrences = _search(chronicle, seq, index.buckets(k, types))
        found = [t for _, t in islice(occurrences, None if cap is None else cap + 1)]
        if cap is not None and len(found) > cap:
            del found[cap:]
            capped.append(k)
            warnings.warn(
                f"occurrence cap {cap} reached in sequence {seq.sid!r}; "
                "duration table truncated",
                OccurrenceCapWarning,
                stacklevel=2,
            )
        times.extend(found)
        sids.extend([seq.sid] * len(found))
        held.append(k)
        rows_per_seq.append(len(found))
    stamps = np.asarray(times, dtype=float).reshape(len(times), len(multiset))
    first, second = np.asarray(pair_attributes(multiset)).T
    seq_index = np.repeat(np.asarray(held, dtype=np.int32), rows_per_seq)
    return DurationTable(
        multiset=multiset,
        sids=tuple(sids),
        durations=stamps[:, second] - stamps[:, first],
        labels=seq_index < index.n_pos,
        seq_index=seq_index,
        capped=tuple(capped),
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

# A candidate condition: (gain, covered positives, attribute name, threshold,
# direction) -- the tuple doubles as the selection key.
_LE, _GE = 0, 1


def _best_condition(
    durations: np.ndarray,
    labels: np.ndarray,
    covered: np.ndarray,
    names: tuple[str, ...],
) -> tuple[float, int, int, int, float] | None:
    """Single threshold condition maximizing FOIL information gain.

    Thresholds are observed attribute values adjacent to a label boundary in
    the sorted value sequence; "attr <= v" takes the value below the
    boundary, "attr >= v" the value above.  Returns (gain, p1, column,
    direction, threshold) for the winner or None when no condition gains.
    """
    p0 = int(np.count_nonzero(labels & covered))
    n0 = int(np.count_nonzero(~labels & covered))
    if p0 == 0:
        return None
    base = math.log2(p0 / (p0 + n0))

    best: tuple | None = None  # sort key: (-gain, -p1, name, threshold, direction)
    result: tuple[float, int, int, int, float] | None = None
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


def _grow(
    durations: np.ndarray, labels: np.ndarray, names: tuple[str, ...]
) -> list[tuple[int, int, float]]:
    """Greedily add threshold conditions until no negatives are covered or
    no condition improves; returns the ordered (column, direction, threshold)
    conditions."""
    covered = np.ones(len(labels), dtype=bool)
    conditions: list[tuple[int, int, float]] = []
    while np.count_nonzero(~labels & covered) > 0:
        found = _best_condition(durations, labels, covered, names)
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


def _split_rows(
    sids: tuple[str, ...],
    labels: np.ndarray,
    active: np.ndarray,
    rng: random.Random,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Grow/prune split of the active rows, stratified by label with whole
    sequences kept on one side.  Returns None when either class is too small
    to split meaningfully."""
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
        chosen: set[str] = set()
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


def induce_rules(
    table: DurationTable,
    g_min: float,
    sigma_min: int = 1,
    seed: int = 0,
    prune: bool = True,
) -> list[NumericalRule]:
    """Sequential covering over the duration table.

    Each accepted rule is grown by FOIL gain (optionally reduced-error
    pruned) and must reach row-level growth >= g_min on the full table;
    covered positive rows are removed between rules.  ``sigma_min`` is not
    applied here -- the support threshold is enforced at sequence level
    after reevaluation.  Degenerate tables: all-positive rows yield the
    single unconstrained rule, all-negative (or empty) tables yield nothing.
    """
    del sigma_min  # enforced downstream, kept for interface symmetry
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
    remaining = labels.copy()  # positive rows not yet covered
    rules: list[NumericalRule] = []

    while np.count_nonzero(remaining) > 0:
        active = remaining | ~labels
        split = _split_rows(table.sids, labels, active, rng) if prune else None
        if split is None:
            grow_mask = active
            prune_mask = None
        else:
            grow_mask, prune_mask = split

        grow_idx = np.nonzero(grow_mask)[0]
        conditions = _grow(durations[grow_idx], labels[grow_idx], names)
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
