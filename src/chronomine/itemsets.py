"""Frequent multiset extraction via indexed-item encoding.

A type occurring n times in a sequence is encoded as the n items
(type, 1) ... (type, n), where (type, k) reads "at least k occurrences".
A standard frequent itemset miner then runs over these transactions, and
surviving itemsets decode back into event-type multisets.  An itemset
holding two different indices of the same type decodes to the same multiset
as its larger index alone, so those are dropped as redundant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence as SequenceType

from .model import Sequence


class IndexedItem(NamedTuple):
    event_type: str
    occurrence_index: int


@dataclass(frozen=True)
class Transaction:
    sid: str
    items: frozenset[IndexedItem]

    def __post_init__(self):
        object.__setattr__(self, "items", frozenset(self.items))
        for item in self.items:
            if item.occurrence_index < 1:
                raise ValueError(f"occurrence index must be >= 1, got {item}")
            if item.occurrence_index > 1:
                below = IndexedItem(item.event_type, item.occurrence_index - 1)
                if below not in self.items:
                    raise ValueError(f"item set not downward closed: {item} without {below}")


def encode(sequences: Iterable[Sequence]) -> list[Transaction]:
    """One transaction per sequence, with multiplicity-indexed items."""
    out = []
    for seq in sequences:
        counts = Counter(ev.event_type for ev in seq.events)
        items = frozenset(
            IndexedItem(etype, k) for etype, n in counts.items() for k in range(1, n + 1)
        )
        out.append(Transaction(seq.sid, items))
    return out


def mine_frequent_itemsets(
    transactions: SequenceType[Transaction],
    sigma_min: int,
    max_items: int | None = None,
) -> dict[frozenset[IndexedItem], int]:
    """Complete set of non-empty itemsets with support >= sigma_min.

    Depth-first search over a vertical (item -> transaction ids) layout with
    support pruning; complete for any max_items=None.  Returns a mapping from
    itemset to its transaction support.
    """
    if sigma_min < 1:
        raise ValueError(f"sigma_min must be >= 1, got {sigma_min}")
    tidsets: dict[IndexedItem, set[int]] = {}
    for tid, tx in enumerate(transactions):
        for item in tx.items:
            tidsets.setdefault(item, set()).add(tid)

    frequent = sorted(
        (item for item, tids in tidsets.items() if len(tids) >= sigma_min)
    )
    out: dict[frozenset[IndexedItem], int] = {}
    if max_items is None or max_items >= 1:
        _grow((), set(range(len(transactions))), frequent, tidsets, sigma_min, max_items, out)
    return out


def _grow(
    prefix: tuple[IndexedItem, ...],
    prefix_tids: set[int],
    candidates: list[IndexedItem],
    tidsets: dict[IndexedItem, set[int]],
    sigma_min: int,
    max_items: int | None,
    out: dict[frozenset[IndexedItem], int],
) -> None:
    """Record every frequent extension of ``prefix`` by ``candidates`` in
    ``out``, depth first.  A module-level function, not a closure: a
    closure that calls itself is a reference cycle, which would keep the
    tidsets alive until the cyclic garbage collector runs."""
    for idx, item in enumerate(candidates):
        tids = prefix_tids & tidsets[item]
        if len(tids) < sigma_min:
            continue
        itemset = prefix + (item,)
        out[frozenset(itemset)] = len(tids)
        if max_items is None or len(itemset) < max_items:
            _grow(itemset, tids, candidates[idx + 1 :], tidsets, sigma_min, max_items, out)


def decode_to_multisets(itemsets: Iterable[frozenset[IndexedItem]]) -> set[tuple[str, ...]]:
    """Map itemsets back to multisets, dropping redundant encodings.

    An itemset with two indices of the same type is ignored; the rest become
    the multiset with occurrence_index copies of each type.  The empty
    multiset is never produced.
    """
    out: set[tuple[str, ...]] = set()
    for itemset in itemsets:
        if not itemset:
            continue
        if len({item.event_type for item in itemset}) != len(itemset):
            continue
        multiset = []
        for item in itemset:
            multiset.extend([item.event_type] * item.occurrence_index)
        out.add(tuple(sorted(multiset)))
    return out
