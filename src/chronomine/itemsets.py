"""Frequent multiset extraction: the indexed-item encoding, searched on bitsets.

A type occurring n times in a sequence is encoded as the n items
(type, 1) ... (type, n), where (type, k) reads "at least k occurrences".
A multiset is then the itemset holding one index per type, and it is
frequent exactly when that itemset is.  ``frequent_multisets``, which a
mining run calls, searches these items straight from the run's
``TypeIndex``: each item's tidsets are two Python-int bitmasks (one bit
per positive sequence, one per negative), built from the per-type counts,
and each extension of the depth-first search ANDs both masks and counts
their bits, so every multiset comes out with its positive and negative
support.  An itemset holding two indices of the same type is redundant
(it decodes to the same multiset as its larger index alone), so the search
never extends a prefix by a second index of its last type: each multiset
is produced once and nothing needs decoding.

``encode``, ``mine_frequent_itemsets`` and ``decode_to_multisets`` (with
``IndexedItem`` and ``Transaction``) are the encoding spelled out step by
step (transactions, a generic frequent itemset miner over set tidsets, then
a decoder that drops the redundant itemsets).  They are kept here, and only
here, as the reference that the bitset search is tested against: the
package does not export them, and ``dcm`` does not call them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence as SequenceType

import numpy as np

from .matcher import TypeIndex
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


def frequent_multisets(
    index: TypeIndex, sigma: int, min_size: int = 1, max_size: int | None = None
) -> list[tuple[tuple[str, ...], int, int]]:
    """Every multiset of ``min_size`` to ``max_size`` events held by at least
    ``sigma`` positive sequences, as sorted (multiset, supp_pos, supp_neg)
    triples.

    Supports count the sequences of ``index`` that hold the multiset: its
    positive sequences, then its negative ones.
    """
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    n_pos = index.n_pos
    items = []
    for etype in sorted(index.count):
        count = index.count[etype]
        k = 1
        while max_size is None or k <= max_size:
            pos = count[:n_pos] >= k
            if np.count_nonzero(pos) < sigma:
                break
            items.append((etype, k, _bitmask(pos), _bitmask(count[n_pos:] >= k)))
            k += 1
    out: list[tuple[tuple[str, ...], int, int]] = []
    _extend((), items, sigma, min_size, max_size, out)
    out.sort()
    return out


def _bitmask(held: np.ndarray) -> int:
    """The boolean array as an int whose bit ``s`` is ``held[s]``."""
    return int.from_bytes(np.packbits(held, bitorder="little").tobytes(), "little")


def _extend(
    prefix: tuple[str, ...],
    extensions: list[tuple[str, int, int, int]],
    sigma: int,
    min_size: int,
    max_size: int | None,
    out: list[tuple[tuple[str, ...], int, int]],
) -> None:
    """Record in ``out`` each multiset ``prefix`` + (type, k) of
    ``extensions`` and then, depth first, its own frequent extensions.

    ``extensions`` holds the frequent items (type, k, pos, neg) that extend
    ``prefix``, in (type, k) order, where the bits of ``pos`` and ``neg``
    are the sequences holding ``prefix`` and the item.  A multiset grows
    only by types after its last one, and only by an item that extends its
    prefix too, so its candidates are the later extensions of another type.
    Module level for the same reason as ``_grow``.
    """
    for i, (etype, k, pos, neg) in enumerate(extensions):
        multiset = prefix + (etype,) * k
        if len(multiset) >= min_size:
            out.append((multiset, pos.bit_count(), neg.bit_count()))
        children = []
        for later, j, later_pos, later_neg in extensions[i + 1 :]:
            if later == etype or (max_size is not None and len(multiset) + j > max_size):
                continue
            held_pos = pos & later_pos
            if held_pos.bit_count() >= sigma:
                children.append((later, j, held_pos, neg & later_neg))
        if children:
            _extend(multiset, children, sigma, min_size, max_size, out)
