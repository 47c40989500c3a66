"""End-to-end discriminant chronicle mining.

The pipeline mines multisets frequent in the positive sequences, emits the
ones already discriminant without any temporal constraint as-is, and for
the rest learns discriminant temporal constraints from their duration
tables.  Every candidate is re-scored at sequence level before emission, so
the output contract is simple: every returned chronicle is discriminant at
the configured thresholds.

Each run indexes the dataset's event types once (``TypeIndex``).  The index
gives the constraint-free supports, and ``dcm`` applies the shortcut
itself: only the multisets that are not discriminant alone go on to
learning.  Their duration tables are built in order and learned in
batches, flushed at ``BATCH_TABLES`` tables or ``BATCH_CELLS`` cells:
batching shares numpy's per-call cost among many small tables, since each
step of a covering round (the grow/prune split, each grow step, the
pruning and the acceptance test) serves a whole batch, and the bounds cap
the memory a batch holds, with a larger table learned alone.  Each learned
rule is re-scored from the rows its acceptance test covered, with the
matcher only as the fallback for sequences the occurrence cap truncated,
and only a rule that passes both thresholds is translated into a
chronicle.  With ``CHRONOMINE_THREADS`` above 1, a process pool maps that
learning over contiguous slices of the learned multisets,
``SLICES_PER_WORKER`` per worker.
"""

from __future__ import annotations

import math
import os
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .errors import ConfigError
from .itemsets import decode_to_multisets, encode, mine_frequent_itemsets
from .matcher import TypeIndex
from .model import Chronicle, MinedChronicle, SequenceDataset
from .rules import DurationTable, build_duration_table, induce_chronicles
from .rules import induce_rules, reevaluate, translate  # not called: perfbench's tracer wraps them

#: Workers that learn the multisets' constraints; unset or 1 means run
#: sequentially.
THREADS_ENV_VAR = "CHRONOMINE_THREADS"
#: The pool maps over contiguous slices of the learned multisets, this many
#: per worker, so that a slow slice can be balanced by the others.
SLICES_PER_WORKER = 4
#: A batch of duration tables holds at most this many tables, and no more
#: cells (rows x columns) than this unless it is one table.  Learning
#: small tables together shares numpy's per-call cost among them; the bounds
#: cap what a batch holds at once (its tables, their presorted columns and a
#: ``random.Random`` each), and a large table is learned alone, with no copy.
BATCH_TABLES = 64
BATCH_CELLS = 4096


@dataclass(frozen=True)
class DcmConfig:
    """Mining parameters.

    ``sigma_min`` below 1 is a fraction of the positive set (converted by
    ceiling); otherwise it is an absolute sequence count.  ``strict_growth``
    switches the constraint-free shortcut test from >= to a strict >.
    """

    sigma_min: float = 2
    g_min: float = 2.0
    min_size: int = 2
    max_size: int | None = None
    occurrence_cap: int | None = 10_000
    seed: int = 0
    strict_growth: bool = False

    def __post_init__(self):
        if self.sigma_min <= 0:
            raise ConfigError(f"sigma_min must be positive, got {self.sigma_min}")
        if self.g_min < 1:
            raise ConfigError(f"g_min must be >= 1, got {self.g_min}")
        if self.min_size < 1:
            raise ConfigError(f"min_size must be >= 1, got {self.min_size}")
        if self.max_size is not None and self.max_size < self.min_size:
            raise ConfigError(
                f"max_size {self.max_size} smaller than min_size {self.min_size}"
            )
        if self.occurrence_cap is not None and self.occurrence_cap < 1:
            raise ConfigError(f"occurrence_cap must be >= 1, got {self.occurrence_cap}")

    def resolve_sigma(self, n_positives: int) -> int:
        """Absolute support threshold for a positive set of the given size."""
        if self.sigma_min < 1:
            return max(1, math.ceil(self.sigma_min * n_positives))
        return max(1, math.ceil(self.sigma_min))


def _passes_growth(supp_pos: int, supp_neg: int, g_min: float, strict: bool) -> bool:
    if strict:
        return supp_pos > g_min * supp_neg
    return supp_pos >= g_min * supp_neg


def check_multiset_discriminancy(
    multiset: tuple[str, ...], dataset: SequenceDataset, config: DcmConfig
) -> bool:
    """Whether the bare multiset already passes the growth comparison."""
    supp_pos, supp_neg = TypeIndex(dataset).supports(multiset)
    return _passes_growth(supp_pos, supp_neg, config.g_min, config.strict_growth)


def _multiset_seed(base_seed: int, multiset: tuple[str, ...]) -> int:
    # Stable per-multiset seed so results do not depend on scheduling order.
    return (base_seed * 1_000_003 + zlib.crc32("|".join(multiset).encode())) & 0x7FFFFFFF


def _learn(
    multisets: list[tuple[str, ...]],
    dataset: SequenceDataset,
    index: TypeIndex,
    config: DcmConfig,
    sigma: int,
) -> list[MinedChronicle]:
    """Learn the constraints of multisets that are not discriminant alone.

    Their duration tables are built in order and learned in batches with
    ``induce_chronicles``.  A batch is learned once it holds
    ``BATCH_TABLES`` tables or ``BATCH_CELLS`` cells, and before a table
    that would take it past ``BATCH_CELLS`` joins it, so a larger table is
    learned alone and right after it is built.  Each rule is re-scored at
    sequence level from its acceptance test's cover and kept if it passes
    both thresholds.
    """
    out: list[MinedChronicle] = []
    batch: list[DurationTable] = []
    cells = 0

    def learn() -> None:
        nonlocal cells
        seeds = [_multiset_seed(config.seed, table.multiset) for table in batch]
        out.extend(induce_chronicles(batch, dataset, config.g_min, seeds, sigma))
        batch.clear()
        cells = 0

    for multiset in multisets:
        table = build_duration_table(
            multiset, dataset, cap=config.occurrence_cap, index=index
        )
        if batch and cells + table.durations.size > BATCH_CELLS:
            learn()
        batch.append(table)
        cells += table.durations.size
        del table  # the batch holds it until it is learned
        if len(batch) == BATCH_TABLES or cells >= BATCH_CELLS:
            learn()
    if batch:
        learn()
    return out


_WORKER_STATE: tuple | None = None


def _init_worker(dataset, index, config, sigma):
    global _WORKER_STATE
    _WORKER_STATE = (dataset, index, config, sigma)


def _run_worker(multisets):
    dataset, index, config, sigma = _WORKER_STATE
    return _learn(multisets, dataset, index, config, sigma)


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        warnings.warn(
            f"{THREADS_ENV_VAR}={raw!r} is not a positive integer; running sequentially",
            RuntimeWarning,
            stacklevel=3,
        )
        return 1
    return workers


def _output_order(mined: MinedChronicle):
    return (
        -mined.growth_rate,
        -mined.supp_pos,
        mined.chronicle.items,
        tuple(
            (c.from_index, c.to_index, c.lower, c.upper)
            for c in mined.chronicle.constraints
        ),
    )


def dcm(dataset: SequenceDataset, config: DcmConfig | None = None) -> list[MinedChronicle]:
    """Mine all discriminant chronicles of the dataset.

    Frequency is counted in the positive set only; negatives are consulted
    for discriminancy.  Output is sorted by descending growth rate, then
    descending positive support, then multiset.
    """
    if config is None:
        config = DcmConfig()
    if not dataset.positives:
        raise ValueError("no positive sequences")
    sigma = config.resolve_sigma(len(dataset.positives))

    transactions = encode(dataset.positives)
    if config.max_size is not None:
        # items meaning "at least k occurrences" with k beyond the size cap
        # can never contribute to an admissible multiset
        transactions = [
            replace(
                tx,
                items=frozenset(
                    it for it in tx.items if it.occurrence_index <= config.max_size
                ),
            )
            for tx in transactions
        ]
    itemsets = mine_frequent_itemsets(transactions, sigma, max_items=config.max_size)
    multisets = [
        ms
        for ms in decode_to_multisets(itemsets)
        if len(ms) >= config.min_size
        and (config.max_size is None or len(ms) <= config.max_size)
    ]
    multisets.sort()

    index = TypeIndex(dataset)
    results: list[MinedChronicle] = []
    learned = []
    for multiset in multisets:
        supp_pos, supp_neg = index.supports(multiset)
        if _passes_growth(supp_pos, supp_neg, config.g_min, config.strict_growth):
            results.append(
                MinedChronicle(
                    chronicle=Chronicle.unconstrained(multiset),
                    supp_pos=supp_pos,
                    supp_neg=supp_neg,
                )
            )
        elif len(multiset) > 1:  # a singleton has no pair duration to constrain
            learned.append(multiset)

    workers = _worker_count()
    if workers > 1 and len(learned) > 1:
        n_slices = min(len(learned), workers * SLICES_PER_WORKER)
        bounds = [len(learned) * k // n_slices for k in range(n_slices + 1)]
        with ProcessPoolExecutor(
            max_workers=min(workers, n_slices),
            initializer=_init_worker,
            initargs=(dataset, index, config, sigma),
        ) as pool:
            slices = [learned[a:b] for a, b in zip(bounds, bounds[1:])]
            for chunk in pool.map(_run_worker, slices):
                results.extend(chunk)
    else:
        results.extend(_learn(learned, dataset, index, config, sigma))

    unique: dict[Chronicle, MinedChronicle] = {}
    for mined in results:
        unique.setdefault(mined.chronicle, mined)
    return sorted(unique.values(), key=_output_order)
