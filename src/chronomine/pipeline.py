"""End-to-end discriminant chronicle mining.

The pipeline mines multisets frequent in the positive sequences, emits the
ones already discriminant without any temporal constraint as-is, and for
the rest learns discriminant temporal constraints from their duration
tables.  Every candidate is re-scored at sequence level before emission, so
the output contract is simple: every returned chronicle is discriminant at
the configured thresholds.  Discriminancy is one decision,
``model.is_discriminant``: positive support at least sigma and the growth
test ``model.meets_growth``, supp_pos >= g_min * supp_neg.  The shortcut
makes it on a multiset's supports, the learner's acceptance test makes the
growth test on a rule's covered rows, and emission makes it on a learned
chronicle's sequence-level supports, so a chronicle that is emitted passes
``is_discriminant`` when rescored from scratch.

Each run indexes the dataset's event types once (``TypeIndex``).  The
frequent multisets are mined straight from that index
(``frequent_multisets``), each with its positive and negative support, so
``dcm`` applies the shortcut to those supports with no recount: only the
multisets that are not discriminant alone go on to learning.  Their duration
tables are built in order, one at a time as the learner reads them, and
the learner groups them into batches (see ``rules``).  Each learned rule is
re-scored from the rows its acceptance test covered, with the matcher only
as the fallback for sequences the occurrence cap truncated, and only a rule
that passes both thresholds becomes a chronicle.

With ``CHRONOMINE_THREADS=N`` above 1, N processes share that learning: the
calling process and N - 1 forked pool workers, each with one round-robin
shard of the learned multisets, ``learned[k::n]`` with ``n = min(N,
len(learned))``.  The caller submits shards 1 to n - 1 to the pool, learns
shard 0 itself, then collects the others; each shard is one ``_learn`` call,
so each process learns the largest batches it can.  The output is sorted,
so it does not depend on the sharding.  A worker records its cap warnings
and returns them with its chronicles; the caller re-issues them through this
module's warning registry, so the warning filters act on them as on the
sequential run's.  The caller's own shard warns first, as it learns it,
then each worker shard's warnings follow in that shard's table order.

The output needs no dedupe: chronicles of different multisets differ in
their items, a multiset that takes the shortcut gets no table, and each
rule a table keeps covers a positive row that no earlier rule of that table
covered, so no two output chronicles are equal.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import ConfigError
from .itemsets import frequent_multisets
from .matcher import DEFAULT_OCCURRENCE_CAP, TypeIndex
from .model import Chronicle, MinedChronicle, SequenceDataset, is_discriminant
from .rules import build_duration_table, induce_chronicles

# not called: perfbench's tracer wraps these names here
from .itemsets import decode_to_multisets, encode, mine_frequent_itemsets
from .rules import induce_rules, reevaluate, translate

#: Processes that learn the multisets' constraints, the caller included, each
#: on one round-robin shard of them; unset or 1 means run sequentially.
THREADS_ENV_VAR = "CHRONOMINE_THREADS"


@dataclass(frozen=True)
class DcmConfig:
    """Mining parameters.

    ``sigma_min`` below 1 is a fraction of the positive set (converted by
    ceiling); otherwise it is an absolute sequence count.  Both thresholds
    must be finite real numbers (a numpy float is one; a bool is not).  The
    shortcut and emission both decide with ``is_discriminant`` at these
    thresholds.  ``min_size``, ``max_size``, ``occurrence_cap`` and ``seed``
    are integers (a numpy integer is stored as an int; a bool is not one).
    """

    sigma_min: float = 2
    g_min: float = 2.0
    min_size: int = 2
    max_size: int | None = None
    occurrence_cap: int | None = DEFAULT_OCCURRENCE_CAP
    seed: int = 0

    def __post_init__(self):
        for name, value in (("sigma_min", self.sigma_min), ("g_min", self.g_min)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not -math.inf < value < math.inf:  # also false for NaN
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.sigma_min <= 0:
            raise ConfigError(f"sigma_min must be positive, got {self.sigma_min}")
        if self.g_min < 1:
            raise ConfigError(f"g_min must be >= 1, got {self.g_min}")
        # the integer fields and their least values (seed has none); None
        # leaves the size or the cap unbounded
        least = {"min_size": 1, "max_size": self.min_size, "occurrence_cap": 1, "seed": -math.inf}
        for name, low in least.items():
            value = getattr(self, name)
            if value is None and name in ("max_size", "occurrence_cap"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, int(value))

    def resolve_sigma(self, n_positives: int) -> int:
        """Absolute support threshold for a positive set of the given size."""
        if self.sigma_min < 1:
            return max(1, math.ceil(self.sigma_min * n_positives))
        return max(1, math.ceil(self.sigma_min))


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

    Their duration tables are built in order, as ``induce_chronicles``
    reads them, and learned in batches there.  Each rule is re-scored at
    sequence level from its acceptance test's cover and kept if it passes
    both thresholds.
    """
    tables = (
        build_duration_table(multiset, dataset, cap=config.occurrence_cap, index=index)
        for multiset in multisets
    )
    seeds = [_multiset_seed(config.seed, multiset) for multiset in multisets]
    return induce_chronicles(tables, dataset, config.g_min, seeds, sigma)


_WORKER_STATE: tuple | None = None


def _init_worker(*state):  # (dataset, index, config, sigma)
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_worker(multisets):
    """Learn one shard in a pool worker; returns its chronicles and the
    (message, category, filename, lineno) of its warnings, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chronicles = _learn(multisets, *_WORKER_STATE)
    return chronicles, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


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


def dcm(dataset: SequenceDataset, config: DcmConfig | None = None) -> list[MinedChronicle]:
    """Mine all discriminant chronicles of the dataset.

    Frequency is counted in the positive set only; negatives are consulted
    for discriminancy.  Output is sorted by descending growth rate, then
    descending positive support, then by chronicle in ``Chronicle``'s own
    order: multiset, then constraints.
    """
    if config is None:
        config = DcmConfig()
    if not dataset.positives:
        raise ValueError("no positive sequences")
    sigma = config.resolve_sigma(len(dataset.positives))

    index = TypeIndex(dataset)
    results: list[MinedChronicle] = []
    learned = []
    for multiset, supp_pos, supp_neg in frequent_multisets(
        index, sigma, config.min_size, config.max_size
    ):
        mined = MinedChronicle(Chronicle.unconstrained(multiset), supp_pos, supp_neg)
        if is_discriminant(mined, sigma, config.g_min):
            results.append(mined)
        elif len(multiset) > 1:  # a singleton has no pair duration to constrain
            learned.append(multiset)

    n = min(_worker_count(), len(learned))
    if n > 1:
        shards = [learned[k::n] for k in range(n)]
        with ProcessPoolExecutor(
            max_workers=n - 1,
            initializer=_init_worker,
            initargs=(dataset, index, config, sigma),
        ) as pool:
            others = pool.map(_run_worker, shards[1:])  # submits, and forks, now
            results.extend(_learn(shards[0], dataset, index, config, sigma))
            registry = globals().setdefault("__warningregistry__", {})
            for chronicles, caught in others:
                results.extend(chronicles)
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(
                        message, category, filename, lineno, module=__name__, registry=registry
                    )
    else:
        results.extend(_learn(learned, dataset, index, config, sigma))

    return sorted(results, key=lambda m: (-m.growth_rate, -m.supp_pos, m.chronicle))
