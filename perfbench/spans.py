"""Spans and counters recorded around the layer calls of one mining job.

``instrument`` replaces, for the duration of a ``with`` block, the public
names that ``chronomine.pipeline`` and ``chronomine.rules`` call at module
level with wrappers that record a span (name, start, end, parent) and
count the work each call did.  Spans stay in memory until the run ends.
Calls made inside process-pool workers are not seen: the workers have
their own copy of the modules.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import chronomine.pipeline as pipeline
import chronomine.rules as rules
from chronomine import is_discriminant

#: (layer, module, attribute) of each wrapped call, in report order.
#: ``pipeline.self`` is the root span the benchmark opens around each ``dcm``
#: call; its self time is the pipeline's own work.
LAYERS = (
    ("itemsets.encode", pipeline, "encode"),
    ("itemsets.mine", pipeline, "mine_frequent_itemsets"),
    ("itemsets.decode", pipeline, "decode_to_multisets"),
    ("pipeline.self", None, None),
    ("rules.build_table", pipeline, "build_duration_table"),
    ("rules.induce", pipeline, "induce_rules"),
    ("rules.translate", pipeline, "translate"),
    ("rules.reevaluate", pipeline, "reevaluate"),
    ("matcher.support", rules, "support"),
)
ROOT = "pipeline.self"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    #: Multisets that got a duration table in the current ``dcm`` call.
    tabled: set = field(default_factory=set)
    #: Chronicles re-scored in the current ``dcm`` call, kept or not.
    reevaluated: list = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def finish_call(self, results, sigma: int, g_min: float) -> None:
        """Count how one ``dcm`` call's output was produced.

        The shortcut emits one unconstrained chronicle per multiset that got
        no table; learned chronicles are the re-scored ones that pass the
        thresholds; the difference to the output is what dedupe removed.
        """
        c = self.counts
        shortcut = sum(
            1
            for m in results
            if not m.chronicle.constraints and m.chronicle.items not in self.tabled
        )
        kept = sum(is_discriminant(m, sigma, g_min) for m in self.reevaluated)
        c["pipeline.shortcut"] += shortcut
        c["pipeline.learned"] += len(self.tabled)
        c["pipeline.chronicles"] += len(results)
        c["pipeline.duplicates"] += shortcut + kept - len(results)
        c["rules.rules_kept"] += kept
        self.tabled.clear()
        self.reevaluated.clear()

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Counter:
        """Seconds per layer, each span minus the time of its child spans."""
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name == "itemsets.mine":
            c["itemsets.frequent_itemsets"] += len(result)
        elif name == "itemsets.decode":
            c["itemsets.multisets"] += len(result)
        elif name == "rules.build_table":
            self.tabled.add(result.multiset)
            c["rules.tables"] += 1
            c["rules.table_rows"] += len(result)
            c["rules.table_rows_max"] = max(c["rules.table_rows_max"], len(result))
            c["rules.tables_truncated"] += int(result.truncated)
        elif name == "rules.induce":
            c["rules.rules_induced"] += len(result)
        elif name == "rules.reevaluate":
            self.reevaluated.append(result)
        elif name == "matcher.support":
            c["matcher.support_calls"] += 1
            c["matcher.sequences_scanned"] += len(args[1])
            c["matcher.sequences_matched"] += result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args, result)
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route the pipeline's layer calls through ``tracer`` inside the block."""
    originals = [
        (name, module, attr, getattr(module, attr))
        for name, module, attr in LAYERS
        if module is not None
    ]
    try:
        for name, module, attr, original in originals:
            setattr(module, attr, tracer._wrap(name, original))
        yield tracer
    finally:
        for _, module, attr, original in originals:
            setattr(module, attr, original)
