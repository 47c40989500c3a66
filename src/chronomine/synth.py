"""Seed-deterministic synthetic datasets with planted chronicle patterns.

Each pattern is a chronicle planted into positive and negative sequences
with separate probabilities, on top of uniform noise events.  Planted
timestamps are sampled from the pattern's constraint network: the network
(plus the [0, horizon] domain) is tightened with all-pairs shortest paths,
which both detects unsatisfiable constraint sets exactly and guarantees
that sampling items one at a time inside the tightened intervals never gets
stuck.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigError, InputError
from .io import chronicle_from_obj, json_number, load_json
from .model import NEGATIVE, POSITIVE, Chronicle, Event, Sequence, SequenceDataset


@dataclass(frozen=True)
class PlantedPattern:
    chronicle: Chronicle
    p_pos: float
    p_neg: float

    def __post_init__(self):
        for name, p in (("p_pos", self.p_pos), ("p_neg", self.p_neg)):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Description of a planted-pattern dataset."""

    n_pos: int
    n_neg: int
    patterns: tuple[PlantedPattern, ...]
    noise_types: tuple[str, ...] = ()
    noise_events: int = 0
    horizon: float = 90.0

    def __post_init__(self):
        if self.n_pos < 0 or self.n_neg < 0:
            raise ConfigError("sequence counts must be non-negative")
        if self.noise_events < 0:
            raise ConfigError("noise_events must be non-negative")
        if self.noise_events > 0 and not self.noise_types:
            raise ConfigError("noise_events > 0 needs a non-empty noise alphabet")
        if not -math.inf < self.horizon < math.inf:  # also false for NaN
            raise ConfigError(f"horizon must be finite, got {self.horizon}")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "noise_types", tuple(self.noise_types))


def _tightened_bounds(chronicle: Chronicle, horizon: float) -> list[list[float]]:
    """Minimal pairwise duration bounds, with node 0 as the time origin.

    dist[u][v] is the largest allowed t_v - t_u.  Raises ConfigError when
    the constraint set (within [0, horizon]) admits no assignment.
    """
    n = len(chronicle.items) + 1
    dist = [[math.inf] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0.0
    for k in range(1, n):
        dist[0][k] = horizon  # t_k <= horizon
        dist[k][0] = 0.0  # t_k >= 0
    for tc in chronicle.constraints:
        i, j = tc.from_index + 1, tc.to_index + 1
        dist[i][j] = min(dist[i][j], tc.upper)
        dist[j][i] = min(dist[j][i], -tc.lower)
    for mid in range(n):
        for u in range(n):
            du = dist[u]
            via = du[mid]
            if via == math.inf:
                continue
            row_mid = dist[mid]
            for v in range(n):
                alt = via + row_mid[v]
                if alt < du[v]:
                    du[v] = alt
    for u in range(n):
        if dist[u][u] < 0:
            raise ConfigError(
                f"planted chronicle constraints are unsatisfiable within "
                f"[0, {horizon}]"
            )
    return dist


def _sample_occurrence(
    chronicle: Chronicle, dist: list[list[float]], rng: random.Random
) -> list[Event]:
    """Sample item timestamps inside the tightened network, one at a time."""
    times: list[float] = []
    for k in range(len(chronicle.items)):
        node = k + 1
        lo = -dist[node][0]
        hi = dist[0][node]
        for placed, t in enumerate(times):
            other = placed + 1
            lo = max(lo, t - dist[node][other])
            hi = min(hi, t + dist[other][node])
        if lo > hi:  # float round-off on an exactly tight network
            lo = hi = (lo + hi) / 2.0
        times.append(rng.uniform(lo, hi))
    return [Event(etype, t) for etype, t in zip(chronicle.items, times)]


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> SequenceDataset:
    """Generate a labeled dataset per the spec; identical seeds give
    identical datasets."""
    rng = random.Random(seed)
    networks = [
        (p, _tightened_bounds(p.chronicle, spec.horizon)) for p in spec.patterns
    ]
    sequences = []
    width = max(5, len(str(max(spec.n_pos, spec.n_neg, 1))))
    for label, count, prefix in ((POSITIVE, spec.n_pos, "p"), (NEGATIVE, spec.n_neg, "n")):
        for i in range(count):
            events: list[Event] = []
            for pattern, dist in networks:
                p = pattern.p_pos if label == POSITIVE else pattern.p_neg
                if rng.random() < p:
                    events.extend(_sample_occurrence(pattern.chronicle, dist, rng))
            for _ in range(spec.noise_events):
                events.append(
                    Event(rng.choice(spec.noise_types), rng.uniform(0.0, spec.horizon))
                )
            sequences.append(
                Sequence(sid=f"{prefix}{i:0{width}d}", events=tuple(events), label=label)
            )
    alphabet = set(spec.noise_types)
    for pattern in spec.patterns:
        alphabet.update(pattern.chronicle.items)
    return SequenceDataset.from_sequences(sequences, alphabet=alphabet)


def load_spec_json(path) -> SyntheticSpec:
    """Read a generator spec from JSON.

    Shape::

        {"n_pos": 200, "n_neg": 200, "horizon": 90,
         "noise_types": ["C", "D"], "noise_events": 3,
         "patterns": [{"chronicle": {"items": ["A", "B"],
                                     "constraints": [{"from": 0, "to": 1,
                                                      "lower": 10, "upper": 20}]},
                       "p_pos": 0.8, "p_neg": 0.05}]}

    The counts are JSON integers, ``p_pos``, ``p_neg`` and ``horizon``
    numbers and ``noise_types`` a list of strings; anything else is an
    ``InputError``, and so is an integer beyond the float range where a
    number is read.  A value out of its range is a ``ConfigError``.
    """
    data = load_json(path)
    try:
        if not isinstance(data, dict):
            raise TypeError(f"a spec must be a JSON object, got {data!r}")
        noise_types = data.get("noise_types", [])
        if not isinstance(noise_types, list) or not all(isinstance(t, str) for t in noise_types):
            raise TypeError(f"noise_types must be a list of strings, got {noise_types!r}")
        patterns = tuple(
            PlantedPattern(
                chronicle=chronicle_from_obj(p["chronicle"]),
                p_pos=json_number(p["p_pos"], "p_pos"),
                p_neg=json_number(p["p_neg"], "p_neg"),
            )
            for p in data.get("patterns", [])
        )
        return SyntheticSpec(
            n_pos=json_number(data["n_pos"], "n_pos", int),
            n_neg=json_number(data["n_neg"], "n_neg", int),
            patterns=patterns,
            noise_types=tuple(noise_types),
            noise_events=json_number(data.get("noise_events", 0), "noise_events", int),
            horizon=json_number(data.get("horizon", 90.0), "horizon"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (InputError, ConfigError)):
            raise
        raise InputError(f"{path}: malformed generator spec ({exc})") from None
