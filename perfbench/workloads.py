"""The benchmark's workloads: generator specs, mining configs and seeds.

Each workload keeps the shape of one ROADMAP workload and is resized so
that one mining job takes seconds, not minutes (see README.md):

* ``planted``: criterion 6's spec, 20 datasets per job, so fixed
  per-dataset costs count.  The only workload whose recovery rate can miss.
* ``sparse``: criterion 8's spec at 200+200 sequences, 6 datasets per job.
  100 types and about 15 events per sequence, so the matcher rejects most
  sequences it scans and rescoring dominates.
* ``dense``: 4 noise types repeated 16 times per sequence, so every
  sequence holds every type, the matcher backtracks deeply, tables are
  large and about half of them hit the occurrence cap.  The learner-heavy
  workload.
* ``sparse-2proc``: ``sparse`` with ``CHRONOMINE_THREADS=2``, the only
  workload that runs the pipeline's process pool.

``--seed n`` selects entry ``n mod SEED_TABLE_SIZE`` of a fixed seed table,
so every run has a recorded reference output.
"""

from __future__ import annotations

from dataclasses import dataclass

from chronomine import Chronicle, DcmConfig, PlantedPattern, SyntheticSpec

#: Reference outputs are recorded for this many seeds per workload.
SEED_TABLE_SIZE = 25
#: Recorded like the others, but kept out of tuning: a claimed gain is
#: re-checked on this seed after it was measured on the others.
HELD_OUT_SEED = 24


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    config: DcmConfig
    #: Dataset seed that ``--seed 0`` mines first.
    base_seed: int
    #: Datasets mined by one job; their mining times are summed.
    datasets: int = 1
    #: Value of ``CHRONOMINE_THREADS`` during mining.
    threads: int = 1
    #: Workload whose recorded reference outputs this one must reproduce.
    reference: str = ""

    def dataset_seeds(self, seed: int) -> range:
        first = self.base_seed + (seed % SEED_TABLE_SIZE) * self.datasets
        return range(first, first + self.datasets)

    @property
    def reference_name(self) -> str:
        return self.reference or self.name


def _pattern(items, constraints, p_pos, p_neg) -> PlantedPattern:
    return PlantedPattern(Chronicle.build(items, constraints), p_pos, p_neg)


_PLANTED = SyntheticSpec(
    n_pos=200,
    n_neg=200,
    patterns=(_pattern(("A", "B"), [(0, 1, 10, 20)], 0.8, 0.05),),
    noise_types=("N1", "N2", "N3", "N4", "N5"),
    noise_events=3,
    horizon=90.0,
)

_SPARSE = SyntheticSpec(
    n_pos=200,
    n_neg=200,
    patterns=(
        _pattern(("A", "B"), [(0, 1, 10, 20)], 0.5, 0.02),
        _pattern(("A", "B"), [(0, 1, 30, 60)], 0.0, 0.4),
    ),
    noise_types=tuple(f"T{i:02d}" for i in range(98)),
    noise_events=14,
    horizon=90.0,
)

_DENSE = SyntheticSpec(
    n_pos=70,
    n_neg=70,
    patterns=(
        _pattern(("A", "B", "B"), [(0, 1, 5, 15), (1, 2, 5, 15)], 0.8, 0.1),
        _pattern(("A", "A", "C"), [(0, 1, 0, 10), (1, 2, 20, 40)], 0.1, 0.7),
    ),
    noise_types=("C", "D", "E", "F"),
    noise_events=16,
    horizon=90.0,
)

# g_min 2 where criterion 8 uses 1.4: at 200+200 sequences the share of
# positives over negatives holding A is 1.19 +- 0.15, so with 1.4 whether
# the (A, X) multisets take the shortcut or learn depends on the seed, and
# mining time varied by 20% (interquartile range) from seed to seed.
_SPARSE_CONFIG = DcmConfig(sigma_min=0.04, g_min=2.0)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "planted",
            _PLANTED,
            DcmConfig(sigma_min=0.05, g_min=2.0),
            base_seed=0,
            datasets=20,
        ),
        Workload("sparse", _SPARSE, _SPARSE_CONFIG, base_seed=2024, datasets=6),
        Workload(
            "dense",
            _DENSE,
            DcmConfig(sigma_min=0.1, g_min=2.0, max_size=4, occurrence_cap=200),
            base_seed=1,
        ),
        Workload(
            "sparse-2proc",
            _SPARSE,
            _SPARSE_CONFIG,
            base_seed=2024,
            datasets=6,
            threads=2,
            reference="sparse",
        ),
    )
}


def recovers(workload: Workload, results) -> bool:
    """Criterion 6's predicate, for every pattern planted mostly in positives.

    A pattern is recovered when some emitted chronicle has its items, growth
    rate >= g_min, and on each planted constraint's pair bounds that overlap
    the planted interval.
    """
    wanted = [p.chronicle for p in workload.spec.patterns if p.p_pos > p.p_neg]
    return all(
        any(
            mined.chronicle.items == planted.items
            and mined.growth_rate >= workload.config.g_min
            and all(
                _overlaps(mined.chronicle.bounds(tc.from_index, tc.to_index), tc.interval)
                for tc in planted.constraints
            )
            for mined in results
        )
        for planted in wanted
    )


def _overlaps(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and a[1] >= b[0]
