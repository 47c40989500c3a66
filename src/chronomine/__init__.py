"""chronomine: discriminant chronicle mining for labeled event sequences.

A chronicle is a multiset of event types tied together by interval
constraints on pairwise inter-event durations.  This package mines
chronicles that occur disproportionately often in positively labeled
sequences: frequent multisets are extracted first, and multisets that are
not discriminant on their own get discriminant temporal constraints
induced from their occurrence durations.
"""

from .errors import ConfigError, InputError
from .io import (
    CrossoverConfig,
    chronicle_from_obj,
    chronicle_to_obj,
    crossover_split,
    export,
    load_chronicles_json,
    load_csv,
    load_timeline_csv,
    render,
    save_dataset_csv,
)
from .itemsets import frequent_multisets
from .matcher import (
    DEFAULT_OCCURRENCE_CAP,
    Occurrence,
    OccurrenceCapWarning,
    enumerate_occurrences,
    occurs,
    support,
)
from .model import (
    NEGATIVE,
    POSITIVE,
    Chronicle,
    Event,
    MinedChronicle,
    Sequence,
    SequenceDataset,
    TemporalConstraint,
    growth_rate,
    is_discriminant,
    satisfies,
)
from .pipeline import DcmConfig, dcm
from .rules import (
    DurationTable,
    NumericalRule,
    build_duration_table,
    induce_rules,
    reevaluate,
    translate,
)
from .synth import PlantedPattern, SyntheticSpec, generate_synthetic, load_spec_json

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "InputError",
    "CrossoverConfig",
    "chronicle_from_obj",
    "chronicle_to_obj",
    "crossover_split",
    "export",
    "load_chronicles_json",
    "load_csv",
    "load_timeline_csv",
    "render",
    "save_dataset_csv",
    "frequent_multisets",
    "DEFAULT_OCCURRENCE_CAP",
    "Occurrence",
    "OccurrenceCapWarning",
    "enumerate_occurrences",
    "occurs",
    "support",
    "NEGATIVE",
    "POSITIVE",
    "Chronicle",
    "Event",
    "MinedChronicle",
    "Sequence",
    "SequenceDataset",
    "TemporalConstraint",
    "growth_rate",
    "is_discriminant",
    "satisfies",
    "DcmConfig",
    "dcm",
    "DurationTable",
    "NumericalRule",
    "build_duration_table",
    "induce_rules",
    "reevaluate",
    "translate",
    "PlantedPattern",
    "SyntheticSpec",
    "generate_synthetic",
    "load_spec_json",
    "__version__",
]
