import json
import math

import pytest

from chronomine import (
    Chronicle,
    PlantedPattern,
    SyntheticSpec,
    generate_synthetic,
    growth_rate,
    load_spec_json,
    occurs,
    support,
)
from chronomine.errors import ConfigError, InputError


def simple_spec(**overrides):
    defaults = dict(
        n_pos=60,
        n_neg=60,
        patterns=(
            PlantedPattern(Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), 0.8, 0.05),
        ),
        noise_types=("N1", "N2", "N3"),
        noise_events=3,
        horizon=90.0,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


class TestGenerate:
    def test_seed_determinism(self):
        spec = simple_spec()
        assert generate_synthetic(spec, seed=5) == generate_synthetic(spec, seed=5)

    def test_different_seeds_differ(self):
        spec = simple_spec()
        assert generate_synthetic(spec, seed=5) != generate_synthetic(spec, seed=6)

    def test_planted_pattern_is_measurably_discriminant(self):
        spec = simple_spec(n_pos=200, n_neg=200)
        ds = generate_synthetic(spec, seed=1)
        planted = spec.patterns[0].chronicle
        sp = support(planted, ds.positives)
        sn = support(planted, ds.negatives)
        assert growth_rate(sp, sn) > 2.0
        assert sp >= 0.6 * 200

    def test_equal_probabilities_give_balanced_supports(self):
        spec = simple_spec(
            n_pos=150,
            n_neg=150,
            patterns=(
                PlantedPattern(
                    Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), 0.5, 0.5
                ),
            ),
        )
        ds = generate_synthetic(spec, seed=9)
        planted = spec.patterns[0].chronicle
        g = growth_rate(support(planted, ds.positives), support(planted, ds.negatives))
        assert 0.6 < g < 1.7

    def test_pure_pattern_without_noise_has_infinite_growth(self):
        spec = simple_spec(noise_events=0, noise_types=(), n_pos=30, n_neg=30)
        spec = SyntheticSpec(
            n_pos=30,
            n_neg=30,
            patterns=(
                PlantedPattern(
                    Chronicle.build(("A", "B"), [(0, 1, 10, 20)]), 1.0, 0.0
                ),
            ),
            noise_types=(),
            noise_events=0,
            horizon=90.0,
        )
        ds = generate_synthetic(spec, seed=3)
        planted = spec.patterns[0].chronicle
        assert support(planted, ds.positives) == 30
        assert support(planted, ds.negatives) == 0
        assert growth_rate(30, 0) == math.inf

    def test_every_planted_sequence_contains_an_occurrence(self):
        spec = simple_spec(n_pos=40, n_neg=0, noise_events=0, noise_types=())
        spec = SyntheticSpec(
            n_pos=40,
            n_neg=0,
            patterns=(
                PlantedPattern(
                    Chronicle.build(
                        ("A", "B", "C"), [(0, 1, 5, 8), (1, 2, -3, -1)]
                    ),
                    1.0,
                    0.0,
                ),
            ),
            noise_types=(),
            noise_events=0,
            horizon=50.0,
        )
        ds = generate_synthetic(spec, seed=12)
        planted = spec.patterns[0].chronicle
        assert all(occurs(planted, s) for s in ds.positives)

    def test_infeasible_constraints_rejected(self):
        # t_B - t_A must equal both 5 and 0 via the chain through C
        chronicle = Chronicle.build(
            ("A", "B", "C"), [(0, 1, 5, 5), (0, 2, 0, 0), (1, 2, 0, 0)]
        )
        spec = SyntheticSpec(
            n_pos=1,
            n_neg=0,
            patterns=(PlantedPattern(chronicle, 1.0, 0.0),),
            horizon=90.0,
        )
        with pytest.raises(ConfigError, match="unsatisfiable"):
            generate_synthetic(spec, seed=0)

    def test_constraints_wider_than_horizon_rejected(self):
        chronicle = Chronicle.build(("A", "B"), [(0, 1, 200, 300)])
        spec = SyntheticSpec(
            n_pos=1,
            n_neg=0,
            patterns=(PlantedPattern(chronicle, 1.0, 0.0),),
            horizon=90.0,
        )
        with pytest.raises(ConfigError, match="unsatisfiable"):
            generate_synthetic(spec, seed=0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ConfigError, match="horizon must be finite"):
            simple_spec(horizon=horizon)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            PlantedPattern(Chronicle.unconstrained(("A",)), 1.5, 0.0)

    def test_noise_needs_alphabet(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_pos=1, n_neg=1, patterns=(), noise_events=3)


class TestSpecJson:
    def test_loads_full_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "n_pos": 10,
                    "n_neg": 20,
                    "horizon": 45,
                    "noise_types": ["X", "Y"],
                    "noise_events": 2,
                    "patterns": [
                        {
                            "chronicle": {
                                "items": ["A", "B"],
                                "constraints": [
                                    {"from": 0, "to": 1, "lower": 1, "upper": None}
                                ],
                            },
                            "p_pos": 0.9,
                            "p_neg": 0.1,
                        }
                    ],
                }
            )
        )
        spec = load_spec_json(path)
        assert spec.n_pos == 10 and spec.n_neg == 20
        assert spec.patterns[0].chronicle.bounds(0, 1) == (1.0, math.inf)
        ds = generate_synthetic(spec, seed=0)
        assert len(ds.positives) == 10 and len(ds.negatives) == 20

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_pos": 10}))
        with pytest.raises(InputError):
            load_spec_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(InputError):
            load_spec_json(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_pos": 1e999, "n_neg": 3}',
            "[1, 2]",
            '"x"',
            "null",
            '{"n_pos": 2.5, "n_neg": 3}',
            '{"n_pos": true, "n_neg": 3}',
            '{"n_pos": "4", "n_neg": 3}',
            '{"n_pos": 3, "n_neg": 3.0}',
            '{"n_pos": 3, "n_neg": 3, "noise_events": 1.5, "noise_types": ["C"]}',
            '{"n_pos": 3, "n_neg": 3, "noise_events": 1, "noise_types": "CD"}',
            '{"n_pos": 3, "n_neg": 3, "noise_types": ["C", 4]}',
            '{"n_pos": 3, "n_neg": 3, "horizon": "90"}',
            '{"n_pos": 3, "n_neg": 3, "horizon": null}',
            '{"n_pos": 3, "n_neg": 3, "horizon": 1' + "0" * 400 + "}",
            '{"n_pos": 3, "n_neg": 3, "patterns": [{"chronicle": {"items": ["A"]},'
            ' "p_pos": "1", "p_neg": 0}]}',
            '{"n_pos": 3, "n_neg": 3, "patterns": [{"chronicle": {"items": ["A"]},'
            ' "p_pos": 1, "p_neg": false}]}',
        ],
    )
    def test_malformed_values_rejected(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(InputError, match="malformed generator spec"):
            load_spec_json(path)

    def test_infinite_horizon_is_a_config_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n_pos": 3, "n_neg": 3, "horizon": 1e999}')
        with pytest.raises(ConfigError, match="horizon must be finite"):
            load_spec_json(path)

    def test_integer_probabilities_and_horizon_load_as_floats(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"n_pos": 3, "n_neg": 0, "horizon": 30, "patterns": '
            '[{"chronicle": {"items": ["A", "B"]}, "p_pos": 1, "p_neg": 0}]}'
        )
        spec = load_spec_json(path)
        assert spec.horizon == 30.0 and spec.patterns[0].p_pos == 1.0
