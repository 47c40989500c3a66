import json
import math
import sys

import pytest

from chronomine import generate_synthetic, load_spec_json, save_dataset_csv
from chronomine.cli import main

from test_io import overflow_csv, write_reference_csv

SPEC = {
    "n_pos": 40,
    "n_neg": 40,
    "horizon": 90,
    "noise_types": ["C", "D", "E"],
    "noise_events": 3,
    "patterns": [
        {
            "chronicle": {
                "items": ["A", "B"],
                "constraints": [{"from": 0, "to": 1, "lower": 10, "upper": 20}],
            },
            "p_pos": 0.9,
            "p_neg": 0.05,
        }
    ],
}


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_reference_csv(path)
    return path


class TestMine:
    def test_json_output(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(
            [
                "mine",
                "--input",
                str(dataset_csv),
                "--min-support",
                "2",
                "--min-growth",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads(out.read_text())
        assert isinstance(results, list)
        assert "discriminant chronicles" in capsys.readouterr().err

    def test_empty_result_still_succeeds(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text(
            "sid,event,timestamp,label\np,A,1,+\np,B,2,+\nn,A,1,-\nn,B,2,-\n"
        )
        code = main(["mine", "--input", str(path), "--min-support", "1", "--min-growth", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_dot_format(self, dataset_csv, capsys):
        code = main(
            ["mine", "--input", str(dataset_csv), "--min-support", "2", "--format", "dot"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert text == "" or text.startswith("digraph")

    def test_min_size_one_succeeds(self, dataset_csv, capsys):
        code = main(
            ["mine", "--input", str(dataset_csv), "--min-support", "1", "--min-size", "1"]
        )
        assert code == 0
        items = [tuple(r["items"]) for r in json.loads(capsys.readouterr().out)]
        assert ("D",) in items

    def test_missing_input_is_exit_1(self, tmp_path):
        assert main(["mine", "--input", str(tmp_path / "nope.csv")]) == 1

    def test_directory_as_input_or_output_is_exit_1(self, dataset_csv, tmp_path, capsys):
        assert main(["mine", "--input", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["mine", "--input", str(dataset_csv), "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_input_that_is_not_utf8_is_exit_1_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"sid,event,timestamp,label\ns,caf\xe9,1,+\n")
        assert main(["mine", "--input", str(path)]) == 1
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_durations_that_overflow_are_exit_1_naming_the_file(self, tmp_path, capsys):
        # loaded, this input gave (A, B) with bounds [null, null] and
        # supports 3/0 that rescoring made 6/3
        path = overflow_csv(tmp_path / "overflow.csv")
        argv = ["mine", "--input", str(path), "--min-support", "2", "--min-growth", "3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: sequence 'p0'")
        assert "Traceback" not in err

    def test_strict_growth_flag_is_gone(self, dataset_csv, capsys):
        with pytest.raises(SystemExit):
            main(["mine", "--help"])
        assert "--strict-growth" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", str(dataset_csv), "--strict-growth"])
        assert exc.value.code == 2

    def test_bad_growth_is_exit_2(self, dataset_csv):
        assert main(["mine", "--input", str(dataset_csv), "--min-growth", "0.5"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--min-support", "--min-growth"])
    def test_non_finite_threshold_is_exit_2(self, dataset_csv, capsys, flag, value):
        assert main(["mine", "--input", str(dataset_csv), f"{flag}={value}"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_bad_size_bounds_is_exit_2(self, dataset_csv):
        assert (
            main(
                [
                    "mine",
                    "--input",
                    str(dataset_csv),
                    "--min-size",
                    "3",
                    "--max-size",
                    "2",
                ]
            )
            == 2
        )


class TestGenerateAndMatch:
    def test_generate_then_mine_then_match(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        data_path = tmp_path / "data.csv"
        assert (
            main(
                ["generate", "--spec", str(spec_path), "--seed", "3", "--output", str(data_path)]
            )
            == 0
        )
        assert data_path.read_text().startswith("sid,event,timestamp,label")

        out_path = tmp_path / "mined.json"
        assert (
            main(
                [
                    "mine",
                    "--input",
                    str(data_path),
                    "--min-support",
                    "0.1",
                    "--min-growth",
                    "2",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        mined = json.loads(out_path.read_text())
        assert mined

        assert main(["match", str(out_path), "--input", str(data_path)]) == 0
        matched = json.loads(capsys.readouterr().out)
        assert [m["items"] for m in matched] == [m["items"] for m in mined]
        # supports reported by match agree with the miner's annotations
        assert [(m["supp_pos"], m["supp_neg"]) for m in matched] == [
            (m["supp_pos"], m["supp_neg"]) for m in mined
        ]

    def test_generate_to_stdout(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        assert main(["generate", "--spec", str(spec_path)]) == 0
        assert capsys.readouterr().out.startswith("sid,event,timestamp,label")

    def test_generate_stdout_is_the_csv_file_byte_for_byte(self, tmp_path, capfdbinary):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        file_path = tmp_path / "data.csv"
        save_dataset_csv(generate_synthetic(load_spec_json(spec_path), seed=5), file_path)
        assert main(["generate", "--spec", str(spec_path), "--seed", "5"]) == 0
        sys.stdout.flush()
        assert capfdbinary.readouterr().out == file_path.read_bytes()

    def test_bad_spec_is_exit_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{")
        assert main(["generate", "--spec", str(spec_path)]) == 1

    @pytest.mark.parametrize("text", ["[1, 2]", '{"n_pos": 1e999, "n_neg": 3}'])
    def test_malformed_spec_values_are_exit_1(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        assert main(["generate", "--spec", str(spec_path)]) == 1
        assert f"error: {spec_path}: malformed generator spec" in capsys.readouterr().err

    def test_malformed_chronicle_json_is_exit_1(self, dataset_csv, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"items": ["A", "B"]}, {"items": "AB"}]))
        assert main(["match", str(path), "--input", str(dataset_csv)]) == 1
        assert f"error: {path}: chronicle 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_is_exit_2(self, tmp_path, capsys, horizon):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC, "horizon": horizon}))
        assert main(["generate", "--spec", str(spec_path)]) == 2
        assert "horizon must be finite" in capsys.readouterr().err

    def test_infeasible_spec_is_exit_2(self, tmp_path):
        bad = dict(SPEC)
        bad["patterns"] = [
            {
                "chronicle": {
                    "items": ["A", "B"],
                    "constraints": [{"from": 0, "to": 1, "lower": 500, "upper": 600}],
                },
                "p_pos": 1.0,
                "p_neg": 0.0,
            }
        ]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(bad))
        assert main(["generate", "--spec", str(spec_path)]) == 2


class TestCrossover:
    def test_windows_to_dataset(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.csv"
        timeline.write_text(
            "sid,event,timestamp\n"
            "pat1,SEIZ,200\npat1,DRUG,150\npat1,DRUG,50\n"
            "pat2,SEIZ,300\npat2,DRUG,250\n"
        )
        code = main(
            [
                "crossover",
                "--input",
                str(timeline),
                "--outcome",
                "SEIZ",
                "--gap",
                "3",
                "--window",
                "90",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "sid,event,timestamp,label"
        body = [line.split(",") for line in out[1:]]
        assert ["pat1+", "DRUG", "150.0", "+"] in body
        assert ["pat1-", "DRUG", "50.0", "-"] in body
        assert ["pat2+", "DRUG", "250.0", "+"] in body

    def test_negative_gap_is_exit_2(self, tmp_path):
        timeline = tmp_path / "timeline.csv"
        timeline.write_text("sid,event,timestamp\np,X,10\n")
        assert (
            main(
                [
                    "crossover",
                    "--input",
                    str(timeline),
                    "--outcome",
                    "X",
                    "--gap",
                    "-1",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--gap", "--window"])
    def test_non_finite_window_is_exit_2(self, tmp_path, capsys, flag, value):
        timeline = tmp_path / "timeline.csv"
        timeline.write_text("sid,event,timestamp\np,X,10\n")
        args = ["crossover", "--input", str(timeline), "--outcome", "X", f"{flag}={value}"]
        assert main(args) == 2
        assert "must be finite" in capsys.readouterr().err
