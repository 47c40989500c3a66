import io
import json
import math

import pytest

from chronomine import (
    Chronicle,
    CrossoverConfig,
    Event,
    MinedChronicle,
    chronicle_from_obj,
    crossover_split,
    export,
    load_chronicles_json,
    load_csv,
    load_timeline_csv,
    render,
    save_dataset_csv,
)
from chronomine.errors import ConfigError, InputError
from chronomine.io import render_csv, render_dot, render_json

from conftest import REFERENCE_ROWS


#: (sid, event, timestamp) of a row each loader must reject, by test id.
BAD_FIELDS = {
    "nan-timestamp": ("s", "A", "nan"),
    "inf-timestamp": ("s", "A", "inf"),
    "minus-inf-timestamp": ("s", "A", "-inf"),
    "empty-sid": ("", "A", "1"),
    "empty-event-type": ("s", "", "1"),
}


#: Rows, after the header, of a file whose positives p0..p2 span
#: -1e308 to 1e308, a duration that overflows to inf; p3..p5 and the
#: negatives n0..n2 hold A at 0 and B at 5.
OVERFLOW_ROWS = [
    *(f"p{k},{e},{t}" for k in range(3) for e, t in (("A", "-1e308"), ("B", "1e308"))),
    *(f"{sid},{e},{t}" for sid in ("p3", "p4", "p5") for e, t in (("A", 0), ("B", 5))),
    *(f"{sid},{e},{t}" for sid in ("n0", "n1", "n2") for e, t in (("A", 0), ("B", 5))),
]


def overflow_csv(path):
    """A dataset CSV with the ``OVERFLOW_ROWS``, labeled by their sid."""
    rows = [f"{row},{'+' if row.startswith('p') else '-'}" for row in OVERFLOW_ROWS]
    path.write_text("\n".join(["sid,event,timestamp,label", *rows]) + "\n")
    return path


def write_reference_csv(path):
    lines = ["sid,event,timestamp,label"]
    for sid, events, label in REFERENCE_ROWS:
        for etype, t in events:
            lines.append(f"{sid},{etype},{t},{label}")
    path.write_text("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_reference_file(self, tmp_path, reference_dataset):
        path = tmp_path / "data.csv"
        write_reference_csv(path)
        ds = load_csv(path)
        assert len(ds.positives) == 3 and len(ds.negatives) == 3
        assert ds == reference_dataset

    def test_roundtrip_preserves_dataset(self, tmp_path, reference_dataset):
        path = tmp_path / "out.csv"
        save_dataset_csv(reference_dataset, path)
        assert load_csv(path) == reference_dataset

    def test_a_stream_gets_the_bytes_of_the_file(self, tmp_path, reference_dataset):
        path = tmp_path / "out.csv"
        save_dataset_csv(reference_dataset, path)
        stream = io.StringIO(newline="")
        save_dataset_csv(reference_dataset, stream)
        assert stream.getvalue().encode("utf-8") == path.read_bytes()

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("sid,event,timestamp,label\n")
        ds = load_csv(path)
        assert ds.sequences == ()

    def test_duplicate_rows_kept_as_distinct_events(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "sid,event,timestamp,label\ns,A,1,+\ns,A,1,+\n"
        )
        ds = load_csv(path)
        assert len(ds.positives[0].events) == 2

    def test_malformed_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sid,event,timestamp,label\ns,A,1,+\ns,A,xx,+\n")
        with pytest.raises(InputError, match=":3"):
            load_csv(path)

    def test_inconsistent_label_names_sid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sid,event,timestamp,label\ns7,A,1,+\ns7,B,2,-\n")
        with pytest.raises(InputError, match="s7"):
            load_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,event,time,label\n")
        with pytest.raises(InputError, match="header"):
            load_csv(path)

    @pytest.mark.parametrize("fields", BAD_FIELDS.values(), ids=BAD_FIELDS)
    def test_bad_row_reports_path_and_line(self, tmp_path, fields):
        path = tmp_path / "bad.csv"
        path.write_text("sid,event,timestamp,label\ns,A,1,+\n" + ",".join(fields) + ",+\n")
        with pytest.raises(InputError, match=r"bad\.csv:3: "):
            load_csv(path)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"sid,event,timestamp,label\ns,caf\xe9,1,+\n")
        with pytest.raises(InputError, match=r"latin1\.csv: not UTF-8 text \(byte 0xe9"):
            load_csv(path)

    def test_blank_rows_skipped_and_field_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sid,event,timestamp,label\n\ns,A,1,+\n\ns,A,1\n")
        with pytest.raises(InputError, match=r"bad\.csv:5: expected 4 fields, got 3"):
            load_csv(path)

    def test_span_beyond_the_float_range_names_the_file_and_sid(self, tmp_path):
        path = overflow_csv(tmp_path / "overflow.csv")
        with pytest.raises(InputError, match=r"overflow\.csv: sequence 'p0' spans .* not a finite"):
            load_csv(path)


class TestLoadTimelineCsv:
    def test_rows_grouped_by_sid(self, tmp_path):
        path = tmp_path / "timeline.csv"
        path.write_text("sid,event,timestamp\na,X,5\nb,D,1\na,D,2\n")
        timelines = load_timeline_csv(path)
        assert timelines == {"a": [Event("X", 5), Event("D", 2)], "b": [Event("D", 1)]}

    @pytest.mark.parametrize("fields", BAD_FIELDS.values(), ids=BAD_FIELDS)
    def test_bad_row_reports_path_and_line(self, tmp_path, fields):
        path = tmp_path / "bad.csv"
        path.write_text("sid,event,timestamp\ns,A,1\n" + ",".join(fields) + "\n")
        with pytest.raises(InputError, match=r"bad\.csv:3: "):
            load_timeline_csv(path)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"sid,event,timestamp\ns,\xff,1\n")
        with pytest.raises(InputError, match=r"bad\.csv: not UTF-8 text"):
            load_timeline_csv(path)

    def test_span_beyond_the_float_range_names_the_file_and_sid(self, tmp_path):
        path = tmp_path / "overflow.csv"
        path.write_text("\n".join(["sid,event,timestamp", *OVERFLOW_ROWS]) + "\n")
        with pytest.raises(InputError, match=r"overflow\.csv: sequence 'p0' spans .* not a finite"):
            load_timeline_csv(path)

    @pytest.mark.parametrize("header", ["sid,event", "sid,event,timestamp,label"])
    def test_wrong_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n")
        with pytest.raises(InputError, match="expected header 'sid,event,timestamp'"):
            load_timeline_csv(path)

    def test_blank_rows_skipped_and_field_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sid,event,timestamp\n\na,X,5\n\na,X\n")
        with pytest.raises(InputError, match=r"bad\.csv:5: expected 3 fields, got 2"):
            load_timeline_csv(path)


class TestRender:
    @pytest.fixture()
    def translated_result(self):
        chronicle = Chronicle.build(
            ("A", "B", "C"), [(0, 1, -math.inf, 5), (1, 2, -math.inf, 2)]
        )
        return MinedChronicle(chronicle, 3, 1)

    def test_json_encodes_infinite_bounds_as_null(self, translated_result):
        data = json.loads(render_json([translated_result]))
        assert data[0]["constraints"] == [
            {"from": 0, "to": 1, "lower": None, "upper": 5.0},
            {"from": 1, "to": 2, "lower": None, "upper": 2.0},
        ]
        assert data[0]["supp_pos"] == 3

    def test_json_infinite_growth_is_null(self):
        m = MinedChronicle(Chronicle.unconstrained(("A", "B")), 2, 0)
        data = json.loads(render_json([m]))
        assert data[0]["growth"] is None

    def test_empty_results_render_as_empty_array(self):
        assert json.loads(render_json([])) == []
        assert render([], "json") == "[]"

    def test_csv_renders_one_row_per_chronicle(self, translated_result):
        text = render_csv([translated_result])
        lines = text.strip().splitlines()
        assert lines[0] == "items,constraints,supp_pos,supp_neg,growth"
        # the constraints field holds commas, so the csv writer quotes it
        assert lines[1] == 'A|B|C,"0->1:[-inf,5];1->2:[-inf,2]",3,1,3'

    def test_dot_counts_nodes_and_edges(self, five_item_chronicle):
        mined = MinedChronicle(five_item_chronicle, 2, 1)
        text = render_dot([mined])
        assert text.count("[label=") == 5 + 5  # 5 nodes + 5 constraint edges
        assert "e2 -> e3" in text

    def test_dot_escapes_quotes_and_backslashes_in_labels(self):
        mined = MinedChronicle(Chronicle.unconstrained(('a"b', "c\\")), 2, 1)
        text = render_dot([mined])
        assert 'e0 [label="a\\"b"];' in text
        assert 'e1 [label="c\\\\"];' in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            render([], "yaml")

    @pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
    def test_export_writes_the_rendering_to_a_path_or_a_stream(
        self, translated_result, tmp_path, fmt
    ):
        path = tmp_path / f"out.{fmt}"
        export([translated_result], fmt, path)
        stream = io.StringIO(newline="")
        export([translated_result], fmt, stream)
        text = render([translated_result], fmt)
        assert path.read_bytes() == stream.getvalue().encode("utf-8") == text.encode("utf-8")


class TestChronicleJson:
    def test_roundtrip(self, five_item_chronicle, tmp_path):
        mined = MinedChronicle(five_item_chronicle, 2, 1)
        path = tmp_path / "c.json"
        path.write_text(render_json([mined]))
        (parsed,) = load_chronicles_json(path)
        assert parsed == five_item_chronicle

    def test_single_object_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"items": ["A", "B"], "constraints": []}))
        (parsed,) = load_chronicles_json(path)
        assert parsed == Chronicle.unconstrained(("A", "B"))

    def test_malformed_object_rejected(self):
        with pytest.raises(InputError):
            chronicle_from_obj({"constraints": []})
        with pytest.raises(InputError):
            chronicle_from_obj({"items": ["B", "A"]})

    @pytest.mark.parametrize("items", ["AB", ["A", 1], {"A": 1}, None])
    def test_items_must_be_a_list_of_strings(self, items):
        with pytest.raises(InputError, match="items must be a list of strings"):
            chronicle_from_obj({"items": items})

    @pytest.mark.parametrize("position", [1.7, 1.0, "1", True, None])
    def test_positions_must_be_integers(self, position):
        constraint = {"from": 0, "to": position, "lower": 1, "upper": 2}
        with pytest.raises(InputError, match="item position must be an integer"):
            chronicle_from_obj({"items": ["A", "B"], "constraints": [constraint]})

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    @pytest.mark.parametrize("value", [math.nan])
    def test_nan_bound_rejected(self, bound, value):
        constraint = {"from": 0, "to": 1, bound: value}
        with pytest.raises(InputError, match="NaN bound"):
            chronicle_from_obj({"items": ["A", "B"], "constraints": [constraint]})

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    @pytest.mark.parametrize("value", [True, "7", "inf", "nan"])
    def test_bound_must_be_a_number(self, bound, value):
        constraint = {"from": 0, "to": 1, bound: value}
        with pytest.raises(InputError, match="a bound must be null or a number"):
            chronicle_from_obj({"items": ["A", "B"], "constraints": [constraint]})

    def test_integer_bound_beyond_float_range_rejected(self):
        constraint = {"from": 0, "to": 1, "upper": 10**400}
        with pytest.raises(InputError, match="out of range"):
            chronicle_from_obj({"items": ["A", "B"], "constraints": [constraint]})

    def test_error_names_the_file_and_the_chronicle_index(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"items": ["A", "B"]}, {"items": "AB"}]))
        with pytest.raises(InputError, match=r"c\.json: chronicle 1: malformed"):
            load_chronicles_json(path)
        path.write_text(json.dumps({"items": ["B", "A"]}))
        with pytest.raises(InputError, match=r"c\.json: invalid chronicle"):
            load_chronicles_json(path)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"items": ["\xff"]}')
        with pytest.raises(InputError, match=r"c\.json: not UTF-8 text"):
            load_chronicles_json(path)


class TestCrossover:
    def test_window_arithmetic(self):
        cfg = CrossoverConfig(outcome="SEIZURE", gap=3, window=90)
        timeline = {
            "pat": [
                Event("SEIZURE", 200),
                Event("DRUG", 107),  # first instant inside the positive window
                Event("DRUG", 196.5),
                Event("DRUG", 106.9),  # last instant inside the negative window
                Event("DRUG", 17),
                Event("DRUG", 16.9),  # before both windows
                Event("DRUG", 197),  # at t0 - gap: excluded (half-open)
            ]
        }
        ds = crossover_split(timeline, cfg)
        (pos,) = ds.positives
        (neg,) = ds.negatives
        assert pos.sid == "pat+" and neg.sid == "pat-"
        assert sorted(e.timestamp for e in pos.events) == [107.0, 196.5]
        assert sorted(e.timestamp for e in neg.events) == [17.0, 106.9]

    def test_first_outcome_anchors_windows(self):
        cfg = CrossoverConfig(outcome="X", gap=0, window=10)
        timeline = {"p": [Event("X", 50), Event("X", 100), Event("A", 45)]}
        ds = crossover_split(timeline, cfg)
        assert [e.timestamp for e in ds.positives[0].events] == [45.0]

    def test_two_patients_give_two_pairs(self):
        cfg = CrossoverConfig(outcome="X", gap=1, window=5)
        timelines = {
            "a": [Event("X", 10), Event("E", 6)],
            "b": [Event("X", 20), Event("E", 16)],
        }
        ds = crossover_split(timelines, cfg)
        assert len(ds.positives) == 2 and len(ds.negatives) == 2

    def test_patient_without_outcome_skipped_with_warning(self):
        cfg = CrossoverConfig(outcome="X", gap=1, window=5)
        timelines = {"a": [Event("X", 10)], "b": [Event("E", 3)]}
        with pytest.warns(UserWarning, match="'b'"):
            ds = crossover_split(timelines, cfg)
        assert len(ds.positives) == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            CrossoverConfig(outcome="X", gap=-1)
        with pytest.raises(ConfigError):
            CrossoverConfig(outcome="X", window=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["gap", "window"])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            CrossoverConfig(outcome="X", **{name: value})
