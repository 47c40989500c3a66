"""Tests of the benchmark itself, on tiny variants of its workloads.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import bench
from chronomine import MinedChronicle
from spans import Tracer
from workloads import HELD_OUT_SEED, SEED_TABLE_SIZE, WORKLOADS

ROOT = bench.HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny(name: str):
    """The workload at a size that mines in well under a second."""
    w = WORKLOADS[name]
    n, sigma_min, datasets = {
        "planted": (40, 0.05, 2),
        "sparse": (40, 0.1, 1),
        "sparse-2proc": (40, 0.1, 1),
        "dense": (8, 0.5, 1),
    }[name]
    return replace(
        w,
        spec=replace(w.spec, n_pos=n, n_neg=n),
        config=replace(w.config, sigma_min=sigma_min),
        datasets=datasets,
    )


def mined(workload, tmp_path, tracer=None):
    datasets, _ = bench.load(bench.prepare(workload, 3, tmp_path))
    outputs, _ = bench.mine(workload, datasets, tracer)
    return datasets, outputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    result = bench.run(tiny(name), 0, 0.0, trace, tmp_path, references=None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.per_layer_units() if trace else bench.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == bench.END_TO_END
    assert per_layer == bench.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*end_to_end, *per_layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_tracing_does_not_change_the_output(tmp_path):
    workload = tiny("dense")
    _, plain = mined(workload, tmp_path)
    tracer = Tracer()
    _, traced = mined(workload, tmp_path, tracer)
    assert [bench.output_digest(o) for o in plain] == [bench.output_digest(o) for o in traced]
    assert tracer.counts["rules.tables"] > 0
    assert tracer.counts["matcher.cap_hits"] > 0
    assert tracer.counts["pipeline.chronicles"] == len(traced[0])


def test_the_process_pool_does_not_change_the_output(tmp_path):
    _, sequential = mined(tiny("sparse"), tmp_path)
    _, pooled = mined(tiny("sparse-2proc"), tmp_path)
    assert bench.output_digest(sequential[0]) == bench.output_digest(pooled[0])


def test_a_corrupted_or_failed_output_counts_as_failed(tmp_path):
    workload = tiny("sparse")
    datasets, outputs = mined(workload, tmp_path)
    good = outputs[0]
    tally = bench.Tally(workload, datasets, [bench.output_digest(good)])
    tally.check([good])
    assert (tally.attempted, tally.failed) == (1, 0)

    first = good[0]
    wrong = MinedChronicle(first.chronicle, first.supp_pos + 1, first.supp_neg)
    tally.check([[wrong, *good[1:]]])
    tally.check([RuntimeError("mining raised")])
    assert (tally.attempted, tally.failed) == (3, 2)
    assert not bench.is_sound(workload, datasets[0], [wrong])


def test_a_wrong_reference_fails_the_run(tmp_path):
    workload = tiny("planted")
    references = {str(s): "0" * 64 for s in workload.dataset_seeds(0)}
    result = bench.run(workload, 0, 0.0, False, tmp_path, references)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == workload.datasets


def test_every_seed_table_entry_has_a_reference():
    for workload in WORKLOADS.values():
        references = bench.load_references(workload)
        for seed in range(SEED_TABLE_SIZE):
            for dataset_seed in workload.dataset_seeds(seed):
                assert str(dataset_seed) in references
    assert 0 <= HELD_OUT_SEED < SEED_TABLE_SIZE


def test_seeds_select_a_table_entry():
    workload = WORKLOADS["planted"]
    assert workload.dataset_seeds(1) == workload.dataset_seeds(1 + SEED_TABLE_SIZE)
    assert set(workload.dataset_seeds(0)).isdisjoint(workload.dataset_seeds(1))


def test_closed_loop_runs_at_least_one_job():
    calls = []
    assert bench.closed_loop(0.0, lambda: calls.append(1) or 0.5) == [0.5]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
