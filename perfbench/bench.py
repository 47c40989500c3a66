"""Run one workload of the chronomine benchmark and report its metrics.

A run generates the workload's datasets from the seed and writes them as
CSV (untimed), loads them with ``io.load_csv`` several times (``setup_s``),
then mines them with ``dcm`` in a closed loop from this one process: one
job at a time, each starting after the previous one ended, until the run's
seconds are used up.  After every job, outside the timed region, each
output is rendered as JSON and checked against the recorded reference hash
and by re-scoring a fixed sample of its chronicles with the matcher.

With tracing on, the run mines once untraced, then mines traced jobs and
reports per-layer self times and counts instead of the end-to-end metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chronomine import (
    OccurrenceCapWarning,
    dcm,
    generate_synthetic,
    growth_rate,
    is_discriminant,
    load_csv,
    render,
    save_dataset_csv,
    support,
)
from chronomine.pipeline import THREADS_ENV_VAR

from spans import LAYERS, ROOT, Tracer, instrument
from workloads import SEED_TABLE_SIZE, WORKLOADS, Workload, recovers

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"

#: Loads timed per run, and the least time they take together; ``setup_s``
#: is their median.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
#: Chronicles per output re-scored from scratch by the matcher.
SOUNDNESS_SAMPLE = 8

END_TO_END = {
    "mine_s": "s",
    "setup_s": "s",
    "sequences_per_s": "1/s",
    "peak_rss_mb": "MB",
    "recovery_rate": "fraction",
}
COUNTS = (
    "itemsets.frequent_itemsets",
    "itemsets.multisets",
    "pipeline.shortcut",
    "pipeline.learned",
    "pipeline.chronicles",
    "pipeline.duplicates",
    "rules.tables",
    "rules.table_rows",
    "rules.table_rows_max",
    "rules.tables_truncated",
    "rules.rules_induced",
    "rules.rules_kept",
    "matcher.support_calls",
    "matcher.sequences_scanned",
    "matcher.cap_hits",
    "io.events_loaded",
)
RATIOS = {
    "rules.keep_ratio": ("rules.rules_kept", "rules.rules_induced"),
    "matcher.hit_ratio": ("matcher.sequences_matched", "matcher.sequences_scanned"),
}
TRACE_TIMES = ("trace.mine_s", "trace.untraced_mine_s", "trace.overhead_s")
#: Metrics of layers that run inside pool workers, which a traced run of a
#: multi-process workload cannot see.
WORKER_SIDE_PREFIXES = (
    "rules.",
    "matcher.",
    "pipeline.shortcut",
    "pipeline.learned",
    "pipeline.duplicates",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, _, _ in LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}_share"] = "fraction"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "fraction" for name in RATIOS})
    units.update({name: "s" for name in TRACE_TIMES})
    units["trace.overhead_share"] = "fraction"
    return units


# ---------------------------------------------------------------------------
# preparing, loading, mining and checking


def prepare(workload: Workload, seed: int, work_dir: Path) -> list[tuple[int, Path]]:
    """Generate the run's datasets and write each as CSV (untimed)."""
    out = []
    for dataset_seed in workload.dataset_seeds(seed):
        path = work_dir / f"{workload.name}-{dataset_seed}.csv"
        save_dataset_csv(generate_synthetic(workload.spec, dataset_seed), path)
        out.append((dataset_seed, path))
    return out


def load(paths: list[tuple[int, Path]]) -> tuple[list, float]:
    """Load every CSV as ``chronomine mine`` does; returns (datasets, seconds)."""
    started = time.perf_counter()
    datasets = [load_csv(path) for _, path in paths]
    return datasets, time.perf_counter() - started


@contextmanager
def _threads(n: int):
    previous = os.environ.get(THREADS_ENV_VAR)
    os.environ[THREADS_ENV_VAR] = str(n)
    try:
        yield
    finally:
        if previous is None:
            del os.environ[THREADS_ENV_VAR]
        else:
            os.environ[THREADS_ENV_VAR] = previous


def mine(workload: Workload, datasets: list, tracer: Tracer | None = None):
    """Mine each dataset once; returns (outputs, seconds spent in ``dcm``).

    An output is the result list, or the exception ``dcm`` raised.
    """
    outputs = []
    elapsed = 0.0
    gc.collect()
    with (
        _threads(workload.threads),
        warnings.catch_warnings(record=tracer is not None) as caught,
        instrument(tracer) if tracer else nullcontext(),
    ):
        warnings.simplefilter("always" if tracer else "ignore", OccurrenceCapWarning)
        for dataset in datasets:
            started = time.perf_counter()
            try:
                with tracer.span(ROOT) if tracer else nullcontext():
                    output = dcm(dataset, workload.config)
            except Exception as exc:  # a job that raises is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                output = exc
            elapsed += time.perf_counter() - started
            outputs.append(output)
            if tracer and not isinstance(output, Exception):
                sigma = workload.config.resolve_sigma(len(dataset.positives))
                tracer.finish_call(output, sigma, workload.config.g_min)
    if tracer:
        tracer.counts["matcher.cap_hits"] += sum(
            issubclass(w.category, OccurrenceCapWarning) for w in caught
        )
    return outputs, elapsed


def output_digest(results) -> str:
    return hashlib.sha256(render(results, "json").encode("utf-8")).hexdigest()


def soundness_sample(results) -> list:
    """A fixed, evenly spaced sample of the output, first and last included."""
    n = len(results)
    if n <= SOUNDNESS_SAMPLE:
        return list(results)
    picks = sorted({round(k * (n - 1) / (SOUNDNESS_SAMPLE - 1)) for k in range(SOUNDNESS_SAMPLE)})
    return [results[i] for i in picks]


def is_sound(workload: Workload, dataset, results) -> bool:
    """Criterion 7 on the sample: supports recomputed by the matcher equal
    the reported ones, and the chronicle is discriminant with them."""
    sigma = workload.config.resolve_sigma(len(dataset.positives))
    for mined in soundness_sample(results):
        supp_pos = support(mined.chronicle, dataset.positives)
        supp_neg = support(mined.chronicle, dataset.negatives)
        if (supp_pos, supp_neg) != (mined.supp_pos, mined.supp_neg):
            return False
        if mined.growth_rate != growth_rate(supp_pos, supp_neg):
            return False
        if not is_discriminant(mined, sigma, workload.config.g_min):
            return False
    return True


def load_references(workload: Workload) -> dict[str, str]:
    path = REFERENCE_DIR / f"{workload.reference_name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one run


@dataclass
class Tally:
    """Checks of every job in a run, against references and each other."""

    workload: Workload
    datasets: list
    #: Reference digest per dataset; None skips the reference comparison.
    references: list
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)
    recovered: list = field(default_factory=list)

    def check(self, outputs) -> None:
        first = not self.digests
        for i, (dataset, output) in enumerate(zip(self.datasets, outputs)):
            self.attempted += 1
            if isinstance(output, Exception):
                self.failed += 1
                if first:
                    self.digests.append(None)
                    self.recovered.append(False)
                continue
            digest = output_digest(output)
            if first:
                self.digests.append(digest)
                self.recovered.append(recovers(self.workload, output))
            ok = digest == self.digests[i]
            ok &= self.references[i] is None or digest == self.references[i]
            ok &= is_sound(self.workload, dataset, output)
            if not ok:
                print(
                    f"perfbench: wrong output for {self.workload.name} dataset {i}",
                    file=sys.stderr,
                )
                self.failed += 1


def closed_loop(seconds: float, job) -> list[float]:
    """Run ``job`` back to back; stop before a job would overrun ``seconds``.

    At least one job runs.  Returns the mining seconds of each job.
    """
    mined: list[float] = []
    walls: list[float] = []
    started = time.perf_counter()
    while True:
        job_started = time.perf_counter()
        mined.append(job())
        walls.append(time.perf_counter() - job_started)
        if time.perf_counter() - started + min(walls) > seconds:
            return mined


def peak_rss_mb(workload: Workload) -> float:
    """Peak resident memory of this process plus, with a pool, each worker.

    ``ru_maxrss`` of the children is the largest reaped worker's peak, so
    the pool's share is that peak times the worker count.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.threads > 1:
        kib += workload.threads * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    references: dict[str, str] | None,
) -> dict:
    """One benchmark run; returns the object printed as the result line."""
    paths = prepare(workload, seed, work_dir)
    setup: list[float] = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_SECONDS:
        datasets, elapsed = load(paths)
        setup.append(elapsed)
    refs = [
        None if references is None else references.get(str(dataset_seed), "missing")
        for dataset_seed, _ in paths
    ]
    tally = Tally(workload, datasets, refs)

    def job(tracer: Tracer | None = None) -> float:
        outputs, elapsed = mine(workload, datasets, tracer)
        tally.check(outputs)
        return elapsed

    notes = []
    if not trace:
        times = closed_loop(seconds, job)
        mine_s = statistics.median(times)
        metrics = {
            "mine_s": mine_s,
            "setup_s": statistics.median(setup),
            "sequences_per_s": sum(len(d.sequences) for d in datasets) / mine_s,
            "peak_rss_mb": peak_rss_mb(workload),
            "recovery_rate": sum(tally.recovered) / len(tally.recovered),
        }
        units = END_TO_END
        notes.append(f"{len(times)} jobs of {len(datasets)} dataset(s); mine_s per job: "
                     + " ".join(f"{t:.4f}" for t in times))
    else:
        untraced = job()
        tracers: list[Tracer] = []

        def traced_job() -> float:
            tracers.append(Tracer())
            return job(tracers[-1])

        traced = closed_loop(max(0.0, seconds - untraced), traced_job)
        metrics = layer_metrics(tracers, statistics.median(traced), untraced)
        metrics["io.events_loaded"] = sum(len(s) for d in datasets for s in d.sequences)
        if workload.threads > 1:
            for name in metrics:
                if name.startswith(WORKER_SIDE_PREFIXES):
                    metrics[name] = 0
            notes.append(
                "pool workers keep their own spans: rules.*, matcher.* and the "
                "shortcut/learned/duplicates counts are left empty (0), and "
                "pipeline.self_s includes the wait for the workers"
            )
        units = per_layer_units()
        notes.extend(layer_report(metrics))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "notes": notes,
    }


def layer_metrics(tracers: list[Tracer], traced_mine_s: float, untraced_mine_s: float) -> dict:
    """Per-layer self times (median over traced jobs) and counts."""
    self_times = [t.self_times() for t in tracers]
    metrics: dict[str, float] = {}
    for layer, _, _ in LAYERS:
        seconds = statistics.median(st[layer] for st in self_times)
        metrics[f"{layer}_s"] = seconds
        metrics[f"{layer}_share"] = seconds / traced_mine_s
    counts = tracers[-1].counts  # identical in every job: the output is checked
    for name in COUNTS:
        metrics[name] = counts[name]
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    metrics["trace.mine_s"] = traced_mine_s
    metrics["trace.untraced_mine_s"] = untraced_mine_s
    metrics["trace.overhead_s"] = traced_mine_s - untraced_mine_s
    metrics["trace.overhead_share"] = (traced_mine_s - untraced_mine_s) / untraced_mine_s
    return metrics


def layer_report(metrics: dict) -> list[str]:
    lines = [f"{'layer':<20} {'self_s':>10} {'share':>7}"]
    for layer, _, _ in LAYERS:
        lines.append(
            f"{layer:<20} {metrics[f'{layer}_s']:>10.4f} {metrics[f'{layer}_share']:>7.1%}"
        )
    lines.append(
        f"traced mine_s {metrics['trace.mine_s']:.4f}, untraced "
        f"{metrics['trace.untraced_mine_s']:.4f}, overhead "
        f"{metrics['trace.overhead_share']:.1%}"
    )
    return lines


# ---------------------------------------------------------------------------
# environment


def environment(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(args, root: Path, work_dir: Path) -> int:
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace), work_dir,
                 load_references(workload))
    notes = result.pop("notes")
    seeds = workload.dataset_seeds(args.seed)
    print(json.dumps({"environment": environment(root)}))
    print(
        f"workload {workload.name}, --seed {args.seed} (table entry "
        f"{args.seed % SEED_TABLE_SIZE}, dataset seeds {seeds.start}..{seeds.stop - 1}), "
        f"fail_rate {result['failed']}/{result['attempted']}"
    )
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0
