"""Record the reference output hash of every seed-table entry.

Run from the repository root, at a commit whose output is known good:

    python3 perfbench/record_references.py planted sparse dense

For each named workload this mines every dataset that a ``--seed`` in
``0 .. SEED_TABLE_SIZE - 1`` selects, and writes the sha256 of its JSON
rendering to ``perfbench/references/<workload>.json``, keyed by dataset
seed.  A change that alters mining output on purpose records them again and
says why in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from workloads import SEED_TABLE_SIZE, WORKLOADS, recovers  # noqa: E402


def record(name: str) -> dict[str, str]:
    workload = WORKLOADS[name]
    if workload.reference_name != name:
        raise SystemExit(f"{name} reproduces {workload.reference_name}'s references")
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as work:
        for seed in range(SEED_TABLE_SIZE):
            paths = bench.prepare(workload, seed, Path(work))
            datasets, _ = bench.load(paths)
            outputs, elapsed = bench.mine(workload, datasets)
            for (dataset_seed, _), output in zip(paths, outputs):
                if isinstance(output, Exception):
                    raise SystemExit(f"{name} dataset {dataset_seed}: {output!r}")
                digests[str(dataset_seed)] = bench.output_digest(output)
            recovered = sum(recovers(workload, output) for output in outputs)
            print(f"{name} seed {seed}: {elapsed:.2f} s, recovered "
                  f"{recovered}/{len(outputs)}", flush=True)
    return digests


def main(names: list[str]) -> int:
    for name in names or [n for n, w in WORKLOADS.items() if w.reference_name == n]:
        path = bench.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record(name), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
