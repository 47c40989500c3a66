"""Command line of the chronomine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sparse --seed 0 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chronomine" / "__init__.py").is_file():
        print(f"perfbench: no chronomine sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        return bench.main(args, ROOT, Path(work_dir))


if __name__ == "__main__":
    sys.exit(main())
