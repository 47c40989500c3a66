"""Command line interface.

Subcommands: ``mine`` (extract discriminant chronicles from a labeled event
CSV), ``crossover`` (turn per-patient timelines into a self-controlled
labeled dataset), ``generate`` (synthesize a planted-pattern dataset), and
``match`` (score chronicle JSON files against a dataset).

Exit codes: 0 success (even with empty results), 1 input error (a
malformed file, or one that cannot be read or written), 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import sys

from . import io as cio
from .errors import ConfigError
from .matcher import DEFAULT_OCCURRENCE_CAP
from .pipeline import DcmConfig, dcm
from .rules import reevaluate
from .synth import generate_synthetic, load_spec_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronomine",
        description="Mine discriminant chronicles from labeled event sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="extract discriminant chronicles")
    mine.add_argument("--input", required=True, help="dataset CSV (sid,event,timestamp,label)")
    mine.add_argument(
        "--min-support",
        type=float,
        default=2,
        help="absolute count, or fraction of the positive set when < 1",
    )
    mine.add_argument("--min-growth", type=float, default=2.0)
    mine.add_argument("--min-size", type=int, default=2, help="smallest multiset emitted")
    mine.add_argument("--max-size", type=int, default=None, help="largest multiset mined")
    mine.add_argument("--format", choices=cio.EXPORT_FORMATS, default="json")
    mine.add_argument("--output", default=None, help="output path (default stdout)")
    mine.add_argument("--seed", type=int, default=0, help="rule-learner split seed")
    mine.add_argument("--occurrence-cap", type=int, default=DEFAULT_OCCURRENCE_CAP)
    mine.set_defaults(func=_cmd_mine)

    crossover = sub.add_parser(
        "crossover", help="build case/control windows around each patient's first outcome"
    )
    crossover.add_argument("--input", required=True, help="timeline CSV (sid,event,timestamp)")
    crossover.add_argument("--outcome", required=True, help="outcome event type")
    crossover.add_argument("--gap", type=float, default=3.0, help="induction gap in days")
    crossover.add_argument("--window", type=float, default=90.0, help="window length in days")
    crossover.add_argument("--output", default=None, help="dataset CSV path (default stdout)")
    crossover.set_defaults(func=_cmd_crossover)

    generate = sub.add_parser("generate", help="synthesize a planted-pattern dataset")
    generate.add_argument("--spec", required=True, help="generator spec JSON")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", default=None, help="dataset CSV path (default stdout)")
    generate.set_defaults(func=_cmd_generate)

    match = sub.add_parser("match", help="report supports of chronicles on a dataset")
    match.add_argument("chronicles", help="chronicle JSON file (object or list)")
    match.add_argument("--input", required=True, help="dataset CSV")
    match.add_argument("--output", default=None, help="output path (default stdout)")
    match.set_defaults(func=_cmd_match)

    return parser


def _cmd_mine(args) -> int:
    dataset = cio.load_csv(args.input)
    config = DcmConfig(
        sigma_min=args.min_support,
        g_min=args.min_growth,
        min_size=args.min_size,
        max_size=args.max_size,
        occurrence_cap=args.occurrence_cap,
        seed=args.seed,
    )
    results = dcm(dataset, config)
    cio.export(results, args.format, args.output)
    print(f"{len(results)} discriminant chronicles", file=sys.stderr)
    return 0


def _cmd_crossover(args) -> int:
    timelines = cio.load_timeline_csv(args.input)
    cfg = cio.CrossoverConfig(outcome=args.outcome, gap=args.gap, window=args.window)
    dataset = cio.crossover_split(timelines, cfg)
    cio.save_dataset_csv(dataset, args.output)
    return 0


def _cmd_generate(args) -> int:
    spec = load_spec_json(args.spec)
    dataset = generate_synthetic(spec, seed=args.seed)
    cio.save_dataset_csv(dataset, args.output)
    return 0


def _cmd_match(args) -> int:
    dataset = cio.load_csv(args.input)
    chronicles = cio.load_chronicles_json(args.chronicles)
    mined = [reevaluate(c, dataset) for c in chronicles]
    cio.export(mined, "json", args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # a ValueError, so it is caught first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # InputError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
