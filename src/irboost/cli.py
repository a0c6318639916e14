"""Command-line front end.

Subcommands:
  classical P Q_R Q_N   evaluate one urn-model point
  quantum PHI ALPHA     evaluate one spin-1/2 point (angles in radians)
  sweep                 uniform parameter sweep producing scatter data
  simulate              one Monte Carlo stream run (JSON)
  estimate FILE         empirical (A, Delta) from a five-count file
  gnuplot FILE          reformat a sweep CSV as two-column 'a delta' text

Exit codes: 0 success, 2 malformed input (or too large a sweep), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional, Sequence

from .errors import MalformedInput
from .probcore import field_names, fields_dict
from .stream import simulate_classical, simulate_quantum
from .sweep import (
    DEFAULT_EXCLUSION_MARGIN,
    DEFAULT_N_PER_ARM,
    MODELS,
    MODES,
    SweepConfig,
    estimate_from_file,
    eval_point,
    points_to_json_dict,
    read_csv,
    summarize,
    sweep,
    write_csv,
    write_gnuplot,
)


def _common_flags(parser: argparse.ArgumentParser, fmt=True, seed=True) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if fmt:
        parser.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default csv)",
        )


def _point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="analytic",
        help="closed forms or Monte Carlo estimation (default analytic)",
    )
    parser.add_argument(
        "--n-per-arm",
        type=int,
        default=DEFAULT_N_PER_ARM,
        help="accepted documents per measurement arm in montecarlo mode",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irboost",
        description=(
            "Query-expansion precision boost and the Accardi invariant "
            "under classical (urn) and quantum (spin-1/2) document models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", help="evaluate one urn-model point")
    p.add_argument("p", type=float, help="prior relevance P(R)")
    p.add_argument("q_r", type=float, help="term rate among relevant, P(X|R)")
    p.add_argument("q_n", type=float, help="term rate among non-relevant, P(X|~R)")
    _point_flags(p)
    _common_flags(p)

    p = sub.add_parser("quantum", help="evaluate one spin-1/2 point")
    p.add_argument("phi", type=float, help="query-state angle in [0, pi]")
    p.add_argument("alpha", type=float, help="term-state angle in [0, pi]")
    _point_flags(p)
    _common_flags(p)

    p = sub.add_parser("sweep", help="uniform parameter sweep")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--n-points", type=int, default=10_000)
    _point_flags(p)
    p.add_argument(
        "--exclusion-margin",
        type=float,
        default=DEFAULT_EXCLUSION_MARGIN,
        help="guard band around singular parameters (flagged, not dropped)",
    )
    _common_flags(p)

    p = sub.add_parser("simulate", help="one Monte Carlo stream run (JSON)")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument(
        "--params",
        required=True,
        help="comma-separated parameters: classical p,q_r,q_n or quantum phi,alpha",
    )
    p.add_argument(
        "--n-per-arm",
        type=int,
        default=DEFAULT_N_PER_ARM,
        help=f"accepted documents per measurement arm (default {DEFAULT_N_PER_ARM})",
    )
    _common_flags(p, fmt=False)

    p = sub.add_parser(
        "estimate", help="empirical point from a five-count text file"
    )
    p.add_argument("path", help="file with counts: N N_R N_XR N_XN N_X")
    _common_flags(p, seed=False)

    p = sub.add_parser(
        "gnuplot", help="reformat a sweep CSV as two-column 'a delta'"
    )
    p.add_argument("path", help="CSV file produced by the sweep subcommand")
    _common_flags(p, fmt=False, seed=False)

    return parser


@contextlib.contextmanager
def _output(args):
    """sys.stdout, or the --out file; open it only once the result exists,
    so a failing command leaves an existing file as it was."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_points(args, points, summary=None, **extra) -> None:
    if args.format == "csv":
        with _output(args) as out:
            write_csv(points, out)
    else:  # rendered before the file opens, so its buffer adds nothing to the peak
        text = json.dumps({**points_to_json_dict(points, summary), **extra}, indent=2)
        with _output(args) as out:
            out.write(text + "\n")


def _parse_params(model: str, text: str):
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise MalformedInput(f"bad --params value: {exc}") from None
    cls = MODELS[model]
    names = field_names(cls)
    if len(values) != len(names):
        raise MalformedInput(f"{cls.name} model needs {','.join(names)}")
    return cls(*values)


def _run(args) -> None:
    if args.command in MODELS:
        cls = MODELS[args.command]
        params = cls(*(getattr(args, k) for k in field_names(cls)))
        point = eval_point(
            params, mode=args.mode, n_per_arm=args.n_per_arm, seed=args.seed
        )
        _write_points(args, [point])

    elif args.command == "sweep":
        config = SweepConfig(
            model=args.model,
            n_points=args.n_points,
            seed=args.seed,
            mode=args.mode,
            n_per_arm=args.n_per_arm,
            exclusion_margin=args.exclusion_margin,
        )
        _write_points(args, *sweep(config))

    elif args.command == "simulate":
        params = _parse_params(args.model, args.params)
        if args.model == "classical":
            result = simulate_classical(params, args.n_per_arm, args.seed)
        else:
            result = simulate_quantum(params, args.n_per_arm, args.seed)
        with _output(args) as out:
            out.write(result.to_json() + "\n")

    elif args.command == "estimate":
        outcome = estimate_from_file(args.path)
        points = [outcome.point]
        estimates = {
            "accardi": fields_dict(outcome.accardi),
            "boost": fields_dict(outcome.boost),
        }
        _write_points(args, points, summarize(points), estimates=estimates)

    elif args.command == "gnuplot":
        points = read_csv(args.path)
        with _output(args) as out:
            write_gnuplot(points, out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except (ValueError, MemoryError) as exc:  # MalformedInput is a ValueError
        print(f"irboost: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"irboost: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
