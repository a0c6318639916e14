"""Command-line front end.

Subcommands:
  classical P Q_R Q_N   evaluate one urn-model point
  quantum PHI ALPHA     evaluate one spin-1/2 point (angles in radians)
  sweep                 uniform parameter sweep producing scatter data
  simulate              one Monte Carlo stream run (JSON)
  estimate FILE         empirical (A, Delta) from a five-count file
  gnuplot FILE          reformat a sweep CSV as two-column 'a delta' text

Exit codes: 0 success, 2 malformed input (or too large a sweep), 3 I/O failure
(a closed output pipe among them).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import shutil
import sys
from typing import Optional, Sequence

from .errors import MalformedInput
from .probcore import fields_dict
from .stream import simulate_classical, simulate_quantum
from .sweep import (
    DEFAULT_EXCLUSION_MARGIN,
    DEFAULT_N_PER_ARM,
    MODELS,
    MODES,
    SweepConfig,
    _rewrite,
    estimate_from_file,
    eval_point,
    points_to_json_dict,
    read_csv,
    summarize,
    sweep,
    write_csv,
    write_gnuplot,
)


# Every argument once: add_argument's name or flag (the two positionals
# named path carry a second word that tells them apart), then its keywords
_ARGUMENTS = {
    "p": dict(type=float, help="prior relevance P(R)"),
    "q_r": dict(type=float, help="term rate among relevant, P(X|R)"),
    "q_n": dict(type=float, help="term rate among non-relevant, P(X|~R)"),
    "phi": dict(type=float, help="query-state angle in [0, pi]"),
    "alpha": dict(type=float, help="term-state angle in [0, pi]"),
    "path counts": dict(help="file with counts: N N_R N_XR N_XN N_X"),
    "path csv": dict(help="CSV file produced by the sweep subcommand"),
    "--model": dict(
        choices=MODELS,
        required=True,
        help="document model: classical (urn) or quantum (spin-1/2)",
    ),
    "--params": dict(
        required=True,
        help="comma-separated parameters: classical p,q_r,q_n or quantum phi,alpha",
    ),
    "--n-points": dict(
        type=int,
        default=10_000,
        help="number of sampled parameter points (default %(default)s)",
    ),
    "--mode": dict(
        choices=MODES,
        default="analytic",
        help="closed forms or Monte Carlo estimation (default analytic)",
    ),
    "--n-per-arm": dict(
        type=int,
        default=DEFAULT_N_PER_ARM,
        help=(
            "accepted documents per Monte Carlo measurement arm "
            f"(default {DEFAULT_N_PER_ARM})"
        ),
    ),
    "--exclusion-margin": dict(
        type=float,
        default=DEFAULT_EXCLUSION_MARGIN,
        help="guard band around singular parameters (flagged, not dropped)",
    ),
    "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(
        choices=("csv", "json"), default="csv", help="output format (default csv)"
    ),
}

# subcommand name: (its line in the top-level help, its arguments in order)
_COMMANDS = {
    "classical": (
        "evaluate one urn-model point",
        ("p", "q_r", "q_n", "--mode", "--n-per-arm", "--seed", "--out", "--format"),
    ),
    "quantum": (
        "evaluate one spin-1/2 point",
        ("phi", "alpha", "--mode", "--n-per-arm", "--seed", "--out", "--format"),
    ),
    "sweep": (
        "uniform parameter sweep",
        (
            "--model", "--n-points", "--mode", "--n-per-arm", "--exclusion-margin",
            "--seed", "--out", "--format",
        ),
    ),
    "simulate": (
        "one Monte Carlo stream run (JSON)",
        ("--model", "--params", "--n-per-arm", "--seed", "--out"),
    ),
    "estimate": (
        "empirical point from a five-count text file",
        ("path counts", "--out", "--format"),
    ),
    "gnuplot": ("reformat a sweep CSV as two-column 'a delta'", ("path csv", "--out")),
}


def _add_arguments(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        parser.add_argument(name.split()[0], **_ARGUMENTS[name])


def _formatter():
    """argparse's help formatter at the width its default reads (the
    terminal's columns less 2), looked up once per parser build: left to
    itself, argparse makes a formatter per add_argument, and each one asks
    the terminal for its size."""
    return functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )


def build_parser() -> argparse.ArgumentParser:
    formatter = _formatter()  # subparsers do not inherit formatter_class
    parser = argparse.ArgumentParser(
        prog="irboost",
        description=(
            "Query-expansion precision boost and the Accardi invariant "
            "under classical (urn) and quantum (spin-1/2) document models."
        ),
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, formatter_class=formatter)
        _add_arguments(command, arguments)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named
    subcommand's parser when ``argv`` parses through it alone."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        # the parser sub.add_parser(argv[0]) makes in build_parser
        parser = argparse.ArgumentParser(
            prog=f"irboost {argv[0]}", formatter_class=_formatter()
        )
        _add_arguments(parser, command[1])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    # no subcommand, or arguments left over: the top-level usage text and
    # the "unrecognized arguments" error need the full parser
    return build_parser().parse_args(argv)


@contextlib.contextmanager
def _output(args):
    """sys.stdout, or the --out file rewritten in place; open it only once
    the result exists, so a failing command leaves an existing file as it was."""
    if args.out:
        with _rewrite(args.out) as fh:
            yield fh
    else:
        try:
            yield sys.stdout
            sys.stdout.flush()  # a failure exits 3 here, not 120 at exit
        except OSError:
            # fd 1 is gone: point it at the null device, so the flush at
            # exit has nowhere to fail again
            with contextlib.suppress(OSError):
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise


def _write_json(args, payload) -> None:
    text = json.dumps(payload, indent=2)  # rendered first, as _output asks
    with _output(args) as out:
        # in pieces: an unbuffered stdout drops the rest of a short write
        # unseen, so only a later write can see the reader gone
        for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
            out.write(text[i : i + io.DEFAULT_BUFFER_SIZE])
        out.write("\n")


def _write_points(args, points, summary=None, **extra) -> None:
    if args.format == "csv":
        with _output(args) as out:
            write_csv(points, out)
    else:
        _write_json(args, {**points_to_json_dict(points, summary), **extra})


def _parse_params(model: str, text: str):
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise MalformedInput(f"bad --params value: {exc}") from None
    cls = MODELS[model]
    names = cls.__match_args__
    if len(values) != len(names):
        raise MalformedInput(f"{cls.name} model needs {','.join(names)}")
    return cls(*values)


def _run(args) -> None:
    if args.command in MODELS:
        cls = MODELS[args.command]
        params = cls(*(getattr(args, k) for k in cls.__match_args__))
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
        simulate = simulate_classical if args.model == "classical" else simulate_quantum
        _write_json(args, simulate(params, args.n_per_arm, args.seed).to_json_dict())

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
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
