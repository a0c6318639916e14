"""Command-line front end.

Subcommands:
  classical P Q_R Q_N   evaluate one urn-model point
  quantum PHI ALPHA     evaluate one spin-1/2 point (angles in radians)
  sweep                 uniform parameter sweep producing scatter data
  simulate              one Monte Carlo stream run (JSON)
  estimate FILE         empirical (A, Delta) from a five-count file
  gnuplot FILE          reformat a sweep CSV as two-column 'a delta' text

A well-formed argv (a subcommand, its positionals, then whole long options
each with one value) is read straight from the argument tables below;
argparse is built, fresh on each call, only for help, errors and the forms
only it reads.

Exit codes: 0 success, 2 malformed input (or too large a sweep), 3 I/O failure
(a closed output pipe, a closed stdout or an empty --out among them); a stderr
that cannot take the error line changes neither.
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


def build_parser() -> argparse.ArgumentParser:
    # argparse's help formatter at the width its default reads (the
    # terminal's columns less 2), looked up once per build: left to itself,
    # argparse makes a formatter per add_argument, and each one asks the
    # terminal for its size.  Subparsers do not inherit formatter_class
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
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
        for argument in arguments:
            command.add_argument(argument.split()[0], **_ARGUMENTS[argument])
    return parser


def _read(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """``build_parser().parse_args(argv)``, read straight from the tables
    for one shape of argv: a subcommand, its positionals, then whole long
    options each with one value, where no positional or value starts with
    "-".  Each argument's type, choices, required and default apply, and a
    repeated option keeps its last value.  None for any other argv, or one
    that argparse would reject: help, "--", "=" forms, abbreviations,
    negative numbers and errors are argparse's to read and to word."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    names = command[1]
    positionals = [name for name in names if not name.startswith("-")]
    end = 1 + len(positionals)
    if len(argv) < end or (len(argv) - end) % 2:
        return None
    flags = argv[end::2]
    if not all(flag.startswith("--") and flag in names for flag in flags):
        return None
    values = {}
    pairs = (*zip(positionals, argv[1:end]), *zip(flags, argv[end + 1 :: 2]))
    for name, token in pairs:
        if token.startswith("-"):
            return None
        spec = _ARGUMENTS[name]
        try:
            values[name] = value = spec.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
    args = argparse.Namespace(command=argv[0])
    for name in names:
        spec = _ARGUMENTS[name]
        if name not in values and spec.get("required"):
            return None
        dest = name.split()[0].lstrip("-").replace("-", "_")
        setattr(args, dest, values.get(name, spec.get("default")))
    return args


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``; the full parser is built only
    for an argv that ``_read`` leaves to it."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


@contextlib.contextmanager
def _output(args):
    """sys.stdout, or the --out file rewritten in place; open it only once
    the result exists, so a failing command leaves an existing file as it was."""
    if args.out is not None:  # "" too, which fails to open
        with _rewrite(args.out) as fh:
            yield fh
    elif sys.stdout is None:  # started with stdout closed: nowhere to write
        raise OSError("stdout is closed")
    else:
        try:
            yield sys.stdout
            sys.stdout.flush()  # a failure exits 3 here, not 120 at exit
        except OSError:
            _to_devnull(sys.stdout)
            raise


def _to_devnull(stream) -> None:
    """Point the file descriptor under ``stream``, which failed a write, at
    the null device, so the flush at exit has nowhere to fail again."""
    with contextlib.suppress(OSError):
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


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
        config = SweepConfig(*(getattr(args, k) for k in SweepConfig.__match_args__))
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


def _report(code: int, line: str) -> int:
    """Print ``line`` on stderr and return ``code``.  A stderr that cannot
    take the line is pointed at the null device, so neither this print nor
    the flush at exit changes the exit code."""
    if sys.stderr is None:  # closed at start: print would write to stdout
        return code
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        _run(args)
    except ValueError as exc:  # MalformedInput is a ValueError
        return _report(2, f"irboost: error: {exc}")
    except MemoryError as exc:  # a bare one has no text
        return _report(2, f"irboost: error: {str(exc) or 'out of memory'}")
    except OSError as exc:
        return _report(3, f"irboost: i/o error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
