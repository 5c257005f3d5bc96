"""Command-line front end.

Subcommands:
  evaluate  regular metric report for a corpus manifest
  relaxed   boundary-relaxed report, optionally bit-exact legacy mode
  compare   comparability-graded leaderboard from a results ledger
  synth     deterministic synthetic corpus generator
  splits    print a registered train/validation/test split

Exit codes: 0 success, 1 evaluation error, 2 usage error.  Flags are
validated before any file IO.  Reports come from `pipeline`, corpora from
`synth`; run_evaluate and run_relaxed stay importable from here.  Each
command imports only the modules it uses, so compare and splits never
load numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import PhaseEvalError
from .vocab import MAX_PHASES, OMEGA_MAX, SchemaError, UnknownSplit  # noqa: F401  (re-exported)
from .vocab import CONTROL_CHARACTERS, METRIC_NAMES, REPORT_FORMATS
from .vocab import AveragingOrder, MatrixMode, StdMode, UndefinedPolicy, decimal
from .vocab import builtin_split_names, canonical_json, cv_folds, read_file, resolve_split

if TYPE_CHECKING:
    from .protocol import ProtocolDescriptor


def run_evaluate(*args, **kwargs):
    """pipeline.run_evaluate, which loads the report machinery on first call."""
    from . import pipeline

    return pipeline.run_evaluate(*args, **kwargs)


def run_relaxed(*args, **kwargs):
    """pipeline.run_relaxed, which loads the report machinery on first call."""
    from . import pipeline

    return pipeline.run_relaxed(*args, **kwargs)


# ------------------------------------------------------------ commands

def _emit(text: str, out: str) -> None:
    """Write text as UTF-8 to the file `out`, or to stdout's bytes for "-"
    whatever the locale, so both carry the same bytes."""
    data = text.encode("utf-8")
    if out == "-":
        sys.stdout.flush()  # text already written goes first
        sys.stdout.buffer.write(data)
    else:
        Path(out).write_bytes(data)


def cmd_evaluate(args) -> int:
    from .io import load_manifest, write_report

    corpus = load_manifest(args.manifest)
    policy, order = UndefinedPolicy(args.policy), AveragingOrder(args.order)
    report = run_evaluate(corpus, policy, order, StdMode(args.std_mode))
    _emit(write_report(report, args.format), args.out)
    return 0


def cmd_relaxed(args) -> int:
    from .io import load_manifest, write_report

    corpus = load_manifest(args.manifest)
    report = run_relaxed(
        corpus, args.omega, MatrixMode(args.matrices), args.truncate, bug_compatible=args.bug_compat
    )
    _emit(write_report(report, args.format), args.out)
    return 0


def cmd_compare(args, reference: ProtocolDescriptor) -> int:
    from .protocol import parse_ledger, render_leaderboard, seed_ledger

    results = parse_ledger(read_file(args.ledger)) if args.ledger else seed_ledger()
    board = render_leaderboard(results, reference, sort_metric=args.sort_metric)
    _emit(canonical_json(board) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
    from .synth import generate_corpus

    manifest = generate_corpus(
        Path(args.out_dir),
        args.phase_count,
        args.videos,
        args.runs,
        args.min_len,
        args.max_len,
        args.boundary_shift,
        args.flip_rate,
        args.seed,
    )
    sys.stdout.flush()  # the path's bytes, whatever the locale can encode
    sys.stdout.buffer.write(os.fsencode(manifest) + b"\n")
    return 0


def cmd_splits(args) -> int:
    if args.list:
        obj = list(builtin_split_names())
    elif args.name == "48:12:20-cv":
        obj = [asdict(f) for f in cv_folds()]
    else:
        obj = asdict(resolve_split(args.name))
    _emit(canonical_json(obj) + "\n", args.out)
    return 0


# -------------------------------------------------------------- parser

def _add_output_flags(p):
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p.add_argument("--out", default="-", help="output path, or - for stdout")


def _add_enum_flag(p, flag: str, default) -> None:
    """A flag taking the values of default's enum."""
    p.add_argument(flag, choices=[m.value for m in type(default)], default=default.value)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command is registered, so usage, -h and an unknown command read
    the same whatever `command` is; only `command`'s arguments are added,
    or every command's when it is None.  Only the parser of the command
    that runs ever parses, so no other gets its own -h."""
    parser = argparse.ArgumentParser(
        prog="phaseeval",
        description="Frame-level evaluation toolkit for surgical phase recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_line: str) -> argparse.ArgumentParser | None:
        built = command in (None, name)
        p = sub.add_parser(name, help=help_line, add_help=built)
        return p if built else None

    if ev := add("evaluate", "regular metric report from a manifest"):
        ev.add_argument("manifest")
        _add_enum_flag(ev, "--policy", UndefinedPolicy.EXCLUDE_MISSING_PHASE)
        _add_enum_flag(ev, "--order", AveragingOrder.FLAT)
        _add_enum_flag(ev, "--std-mode", StdMode.CORRECTED)
        _add_output_flags(ev)

    if rx := add("relaxed", "boundary-relaxed metric report"):
        rx.add_argument("manifest")
        rx.add_argument("--omega", type=decimal, default=10, help="relaxation window in frames")
        _add_enum_flag(rx, "--matrices", MatrixMode.LEGACY)
        rx.add_argument("--truncate", action="store_true")
        rx.add_argument(
            "--bug-compat",
            action="store_true",
            help="replicate the legacy script exactly; output is watermarked",
        )
        _add_output_flags(rx)

    if cp := add("compare", "grade a ledger against a reference protocol"):
        cp.add_argument("--ledger", help="ledger file (defaults to the packaged seed)")
        cp.add_argument(
            "--ref",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="reference protocol field, e.g. split=32:8:40 or relaxed=false",
        )
        cp.add_argument("--sort-metric", choices=METRIC_NAMES, default="accuracy")
        cp.add_argument("--out", default="-")

    if sy := add("synth", "generate a synthetic corpus"):
        sy.add_argument("--out-dir", required=True)
        sy.add_argument("--phase-count", type=decimal, default=7)
        sy.add_argument("--videos", type=decimal, default=4)
        sy.add_argument("--runs", type=decimal, default=1)
        sy.add_argument("--min-len", type=decimal, default=8)
        sy.add_argument("--max-len", type=decimal, default=16)
        sy.add_argument("--boundary-shift", type=decimal, default=0)
        sy.add_argument("--flip-rate", type=float, default=0.0)
        sy.add_argument("--seed", type=decimal, default=0)

    if sp := add("splits", "print a registered split"):
        which = sp.add_mutually_exclusive_group(required=True)
        which.add_argument("name", nargs="?")
        which.add_argument("--list", action="store_true", help="list registered names")
        sp.add_argument("--out", default="-")
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> ProtocolDescriptor | None:
    """Flag validation before any file IO: each rule's owner raises a
    PhaseEvalError, which exits 2.  Returns compare's reference protocol."""
    try:
        if args.command == "relaxed":
            from .pipeline import check_bug_compat
            from .relaxed import check_omega
            check_omega(args.omega)
            check_bug_compat(MatrixMode(args.matrices), args.truncate, args.bug_compat)
        if args.command == "compare":
            from .protocol import parse_reference
            return parse_reference(args.ref)
        if args.command == "synth":
            from .synth import check_settings
            check_settings(
                args.phase_count, args.videos, args.runs, args.min_len, args.max_len,
                args.boundary_shift, args.flip_rate,
            )
        if args.command == "splits" and args.name:
            resolve_split(args.name)
    except PhaseEvalError as exc:
        parser.error(str(exc))
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # No top-level option takes a value, so the first argument that is not
    # an option names the command that argparse runs, if it runs one.
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    reference = _validate(parser, args)
    try:
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "relaxed":
            return cmd_relaxed(args)
        if args.command == "compare":
            return cmd_compare(args, reference)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "splits":
            return cmd_splits(args)
        raise AssertionError(args.command)
    except (PhaseEvalError, OSError) as exc:
        # A message may quote input raw, such as a label path holding a NUL:
        # each control character is escaped, so the error is one line.
        message = CONTROL_CHARACTERS.sub(lambda c: repr(c[0])[1:-1], str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
