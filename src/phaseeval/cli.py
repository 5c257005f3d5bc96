"""Command-line front end.

Subcommands:
  evaluate  regular metric report for a corpus manifest
  relaxed   boundary-relaxed report, optionally bit-exact legacy mode
  compare   comparability-graded leaderboard from a results ledger
  synth     deterministic synthetic corpus generator
  splits    print a registered train/validation/test split

Exit codes: 0 success, 1 evaluation error, 2 usage error.  Flags are
validated before any file IO.  Every metric table is emitted together
with the protocol block that produced it.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .aggregate import (
    AveragingOrder,
    ResultTensor,
    StdMode,
    SummarySpec,
    MetricSummary,
    _sample_std,
    stack_confusions,
    summarize,
    video_tensor,
)
from .confusion import confusion_of
from .core import (
    CHOLEC80_PHASE_NAMES,
    UnknownSplit,
    builtin_split_names,
    cholec80_graph,
    cv_folds,
    linear_graph,
    resolve_split,
)
from .errors import PhaseEvalError
from .io import Corpus, EvaluationReport, REPORT_FORMATS, SchemaError, canonical_json, load_manifest, write_report
from .metrics import (
    DEFINED,
    F1,
    JACCARD,
    PRECISION,
    RECALL,
    DegenerateMeans,
    UndefinedPolicy,
    accuracy_cells,
    apply_policy,
    f1_of_means_cells,
    f1_upper,
    macro_cells,
    phase_cells,
    phase_counts,
)
from .protocol import (
    ProtocolDescriptor,
    ingest_ledger,
    leaderboard_obj,
    parse_reference,
    render_leaderboard,
    seed_ledger,
)
from .relaxed import (
    RELAXED_KINDS,
    RELAXED_POLICY,
    MatrixMode,
    RelaxedConfig,
    build_matrices,
    graph_rule,
    legacy_pipeline,
    relaxed_tensors,
)

PHASE_KINDS = (PRECISION, RECALL, F1, JACCARD)


# ---------------------------------------------------------------- helpers

def _phase_names(corpus: Corpus) -> tuple[str, ...]:
    if corpus.phases.count == 7:
        return CHOLEC80_PHASE_NAMES
    return tuple(corpus.phases.name_of(p) for p in corpus.phases)


def _report(corpus: Corpus, protocol: dict, summary: dict, per_phase: dict) -> EvaluationReport:
    protocol = {"split": corpus.split or "unknown", **protocol, "runs": len(corpus.runs)}
    return EvaluationReport(protocol, summary, per_phase, _phase_names(corpus))


def _summaries(tensors: dict[str, ResultTensor], spec: SummarySpec, prefix: str = ""):
    """Summary of each named per-phase tensor, and per phase of its slices."""
    summary = {prefix + k: summarize(t, spec) for k, t in tensors.items()}
    phases = next(iter(tensors.values())).phases
    per_phase = {
        p: {prefix + k: summarize(t.phase_slice(pi), spec) for k, t in tensors.items()}
        for pi, p in enumerate(phases)
    }
    return summary, per_phase


# ----------------------------------------------------------- evaluate

def run_evaluate(
    corpus: Corpus,
    policy: UndefinedPolicy,
    order: AveragingOrder,
    std_mode: StdMode,
) -> EvaluationReport:
    """Regular (unrelaxed) metric report over a loaded corpus."""
    phases = corpus.phases
    videos, runs, counts = stack_confusions({
        v: {
            r: confusion_of(corpus.annotations[v], pred, phases)
            for r, pred in corpus.predictions[v].items()
        }
        for v in corpus.videos
    })
    per_pair = phase_counts(counts)  # (phase, video, run) arrays
    spec = SummarySpec(std_mode=std_mode, order=order)
    summary, per_phase = _summaries({
        kind: apply_policy(
            ResultTensor.build(phases, videos, runs, phase_cells(kind, *per_pair)),
            policy,
            per_pair[1] > 0,
        )
        for kind in PHASE_KINDS
    }, spec)

    macro = {kind: macro_cells(kind, *per_pair, policy) for kind in (PRECISION, RECALL, F1)}
    per_video = {
        "accuracy": accuracy_cells(counts),
        **{"macro_" + kind: cells for kind, cells in macro.items()},
        "bold_macro_f1": f1_of_means_cells(macro[PRECISION], macro[RECALL]),
    }
    for name, cells in per_video.items():
        summary[name] = summarize(video_tensor(videos, runs, cells), spec)

    mp, mr = summary[PRECISION].mean, summary[RECALL].mean
    if mp is not None and mr is not None:
        try:
            summary["f1_upper"] = MetricSummary(f1_upper(mp, mr), None, None, None)
        except DegenerateMeans:
            pass

    # macro f1 of each run's matrix pooled over videos
    frame, frame_state = macro_cells(F1, *phase_counts(counts.sum(axis=0)), policy)
    frame_vals = frame[frame_state == DEFINED].tolist()
    summary["frame_f1"] = MetricSummary(
        sum(frame_vals) / len(frame_vals) if frame_vals else None,
        None,
        None,
        _sample_std(frame_vals, std_mode) if len(frame_vals) > 1 else None,
    )
    protocol = {
        "relaxed": False,
        "policy": policy.value,
        "order": order.value,
        "std_mode": std_mode.value,
    }
    return _report(corpus, protocol, summary, per_phase)


# ------------------------------------------------------------- relaxed

def run_relaxed(
    corpus: Corpus,
    omega: int,
    matrix_mode: MatrixMode,
    truncate: bool,
    bug_compatible: bool = False,
) -> EvaluationReport:
    """Boundary-relaxed report; bug-compatible mode defers to the
    pipeline that replicates the legacy script end to end."""
    if bug_compatible:
        config = RelaxedConfig(omega, MatrixMode.LEGACY, truncate=True, bug_compatible=True)
        legacy = legacy_pipeline(corpus.annotations, corpus.predictions, config, corpus.phases)
        return _legacy_evaluation(legacy, corpus)

    phases = corpus.phases
    graph = cholec80_graph() if phases.count == 7 else linear_graph(phases.count)
    matrices = build_matrices(graph, matrix_mode, phases.count)
    spec = SummarySpec()  # flat order, corrected spread

    tensors, acc = relaxed_tensors(
        corpus.annotations, corpus.predictions,
        lambda y: graph_rule(y, omega, matrices), phases, truncate,
    )
    summary, per_phase = _summaries(tensors, spec, "relaxed_")
    summary["relaxed_accuracy"] = summarize(acc, spec)
    protocol = {
        "relaxed": True,
        "omega": omega,
        "matrices": matrix_mode.value,
        "truncate": truncate,
        "policy": RELAXED_POLICY.value,
        "order": spec.order.value,
        "std_mode": spec.std_mode.value,
    }
    return _report(corpus, protocol, summary, per_phase)


def _legacy_evaluation(legacy, corpus: Corpus) -> EvaluationReport:
    summary = {
        "relaxed_" + kind: MetricSummary(
            legacy.means[kind], None, legacy.spreads[kind], None
        )
        for kind in RELAXED_KINDS
    }
    summary["relaxed_accuracy"] = MetricSummary(
        legacy.accuracy_mean, legacy.accuracy_sd, None, None
    )
    per_phase = {
        p: {
            "relaxed_" + kind: MetricSummary(legacy.phase_means[kind][p], None, None, None)
            for kind in RELAXED_KINDS
        }
        for p in corpus.phases
    }
    protocol = {
        "relaxed": True,
        "omega": legacy.omega,
        "matrices": MatrixMode.LEGACY.value,
        "truncate": True,
        "bug_compatible": True,
        "watermark": legacy.watermark,
        "policy": RELAXED_POLICY.value,
        "order": AveragingOrder.VIDEO_FIRST.value,
        "std_mode": StdMode.CORRECTED.value,
    }
    return _report(corpus, protocol, summary, per_phase)


# --------------------------------------------------------------- synth

def _walk_phases(rng: random.Random, graph, phase_count: int) -> list[int]:
    if phase_count == 7:
        phases = [0]
        for _ in range(rng.randint(4, 8)):
            phases.append(rng.choice(graph.successors(phases[-1])))
        return phases
    return list(range(phase_count))


def _perturb(labels, boundaries, phase_order, rng, shift, flip_rate, phase_count):
    """One prediction run: shift segment boundaries by <= shift frames,
    then flip interior frames (further than `shift` from any original
    boundary) to a random other phase at rate flip_rate."""
    total = len(labels)
    moved = [b + rng.randint(-shift, shift) for b in boundaries] if shift else list(boundaries)
    pred = []
    cuts = moved + [total]
    start = 0
    for phase, cut in zip(phase_order, cuts):
        pred.extend([phase] * (cut - start))
        start = cut
    edges = [0] + list(boundaries) + [total - 1]
    if flip_rate > 0:
        for t in range(total):
            near = any(abs(t - b) <= shift for b in edges) or any(
                abs(t - (b - 1)) <= shift for b in boundaries
            )
            if near:
                continue
            if rng.random() < flip_rate:
                pred[t] = rng.choice([q for q in range(phase_count) if q != labels[t]])
    return pred


def generate_corpus(
    out_dir: Path,
    phase_count: int,
    videos: int,
    runs: int,
    min_len: int,
    max_len: int,
    boundary_shift: int,
    flip_rate: float,
    seed: int,
) -> Path:
    """Write a synthetic corpus and return the manifest path."""
    rng = random.Random(seed)
    graph = cholec80_graph() if phase_count == 7 else linear_graph(phase_count)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_videos = []
    for vid in range(1, videos + 1):
        phase_order = _walk_phases(rng, graph, phase_count)
        lengths = [rng.randint(min_len, max_len) for _ in phase_order]
        labels = [p for p, n in zip(phase_order, lengths) for _ in range(n)]
        boundaries = []
        acc = 0
        for n in lengths[:-1]:
            acc += n
            boundaries.append(acc)
        vdir = out_dir / f"video{vid:02d}"
        vdir.mkdir(exist_ok=True)
        (vdir / "annotation.txt").write_text(
            "".join(f"{x}\n" for x in labels), encoding="utf-8"
        )
        entry = {
            "id": vid,
            "annotation": f"video{vid:02d}/annotation.txt",
            "predictions": {},
        }
        for ri in range(runs):
            run = f"r{ri}"
            pred = _perturb(
                labels, boundaries, phase_order, rng,
                boundary_shift, flip_rate, phase_count,
            )
            (vdir / f"{run}.txt").write_text(
                "".join(f"{x}\n" for x in pred), encoding="utf-8"
            )
            entry["predictions"][run] = f"video{vid:02d}/{run}.txt"
        manifest_videos.append(entry)
    manifest = {"phase_count": phase_count, "videos": manifest_videos}
    path = out_dir / "manifest.json"
    path.write_text(canonical_json(manifest) + "\n", encoding="utf-8")
    return path


# ------------------------------------------------------------ commands

def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_evaluate(args) -> int:
    corpus = load_manifest(args.manifest)
    policy, order = UndefinedPolicy(args.policy), AveragingOrder(args.order)
    report = run_evaluate(corpus, policy, order, StdMode(args.std_mode))
    _emit(write_report(report, args.format), args.out)
    return 0


def cmd_relaxed(args) -> int:
    corpus = load_manifest(args.manifest)
    report = run_relaxed(
        corpus, args.omega, MatrixMode(args.matrices), args.truncate, bug_compatible=args.bug_compat
    )
    _emit(write_report(report, args.format), args.out)
    return 0


def cmd_compare(args, reference: ProtocolDescriptor) -> int:
    if args.ledger:
        results = ingest_ledger(args.ledger)
    else:
        results = seed_ledger()
    board = render_leaderboard(results, reference, sort_metric=args.sort_metric)
    _emit(canonical_json(leaderboard_obj(board)) + "\n", args.out)
    return 0


def cmd_synth(args) -> int:
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
    print(manifest)
    return 0


def cmd_splits(args) -> int:
    if args.list:
        _emit(canonical_json(list(builtin_split_names())) + "\n", args.out)
        return 0
    if args.name == "48:12:20-cv":
        folds = cv_folds()
    else:
        folds = [resolve_split(args.name)]
    obj = [
        {
            "name": f.name,
            "train": list(f.train),
            "validation": list(f.validation),
            "test": list(f.test),
        }
        for f in folds
    ]
    _emit(canonical_json(obj[0] if len(obj) == 1 else obj) + "\n", args.out)
    return 0


# -------------------------------------------------------------- parser

def _add_output_flags(p):
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p.add_argument("--out", default="-", help="output path, or - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseeval",
        description="Frame-level evaluation toolkit for surgical phase recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="regular metric report from a manifest")
    ev.add_argument("manifest")
    ev.add_argument(
        "--policy",
        choices=[p.value for p in UndefinedPolicy],
        default=UndefinedPolicy.EXCLUDE_MISSING_PHASE.value,
    )
    ev.add_argument(
        "--order",
        choices=[o.value for o in AveragingOrder],
        default=AveragingOrder.FLAT.value,
    )
    ev.add_argument(
        "--std-mode",
        choices=[m.value for m in StdMode],
        default=StdMode.CORRECTED.value,
    )
    _add_output_flags(ev)

    rx = sub.add_parser("relaxed", help="boundary-relaxed metric report")
    rx.add_argument("manifest")
    rx.add_argument("--omega", type=int, default=10)
    rx.add_argument(
        "--matrices",
        choices=[m.value for m in MatrixMode],
        default=MatrixMode.LEGACY.value,
    )
    rx.add_argument("--truncate", action="store_true")
    rx.add_argument(
        "--bug-compat",
        action="store_true",
        help="replicate the legacy script exactly; output is watermarked",
    )
    _add_output_flags(rx)

    cp = sub.add_parser("compare", help="grade a ledger against a reference protocol")
    cp.add_argument("--ledger", help="ledger file (defaults to the packaged seed)")
    cp.add_argument(
        "--ref",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="reference protocol field, e.g. split=32:8:40 or relaxed=false",
    )
    cp.add_argument("--sort-metric", default="accuracy")
    cp.add_argument("--out", default="-")

    sy = sub.add_parser("synth", help="generate a synthetic corpus")
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--phase-count", type=int, default=7)
    sy.add_argument("--videos", type=int, default=4)
    sy.add_argument("--runs", type=int, default=1)
    sy.add_argument("--min-len", type=int, default=8)
    sy.add_argument("--max-len", type=int, default=16)
    sy.add_argument("--boundary-shift", type=int, default=0)
    sy.add_argument("--flip-rate", type=float, default=0.0)
    sy.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("splits", help="print a registered split")
    sp.add_argument("name", nargs="?")
    sp.add_argument("--list", action="store_true", help="list registered names")
    sp.add_argument("--out", default="-")
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> ProtocolDescriptor | None:
    """Flag validation before any file IO; usage problems exit 2."""
    reference = None
    if args.command == "relaxed":
        if args.omega < 0:
            parser.error("--omega must be >= 0")
        if args.bug_compat and not args.truncate:
            parser.error("--bug-compat requires --truncate")
        if args.bug_compat and args.matrices != MatrixMode.LEGACY.value:
            parser.error("--bug-compat requires --matrices legacy")
    if args.command == "compare":
        try:
            reference = parse_reference(args.ref)
        except SchemaError as exc:
            parser.error(str(exc))
    if args.command == "synth":
        if args.phase_count < 2:
            parser.error("--phase-count must be >= 2")
        if args.videos < 1 or args.runs < 1:
            parser.error("--videos and --runs must be >= 1")
        if not 0.0 <= args.flip_rate <= 1.0:
            parser.error("--flip-rate must be within [0, 1]")
        if args.boundary_shift < 0:
            parser.error("--boundary-shift must be >= 0")
        if args.max_len < args.min_len:
            parser.error("--max-len must be >= --min-len")
        if args.min_len < 2 * args.boundary_shift + 1:
            parser.error("--min-len must be at least 2*shift+1")
    if args.command == "splits" and not args.list and args.name is None:
        parser.error("a split name (or --list) is required")
    return reference


def main(argv=None) -> int:
    parser = build_parser()
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
            try:
                return cmd_splits(args)
            except UnknownSplit as exc:
                parser.error(str(exc))
        raise AssertionError(args.command)
    except PhaseEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
