"""Report assembly: the regular and the boundary-relaxed report of a
loaded corpus, each with the protocol block that produced it."""

from __future__ import annotations

import numpy as np

from .aggregate import (
    AveragingOrder,
    Groupings,
    MetricSummary,
    ResultTensor,
    StdMode,
    SummarySpec,
    summarize,
    video_tensor,
)
from .core import assumed_workflow
from .errors import PhaseEvalError
from .io import Corpus, EvaluationReport
from .metrics import (
    F1,
    METRIC_KINDS,
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
from .relaxed import (
    LEGACY_WATERMARK,
    RELAXED_POLICY,
    MatrixMode,
    build_matrices,
    graph_rules,
    legacy_pipeline,
    relaxed_tensors,
)
from .vocab import SUMMARY_STATS


class BugCompatConflict(PhaseEvalError):
    """Bug-compatible mode runs only on the legacy grids, truncated."""


def _report(corpus: Corpus, protocol: dict, summary: dict, per_phase: dict) -> EvaluationReport:
    protocol = {"split": corpus.split or "unknown", **protocol, "runs": len(corpus.runs)}
    named, _ = assumed_workflow(corpus.phases)
    return EvaluationReport(protocol, summary, per_phase, tuple(map(named.name_of, named)))


def _summaries(
    tensors: dict[str, ResultTensor],
    spec: SummarySpec,
    prefix: str = "",
    stats=SUMMARY_STATS,
    phase_stats=SUMMARY_STATS,
):
    """Summary of each named tensor, and of each of its phases, from the
    groupings of their stack; the tensors share their axes.  Only `stats`
    of a tensor and `phase_stats` of a phase are computed, the others None."""
    stack = [np.stack([getattr(t, a) for t in tensors.values()]) for a in ("values", "state")]
    groupings = Groupings(*stack, spec.std_mode)
    groups, rows = groupings.summaries(spec.order, stats), groupings.phase_rows(phase_stats)
    names = [prefix + k for k in tensors]
    phases = next(iter(tensors.values())).phases
    per_phase = {p: {k: r[pi] for k, r in zip(names, rows)} for pi, p in enumerate(phases)}
    return dict(zip(names, groups)), per_phase


# ----------------------------------------------------------- evaluate

def run_evaluate(
    corpus: Corpus,
    policy: UndefinedPolicy,
    order: AveragingOrder,
    std_mode: StdMode,
) -> EvaluationReport:
    """Regular (unrelaxed) metric report over a loaded corpus."""
    phases, videos, runs = corpus.phases, corpus.videos, corpus.runs
    counts, *per_pair = corpus.counts  # per_pair: (phase, video, run) arrays
    spec = SummarySpec(std_mode=std_mode, order=order)
    summary, per_phase = _summaries({
        kind: apply_policy(
            ResultTensor.build(phases, videos, runs, phase_cells(kind, *per_pair)),
            policy,
            per_pair[1] > 0,
        )
        for kind in METRIC_KINDS
    }, spec)

    macro = {kind: macro_cells(kind, *per_pair, policy) for kind in (PRECISION, RECALL, F1)}
    per_video = {
        "accuracy": accuracy_cells(counts),
        **{"macro_" + kind: cells for kind, cells in macro.items()},
        "bold_macro_f1": f1_of_means_cells(macro[PRECISION], macro[RECALL]),
    }
    summary.update(_summaries({
        name: video_tensor(videos, runs, cells) for name, cells in per_video.items()
    }, spec)[0])

    mp, mr = summary[PRECISION].mean, summary[RECALL].mean
    if mp is not None and mr is not None:
        try:
            summary["f1_upper"] = MetricSummary(f1_upper(mp, mr), None, None, None)
        except DegenerateMeans:
            pass

    # macro f1 of each run's matrix pooled over videos, as one video
    frame, frame_state = macro_cells(F1, *phase_counts(counts.sum(axis=0)), policy)
    pooled = video_tensor((0,), runs, (frame[None], frame_state[None]))
    summary["frame_f1"] = summarize(pooled, spec)
    protocol = {
        "relaxed": False,
        "policy": policy.value,
        "order": order.value,
        "std_mode": std_mode.value,
    }
    return _report(corpus, protocol, summary, per_phase)


# ------------------------------------------------------------- relaxed

# The statistics the shared script prints of each relaxed score, of relaxed
# accuracy and of each phase; a bug-compatible report computes only these.
_SCRIPT_PRINTS = (("mean", "sd_phases"), ("mean", "sd_videos"), ("mean",))


def run_relaxed(
    corpus: Corpus,
    omega: int,
    matrix_mode: MatrixMode,
    truncate: bool,
    bug_compatible: bool = False,
) -> EvaluationReport:
    """Boundary-relaxed report.  Bug-compatible mode replicates the shared
    script: its flag rule on the legacy grids, truncated, averaged over
    videos and runs before phases, and only the statistics it prints."""
    phases = corpus.phases
    if bug_compatible and (matrix_mode is not MatrixMode.LEGACY or not truncate):
        raise BugCompatConflict("bug-compatible mode needs the legacy grids and truncation")
    # Both modes pass the grids' phase-count check, though only one uses them.
    matrices = build_matrices(assumed_workflow(phases)[1], matrix_mode, phases.count)
    if bug_compatible:
        tensors, acc = legacy_pipeline(corpus, omega)
        spec = SummarySpec(order=AveragingOrder.VIDEO_FIRST)
    else:
        tensors, acc = relaxed_tensors(
            corpus, lambda ys: graph_rules(ys, omega, matrices), truncate
        )
        spec = SummarySpec()  # flat order, corrected spread

    scores, accuracy, phase = _SCRIPT_PRINTS if bug_compatible else (SUMMARY_STATS,) * 3
    summary, per_phase = _summaries(tensors, spec, "relaxed_", scores, phase)
    summary.update(_summaries({"relaxed_accuracy": acc}, spec, "", accuracy, ())[0])
    protocol = {
        "relaxed": True,
        "omega": omega,
        "matrices": matrix_mode.value,
        "truncate": truncate,
        "policy": RELAXED_POLICY.value,
        "order": spec.order.value,
        "std_mode": spec.std_mode.value,
    }
    if bug_compatible:
        protocol.update(bug_compatible=True, watermark=LEGACY_WATERMARK)
    return _report(corpus, protocol, summary, per_phase)
