"""Report assembly: the regular and the boundary-relaxed report of a
loaded corpus, each with the protocol block that produced it."""

from __future__ import annotations

import numpy as np

from .aggregate import AveragingOrder, Groupings, MetricSummary, StdMode, SummarySpec
from .core import assumed_workflow
from .errors import PhaseEvalError
from .io import Corpus, EvaluationReport
from .metrics import (
    F1,
    METRIC_KINDS,
    PRECISION,
    RECALL,
    Cells,
    DegenerateMeans,
    UndefinedPolicy,
    accuracy_cells,
    f1_of_means_cells,
    f1_upper,
    macro_cells,
    mean_defined,
    phase_cells,
    phase_counts,
    resolve,
)
from .relaxed import (
    LEGACY_WATERMARK,
    RELAXED_POLICY,
    MatrixMode,
    build_matrices,
    check_omega,
    graph_rules,
    legacy_pipeline,
    relaxed_tensors,
)
from .vocab import SUMMARY_STATS


class BugCompatConflict(PhaseEvalError):
    """Bug-compatible mode runs only on the legacy grids, truncated."""


def check_bug_compat(matrix_mode: MatrixMode, truncate: bool, bug_compatible: bool) -> None:
    """Refuse bug-compatible mode off the truncated legacy grids."""
    if bug_compatible and (matrix_mode is not MatrixMode.LEGACY or not truncate):
        raise BugCompatConflict("bug-compatible mode needs the legacy grids and truncation")


def _report(corpus: Corpus, protocol: dict, summary: dict, per_phase: dict) -> EvaluationReport:
    protocol = {"split": corpus.split or "unknown", **protocol, "runs": len(corpus.runs)}
    named, _ = assumed_workflow(corpus.phases)
    return EvaluationReport(protocol, summary, per_phase, tuple(map(named.name_of, named)))


def _summaries(
    cells: dict[str, Cells],
    spec: SummarySpec,
    prefix: str = "",
    stats=SUMMARY_STATS,
    phase_stats=SUMMARY_STATS,
):
    """Summary of each named metric's (phase, video, run) cells, all of one
    shape, and of each of its phases, from the groupings of their stack.
    Only `stats` of a metric and `phase_stats` of a phase are computed."""
    groupings = Groupings(*map(np.stack, zip(*cells.values())), spec.std_mode)
    groups, rows = groupings.summaries(spec.order, stats), groupings.phase_rows(phase_stats)
    names = [prefix + k for k in cells]
    per_phase = {p: {k: r[p] for k, r in zip(names, rows)} for p in range(groupings.phases)}
    return dict(zip(names, groups)), per_phase


# ----------------------------------------------------------- evaluate

def run_evaluate(
    corpus: Corpus,
    policy: UndefinedPolicy,
    order: AveragingOrder,
    std_mode: StdMode,
) -> EvaluationReport:
    """Regular (unrelaxed) metric report over a loaded corpus."""
    counts, *per_pair = corpus.counts  # per_pair: (phase, video, run) arrays
    spec = SummarySpec(std_mode=std_mode, order=order)
    cells = {
        kind: resolve(*phase_cells(kind, *per_pair), policy, per_pair[1] > 0)
        for kind in METRIC_KINDS
    }
    summary, per_phase = _summaries(cells, spec)

    # each kind's macro_cells, from its cells resolved above
    macro = {kind: mean_defined(*cells[kind], 0) for kind in (PRECISION, RECALL, F1)}
    per_video = {
        "accuracy": accuracy_cells(counts),
        **{"macro_" + kind: c for kind, c in macro.items()},
        "bold_macro_f1": f1_of_means_cells(macro[PRECISION], macro[RECALL]),
    }
    summary.update(_summaries({
        name: (values[None], state[None]) for name, (values, state) in per_video.items()
    }, spec, phase_stats=())[0])

    mp, mr = summary[PRECISION].mean, summary[RECALL].mean
    if mp is not None and mr is not None:
        try:
            summary["f1_upper"] = MetricSummary(f1_upper(mp, mr), None, None, None)
        except DegenerateMeans:
            pass

    # macro f1 of each run's matrix pooled over videos, as one video
    frame, frame_state = macro_cells(F1, *phase_counts(counts.sum(axis=0)), policy)
    pooled = {"frame_f1": (frame[None, None], frame_state[None, None])}
    summary.update(_summaries(pooled, spec, phase_stats=())[0])
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
    check_bug_compat(matrix_mode, truncate, bug_compatible)
    # Both modes pass the table's phase-count check, though only one uses it.
    accept = build_matrices(assumed_workflow(phases)[1], matrix_mode, phases.count)
    omega = check_omega(omega)  # the int the report records
    if bug_compatible:
        cells, acc = legacy_pipeline(corpus, omega)
        spec = SummarySpec(order=AveragingOrder.VIDEO_FIRST)
    else:
        cells, acc = relaxed_tensors(corpus, lambda ys: graph_rules(ys, omega, accept), truncate)
        spec = SummarySpec()  # flat order, corrected spread

    scores, accuracy, phase = _SCRIPT_PRINTS if bug_compatible else (SUMMARY_STATS,) * 3
    summary, per_phase = _summaries(cells, spec, "relaxed_", scores, phase)
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
