"""Relaxed-boundary metric variants.

Near an annotated segment boundary, a prediction of a workflow-adjacent
phase counts as correct.  Acceptance is encoded as two 0/1 matrices:
start[q][qhat] accepts prediction qhat in the first omega frames of a
segment annotated q, end[q][qhat] in the last omega frames.  Windows are
clamped to segment bounds and may overlap on short segments.

Two matrix modes exist: GRAPH_DERIVED takes every transition of the
workflow graph; LEGACY reproduces the grids hardwired in the widely
shared evaluation script, which omit four graph transitions
(start 4<-5, start 5<-6, end 5->4, end 6->5).

relax_flags implements the intended window semantics.  relax_flags_legacy
reproduces the original script's control flow bit-exactly, including its
defect: the boolean mask computed from the *last* omega difference values
is applied to the *first* omega positions of each segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence, overload

import numpy as np

from .aggregate import (
    AveragingOrder,
    ResultTensor,
    SummarySpec,
    summarize,
    video_tensor,
)
from .confusion import LengthMismatch
from .core import (
    LabelSequence,
    PhaseSet,
    WorkflowGraph,
    cholec80_graph,
    extract_segments,
)
from .errors import PhaseEvalError
from .metrics import (
    DEFINED,
    JACCARD,
    PRECISION,
    RECALL,
    Cells,
    MetricCell,
    UndefinedPolicy,
    apply_policy,
    cell_of,
    defined_cells,
    mean_defined,
    ratio_cells,
)


RELAXED_KINDS = (PRECISION, RECALL, JACCARD)
# Relaxed scores always drop the phases missing from a video's annotation.
RELAXED_POLICY = UndefinedPolicy.EXCLUDE_MISSING_PHASE


class SegmentShorterThanOmega(PhaseEvalError):
    """The legacy script never saw segments shorter than its window; its
    behaviour there is unspecified, so we refuse instead of guessing."""


class LegacyGridsUnavailable(PhaseEvalError):
    """The legacy acceptance grids exist only for the 7-phase
    cholecystectomy workflow."""


class MatrixMode(Enum):
    GRAPH_DERIVED = "graph"
    LEGACY = "legacy"


@dataclass(frozen=True)
class RelaxMatrices:
    """Start- and end-window acceptance grids, indexed [annotated][predicted]."""

    start: tuple[tuple[int, ...], ...]
    end: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.start)
        for grid in (self.start, self.end):
            if len(grid) != n or any(len(row) != n for row in grid):
                raise ValueError("acceptance grids must be square and equal-sized")
            for q in range(n):
                if grid[q][q]:
                    raise ValueError("a phase cannot relax into itself")

    @property
    def phase_count(self) -> int:
        return len(self.start)


_LEGACY_DROPPED_START = ((4, 5), (5, 6))
_LEGACY_DROPPED_END = ((5, 4), (6, 5))


def build_matrices(
    graph: WorkflowGraph, mode: MatrixMode, phase_count: int
) -> RelaxMatrices:
    """Acceptance grids from a workflow graph.

    LEGACY is only defined for the seven-phase cholecystectomy graph.
    """
    start = [[0] * phase_count for _ in range(phase_count)]
    end = [[0] * phase_count for _ in range(phase_count)]
    for a, b in graph.edges:
        if a >= phase_count or b >= phase_count:
            raise ValueError("graph edge outside the phase range")
        start[b][a] = 1
        end[a][b] = 1
    if mode is MatrixMode.LEGACY:
        if phase_count != 7 or graph.edges != cholec80_graph().edges:
            raise LegacyGridsUnavailable(
                f"legacy acceptance grids exist only for the 7-phase "
                f"cholecystectomy graph, not a {phase_count}-phase workflow"
            )
        for q, qhat in _LEGACY_DROPPED_START:
            start[q][qhat] = 0
        for q, qhat in _LEGACY_DROPPED_END:
            end[q][qhat] = 0
    return RelaxMatrices(
        tuple(tuple(row) for row in start), tuple(tuple(row) for row in end)
    )


@dataclass(frozen=True)
class RelaxedConfig:
    omega: int = 10
    matrix_mode: MatrixMode = MatrixMode.LEGACY
    truncate: bool = False
    bug_compatible: bool = False

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be non-negative")


def _check_pair(annotation: LabelSequence, prediction: LabelSequence):
    if len(annotation) != len(prediction):
        raise LengthMismatch(
            f"annotation has {len(annotation)} frames, "
            f"prediction has {len(prediction)}"
        )


def relax_flags(
    annotation: LabelSequence,
    prediction: LabelSequence,
    omega: int,
    matrices: RelaxMatrices,
) -> tuple[bool, ...]:
    """Per-frame correctness with the intended window semantics.

    A frame is correct when prediction equals annotation, or when it lies
    in the first omega frames of its annotated segment and the start grid
    accepts the predicted phase, or symmetrically in the last omega frames
    via the end grid.  Windows clamp to the segment and may overlap.
    """
    _check_pair(annotation, prediction)
    n = matrices.phase_count
    # Predicted labels past the grids read the all-False column n.
    yhat = np.minimum(prediction.labels, n)
    flags = annotation.labels == prediction.labels
    start_grid = np.zeros((n, n + 1), dtype=bool)
    end_grid = np.zeros((n, n + 1), dtype=bool)
    start_grid[:, :n] = matrices.start
    end_grid[:, :n] = matrices.end
    for seg in extract_segments(annotation):
        if seg.phase >= n:
            raise ValueError(f"annotated phase {seg.phase} outside acceptance grids")
        w = min(omega, seg.length)
        head = slice(seg.start, seg.start + w)
        tail = slice(seg.end - w + 1, seg.end + 1)
        flags[head] |= start_grid[seg.phase][yhat[head]]
        flags[tail] |= end_grid[seg.phase][yhat[tail]]
    return tuple(flags.tolist())


def relax_flags_legacy(
    annotation: LabelSequence, prediction: LabelSequence, omega: int
) -> tuple[bool, ...]:
    """Bit-exact transcription of the shared MATLAB evaluation loop.

    Works on the signed difference d = prediction - annotation per
    annotated segment.  First the start window is cleared, then a boolean
    mask is computed over the last omega entries of d and applied to the
    first omega positions; the two steps are sequential, so on segments
    shorter than 2*omega the start clearing feeds the end mask.  Segments
    are matched to the script's three rule groups by phase: 0..2 accept
    d=-1 at start and d=1 at end, 3..4 accept d=-1 / d in {1,2}, 5..6
    accept d in {-1,-2} / d in {1,2}.  Phases beyond 6 are left untouched,
    as the script never visits them.
    """
    _check_pair(annotation, prediction)
    d = np.subtract(prediction.labels, annotation.labels, dtype=np.int64)
    for seg in extract_segments(annotation):
        if seg.phase > 6:
            continue
        if seg.length < omega:
            raise SegmentShorterThanOmega(
                f"segment of phase {seg.phase} has {seg.length} frames, "
                f"shorter than omega={omega}"
            )
        head = d[seg.start : seg.start + omega]  # a view: writes go to d
        if seg.phase in (5, 6):
            head[(head == -1) | (head == -2)] = 0
        else:
            head[head == -1] = 0
        tail = d[seg.end - omega + 1 : seg.end + 1]
        if seg.phase >= 3:
            mask = (tail == 1) | (tail == 2)
        else:
            mask = tail == 1
        head[mask] = 0
    return tuple((d == 0).tolist())


@dataclass(frozen=True)
class RelaxedCounts:
    """Exact frame counts behind the relaxed scores of one phase (or
    arrays of them, one entry per phase, video and run)."""

    r_tp: int
    union: int
    predicted: int
    annotated: int


@overload
def relaxed_counts(
    annotation: LabelSequence,
    prediction: LabelSequence,
    flags: Sequence[bool],
    phase: int,
) -> RelaxedCounts: ...


@overload
def relaxed_counts(
    annotation: LabelSequence,
    prediction: LabelSequence,
    flags: Sequence[bool],
    phase: range,
) -> tuple[RelaxedCounts, ...]: ...


def relaxed_counts(annotation, prediction, flags, phase):
    """Count relaxed true positives among frames involving `phase` on
    either side.

    Given a range of phases (e.g. `range(phase_count)`), counts all of
    them in one pass over the frames and returns one entry per phase.
    """
    _check_pair(annotation, prediction)
    if len(flags) != len(annotation):
        raise LengthMismatch("flags do not cover the sequence")
    single = not isinstance(phase, range)
    phases = range(phase, phase + 1) if single else phase
    if phases.step != 1:
        raise ValueError("phases must be a contiguous range")
    width = len(phases)

    # Each label's offset into `phases`.  Labels below the range wrap to
    # huge unsigned values, so every label outside it lands in the one bin
    # past the end: the bins follow the phases asked for, never the labels.
    def offsets(labels):
        off = np.subtract(labels, phases.start, dtype=np.int64).view(np.uint64)
        return np.minimum(off, np.uint64(width), out=off).view(np.int64)

    y, yhat = offsets(annotation.labels), offsets(prediction.labels)
    ok = np.fromiter(flags, dtype=bool, count=len(flags))
    differ = y != yhat

    def count(labels):
        return np.bincount(labels, minlength=width + 1)[:width].tolist()

    annotated = count(y)
    predicted = count(yhat)
    predicted_elsewhere = count(yhat[differ])  # predicted p, annotated not p
    unforgiven = count(y[~ok])  # annotated p, not forgiven: a short selection
    r_tp_elsewhere = count(yhat[ok & differ])
    counts = tuple(
        RelaxedCounts(
            r_tp=annotated[i] - unforgiven[i] + r_tp_elsewhere[i],
            union=annotated[i] + predicted_elsewhere[i],
            predicted=predicted[i],
            annotated=annotated[i],
        )
        for i in range(width)
    )
    return counts[0] if single else counts


def relaxed_cells(kind: str, counts: RelaxedCounts, truncate: bool) -> Cells:
    """Relaxed jaccard, precision or recall from counts whose fields are
    ints or arrays of one shape.

    Relaxed precision and recall divide boundary-forgiven true positives
    by plain prediction and annotation counts, so they can exceed 1;
    truncate caps them at 1.  Jaccard never exceeds 1.
    """
    denominators = {
        JACCARD: counts.union,
        PRECISION: counts.predicted,
        RECALL: counts.annotated,
    }
    if kind not in denominators:
        raise ValueError(f"no relaxed variant of {kind!r}")
    values, state = ratio_cells(counts.r_tp, denominators[kind])
    if truncate:
        values = np.where(values > 1.0, 1.0, values)
    return values, state


def relaxed_metric(kind: str, counts: RelaxedCounts, truncate: bool) -> MetricCell:
    """The relaxed_cells of one phase's counts."""
    return cell_of(*relaxed_cells(kind, counts, truncate))


def relaxed_accuracy(flags: tuple[bool, ...]) -> MetricCell:
    """Fraction of frames whose prediction is exactly or forgivably right."""
    if not flags:
        raise ValueError("no frames")
    return MetricCell.defined(sum(flags) / len(flags))


def relaxed_tensors(
    annotations: Mapping[int, LabelSequence],
    predictions: Mapping[int, Mapping[str, LabelSequence]],
    flags_of: Callable[[LabelSequence, LabelSequence], tuple[bool, ...]],
    phases: PhaseSet,
    truncate: bool,
) -> tuple[dict[str, ResultTensor], ResultTensor]:
    """Relaxed precision, recall and jaccard tensors, with the phases
    missing from a video's annotation excluded, and the relaxed accuracy
    tensor of every (video, run) pair.  `flags_of(annotation, prediction)`
    gives a pair's relaxation flags."""
    videos = sorted(annotations)
    if not videos:
        raise ValueError("need at least one video")
    runs = sorted(predictions[videos[0]])
    counts, acc = [], []
    for v in videos:
        if sorted(predictions[v]) != runs:
            raise ValueError(f"video {v} has a different run set")
        for r in runs:
            y, yhat = annotations[v], predictions[v][r]
            flags = flags_of(y, yhat)
            acc.append(relaxed_accuracy(flags).value)
            counts.append([
                (c.r_tp, c.union, c.predicted, c.annotated)
                for c in relaxed_counts(y, yhat, flags, range(phases.count))
            ])
    shape = (len(videos), len(runs))
    stack = np.array(counts, dtype=np.int64).reshape(*shape, phases.count, 4)
    grid = RelaxedCounts(*np.moveaxis(stack, (3, 2), (0, 1)))  # (phase, video, run)
    tensors = {
        kind: apply_policy(
            ResultTensor.build(phases, videos, runs, relaxed_cells(kind, grid, truncate)),
            RELAXED_POLICY,
            grid.annotated > 0,
        )
        for kind in RELAXED_KINDS
    }
    return tensors, video_tensor(videos, runs, defined_cells(np.array(acc).reshape(shape)))


LEGACY_WATERMARK = "legacy-bug-compatible"


@dataclass(frozen=True)
class LegacyReport:
    """Output shape of the legacy evaluation: per-phase means pooled over
    videos and runs, their mean and spread over phases, and accuracy with
    spread over videos."""

    omega: int
    phase_means: dict[str, tuple[float | None, ...]]
    means: dict[str, float | None]
    spreads: dict[str, float | None]
    accuracy_mean: float
    accuracy_sd: float | None
    watermark: str = LEGACY_WATERMARK


def legacy_pipeline(
    annotations: Mapping[int, LabelSequence],
    predictions: Mapping[int, Mapping[str, LabelSequence]],
    config: RelaxedConfig,
    phases: PhaseSet,
) -> LegacyReport:
    """Reproduce the shared script's evaluation end to end.

    Fixed choices, validated on entry: bug-compatible flags, legacy
    acceptance rules, truncation, and missing-phase exclusion.  Per-phase
    scores are pooled over videos and runs first, then averaged over
    phases; the spread is the corrected std over the phase means.
    Accuracy is averaged with a corrected std over videos.
    """
    if not (config.bug_compatible and config.truncate):
        raise ValueError("legacy evaluation requires bug_compatible and truncate")
    if config.matrix_mode is not MatrixMode.LEGACY:
        raise ValueError("legacy evaluation uses the legacy acceptance rules")
    tensors, acc = relaxed_tensors(
        annotations, predictions,
        lambda y, yhat: relax_flags_legacy(y, yhat, config.omega), phases, truncate=True,
    )
    spec = SummarySpec(order=AveragingOrder.VIDEO_FIRST)
    summaries = {kind: summarize(t, spec) for kind, t in tensors.items()}
    accuracy = summarize(acc, spec)
    phase_means = {}
    for kind, t in tensors.items():
        means, state = mean_defined(t.values, t.state, (1, 2))
        phase_means[kind] = tuple(
            x if s == DEFINED else None for x, s in zip(means.tolist(), state.tolist())
        )
    return LegacyReport(
        omega=config.omega,
        phase_means=phase_means,
        means={kind: s.mean for kind, s in summaries.items()},
        spreads={kind: s.sd_phases for kind, s in summaries.items()},
        accuracy_mean=accuracy.mean,
        accuracy_sd=accuracy.sd_videos,
    )
