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
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Sequence, overload

import numpy as np

from .aggregate import ResultTensor, video_tensor
from .core import (
    MAX_PHASES,
    LabelSequence,
    PhaseSet,
    UnsupportedPhaseCount,
    WorkflowGraph,
    cholec80_graph,
    segment_bounds,
    validate_sequence,
)
from .errors import PhaseEvalError
from .io import Corpus
from .metrics import (
    JACCARD,
    PRECISION,
    RECALL,
    Cells,
    MetricCell,
    UndefinedPolicy,
    apply_policy,
    cell_of,
    defined_cells,
    ratio_cells,
)
from .vocab import OMEGA_MAX, LengthMismatch, MatrixMode


RELAXED_KINDS = (PRECISION, RECALL, JACCARD)
# Relaxed scores always drop the phases missing from a video's annotation.
RELAXED_POLICY = UndefinedPolicy.EXCLUDE_MISSING_PHASE


class SegmentShorterThanOmega(PhaseEvalError):
    """The legacy script never saw segments shorter than its window; its
    behaviour there is unspecified, so we refuse instead of guessing."""


class InvalidOmega(PhaseEvalError):
    """The relaxation window omega must be a frame count within 0..OMEGA_MAX."""


class LegacyGridsUnavailable(PhaseEvalError):
    """The legacy acceptance grids exist only for the 7-phase
    cholecystectomy workflow."""


class InvalidGrids(PhaseEvalError):
    """Malformed acceptance grids, or a workflow edge outside them."""


@dataclass(frozen=True)
class RelaxMatrices:
    """Start- and end-window acceptance grids, indexed [annotated][predicted]."""

    start: tuple[tuple[int, ...], ...]
    end: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.start)
        for grid in (self.start, self.end):
            if len(grid) != n or any(len(row) != n for row in grid):
                raise InvalidGrids("acceptance grids must be square and equal-sized")
            for q in range(n):
                if grid[q][q]:
                    raise InvalidGrids("a phase cannot relax into itself")

    @property
    def phase_count(self) -> int:
        return len(self.start)

    @cached_property
    def accept(self) -> np.ndarray:
        """Read-only bool table of both grids: start rows, then end rows,
        with an all-False last column for predicted labels past the grids."""
        accept = np.pad(np.concatenate((self.start, self.end)), ((0, 0), (0, 1))) > 0
        accept.flags.writeable = False
        return accept


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
            raise InvalidGrids("graph edge outside the phase range")
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


def _check_lengths(annotation: LabelSequence, prediction: LabelSequence) -> None:
    n, m = len(annotation), len(prediction)
    if n != m:
        raise LengthMismatch(f"annotation has {n} frames, prediction has {m}")


def _check_omega(omega: int) -> None:
    if not 0 <= omega <= OMEGA_MAX:
        raise InvalidOmega(f"omega must be within 0..{OMEGA_MAX}, got {omega}")


Flags = Callable[[LabelSequence], np.ndarray]


def _segments(annotations: Sequence[LabelSequence]):
    """The phase, first and last frame of every segment of `annotations`,
    concatenated in their order, and how many segments each one has."""
    bounds = [segment_bounds(y) for y in annotations]
    return tuple(map(np.concatenate, zip(*bounds))), [len(phase) for phase, _, _ in bounds]


def _rules(annotations, segments, counts, w, accept, end_on_head: bool) -> list[Flags]:
    """The flag rule of each of `annotations`, from the _segments of them
    and each segment's window width w: prediction -> bool mask, exact
    agreement set True where `accept` forgives.  A segment's start window,
    its first w frames, reads the start rows of `accept` (first half, by
    phase), its end window, its last w frames, the end rows; with
    `end_on_head` the end verdict lands on the start frame at the same
    offset (the legacy defect).  The all-False last column of `accept` takes
    every predicted label past the table."""
    phase, first, last = segments
    tail = last - w + 1
    # The frame each window's verdicts start landing on, the frame it starts
    # reading at, and its row of `accept`: both windows of each segment in
    # segment order, so the frames of one annotation's windows are one slice.
    put = first if end_on_head else tail
    table = np.array(((first, put), (first, tail), (phase, phase + len(accept) // 2)))
    width = np.repeat(w, 2)
    ends = np.cumsum(width)
    frames = np.repeat(table.transpose(0, 2, 1).reshape(3, -1), width, axis=1)
    frames[:2] += np.arange(ends[-1]) - np.repeat(ends - width, width)  # within each window
    cuts = ends[2 * np.cumsum(counts)[:-1] - 1]  # each later annotation's first frame
    return [_flags(y, *part, accept) for y, part in zip(annotations, np.split(frames, cuts, 1))]


def _flags(annotation: LabelSequence, put, read, row, accept) -> Flags:
    top = accept.shape[1] - 1

    def flags(prediction: LabelSequence) -> np.ndarray:
        _check_lengths(annotation, prediction)
        mask = annotation.labels == prediction.labels
        mask[put[accept[row, np.minimum(prediction.labels[read], top)]]] = True
        return mask

    return flags


def graph_rules(
    annotations: Sequence[LabelSequence], omega: int, matrices: RelaxMatrices
) -> list[Flags]:
    """The graph_rule of each of `annotations`, with the windows of all of
    them found in one pass."""
    _check_omega(omega)
    phases = PhaseSet(matrices.phase_count)
    for y in annotations:
        validate_sequence(y, phases)  # a row for every phase
    segments, counts = _segments(annotations)
    _, first, last = segments
    w = np.minimum(omega, last - first + 1)
    return _rules(annotations, segments, counts, w, matrices.accept, False)


def graph_rule(annotation: LabelSequence, omega: int, matrices: RelaxMatrices) -> Flags:
    """relax_flags for the predictions of one annotation, whose windows (the
    first and last min(omega, length) frames of each segment) are found once."""
    return graph_rules((annotation,), omega, matrices)[0]


# The rule groups of relax_flags_legacy over predicted labels 0..9, by
# d = predicted - annotated: start rows by phase, then end rows.
_D = np.arange(10) - np.arange(7)[:, None]
_LEGACY_ACCEPT = np.concatenate((
    (_D == -1) | ((_D == -2) & (np.arange(7) >= 5)[:, None]),
    (_D == 1) | ((_D == 2) & (np.arange(7) >= 3)[:, None]),
))


def legacy_rules(annotations: Sequence[LabelSequence], omega: int) -> list[Flags]:
    """The legacy_rule of each of `annotations`, with the windows of all of
    them found in one pass; the first segment shorter than omega, in their
    order, is refused."""
    _check_omega(omega)
    segments, counts = _segments(annotations)
    phase, first, last = segments
    w = np.where(phase <= 6, omega, 0)
    short = np.flatnonzero(last - first + 1 < w)
    if len(short):
        i = short[0]
        raise SegmentShorterThanOmega(
            f"segment of phase {phase[i]} has {last[i] - first[i] + 1} frames, "
            f"shorter than omega={omega}"
        )
    return _rules(annotations, segments, counts, w, _LEGACY_ACCEPT, True)


def legacy_rule(annotation: LabelSequence, omega: int) -> Flags:
    """relax_flags_legacy for the predictions of one annotation: the first
    omega frames of each segment of phases 0..6, forgiven by the start rule
    in place or by the end rule at the same offset in its last omega frames."""
    return legacy_rules((annotation,), omega)[0]


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
    return tuple(graph_rule(annotation, omega, matrices)(prediction).tolist())


def relax_flags_legacy(
    annotation: LabelSequence, prediction: LabelSequence, omega: int
) -> tuple[bool, ...]:
    """Bit-exact transcription of the shared MATLAB evaluation loop.

    Works on the signed difference d = prediction - annotation per
    annotated segment.  First the start window is cleared, then a boolean
    mask is computed over the last omega entries of d and applied to the
    first omega positions.  On segments shorter than 2*omega the clearing
    feeds the end mask, but it only zeroes negative d and the end rules
    accept only positive d, so the mask is the same either way.  Segments
    are matched to the script's three rule groups by phase: 0..2 accept
    d=-1 at start and d=1 at end, 3..4 accept d=-1 / d in {1,2}, 5..6
    accept d in {-1,-2} / d in {1,2}.  Phases beyond 6 are left untouched,
    as the script never visits them.
    """
    return tuple(legacy_rule(annotation, omega)(prediction).tolist())


class RelaxedCounts(NamedTuple):
    """Exact frame counts behind the relaxed scores of one phase (or
    arrays of them, one entry per phase, video and run)."""

    r_tp: int
    union: int
    predicted: int
    annotated: int


# Rows r_tp, union, predicted and annotated; columns the diagonals, row sums
# and column sums of the unflagged and flagged squares.  A phase's relaxed true
# positives are the flagged frames annotated or predicted as it, its union all
# such frames: row plus column less the diagonal, counted in it twice.
_COMBINE = np.array([
    [0, -1, 0, 1, 0, 1], [-1, -1, 1, 1, 1, 1], [0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0]])


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
    either side.  `flags` is a bool mask or a sequence of bools.

    Given a range of phases (e.g. `range(phase_count)`), counts all of
    them at once and returns one entry per phase, from the pair's
    (annotated, predicted) counts of the unflagged and the flagged frames.
    """
    _check_lengths(annotation, prediction)
    if len(flags) != len(annotation):
        raise LengthMismatch("flags do not cover the sequence")
    single = not isinstance(phase, range)
    phases = range(phase, phase + 1) if single else phase
    if phases.step != 1:
        raise ValueError("phases must be a contiguous range")
    width = max(phases.stop - phases.start, 0)
    if width > MAX_PHASES:
        raise UnsupportedPhaseCount(f"cannot count {width} phases at once, at most {MAX_PHASES}")

    # Each pair's bin: the annotated and the predicted label's offsets into
    # `phases`, then the flag as the lowest bit, so one bincount counts the
    # unflagged and the flagged (annotated, predicted) squares.  The index
    # is the narrowest unsigned type that holds all 2 * (width + 1)**2 bins.
    index = np.uint16 if 2 * (width + 1) ** 2 <= 2**16 else np.uint32
    if phases.start == 0 and max(annotation.max_label, prediction.max_label) < width:
        a, b = annotation.labels, prediction.labels  # each label is its own offset
    else:
        # Offsets in uint32: labels (0..2**31-1) below the range wrap to huge
        # values, so every label outside it lands in the one bin past the end;
        # the bins follow the phases, never the labels.  A start outside
        # +-2**31 holds no label; clamping keeps the wrap exact.
        start = np.uint32(min(max(phases.start, -(2**31)), 2**31) % 2**32)
        a, b = (
            np.minimum(np.subtract(labels.view(np.uint32), start), np.uint32(width))
            for labels in (annotation.labels, prediction.labels)
        )
    pair = a.astype(index)
    pair *= index(width + 1)
    np.add(pair, b, out=pair, casting="unsafe")
    pair <<= index(1)
    pair |= np.asarray(flags, dtype=bool)
    bins = np.bincount(pair, minlength=2 * (width + 1) ** 2).reshape(width + 1, width + 1, 2)
    parts = np.concatenate((bins.diagonal(0, 0, 1), bins.sum(1).T, bins.sum(0).T))[:, :width]
    counts = tuple(map(RelaxedCounts._make, (_COMBINE @ parts).T.tolist()))
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


def relaxed_accuracy(flags: Sequence[bool]) -> MetricCell:
    """Fraction of frames whose prediction is exactly or forgivably right."""
    if len(flags) == 0:
        raise ValueError("no frames")
    return MetricCell.defined(np.count_nonzero(flags) / len(flags))


def relaxed_tensors(
    corpus: Corpus,
    rules_of: Callable[[Sequence[LabelSequence]], Sequence[Flags]],
    truncate: bool,
) -> tuple[dict[str, ResultTensor], ResultTensor]:
    """Relaxed precision, recall and jaccard tensors, with the phases
    missing from a video's annotation excluded, and the relaxed accuracy
    tensor of every (video, run) pair.  `rules_of(annotations)` gives the
    flag rule of each annotation in video order, shared by every run of
    its video."""
    videos, runs, phases = corpus.videos, corpus.runs, corpus.phases
    annotations = [corpus.annotations[v] for v in videos]
    counts, acc = [], []
    for v, y, flags_of in zip(videos, annotations, rules_of(annotations)):
        for r in runs:
            yhat = corpus.predictions[v][r]
            flags = flags_of(yhat)
            acc.append(np.count_nonzero(flags) / len(flags))  # relaxed_accuracy(flags).value
            counts.append(relaxed_counts(y, yhat, flags, range(phases.count)))
    shape = (len(videos), len(runs))
    stack = np.fromiter(chain.from_iterable(chain.from_iterable(counts)), np.int64)
    grid = RelaxedCounts(*np.moveaxis(stack.reshape(*shape, -1, 4), (3, 2), (0, 1)))
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


def legacy_pipeline(corpus: Corpus, omega: int) -> tuple[dict[str, ResultTensor], ResultTensor]:
    """The relaxed_tensors of the shared script: its bug-compatible flags on
    its own acceptance rules, truncated."""
    return relaxed_tensors(corpus, lambda ys: legacy_rules(ys, omega), truncate=True)
