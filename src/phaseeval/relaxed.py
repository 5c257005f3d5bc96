"""Relaxed-boundary metric variants.

Near an annotated segment boundary, a prediction of a workflow-adjacent
phase counts as correct.  For p phases, a (2p, p + 1) bool table accepts
prediction qhat in the first omega frames of a segment annotated q at
[q, qhat], in its last omega frames at [p + q, qhat]; windows are clamped
to segment bounds and may overlap on short segments.

Two matrix modes exist: GRAPH_DERIVED takes every transition of the
workflow graph; LEGACY takes the rule table of the widely shared
evaluation script restricted to the seven phases, which omits four graph
transitions (start 4<-5, start 5<-6, end 5->4, end 6->5).

relax_flags implements the intended window semantics.  relax_flags_legacy
reproduces the original script's control flow bit-exactly, including its
defect: the boolean mask computed from the *last* omega difference values
is applied to the *first* omega positions of each segment.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    cell_of,
    defined_cells,
    ratio_cells,
    resolve,
)
from .vocab import OMEGA_MAX, LengthMismatch, MatrixMode


RELAXED_KINDS = (PRECISION, RECALL, JACCARD)
# Relaxed scores always drop the phases missing from a video's annotation.
RELAXED_POLICY = UndefinedPolicy.EXCLUDE_MISSING_PHASE


class SegmentShorterThanOmega(PhaseEvalError):
    """The legacy script never saw segments shorter than its window; its
    behaviour there is unspecified, so we refuse instead of guessing."""


class InvalidOmega(PhaseEvalError):
    """The relaxation window omega must be an int, not a bool, within 0..OMEGA_MAX."""


class LegacyGridsUnavailable(PhaseEvalError):
    """The legacy acceptance grids exist only for the 7-phase
    cholecystectomy workflow."""


class InvalidGrids(PhaseEvalError):
    """A workflow edge outside the acceptance table, or a malformed table."""


# The rule groups of relax_flags_legacy over predicted labels 0..9, by
# d = predicted - annotated: start rows by phase, then end rows.  Its first
# seven columns are the LEGACY table's.
_D = np.arange(10) - np.arange(7)[:, None]
_LEGACY_ACCEPT = np.concatenate((
    (_D == -1) | ((_D == -2) & (np.arange(7) >= 5)[:, None]),
    (_D == 1) | ((_D == 2) & (np.arange(7) >= 3)[:, None]),
))


def build_matrices(graph: WorkflowGraph, mode: MatrixMode, phase_count: int) -> np.ndarray:
    """The read-only acceptance table of a workflow graph: start row b and
    end row phase_count + a accept each edge a -> b, and the all-False last
    column every predicted label past the phases.

    LEGACY is only defined for the seven-phase cholecystectomy graph.
    """
    accept = np.zeros((2 * phase_count, phase_count + 1), dtype=bool)
    for a, b in graph.edges:
        if a >= phase_count or b >= phase_count:
            raise InvalidGrids("graph edge outside the phase range")
        accept[b, a] = accept[phase_count + a, b] = True
    if mode is MatrixMode.LEGACY:
        if phase_count != 7 or graph.edges != cholec80_graph().edges:
            raise LegacyGridsUnavailable(
                f"legacy acceptance grids exist only for the 7-phase "
                f"cholecystectomy graph, not a {phase_count}-phase workflow"
            )
        accept[:, :7] = _LEGACY_ACCEPT[:, :7]
    accept.flags.writeable = False
    return accept


def _check_lengths(annotation: LabelSequence, prediction: LabelSequence) -> None:
    n, m = len(annotation), len(prediction)
    if n != m:
        raise LengthMismatch(f"annotation has {n} frames, prediction has {m}")


def check_omega(omega: int) -> int:
    """`omega` as a Python int, if it is an integer within 0..OMEGA_MAX; a
    bool, a float or any other non-integer is refused."""
    if isinstance(omega, bool) or not isinstance(omega, (int, np.integer)):
        raise InvalidOmega(f"omega must be an integer frame count, got {omega!r}")
    if not 0 <= omega <= OMEGA_MAX:
        raise InvalidOmega(f"omega must be within 0..{OMEGA_MAX}, got {omega}")
    return int(omega)


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
    row = np.add(phase, len(accept) // 2, dtype=np.intp)  # uint8 phases would wrap
    table = np.array(((first, put), (first, tail), (phase, row)))
    width = np.repeat(w, 2)
    ends = np.cumsum(width)
    frames = np.repeat(table.transpose(0, 2, 1).reshape(3, -1), width, axis=1)
    frames[:2] += np.arange(ends[-1]) - np.repeat(ends - width, width)  # within each window
    cuts = ends[2 * np.cumsum(counts)[:-1] - 1]  # each later annotation's first frame
    return [_flags(y, *part, accept) for y, part in zip(annotations, np.split(frames, cuts, 1))]


def _flags(annotation: LabelSequence, put, read, row, accept) -> Flags:
    top = accept.shape[1] - 1
    table = accept.ravel()
    start = row * (top + 1)  # each window frame's row of `accept`, in `table`

    def flags(prediction: LabelSequence) -> np.ndarray:
        _check_lengths(annotation, prediction)
        mask = annotation.labels == prediction.labels
        column = prediction.labels[read]
        if prediction.max_label > top:  # then top fits the labels' dtype
            column = np.minimum(column, column.dtype.type(top))
        mask[put[table[start + column]]] = True
        return mask

    return flags


def graph_rules(
    annotations: Sequence[LabelSequence], omega: int, accept: np.ndarray
) -> list[Flags]:
    """The relax_flags rule of each of `annotations` on the acceptance
    table `accept`, with the windows of all of them found in one pass."""
    omega = check_omega(omega)
    accept = np.asarray(accept)
    p = len(accept) // 2 if accept.ndim == 2 else 0
    if p < 1 or accept.shape != (2 * p, p + 1) or accept.dtype != bool:
        raise InvalidGrids(f"not a (2p, p + 1) bool table: {accept.dtype} {accept.shape}")
    phases = PhaseSet(p)
    for y in annotations:
        validate_sequence(y, phases)  # a row for every phase
    segments, counts = _segments(annotations)
    _, first, last = segments
    w = np.minimum(omega, last - first + 1)
    return _rules(annotations, segments, counts, w, accept, False)


def legacy_rules(annotations: Sequence[LabelSequence], omega: int) -> list[Flags]:
    """The relax_flags_legacy rule of each of `annotations`, with the
    windows of all of them found in one pass; the first segment shorter
    than omega, in their order, is refused."""
    omega = check_omega(omega)
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


def relax_flags(
    annotation: LabelSequence,
    prediction: LabelSequence,
    omega: int,
    accept: np.ndarray,
) -> tuple[bool, ...]:
    """Per-frame correctness with the intended window semantics.

    A frame is correct when prediction equals annotation, or when it lies
    in the first omega frames of its annotated segment and the start rows
    of `accept` take the predicted phase, or symmetrically in the last
    omega frames via the end rows.  Windows clamp to the segment and may overlap.
    """
    return tuple(graph_rules((annotation,), omega, accept)[0](prediction).tolist())


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
    return tuple(legacy_rules((annotation,), omega)[0](prediction).tolist())


class RelaxedCounts(NamedTuple):
    """Exact frame counts behind the relaxed scores of one phase, as ints,
    or of several phases (and videos and runs), as arrays of one shape."""

    r_tp: int
    union: int
    predicted: int
    annotated: int


# Pairs of at least this many frames count in four lanes: one bincount
# stalls on runs of one bin, while on shorter pairs the lanes' two extra
# numpy calls cost as much as they save (the table in CHANGES.md).
_LANE_FRAMES = 4096
# Times the size of a square, added to a uint64 view of uint16 bins: frame k
# of each aligned group of four moves k squares up.
_LANE_STEPS = 0x0003_0002_0001_0000


def relaxed_counts(
    annotation: LabelSequence,
    prediction: LabelSequence,
    flags: Sequence[bool],
    phase: int | range,
) -> RelaxedCounts:
    """Count relaxed true positives among frames involving `phase` on
    either side, as ints.  `flags` is a bool mask or a sequence of bools.

    Given `range(n)`, counts phases 0..n-1 at once, each field an (n,)
    int64 array, from the pair's (annotated, predicted) counts of the
    unflagged and the flagged frames.  A pair of at least _LANE_FRAMES
    frames counts them in four lanes when their 4 * 2 * (n + 1)**2 bins fit
    a uint16 index, that is for n up to 89.
    """
    _check_lengths(annotation, prediction)
    flags = np.asarray(flags, dtype=bool)
    if len(flags) != len(annotation):
        raise LengthMismatch("flags do not cover the sequence")
    if not isinstance(phase, range):
        a, b = annotation.labels == phase, prediction.labels == phase
        return RelaxedCounts(*(int(np.count_nonzero(m)) for m in ((a | b) & flags, a | b, b, a)))
    if phase.start != 0 or phase.step != 1:
        raise ValueError(f"phases must be a range from 0 in steps of 1, got {phase}")
    width = len(phase)
    if width > MAX_PHASES:
        raise UnsupportedPhaseCount(f"cannot count {width} phases at once, at most {MAX_PHASES}")

    # Each pair's bin: the annotated and the predicted label, then the flag
    # as the lowest bit, so one bincount counts the unflagged and the flagged
    # (annotated, predicted) squares.  Labels at or past `width` share the
    # bin after the range.  The index is the narrowest unsigned type that
    # holds all 2 * (width + 1)**2 bins.
    square = 2 * (width + 1) ** 2
    lanes = 4 if len(flags) >= _LANE_FRAMES and 4 * square <= 1 << 16 else 1
    index = np.uint16 if square <= 1 << 16 else np.uint32
    a, b = annotation.labels, prediction.labels
    if max(annotation.max_label, prediction.max_label) >= width:  # so width fits their dtype
        a, b = (np.minimum(labels, labels.dtype.type(width)) for labels in (a, b))
    pair = a.astype(index)
    pair *= index(width + 1)
    np.add(pair, b, out=pair, casting="unsafe")
    pair <<= index(1)
    pair |= flags
    if lanes == 4:
        # Each frame of an aligned group of four counts in a square of its
        # own, summed below: most frames fall in the bin of the frame before,
        # and in one square each increment waits for the store before it.
        # 4 * square bins fit 16 bits, so no carry crosses a field; byte order
        # only permutes the lanes, and the last len % 4 frames stay in lane 0.
        groups = pair[: len(pair) // 4 * 4].view(np.uint64)
        groups += np.uint64(_LANE_STEPS * square)
    bins = np.bincount(pair, minlength=lanes * square)
    if lanes == 4:
        bins = np.add.reduce(bins.reshape(4, square), 0)
    bins = bins.reshape(width + 1, width + 1, 2)
    # By label and flag: the frames annotated, predicted, and either (their
    # sum less the diagonal, counted in both).  A phase's relaxed true
    # positives are the flagged frames of either, its union all of them.
    sums = np.empty((3, width + 1, 2), np.int64)
    either, predicted, annotated = sums
    np.add.reduce(bins, 1, out=annotated)
    np.add.reduce(bins, 0, out=predicted)
    np.add(annotated, predicted, out=either)
    either -= bins.reshape(-1, 2)[:: width + 2]
    return RelaxedCounts(either[:width, 1], *np.add.reduce(sums[:, :width], 2))


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
) -> tuple[dict[str, Cells], Cells]:
    """Relaxed precision, recall and jaccard (phase, video, run) cells, with
    the phases missing from a video's annotation excluded, and the relaxed
    accuracy (1, video, run) cells of every pair.  `rules_of(annotations)`
    gives the flag rule of each annotation in video order, shared by every
    run of its video."""
    videos, runs, phases = corpus.videos, corpus.runs, corpus.phases
    annotations = [corpus.annotations[v] for v in videos]
    shape = (len(videos), len(runs))
    counts = np.empty((4, phases.count, *shape), np.int64)
    acc = np.empty((1, *shape))
    for i, (v, y, flags_of) in enumerate(zip(videos, annotations, rules_of(annotations))):
        for j, r in enumerate(runs):
            yhat = corpus.predictions[v][r]
            flags = flags_of(yhat)
            acc[0, i, j] = np.count_nonzero(flags) / len(flags)  # relaxed_accuracy(flags).value
            counts[:, :, i, j] = relaxed_counts(y, yhat, flags, range(phases.count))
    grid = RelaxedCounts(*counts)
    cells = {
        kind: resolve(*relaxed_cells(kind, grid, truncate), RELAXED_POLICY, grid.annotated > 0)
        for kind in RELAXED_KINDS
    }
    return cells, defined_cells(acc)


LEGACY_WATERMARK = "legacy-bug-compatible"


def legacy_pipeline(corpus: Corpus, omega: int) -> tuple[dict[str, Cells], Cells]:
    """The relaxed_tensors of the shared script: its bug-compatible flags on
    its own acceptance rules, truncated."""
    return relaxed_tensors(corpus, lambda ys: legacy_rules(ys, omega), truncate=True)
