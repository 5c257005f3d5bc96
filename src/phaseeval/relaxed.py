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

from bisect import bisect_right
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    MAX_PHASES,
    LabelSequence,
    PhaseSet,
    UnsupportedPhaseCount,
    WorkflowGraph,
    cholec80_graph,
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


class Windows(NamedTuple):
    """Each window frame of annotations laid end to end: the frame its
    verdict reads and the frame it lands on, and its row's offset into the
    flat table `accept`; and the annotations' labels laid end to end, one
    annotation's as they are."""

    put: np.ndarray
    read: np.ndarray
    row: np.ndarray
    accept: np.ndarray
    labels: np.ndarray


def _chunks(frames: list[int], cap: int):
    """(i, j) of each chunk, in order, of the items i .. j - 1 laid end to
    end at `frames`: at most `cap` frames, or one item."""
    i = 0
    while i < len(frames) - 1:
        j = max(i + 1, bisect_right(frames, frames[i] + cap) - 1)
        yield i, j
        i = j


def _segments(annotations: Sequence[LabelSequence]):
    """The labels of `annotations` laid end to end, one annotation's as
    they are, then the phase, first and last frame of every segment of
    them, cut at each annotation's first frame."""
    ys = [y.labels for y in annotations]
    labels = np.concatenate(ys) if len(ys) > 1 else ys[0]
    cut = np.empty(len(labels) + 1, bool)
    np.not_equal(labels[1:], labels[:-1], out=cut[1:-1])
    cut[[0, *accumulate(map(len, ys))]] = True  # each annotation's first frame, and the end
    bounds = cut.nonzero()[0]
    return labels, labels[bounds[:-1]], bounds[:-1], bounds[1:] - 1


def _rules(segments, w, accept, end_on_head: bool) -> Windows:
    """The Windows of annotations from the _segments of them and each
    segment's window width w.  A segment's start window, its first w
    frames, reads the start rows of `accept` (first half, by phase), its
    end window, its last w frames, the end rows; with `end_on_head` the
    end verdict lands on the start frame at the same offset (the legacy
    defect)."""
    labels, phase, first, last = segments
    p = len(accept) // 2
    width = np.concatenate((w, w))  # every start window, then every end window
    read = _ramps(np.concatenate((first, last - w + 1)), width)
    put = np.concatenate([read[: len(read) // 2]] * 2) if end_on_head else read  # start windows twice
    rows = np.concatenate((phase, np.add(phase, p, dtype=np.intp)))  # uint8 would wrap
    row = (rows * accept.shape[1]).repeat(width)
    return Windows(put, read, row, accept, labels)


def _ramps(starts, width) -> np.ndarray:
    """The frames starts[i] .. starts[i] + width[i] - 1 of every window, in
    order, in one array: each frame's place in it, plus its window's start
    less the window's first place."""
    ends = width.cumsum()
    return (starts - ends + width).repeat(width) + np.arange(ends[-1])


def window_flags(windows: Windows, videos) -> np.ndarray:
    """The (runs, frames) bool mask of the annotations of `windows` and
    `videos`, the runs of each in one dtype, laid end to end: exact
    agreement, set True where the table forgives.  Its all-False last
    column takes every predicted label past the table."""
    top = windows.accept.shape[1] - 1
    if len(videos) == 1:  # its runs stacked in one call
        labels = np.array([run.labels for run in videos[0]])
    else:
        labels = np.empty((len(videos[0]), len(windows.labels)), videos[0][0].labels.dtype)
        for r in range(len(labels)):  # each run's labels, video after video
            np.concatenate([runs[r].labels for runs in videos], out=labels[r])
    mask = windows.labels == labels
    column = np.take(labels, windows.read, 1)  # one gather for all runs
    if max(run.max_label for runs in videos for run in runs) > top:  # then top fits
        column = np.minimum(column, column.dtype.type(top))
    # The verdicts land in the flat mask, where each run follows the last.
    at = windows.put + np.arange(0, mask.size, mask.shape[1])[:, None]
    mask.reshape(-1)[at[windows.accept.ravel()[windows.row + column]]] = True
    return mask


def graph_rules(annotations: Sequence[LabelSequence], omega: int, accept: np.ndarray) -> Windows:
    """The relax_flags Windows of `annotations` on the acceptance table
    `accept`."""
    omega = check_omega(omega)
    accept = np.asarray(accept)
    p = len(accept) // 2 if accept.ndim == 2 else 0
    if p < 1 or accept.shape != (2 * p, p + 1) or accept.dtype != bool:
        raise InvalidGrids(f"not a (2p, p + 1) bool table: {accept.dtype} {accept.shape}")
    phases = PhaseSet(p)
    for y in annotations:
        validate_sequence(y, phases)  # a row for every phase
    segments = *_, first, last = _segments(annotations)
    return _rules(segments, np.minimum(omega, last - first + 1), accept, False)


def legacy_rules(annotations: Sequence[LabelSequence], omega: int) -> Windows:
    """The relax_flags_legacy Windows of `annotations`; the first segment
    shorter than omega, in their order, is refused."""
    omega = check_omega(omega)
    segments = _, phase, first, last = _segments(annotations)
    w = np.where(phase <= 6, omega, 0)
    short = (last - first + 1 < w).nonzero()[0]
    if len(short):
        i = short[0]
        raise SegmentShorterThanOmega(
            f"segment of phase {phase[i]} has {last[i] - first[i] + 1} frames, "
            f"shorter than omega={omega}"
        )
    return _rules(segments, w, _LEGACY_ACCEPT, True)


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
    windows = graph_rules((annotation,), omega, accept)
    _check_lengths(annotation, prediction)
    return tuple(window_flags(windows, ((prediction,),))[0].tolist())


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
    windows = legacy_rules((annotation,), omega)
    _check_lengths(annotation, prediction)
    return tuple(window_flags(windows, ((prediction,),))[0].tolist())


class RelaxedCounts(NamedTuple):
    """Exact frame counts behind the relaxed scores of one phase, as ints,
    or of several phases (and videos and runs), as arrays of one shape."""

    r_tp: int
    union: int
    predicted: int
    annotated: int


# Groups of at least this many frames count in four lanes: one bincount
# stalls on runs of one bin, while on shorter groups the lanes' two extra
# numpy calls cost as much as they save (the table in CHANGES.md).
_LANE_FRAMES = 4096
# Times the size of a block, added to a uint64 view of uint16 bins: frame k
# of each aligned group of four moves k blocks up.
_LANE_STEPS = 0x0003_0002_0001_0000
# A chunk of whole videos holds at most this many (run, frame) pairs, or one
# video, and a group of its runs this many frames, or one run: the arrays of
# a longer group cost more in fresh pages than the calls they save (at 25
# fps, 563 against 322 minor faults a relaxed report, CHANGES.md).
_GROUP_FRAMES = 1 << 16


def relaxed_counts(
    annotation: LabelSequence | Sequence[LabelSequence],
    prediction: LabelSequence | Sequence[LabelSequence] | Sequence[Sequence[LabelSequence]],
    flags: Sequence[bool],
    phase: int | range,
) -> RelaxedCounts:
    """Count relaxed true positives among frames involving `phase` on
    either side, as ints.  `flags` is a bool mask or a sequence of bools.

    Given `range(n)`, counts phases 0..n-1 at once, each field an (n,)
    int64 array, from the pair's (annotated, predicted) counts of the
    unflagged and the flagged frames.  `prediction` may then also be the
    runs of `annotation`, with a (runs, frames) mask, each field (n, runs),
    or `annotation` a chunk's annotations laid end to end, `prediction` the
    runs of each and `flags` the chunk's mask, as window_flags gives it,
    each field (n, videos, runs).  One bincount counts a group of runs, each
    (video, run) pair's bins a square of its own; when a group in four
    blocks of its squares holds _LANE_FRAMES frames, for n up to 89, every
    group counts in four.  A group holds as many runs as a uint16 index
    holds the bins of, and of _GROUP_FRAMES, and at least one; each video's
    runs count apart when a run's squares pass that index, so no bincount
    holds more than max(2**16, 2 * (n + 1)**2) bins.
    """
    single, chunk = isinstance(prediction, LabelSequence), not isinstance(annotation, LabelSequence)
    annotations = tuple(annotation) if chunk else (annotation,)
    videos = [tuple(runs) for runs in (prediction if chunk else [[prediction] if single else prediction])]
    if len(videos) != len(annotations) or len({len(runs) for runs in videos}) != 1:
        raise LengthMismatch("each annotation needs runs of its own, as many as the others")
    for y, runs in zip(annotations, videos):
        for run in runs:
            _check_lengths(y, run)
    lengths = [len(y) for y in annotations]
    edges, runs = [0, *accumulate(lengths)], len(videos[0])
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != ((edges[-1],) if single else (runs, edges[-1])):
        raise LengthMismatch("flags do not cover the sequence")
    if not isinstance(phase, range):
        if not single:
            raise TypeError("one phase is counted in one prediction")
        a, b = annotation.labels == phase, prediction.labels == phase
        return RelaxedCounts(*(int(np.count_nonzero(m)) for m in ((a | b) & flags, a | b, b, a)))
    if phase.start != 0 or phase.step != 1:
        raise ValueError(f"phases must be a range from 0 in steps of 1, got {phase}")
    width = len(phase)
    if width > MAX_PHASES:
        raise UnsupportedPhaseCount(f"cannot count {width} phases at once, at most {MAX_PHASES}")
    square = 2 * (width + 1) ** 2
    unit = len(videos) * square  # a run's squares
    counts = np.empty((4, width, len(videos), runs), np.int64)
    if len(videos) > 1 and unit > 1 << 16:
        for v, (lo, hi) in enumerate(zip(edges, edges[1:])):
            counts[:, :, v] = relaxed_counts(annotations[v], videos[v], flags[:, lo:hi], phase)
        return RelaxedCounts(*counts)

    # Each frame's bin: its pair's square in its group, the annotated and
    # the predicted label, then the flag as the lowest bit, so one bincount
    # counts the unflagged and the flagged (annotated, predicted) squares of
    # every pair of a group.  Labels at or past `width` share the bin after
    # the range.  The index is the narrowest unsigned type that holds a
    # group's bins.
    group = max(1, min((1 << 16) // (4 * unit), _GROUP_FRAMES // edges[-1], runs))
    lanes = 4 if group * edges[-1] >= _LANE_FRAMES and 4 * unit <= 1 << 16 else 1
    group = max(1, min((1 << 16) // (lanes * unit), _GROUP_FRAMES // edges[-1]))
    index = np.uint16 if square <= 1 << 16 else np.uint32
    ys = [y.labels for y in annotations]
    a = np.concatenate(ys) if len(ys) > 1 else ys[0]
    if max(y.max_label for y in annotations) >= width:  # so width fits their dtype
        a = np.minimum(a, a.dtype.type(width))
    scaled = a.astype(index)
    scaled *= index(width + 1)
    if len(videos) > 1:  # video v's frames move v squares up
        scaled += np.repeat(np.arange(len(videos), dtype=index) * index(square // 2), lengths)
    for first in range(0, runs, group):
        held = min(group, runs - first)
        pair = np.add.outer(np.arange(held, dtype=index) * index(unit // 2), scaled)
        for row, r in zip(pair, range(first, first + held)):
            run = [each[r] for each in videos]  # its prediction of each video
            b = np.concatenate([seq.labels for seq in run]) if len(run) > 1 else run[0].labels
            if max(seq.max_label for seq in run) >= width:
                b = np.minimum(b, b.dtype.type(width))
            np.add(row, b, out=row, casting="unsafe")  # b <= width: the cast is exact
        pair += pair
        pair |= flags.reshape(runs, -1)[first : first + held]
        flat = pair.reshape(-1)
        block = held * unit
        if lanes == 4:
            # Each frame of an aligned group of four counts in a block of its
            # own, summed below: most frames fall in the bin of the frame
            # before, and in one block each increment waits for the store
            # before it.  4 * block bins fit 16 bits, so no carry crosses a
            # field; byte order only permutes the lanes, and the last
            # len % 4 frames stay in lane 0.
            quads = flat[: len(flat) // 4 * 4].view(np.uint64)
            quads += np.uint64(_LANE_STEPS * block)
        bins = np.bincount(flat, minlength=lanes * block)
        if lanes == 4:
            bins = np.add.reduce(bins.reshape(4, block), 0)
        bins = bins.reshape(held, len(videos), width + 1, width + 1, 2)
        # By pair, label and flag: the frames annotated, predicted, and either
        # (their sum less the diagonal, counted in both).  A phase's relaxed
        # true positives are the flagged frames of either, its union all of them.
        sums = np.empty((3, *bins.shape[:3], 2), np.int64)
        either, predicted, annotated = sums
        np.add.reduce(bins, 3, out=annotated)
        np.add.reduce(bins, 2, out=predicted)
        np.add(annotated, predicted, out=either)
        either -= bins.reshape(held, len(videos), -1, 2)[:, :, :: width + 2]
        part = counts[..., first : first + held].transpose(0, 3, 2, 1)
        part[0] = either[..., :width, 1]
        np.add.reduce(sums[..., :width, :], 4, out=part[1:])
    return RelaxedCounts(*(counts if chunk else counts[..., 0, 0] if single else counts[:, :, 0]))


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
    corpus: Corpus, rules_of: Callable[[Sequence[LabelSequence]], Windows], truncate: bool
) -> tuple[dict[str, Cells], Cells]:
    """Relaxed precision, recall and jaccard (phase, video, run) cells, with
    the phases missing from a video's annotation excluded, and the relaxed
    accuracy (1, video, run) cells of every pair.  `rules_of(annotations)`
    gives their Windows, found here for each chunk of whole videos, of at
    most _GROUP_FRAMES (run, frame) pairs or one video, as it is flagged;
    each chunk is counted in one relaxed_counts call."""
    videos, runs, phases = corpus.videos, corpus.runs, corpus.phases
    annotations = [corpus.annotations[v] for v in videos]
    frames = np.cumsum([0, *map(len, annotations)]).tolist()
    counts = np.empty((4, phases.count, len(videos), len(runs)), np.int64)
    for i, j in _chunks(frames, _GROUP_FRAMES // len(runs)):
        chunk = [[corpus.predictions[v][r] for r in runs] for v in videos[i:j]]
        mask = window_flags(rules_of(annotations[i:j]), chunk)
        counts[:, :, i:j] = relaxed_counts(annotations[i:j], chunk, mask, range(phases.count))
    grid = RelaxedCounts(*counts)
    # Summed over the phases, relaxed true positives plus agreements
    # (annotated + predicted - union) count each flagged frame twice: one
    # that disagrees in each of its two phases' true positives, one that
    # agrees in its phase's true positives and agreements.  That needs every
    # label to be a phase, as a Corpus holds, and every agreeing frame
    # flagged, as the rules flag it.
    flagged = np.add.reduce(grid.r_tp + grid.annotated + grid.predicted - grid.union, 0) // 2
    acc = flagged[None] / np.diff(frames)[:, None]  # relaxed_accuracy(flags).value, pair by pair
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
