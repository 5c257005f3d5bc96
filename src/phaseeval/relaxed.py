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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    MAX_PHASES,
    LabelSequence,
    OutOfRangeLabel,
    UnsupportedPhaseCount,
    WorkflowGraph,
    cholec80_graph,
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


def _label_array(labels, ndim: int) -> np.ndarray:
    """`labels` as a non-empty `ndim`-D array of non-negative integers."""
    labels = np.asarray(labels)
    if labels.ndim != ndim or labels.dtype.kind not in "ui" or not labels.size:
        raise TypeError(f"labels must be a non-empty {ndim}-D integer array")
    if labels.dtype.kind == "i" and labels.min() < 0:
        raise OutOfRangeLabel("labels must be non-negative")
    return labels


def _edges(edges, frames: int) -> np.ndarray:
    """Video edges rising from 0 to `frames`, one video's when None."""
    edges = np.asarray((0, frames) if edges is None else edges)
    flat = edges.ndim == 1 and edges.dtype.kind in "ui" and len(edges) > 1
    if not flat or edges[0] != 0 or edges[-1] != frames or (edges[1:] <= edges[:-1]).any():
        raise LengthMismatch(f"video edges must be integers rising from 0 to the {frames} frames")
    return edges


def check_omega(omega: int) -> int:
    """`omega` as a Python int, if it is an integer within 0..OMEGA_MAX; a
    bool, a float or any other non-integer is refused."""
    if isinstance(omega, bool) or not isinstance(omega, (int, np.integer)):
        raise InvalidOmega(f"omega must be an integer frame count, got {omega!r}")
    if not 0 <= omega <= OMEGA_MAX:
        raise InvalidOmega(f"omega must be within 0..{OMEGA_MAX}, got {omega}")
    return int(omega)


class Windows(NamedTuple):
    """Each window frame of annotations laid end to end: the frame its verdict
    reads, the frame it lands on and its row's offset into the flat table
    `accept`; and the annotations' labels."""

    put: np.ndarray
    read: np.ndarray
    row: np.ndarray
    accept: np.ndarray
    labels: np.ndarray


def _segments(annotation, edges):
    """The labels of `annotation`, then the phase, first and last frame of
    each of their segments, cut at each video's first frame of `edges`."""
    labels = _label_array(annotation, 1)
    cut = np.empty(len(labels) + 1, bool)
    np.not_equal(labels[1:], labels[:-1], out=cut[1:-1])
    cut[_edges(edges, len(labels))] = True  # each video's first frame, and the end
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


def window_flags(windows: Windows, predictions) -> np.ndarray:
    """The (runs, frames) bool mask of `predictions`, a (runs, frames)
    integer array of runs of the annotations of `windows`: exact agreement,
    set True where the table forgives.  Its all-False last column takes
    every predicted label past the table."""
    labels = _label_array(predictions, 2)
    if (n := labels.shape[1]) != len(windows.labels):
        raise LengthMismatch(f"annotation has {len(windows.labels)} frames, prediction has {n}")
    top = windows.accept.shape[1] - 1
    mask = windows.labels == labels
    column = np.take(labels, windows.read, 1)  # one gather for all runs
    if column.size and column.max() > top:  # then top fits their dtype
        column = np.minimum(column, column.dtype.type(top))
    # The verdicts land in the flat mask, where each run follows the last.
    at = windows.put + np.arange(0, mask.size, mask.shape[1])[:, None]
    mask.reshape(-1)[at[windows.accept.ravel()[windows.row + column]]] = True
    return mask


def graph_rules(annotation, omega: int, accept: np.ndarray, edges=None) -> Windows:
    """The relax_flags Windows of `annotation`, a flat integer array of the
    annotations of videos laid end to end at `edges` (by default one
    video), on the acceptance table `accept`."""
    omega = check_omega(omega)
    accept = np.asarray(accept)
    p = len(accept) // 2 if accept.ndim == 2 else 0
    if p < 1 or accept.shape != (2 * p, p + 1) or accept.dtype != bool:
        raise InvalidGrids(f"not a (2p, p + 1) bool table: {accept.dtype} {accept.shape}")
    segments = _, phase, first, last = _segments(annotation, edges)
    if phase.max() >= p:  # a row for every phase
        i = int(np.argmax(phase >= p))
        raise OutOfRangeLabel(f"label {phase[i]} at frame {first[i]} exceeds phase range 0..{p - 1}")
    return _rules(segments, np.minimum(omega, last - first + 1), accept, False)


def legacy_rules(annotation, omega: int, edges=None) -> Windows:
    """The relax_flags_legacy Windows of `annotation`, laid out as for
    graph_rules; its first segment shorter than omega is refused."""
    omega = check_omega(omega)
    segments = _, phase, first, last = _segments(annotation, edges)
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
    windows = graph_rules(annotation.labels, omega, accept)
    return tuple(window_flags(windows, prediction.labels[None])[0].tolist())


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
    windows = legacy_rules(annotation.labels, omega)
    return tuple(window_flags(windows, prediction.labels[None])[0].tolist())


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
    annotation: LabelSequence | np.ndarray,
    prediction: LabelSequence | Sequence[LabelSequence] | np.ndarray,
    flags: Sequence[bool] | np.ndarray,
    phase: int | range,
    edges=None,
) -> RelaxedCounts:
    """Count relaxed true positives among frames involving `phase` on
    either side, as ints.  `flags` is a bool mask or a sequence of bools.

    Given `range(n)`, counts phases 0..n-1 at once from the (annotated,
    predicted) counts of the unflagged and the flagged frames, each field
    an (n,) int64 array, or (n, runs) given the runs of `annotation` and a
    (runs, frames) mask.  Both are one video of the array form: the flat
    integer labels of annotations laid end to end at `edges` (by default
    one video), a (runs, frames) integer array of their runs and its mask,
    as window_flags gives it, each field (n, videos, runs).  One bincount
    counts a group of runs, each (video, run) pair's bins a square of its
    own, every group in four lanes when one holds _LANE_FRAMES frames and
    four blocks of its squares fit a uint16 index (n up to 89).  A group
    holds as many runs as that index holds the bins of, and of
    _GROUP_FRAMES, and at least one; each video's runs count apart when a
    run's squares pass it, so no bincount holds more than max(2**16,
    2 * (n + 1)**2) bins.
    """
    single = isinstance(prediction, LabelSequence)
    chunk = edges is not None or not isinstance(annotation, LabelSequence)
    if isinstance(annotation, LabelSequence):
        runs = [prediction] if single else list(prediction)
        if bad := [len(run) for run in runs if len(run) != len(annotation)]:
            raise LengthMismatch(f"annotation has {len(annotation)} frames, prediction has {bad[0]}")
        annotation, prediction = annotation.labels, [run.labels for run in runs]
    a, b = _label_array(annotation, 1), _label_array(prediction, 2)
    if b.shape[1] != len(a):
        raise LengthMismatch(f"annotation has {len(a)} frames, prediction has {b.shape[1]}")
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != ((len(a),) if single else b.shape):
        raise LengthMismatch("flags do not cover the sequence")
    if not isinstance(phase, range):
        if not single:
            raise TypeError("one phase is counted in one prediction")
        a, b = a == phase, b[0] == phase
        return RelaxedCounts(*(int(np.count_nonzero(m)) for m in ((a | b) & flags, a | b, b, a)))
    if phase.start != 0 or phase.step != 1:
        raise ValueError(f"phases must be a range from 0 in steps of 1, got {phase}")
    if len(phase) > MAX_PHASES:
        raise UnsupportedPhaseCount(f"cannot count {len(phase)} phases at once, at most {MAX_PHASES}")
    counts = _counts(a, b, flags.reshape(b.shape), _edges(edges, len(a)).tolist(), len(phase))
    return RelaxedCounts(*(counts if chunk else counts[..., 0, 0] if single else counts[:, :, 0]))


def _counts(a: np.ndarray, b: np.ndarray, flags: np.ndarray, edges: list[int], width: int) -> np.ndarray:
    """The (4, width, videos, runs) relaxed_counts fields of the array form."""
    runs, videos = len(b), len(edges) - 1
    square = 2 * (width + 1) ** 2
    unit = videos * square  # a run's squares
    counts = np.empty((4, width, videos, runs), np.int64)
    if videos > 1 and unit > 1 << 16:
        for v, (lo, hi) in enumerate(zip(edges, edges[1:])):
            counts[:, :, v : v + 1] = _counts(a[lo:hi], b[:, lo:hi], flags[:, lo:hi], [0, hi - lo], width)
        return counts

    # Each frame's bin: its pair's square in its group, the annotated and
    # the predicted label, then the flag as the lowest bit, so one bincount
    # counts the unflagged and the flagged (annotated, predicted) squares of
    # every pair of a group.  Labels at or past `width` share the bin after
    # the range.  The index is the narrowest unsigned type that holds a
    # group's bins.
    frames = edges[-1]
    group = max(1, min((1 << 16) // (4 * unit), _GROUP_FRAMES // frames, runs))
    lanes = 4 if group * frames >= _LANE_FRAMES and 4 * unit <= 1 << 16 else 1
    group = max(1, min((1 << 16) // (lanes * unit), _GROUP_FRAMES // frames))
    index = np.uint16 if square <= 1 << 16 else np.uint32
    a, b = (np.minimum(x, x.dtype.type(width)) if x.max() >= width else x for x in (a, b))  # width fits
    scaled = a.astype(index)
    scaled *= index(width + 1)
    if videos > 1:  # video v's frames move v squares up
        scaled += np.repeat(np.arange(videos, dtype=index) * index(square // 2), np.diff(edges))
    for first in range(0, runs, group):
        held = min(group, runs - first)
        pair = np.add.outer(np.arange(held, dtype=index) * index(unit // 2), scaled)
        np.add(pair, b[first : first + held], out=pair, casting="unsafe")  # b <= width: exact
        pair += pair
        pair |= flags[first : first + held]
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
        bins = bins.reshape(held, videos, width + 1, width + 1, 2)
        # By pair, label and flag: the frames annotated, predicted, and either
        # (their sum less the diagonal, counted in both).  A phase's relaxed
        # true positives are the flagged frames of either, its union all of
        # them.  einsum sums the short strided axes far faster than add.reduce.
        either, predicted, annotated = sums = np.empty((3, *bins.shape[:3], 2), np.int64)
        np.einsum("...abf->...af", bins, out=annotated)
        np.einsum("...abf->...bf", bins, out=predicted)
        np.add(annotated, predicted, out=either)
        either -= bins.reshape(held, videos, -1, 2)[:, :, :: width + 2]
        part = counts[..., first : first + held].transpose(0, 3, 2, 1)
        part[0] = either[..., :width, 1]
        np.add(sums[..., :width, 0], sums[..., :width, 1], out=part[1:])
    return counts


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
    corpus: Corpus, rules_of: Callable[[np.ndarray, np.ndarray], Windows], truncate: bool
) -> tuple[dict[str, Cells], Cells]:
    """Relaxed precision, recall and jaccard (phase, video, run) cells, with
    the phases missing from a video's annotation excluded, and the relaxed
    accuracy (1, video, run) cells of every pair.  Each chunk of videos
    i .. j - 1, at most _GROUP_FRAMES (run, frame) pairs or one video, is a
    slice of the corpus's labels, flagged on the Windows of
    `rules_of(annotation, edges)` and counted in one relaxed_counts call."""
    labels, edges, phases = corpus.labels, corpus.edges, corpus.phases.count
    bounds, runs, i = edges.tolist(), len(corpus.runs), 0
    counts = np.empty((4, phases, len(bounds) - 1, runs), np.int64)
    while i < len(bounds) - 1:
        j = max(i + 1, bisect_right(bounds, bounds[i] + _GROUP_FRAMES // runs) - 1)
        lo, hi = bounds[i], bounds[j]
        annotation, chunk, cut = labels[0, lo:hi], labels[1:, lo:hi], edges[i : j + 1] - lo
        mask = window_flags(rules_of(annotation, cut), chunk)
        counts[:, :, i:j] = relaxed_counts(annotation, chunk, mask, range(phases), cut)
        i = j
    grid = RelaxedCounts(*counts)
    # Summed over the phases, relaxed true positives plus agreements
    # (annotated + predicted - union) count each flagged frame twice: one
    # that disagrees in each of its two phases' true positives, one that
    # agrees in its phase's true positives and agreements.  That needs every
    # label to be a phase, as a Corpus holds, and every agreeing frame
    # flagged, as the rules flag it.
    flagged = np.add.reduce(grid.r_tp + grid.annotated + grid.predicted - grid.union, 0) // 2
    acc = flagged[None] / np.diff(edges)[:, None]  # relaxed_accuracy(flags).value, pair by pair
    cells = {
        kind: resolve(*relaxed_cells(kind, grid, truncate), RELAXED_POLICY, grid.annotated > 0)
        for kind in RELAXED_KINDS
    }
    return cells, defined_cells(acc)


LEGACY_WATERMARK = "legacy-bug-compatible"


def legacy_pipeline(corpus: Corpus, omega: int) -> tuple[dict[str, Cells], Cells]:
    """The relaxed_tensors of the shared script: its bug-compatible flags on
    its own acceptance rules, truncated."""
    return relaxed_tensors(corpus, lambda y, e: legacy_rules(y, omega, e), truncate=True)
