"""Aggregation of metric cells over phases, videos and runs.

A ResultTensor holds one tri-state cell per (phase, video, run), as a
value array and a state array.  Because
excluded cells drop out of each averaging stage separately, the order of
collapsing matters; AveragingOrder makes the choice explicit:

* FLAT: one mean over every defined cell.
* PHASE_FIRST: mean over phases within each (video, run), then mean of
  those group means.
* VIDEO_FIRST: mean over videos and runs within each phase, then mean of
  the per-phase means.

Spread is reported as the sample standard deviation across one axis after
collapsing the other two by the same defined-cell mean.  CORRECTED applies
Bessel's k-1 correction; UNCORRECTED divides by k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

import numpy as np

from .confusion import ConfusionMatrix
from .errors import PhaseEvalError
from .metrics import (
    DEFINED,
    STATES,
    Cells,
    MetricCell,
    cell_arrays,
    cell_of,
    mean_defined,
    phase_cells,
    phase_counts,
)


class NoDefinedCells(PhaseEvalError):
    """An average over zero defined cells has no value."""


class InsufficientPoints(PhaseEvalError):
    """A standard deviation needs at least two points."""


class AveragingOrder(Enum):
    FLAT = "flat"
    PHASE_FIRST = "phase-first"
    VIDEO_FIRST = "video-first"


class StdMode(Enum):
    CORRECTED = "corrected"
    UNCORRECTED = "uncorrected"


VIDEOS = "videos"
PHASES = "phases"
RUNS = "runs"
AXES = (VIDEOS, PHASES, RUNS)


@dataclass(frozen=True)
class SummarySpec:
    std_mode: StdMode = StdMode.CORRECTED
    order: AveragingOrder = AveragingOrder.FLAT


@dataclass(frozen=True)
class MetricSummary:
    """Mean plus per-axis spreads; None marks a statistic with no value
    (a single-point axis, or no defined cells at all)."""

    mean: float | None
    sd_videos: float | None
    sd_phases: float | None
    sd_runs: float | None


class CellView(Sequence):
    """A tensor's cells in layout order, each made when it is read."""

    def __init__(self, values: np.ndarray, state: np.ndarray):
        self._values, self._state = values.ravel(), state.ravel()

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i: int) -> MetricCell:
        return cell_of(self._values[i], self._state[i])


@dataclass(frozen=True, eq=False)
class ResultTensor:
    """Cells laid out phase-major, then video, then run.

    `values` (float64) and `state` (int8 codes metrics.DEFINED, UNDEFINED
    and EXCLUDED) are read-only arrays shaped (phase, video, run); the
    value of every cell that is not defined is NaN.  `cells` and
    `cell_at` are MetricCell views of them.

    The phase axis is (None,) for video-level metrics such as accuracy,
    where no per-phase decomposition exists.
    """

    phases: tuple[int | None, ...]
    videos: tuple[int, ...]
    runs: tuple[str, ...]
    values: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        if not (self.phases and self.videos and self.runs):
            raise ValueError("every tensor axis needs at least one entry")
        shape = (len(self.phases), len(self.videos), len(self.runs))
        values = np.array(self.values, dtype=np.float64)
        state = np.array(self.state, dtype=np.int8)
        if values.shape != shape or state.shape != shape:
            raise ValueError(
                f"expected {shape} cells, got {values.shape} values "
                f"and {state.shape} states"
            )
        defined = state == DEFINED
        kept = values[defined]
        known = np.isin(state, range(len(STATES))).all()
        if not (known and ((kept >= 0) & (kept < math.inf)).all()):
            raise ValueError("cells need a known state, and finite values >= 0 if defined")
        values[~defined] = math.nan
        for a in (values, state):
            a.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "state", state)

    @classmethod
    def build(
        cls,
        phases: Iterable[int | None],
        videos: Iterable[int],
        runs: Iterable[str],
        cells: Cells | Callable[[int | None, int, str], MetricCell],
    ) -> "ResultTensor":
        """A tensor from `cells`: a (values, state) pair of arrays shaped
        (phase, video, run), or a function (phase, video, run) ->
        MetricCell called for every cell in layout order."""
        phases = tuple(phases)
        videos = tuple(videos)
        runs = tuple(runs)
        if callable(cells):
            shape = (len(phases), len(videos), len(runs))
            values, state = cell_arrays(
                cells(p, v, r) for p in phases for v in videos for r in runs
            )
            cells = values.reshape(shape), state.reshape(shape)
        return cls(phases, videos, runs, *cells)

    @property
    def cells(self) -> CellView:
        return CellView(self.values, self.state)

    def cell_at(self, pi: int, vi: int, ri: int) -> MetricCell:
        return cell_of(self.values[pi, vi, ri], self.state[pi, vi, ri])

    def phase_slice(self, pi: int) -> "ResultTensor":
        """The one-phase tensor at phase position `pi`."""
        at = slice(pi, pi + 1)
        return ResultTensor(
            self.phases[at], self.videos, self.runs, self.values[at], self.state[at]
        )


def mean_cells(cells: Iterable[MetricCell]) -> MetricCell:
    """Mean over defined cells; undefined cells are skipped like excluded
    ones, so resolve policies before averaging.  Excluded when nothing
    defined remains."""
    return cell_of(*mean_defined(*cell_arrays(cells), 0))


# The axes each averaging order collapses, stage by stage.
_STAGES = {
    AveragingOrder.FLAT: ((0, 1, 2),),
    AveragingOrder.PHASE_FIRST: (0, (0, 1)),
    AveragingOrder.VIDEO_FIRST: ((1, 2), 0),
}


def ordered_mean(tensor: ResultTensor, order: AveragingOrder) -> float:
    """Collapse a tensor to one number under the given averaging order."""
    if order not in _STAGES:
        raise ValueError(f"unknown order {order!r}")
    mean, state = tensor.values, tensor.state
    for axes in _STAGES[order]:
        mean, state = mean_defined(mean, state, axes)
    if state != DEFINED:
        raise NoDefinedCells("tensor has no defined cells")
    return float(mean)


def _sample_std(points: list[float], mode: StdMode) -> float:
    k = len(points)
    if k < 2:
        raise InsufficientPoints(f"need at least 2 points, got {k}")
    m = math.fsum(points) / k
    ss = math.fsum((x - m) ** 2 for x in points)
    denom = k - 1 if mode is StdMode.CORRECTED else k
    return math.sqrt(ss / denom)


# The tensor axes collapsed to take the spread across each axis.
_COLLAPSED = {PHASES: (1, 2), VIDEOS: (0, 2), RUNS: (0, 1)}


def std_over(tensor: ResultTensor, axis: str, mode: StdMode) -> float:
    """Spread across one axis: collapse the other two axes per position by
    the defined-cell mean, then take the sample standard deviation of the
    positions that retain a value."""
    if axis not in _COLLAPSED:
        raise ValueError(f"unknown axis {axis!r}")
    means, state = mean_defined(tensor.values, tensor.state, _COLLAPSED[axis])
    return _sample_std(means[state == DEFINED].tolist(), mode)


def summarize(tensor: ResultTensor, spec: SummarySpec = SummarySpec()) -> MetricSummary:
    """Mean under the requested averaging order plus spreads across all
    three axes.  A spread over fewer than two retained positions is None; with a
    single run, sd_runs is always None."""
    try:
        mean = ordered_mean(tensor, spec.order)
    except NoDefinedCells:
        mean = None
    sds = {}
    for axis in AXES:
        try:
            sds[axis] = std_over(tensor, axis, spec.std_mode)
        except InsufficientPoints:
            sds[axis] = None
    return MetricSummary(mean, sds[VIDEOS], sds[PHASES], sds[RUNS])


def stack_confusions(
    matrices: Mapping[int, Mapping[str, ConfusionMatrix]],
) -> tuple[tuple[int, ...], tuple[str, ...], np.ndarray]:
    """Videos, runs and the (video, run, phase, phase) count stack of a
    video/run grid of confusion matrices."""
    videos = tuple(sorted(matrices))
    if not videos:
        raise ValueError("need at least one video")
    runs = tuple(sorted(matrices[videos[0]]))
    for v in videos:
        if tuple(sorted(matrices[v])) != runs:
            raise ValueError(f"video {v} has a different run set")
    if not runs:
        raise ValueError("need at least one run")
    counts = np.array([[matrices[v][r].counts for r in runs] for v in videos])
    return videos, runs, counts


def video_tensor(videos: Iterable[int], runs: Iterable[str], cells: Cells) -> ResultTensor:
    """Single-phase-axis tensor of a video-level metric (accuracy, macro
    means) from cells shaped (video, run)."""
    values, state = cells
    return ResultTensor.build((None,), videos, runs, (values[None], state[None]))


def phase_metric_tensor(
    kind: str,
    matrices: Mapping[int, Mapping[str, ConfusionMatrix]],
    phase_count: int,
) -> ResultTensor:
    """Raw per-phase cells (no policy applied) for a video/run grid of
    confusion matrices."""
    videos, runs, counts = stack_confusions(matrices)
    return ResultTensor.build(
        range(phase_count), videos, runs, phase_cells(kind, *phase_counts(counts))
    )
