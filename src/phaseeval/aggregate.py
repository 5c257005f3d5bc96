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
from typing import Callable, Collection, Iterable, Mapping

import numpy as np

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
from .vocab import SUMMARY_STATS, AveragingOrder, MetricSummary, RaggedRuns, StdMode


class NoDefinedCells(PhaseEvalError):
    """An average over zero defined cells has no value."""


class InsufficientPoints(PhaseEvalError):
    """A standard deviation needs at least two points."""


@dataclass(frozen=True)
class SummarySpec:
    std_mode: StdMode = StdMode.CORRECTED
    order: AveragingOrder = AveragingOrder.FLAT


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
        known = state.min() >= 0 and state.max() < len(STATES)
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


# The axes each averaging order collapses, stage by stage, in a
# (group, phase, video, run) stack whose collapsed axes are kept at size 1.
_STAGES = {
    AveragingOrder.FLAT: ((1, 2, 3),),
    AveragingOrder.PHASE_FIRST: ((1,), (1, 2, 3)),
    AveragingOrder.VIDEO_FIRST: ((2, 3), (1, 2, 3)),
}
# Each spread of a summary and the stack axis it runs across.
_ACROSS = (("sd_videos", 2), ("sd_phases", 1), ("sd_runs", 3))


def _sample_std(points: list[float], mode: StdMode) -> float:
    k = len(points)
    if k < 2:
        raise InsufficientPoints(f"need at least 2 points, got {k}")
    m = math.fsum(points) / k
    ss = math.fsum((x - m) ** 2 for x in points)
    denom = k - 1 if mode is StdMode.CORRECTED else k
    return math.sqrt(ss / denom)


class Groupings:
    """The defined-cell means of a (group, phase, video, run) stack of
    cells, each grouping averaged once however many statistics read it.

    A grouping is kept as arrays of the stack's rank, collapsed axes at
    size 1, and groupings that differ only in axes of one position are one
    pass.  The spreads it gives are `std_mode` sample standard deviations,
    and a summary holds only the statistics asked of it: the others are
    None, and nothing is averaged for them."""

    def __init__(self, values: np.ndarray, state: np.ndarray, std_mode: StdMode):
        self.values, self.state, self.std_mode = values, state, std_mode
        self.groups, self.phases = values.shape[:2]
        self._ones = {a for a in (1, 2, 3) if values.shape[a] == 1}
        self._means: dict[tuple[int, ...], Cells] = {}
        self._spreads: dict[tuple[tuple[int, ...], int], list[float | None]] = {}

    def means(self, axes) -> tuple[tuple[int, ...], Cells]:
        """The pass's key and the defined-cell means over `axes`."""
        key = tuple(sorted(self._ones.union(axes)))
        if key not in self._means:
            shape = self.values.shape
            kept = tuple(1 if a in key else n for a, n in enumerate(shape))
            cells = mean_defined(self.values, self.state, key)
            self._means[key] = tuple(a.reshape(kept) for a in cells)
        return key, self._means[key]

    def spread(self, axis: int, per_phase: bool) -> list[float | None]:
        """Spread across `axis` of the means that keep it, the group axis
        and, if `per_phase`, the phase axis: one per position of those."""
        positions = self.values.shape[axis]
        if positions == 1:
            return [None] * (self.groups * self.phases if per_phase else self.groups)
        others = (a for a in (1, 2, 3) if a != axis and not (per_phase and a == 1))
        key, (m, k) = self.means(others)
        if (key, axis) not in self._spreads:
            lines = (np.moveaxis(a, axis, -1).reshape(-1, positions) for a in (m, k == DEFINED))
            points = [row[d].tolist() for row, d in zip(*lines)]
            self._spreads[key, axis] = [
                _sample_std(p, self.std_mode) if len(p) > 1 else None for p in points
            ]
        return self._spreads[key, axis]

    def summaries(
        self, order: AveragingOrder, stats: Collection[str] = SUMMARY_STATS
    ) -> list[MetricSummary]:
        """Each group's `stats` of its mean under `order`, and its spreads
        across phases, videos and runs."""
        if order not in _STAGES:
            raise ValueError(f"unknown order {order!r}")
        mean = none = [None] * self.groups
        if "mean" in stats:
            first, *rest = _STAGES[order]
            m, k = self.means(first)[1]
            for axes in rest:
                m, k = mean_defined(m, k, axes)
            mean = _defined(m, k)
        sds = (self.spread(axis, False) if s in stats else none for s, axis in _ACROSS)
        return list(map(MetricSummary, mean, *sds))

    def phase_rows(self, stats: Collection[str] = SUMMARY_STATS) -> list[tuple[MetricSummary, ...]]:
        """The `stats` of each group's phases alone, which have no spread
        across phases."""
        n = self.phases
        mean = none = [None] * (self.groups * n)
        if "mean" in stats:
            mean = _defined(*self.means((2, 3))[1])
        sds = (self.spread(axis, True) if s in stats and axis != 1 else none for s, axis in _ACROSS)
        rows = list(map(MetricSummary, mean, *sds))
        return [tuple(rows[g * n : (g + 1) * n]) for g in range(self.groups)]


def _defined(values: np.ndarray, state: np.ndarray) -> list[float | None]:
    """Each value as a Python float, None where the state is not defined."""
    return [x if d else None for x, d in zip(values.ravel().tolist(), (state == DEFINED).ravel())]


def aggregate(
    values: np.ndarray, state: np.ndarray, spec: SummarySpec = SummarySpec()
) -> tuple[list[MetricSummary], list[tuple[MetricSummary, ...]]]:
    """The summary of each group of a (group, phase, video, run) stack of
    cells, and the summaries of each of its phases alone.

    A group's mean follows spec.order; a phase's is the mean of its
    defined cells, as under every order.  A spread across an axis collapses
    the other axes per position by the defined-cell mean, then takes the
    sample standard deviation of the positions that retain a value; over
    fewer than two such positions it is None, as is a mean over no defined
    cell, and a phase alone has no spread across phases.  The per-phase
    means give the phases' means, each group's spread across phases and
    the first stage of VIDEO_FIRST: one pass for all three.
    """
    groupings = Groupings(values, state, spec.std_mode)
    return groupings.summaries(spec.order), groupings.phase_rows()


def summarize(tensor: ResultTensor, spec: SummarySpec = SummarySpec()) -> MetricSummary:
    """Mean under the requested averaging order plus spreads across all
    three axes.  A spread over fewer than two retained positions is None; with a
    single run, sd_runs is always None."""
    groupings = Groupings(tensor.values[None], tensor.state[None], spec.std_mode)
    return groupings.summaries(spec.order)[0]


def ordered_mean(tensor: ResultTensor, order: AveragingOrder) -> float:
    """Collapse a tensor to one number under the given averaging order."""
    mean = summarize(tensor, SummarySpec(order=order)).mean
    if mean is None:
        raise NoDefinedCells("tensor has no defined cells")
    return mean


def stack_confusions(
    matrices: Mapping[int, Mapping[str, np.ndarray]],
) -> tuple[tuple[int, ...], tuple[str, ...], np.ndarray]:
    """Sorted video ids, sorted run ids and the (video, run, phase, phase)
    count stack of a video/run grid of confusion matrices."""
    videos = tuple(sorted(matrices))
    if not videos:
        raise ValueError("need at least one video")
    runs = tuple(sorted(matrices[videos[0]]))
    for v in videos:
        if tuple(sorted(matrices[v])) != runs:
            raise RaggedRuns(f"video {v} has a different run set")
    if not runs:
        raise ValueError("need at least one run")
    counts = np.array([[matrices[v][r] for r in runs] for v in videos])
    return videos, runs, counts


def video_tensor(videos: Iterable[int], runs: Iterable[str], cells: Cells) -> ResultTensor:
    """Single-phase-axis tensor of a video-level metric (accuracy, macro
    means) from cells shaped (video, run)."""
    values, state = cells
    return ResultTensor.build((None,), videos, runs, (values[None], state[None]))


def phase_metric_tensor(
    kind: str,
    matrices: Mapping[int, Mapping[str, np.ndarray]],
    phase_count: int,
) -> ResultTensor:
    """Raw per-phase cells (no policy applied) for a video/run grid of
    confusion matrices."""
    videos, runs, counts = stack_confusions(matrices)
    return ResultTensor.build(
        range(phase_count), videos, runs, phase_cells(kind, *phase_counts(counts))
    )
