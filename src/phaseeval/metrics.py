"""Frame-count metrics over confusion counts, with explicit handling of
zero denominators.

Per-phase scores are tri-state cells: Defined(x), Undefined (a zero
denominator made the ratio meaningless), or Excluded (dropped from any
later averaging).  Whether an Undefined cell becomes Excluded or a filled
constant is a reporting decision, captured by UndefinedPolicy:

* EXCLUDE_UNDEFINED: drop exactly the undefined cells.
* EXCLUDE_MISSING_PHASE: for a phase absent from a video's annotation,
  drop all four metric kinds for that (phase, video), including the
  defined zeros; any remaining undefined cell is dropped too.
* ZERO_FILL / ONE_FILL: replace undefined cells by 0 or 1.

Cells live in arrays: float64 values (NaN unless defined) and int8
state codes DEFINED, UNDEFINED, EXCLUDED.  Counts are phase-major: a stack
of confusion matrices (..., phase, phase) gives (phase, ...) arrays.  The
single-matrix functions (phase_metric, macro_metric, ...) read one entry
of the same array routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

import numpy as np

from .confusion import ConfusionMatrix
from .errors import PhaseEvalError

if TYPE_CHECKING:
    from .aggregate import ResultTensor


class EmptyVideo(PhaseEvalError):
    """Accuracy over zero frames is meaningless."""


class DegenerateMeans(PhaseEvalError):
    """Harmonic combination needs at least one positive operand."""


PRECISION = "precision"
RECALL = "recall"
F1 = "f1"
JACCARD = "jaccard"
METRIC_KINDS = (PRECISION, RECALL, F1, JACCARD)


class CellState(Enum):
    DEFINED = "defined"
    UNDEFINED = "undefined"
    EXCLUDED = "excluded"


# Codes of a state array, in CellState order.
DEFINED, UNDEFINED, EXCLUDED = range(3)
STATES = tuple(CellState)

Cells = tuple[np.ndarray, np.ndarray]  # (values, state) of equal shape


@dataclass(frozen=True)
class MetricCell:
    """One tri-state metric value.

    Defined values are finite and non-negative; values above 1 occur only
    for untruncated relaxed precision and recall.
    """

    state: CellState
    value: float | None = None

    def __post_init__(self):
        if self.state is CellState.DEFINED:
            if self.value is None or not math.isfinite(self.value) or self.value < 0:
                raise ValueError(f"defined cell needs a finite value >= 0, got {self.value}")
        elif self.value is not None:
            raise ValueError(f"{self.state.value} cell cannot carry a value")

    @classmethod
    def defined(cls, value: float) -> "MetricCell":
        return cls(CellState.DEFINED, float(value))

    @property
    def is_defined(self) -> bool:
        return self.state is CellState.DEFINED


UNDEFINED_CELL = MetricCell(CellState.UNDEFINED)
EXCLUDED_CELL = MetricCell(CellState.EXCLUDED)


class UndefinedPolicy(Enum):
    EXCLUDE_UNDEFINED = "exclude-undefined"
    EXCLUDE_MISSING_PHASE = "exclude-missing-phase"
    ZERO_FILL = "zero-fill"
    ONE_FILL = "one-fill"


def cell_of(value, code) -> MetricCell:
    """The cell of one entry of a value array and its state array."""
    if code == DEFINED:
        return MetricCell.defined(value)
    return UNDEFINED_CELL if code == UNDEFINED else EXCLUDED_CELL


def cell_arrays(cells: Iterable[MetricCell]) -> Cells:
    """One-dimensional value and state arrays of a sequence of cells."""
    cells = list(cells)
    values = np.array(
        [math.nan if c.value is None else c.value for c in cells], dtype=np.float64
    )
    state = np.array([STATES.index(c.state) for c in cells], dtype=np.int8)
    return values, state


def defined_cells(values: np.ndarray) -> Cells:
    """Every entry of `values` as a defined cell."""
    return values, np.full(values.shape, DEFINED, dtype=np.int8)


def ratio_cells(num: np.ndarray, den: np.ndarray) -> Cells:
    """num / den, undefined where den is 0.

    Counts stay far below 2**53, so each float64 quotient is bit-identical
    to Python's int / int.
    """
    undefined = np.asarray(den) == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(undefined, math.nan, np.divide(num, den, dtype=np.float64))
    return values, np.where(undefined, UNDEFINED, DEFINED).astype(np.int8)


def mean_defined(values: np.ndarray, state: np.ndarray, axis) -> Cells:
    """Mean of the defined entries over `axis` (a non-negative int or a
    tuple of them), excluded where a position has none.

    Each group's sum is math.fsum, exactly rounded, so every mean is
    fsum(group) / len(group) whatever the layout; a group of one or two
    entries takes a single IEEE addition, which is exactly rounded too.
    """
    axes = (axis,) if isinstance(axis, int) else axis
    keep = [a for a in range(values.ndim) if a not in axes]
    shape = tuple(values.shape[a] for a in keep)
    order = keep + list(axes)
    defined = (state == DEFINED).transpose(order).reshape(*shape, -1)
    masked = np.where(defined, values.transpose(order).reshape(defined.shape), 0.0)
    if masked.shape[-1] <= 2:
        sums = masked.sum(axis=-1)
    else:
        rows = masked.reshape(-1, masked.shape[-1]).tolist()
        sums = np.fromiter(map(math.fsum, rows), np.float64, len(rows)).reshape(shape)
    n = defined.sum(axis=-1)
    with np.errstate(invalid="ignore"):
        return sums / n, np.where(n > 0, DEFINED, EXCLUDED).astype(np.int8)


def phase_counts(counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """True-positive, annotated and predicted frame counts of a stack of
    confusion matrices shaped (..., phase, phase), each shaped (phase, ...)."""
    counts = np.asarray(counts, dtype=np.int64)
    tp = np.diagonal(counts, axis1=-2, axis2=-1)
    return tuple(np.moveaxis(a, -1, 0) for a in (tp, counts.sum(-1), counts.sum(-2)))


def phase_cells(kind: str, tp, annotated, predicted) -> Cells:
    """Per-phase precision, recall, f1 or jaccard from exact counts.

    Undefined exactly when the denominator is zero: precision needs the
    phase predicted somewhere, recall needs it annotated somewhere, f1 and
    jaccard need it present on at least one side.
    """
    if kind == PRECISION:
        return ratio_cells(tp, predicted)
    if kind == RECALL:
        return ratio_cells(tp, annotated)
    if kind == F1:
        return ratio_cells(2 * tp, annotated + predicted)
    if kind == JACCARD:
        return ratio_cells(tp, annotated + predicted - tp)
    raise ValueError(f"unknown metric kind {kind!r}")


def phase_metric(kind: str, matrix: ConfusionMatrix, phase: int) -> MetricCell:
    """The phase_cells entry of one phase of one confusion matrix."""
    values, state = phase_cells(kind, *phase_counts(matrix.counts))
    return cell_of(values[phase], state[phase])


def accuracy_cells(counts: np.ndarray) -> Cells:
    """Fraction of frames whose prediction matches the annotation, for
    each matrix of a stack shaped (..., phase, phase)."""
    total = counts.sum(axis=(-2, -1))
    if (total == 0).any():
        raise EmptyVideo("accuracy over an empty video is undefined")
    return defined_cells(np.trace(counts, axis1=-2, axis2=-1) / total)


def accuracy(matrix: ConfusionMatrix) -> MetricCell:
    """Fraction of frames whose prediction matches the annotation."""
    return cell_of(*accuracy_cells(matrix.counts))


def resolve(values, state, policy: UndefinedPolicy, present) -> Cells:
    """Apply an undefined-value policy to cells; `present`, broadcastable
    to them, marks the cells whose phase the video's annotation contains."""
    drop = state == UNDEFINED
    if policy in (UndefinedPolicy.ZERO_FILL, UndefinedPolicy.ONE_FILL):
        fill = float(policy is UndefinedPolicy.ONE_FILL)
        return np.where(drop, fill, values), np.where(drop, DEFINED, state)
    if policy is UndefinedPolicy.EXCLUDE_MISSING_PHASE:
        drop = drop | ~np.asarray(present, dtype=bool)
    return np.where(drop, math.nan, values), np.where(drop, EXCLUDED, state)


def resolve_cell(
    cell: MetricCell, policy: UndefinedPolicy, phase_annotated: bool
) -> MetricCell:
    """Apply an undefined-value policy to a single cell."""
    values, state = resolve(*cell_arrays([cell]), policy, phase_annotated)
    return cell_of(values[0], state[0])


def apply_policy(
    tensor: "ResultTensor",
    policy: UndefinedPolicy,
    annotated: np.ndarray | Mapping[int, Collection[int]],
) -> "ResultTensor":
    """Resolve every undefined cell of a phase/video/run tensor.

    `annotated` marks the phases each video's annotation contains: a bool
    array broadcastable to the tensor's (phase, video, run) shape, or a
    mapping from video id to those phases.
    """
    if isinstance(annotated, Mapping):
        annotated = np.array(
            [[p in annotated[v] for v in tensor.videos] for p in tensor.phases]
        )[:, :, None]
    values, state = resolve(tensor.values, tensor.state, policy, annotated)
    return replace(tensor, values=values, state=state)


def harmonic(a, b):
    """Harmonic mean of two non-negative numbers (or arrays of them); 0
    where both are 0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(a + b == 0, 0.0, 2 * a * b / (a + b))
    return h[()]


def macro_cells(kind: str, tp, annotated, predicted, policy: UndefinedPolicy) -> Cells:
    """Mean over the phase axis of the per-phase scores retained by the
    policy; excluded where the policy leaves no defined phase at all."""
    cells = phase_cells(kind, tp, annotated, predicted)
    return mean_defined(*resolve(*cells, policy, annotated > 0), 0)


def macro_metric(
    kind: str, matrix: ConfusionMatrix, policy: UndefinedPolicy
) -> MetricCell:
    """The macro_cells entry of one confusion matrix."""
    return cell_of(*macro_cells(kind, *phase_counts(matrix.counts), policy))


def f1_of_means_cells(precision: Cells, recall: Cells) -> Cells:
    """Harmonic mean of macro precision and macro recall cells.

    This is not the mean of per-phase f1 scores; it weights the macro
    means instead and is never smaller than macro f1.  Defined(0) when
    both macro means are zero; Excluded (NaN) when either macro mean is.
    """
    both = (precision[1] == DEFINED) & (recall[1] == DEFINED)
    return harmonic(precision[0], recall[0]), np.where(both, DEFINED, EXCLUDED).astype(np.int8)


def macro_f1_of_means(matrix: ConfusionMatrix, policy: UndefinedPolicy) -> MetricCell:
    """The f1_of_means_cells entry of one confusion matrix."""
    counts = phase_counts(matrix.counts)
    means = (macro_cells(kind, *counts, policy) for kind in (PRECISION, RECALL))
    return cell_of(*f1_of_means_cells(*means))


def f1_upper(mean_precision: float, mean_recall: float) -> float:
    """Harmonic mean of corpus-level mean precision and mean recall.

    An upper bound on the mean of per-video harmonic combinations, so a
    useful cross-check against reported f1 numbers built the same way.
    """
    if mean_precision < 0 or mean_recall < 0:
        raise DegenerateMeans("means must be non-negative")
    if mean_precision + mean_recall == 0:
        raise DegenerateMeans("both means are zero")
    return float(harmonic(mean_precision, mean_recall))
