"""Exact integer confusion counting between annotations and predictions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import LabelSequence, PhaseSet, validate_sequence
from .errors import PhaseEvalError


class LengthMismatch(PhaseEvalError):
    """Annotation and prediction must cover the same number of frames."""


class DimensionMismatch(PhaseEvalError):
    """Confusion matrices being combined must share a phase count."""


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[p, q] = number of frames annotated as phase p and predicted as q.

    Counts are exact int64 and the array is frozen after construction.
    """

    counts: np.ndarray
    phase_count: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.phase_count, self.phase_count):
            raise DimensionMismatch(
                f"expected {self.phase_count}x{self.phase_count} counts, "
                f"got shape {counts.shape}"
            )
        if (counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other):
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return self.phase_count == other.phase_count and np.array_equal(
            self.counts, other.counts
        )

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_sum(self, phase: int) -> int:
        """Frames annotated as `phase`."""
        return int(self.counts[phase].sum())

    def tp(self, phase: int) -> int:
        return int(self.counts[phase, phase])


def confusion_of(
    annotation: LabelSequence, prediction: LabelSequence, phases: PhaseSet
) -> ConfusionMatrix:
    """Count frame-wise agreement of one prediction against one annotation."""
    if len(annotation) != len(prediction):
        raise LengthMismatch(
            f"annotation has {len(annotation)} frames, "
            f"prediction has {len(prediction)}"
        )
    validate_sequence(annotation, phases)
    validate_sequence(prediction, phases)
    p = phases.count
    index = np.multiply(annotation.labels, p, dtype=np.int64)
    index += prediction.labels  # in place: one frame-long array per pair
    counts = np.bincount(index, minlength=p * p).reshape(p, p)
    return ConfusionMatrix(counts, p)


def sum_confusions(matrices: Iterable[ConfusionMatrix]) -> ConfusionMatrix:
    """Elementwise sum; the result pools frames as if videos were concatenated."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one confusion matrix")
    p = matrices[0].phase_count
    for m in matrices[1:]:
        if m.phase_count != p:
            raise DimensionMismatch(
                f"cannot sum {p}-phase and {m.phase_count}-phase matrices"
            )
    total = np.zeros((p, p), dtype=np.int64)
    for m in matrices:
        total += m.counts
    return ConfusionMatrix(total, p)
