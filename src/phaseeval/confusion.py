"""Exact integer confusion counting between annotations and predictions."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import LabelSequence, PhaseSet, validate_sequence
from .errors import PhaseEvalError


class LengthMismatch(PhaseEvalError):
    """Annotation and prediction must cover the same number of frames."""


class DimensionMismatch(PhaseEvalError):
    """Confusion counts being combined must share a phase count."""


def confusion_of(
    annotation: LabelSequence, prediction: LabelSequence, phases: PhaseSet
) -> np.ndarray:
    """Count frame-wise agreement of one prediction against one annotation:
    counts[p, q] is the number of frames annotated as phase p and predicted
    as q, an exact int64 (phase, phase) array that is read-only."""
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
    counts.flags.writeable = False
    return counts


def sum_confusions(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise sum; the result pools frames as if videos were concatenated."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one confusion matrix")
    shape = matrices[0].shape
    for m in matrices[1:]:
        if m.shape != shape:
            raise DimensionMismatch(f"cannot sum {shape} and {m.shape} counts")
    total = np.sum(matrices, axis=0, dtype=np.int64)
    total.flags.writeable = False
    return total
