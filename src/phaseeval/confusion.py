"""Exact integer confusion counting between annotations and predictions."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .aggregate import grid_axes
from .core import LabelSequence, PhaseSet, validate_sequence
from .errors import PhaseEvalError
from .vocab import LengthMismatch


class DimensionMismatch(PhaseEvalError):
    """Confusion counts being combined must share a phase count."""


def check_lengths(annotation: LabelSequence, prediction: LabelSequence) -> None:
    n, m = len(annotation), len(prediction)
    if n != m:
        raise LengthMismatch(f"annotation has {n} frames, prediction has {m}")


def confusion_stack(
    annotations: Mapping[int, LabelSequence],
    predictions: Mapping[int, Mapping[str, LabelSequence]],
    phases: PhaseSet,
) -> tuple[tuple[int, ...], tuple[str, ...], np.ndarray]:
    """Videos, runs and the (video, run, phase, phase) int64 counts of each
    prediction against its video's annotation, one bincount per pair; each
    sequence is validated once."""
    videos, runs = grid_axes(predictions)
    p = phases.count
    counts = np.empty((len(videos), len(runs), p * p), np.int64)
    for v, video in zip(videos, counts):
        annotation = annotations[v]
        validate_sequence(annotation, phases)
        # p * p <= 2**16 fits uint16; an int32 base made 25 fps reports re-fault pages
        base = np.multiply(annotation.labels, p, dtype=np.uint16, casting="unsafe")
        for r, pair in zip(runs, video):
            check_lengths(annotation, predictions[v][r])
            validate_sequence(predictions[v][r], phases)
            pair[:] = np.bincount(base + predictions[v][r].labels, minlength=p * p)
    return videos, runs, counts.reshape(len(videos), len(runs), p, p)


def confusion_of(
    annotation: LabelSequence, prediction: LabelSequence, phases: PhaseSet
) -> np.ndarray:
    """Count frame-wise agreement of one prediction against one annotation:
    counts[p, q] is the number of frames annotated as phase p and predicted
    as q, an exact int64 (phase, phase) array that is read-only."""
    counts = confusion_stack({0: annotation}, {0: {"": prediction}}, phases)[2][0, 0]
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
