"""Exact integer confusion counting between annotations and predictions."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import LabelSequence, PhaseSet
from .errors import PhaseEvalError
from .io import Corpus
from .vocab import LengthMismatch  # noqa: F401  (re-exported)


class DimensionMismatch(PhaseEvalError):
    """Confusion counts being combined must share a phase count."""


def confusion_stack(corpus: Corpus) -> np.ndarray:
    """The (video, run, phase, phase) int64 counts of each prediction
    against its video's annotation, in the corpus's video and run order,
    one bincount per pair."""
    videos, runs, p = corpus.videos, corpus.runs, corpus.phases.count
    counts = np.empty((len(videos), len(runs), p * p), np.int64)
    for v, video in zip(videos, counts):
        # A corpus's labels are uint8 and p * p <= 2**16 bins fit a uint16 index;
        # a wider one made 25 fps reports re-fault pages.
        base = np.multiply(corpus.annotations[v].labels, p, dtype=np.uint16)
        for r, pair in zip(runs, video):
            index = np.add(base, corpus.predictions[v][r].labels, dtype=np.uint16)
            pair[:] = np.bincount(index, minlength=p * p)
    return counts.reshape(len(videos), len(runs), p, p)


def confusion_of(
    annotation: LabelSequence, prediction: LabelSequence, phases: PhaseSet
) -> np.ndarray:
    """Count frame-wise agreement of one prediction against one annotation:
    counts[p, q] is the number of frames annotated as phase p and predicted
    as q, an exact int64 (phase, phase) array that is read-only."""
    counts = confusion_stack(Corpus(phases, {0: annotation}, {0: {"": prediction}}))[0, 0]
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
