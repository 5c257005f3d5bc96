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
    one bincount per pair.

    Frame t of a video is counted in lane t mod `lanes`, a p * p square of
    its own, and the lanes are summed once per corpus: most frames fall in
    the same bin as the frame before, and with one square each such
    increment waits for the previous store to the same counter. `lanes`
    is the largest of 4, 2 and 1 whose lanes * p * p bins fit the uint16
    index (4 up to 128 phases, 2 up to 181, then 1)."""
    videos, runs, p = corpus.videos, corpus.runs, corpus.phases.count
    square = p * p
    lanes = next(k for k in (4, 2, 1) if k * square <= 1 << 16)
    longest = max(len(a) for a in corpus.annotations.values())
    offsets = np.tile(
        np.array([k * square for k in range(lanes)], np.uint16), -(-longest // lanes)
    )
    counts = np.empty((len(videos), len(runs), lanes * square), np.int64)
    for v, video in zip(videos, counts):
        # A corpus's labels are uint8 and the largest index, lanes * p * p - 1,
        # fits uint16; a wider index made 25 fps reports re-fault pages.
        base = np.multiply(corpus.annotations[v].labels, p, dtype=np.uint16)
        base += offsets[: len(base)]
        for r, pair in zip(runs, video):
            index = np.add(base, corpus.predictions[v][r].labels, dtype=np.uint16)
            pair[:] = np.bincount(index, minlength=lanes * square)
    return counts.reshape(len(videos), len(runs), lanes, p, p).sum(axis=2)


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
