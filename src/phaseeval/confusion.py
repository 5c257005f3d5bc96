"""Exact integer confusion counting between annotations and predictions."""

from __future__ import annotations

from bisect import bisect_right
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
    against its video's annotation, in the corpus's video and run order:
    one bincount per run of each chunk of whole videos, at most 2**16
    frames or one video, video k of a chunk in its k-th block of squares.

    Frame t of a chunk is counted in lane t mod `lanes`, a p * p square of
    its own, and the lanes are summed once per corpus: most frames fall in
    the same bin as the frame before, and with one square each such
    increment waits for the previous store to the same counter. `lanes` is
    the largest of 4, 2 and 1 whose lanes * p * p bins fit the uint16 index
    (4 up to 128 phases, 2 up to 181, then 1), and so do a chunk's blocks."""
    labels, edges, p = corpus.labels, corpus.edges.tolist(), corpus.phases.count
    square = p * p
    lanes = next(k for k in (4, 2, 1) if k * square <= 1 << 16)
    block, longest = lanes * square, min(edges[-1], max(1 << 16, *np.diff(edges).tolist()))
    offsets = np.tile(np.arange(0, block, square, dtype=np.uint16), -(-longest // lanes))
    counts = np.empty((len(edges) - 1, len(labels) - 1, block), np.int64)
    i = 0
    while i < len(counts):
        j = max(i + 1, min(bisect_right(edges, edges[i] + (1 << 16)) - 1, i + (1 << 16) // block))
        lo, hi, held = edges[i], edges[j], j - i
        # A corpus's labels are uint8 and the largest index, held * block - 1,
        # fits uint16; a wider index made 25 fps reports re-fault pages.
        base = np.multiply(labels[0, lo:hi], p, dtype=np.uint16)
        base += offsets[: hi - lo]
        if held > 1:  # video k's frames move k blocks up
            base += (np.arange(held, dtype=np.uint16) * block).repeat(np.diff(edges[i : j + 1]))
        for run, pairs in zip(labels[1:, lo:hi], counts[i:j].swapaxes(0, 1)):
            pairs.flat = np.bincount(np.add(base, run, dtype=np.uint16), minlength=held * block)
        i = j
    return counts.reshape(*counts.shape[:2], lanes, p, p).sum(axis=2)


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
