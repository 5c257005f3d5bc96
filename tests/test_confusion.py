"""Confusion-count construction and arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaseeval.aggregate import stack_confusions
from phaseeval.confusion import (
    DimensionMismatch,
    LengthMismatch,
    confusion_of,
    confusion_stack,
    sum_confusions,
)
from phaseeval.core import LabelSequence, PhaseSet
from phaseeval.io import Corpus
from phaseeval.metrics import phase_counts

PHASES5 = PhaseSet(5)


def _seq(labels):
    return LabelSequence(tuple(labels))


def test_counts_match_hand_example():
    y = _seq([0, 0, 1, 1, 2])
    yhat = _seq([0, 1, 1, 1, 1])
    m = confusion_of(y, yhat, PhaseSet(3))
    expected = np.array([[1, 1, 0], [0, 2, 0], [0, 1, 0]])
    assert m.dtype == np.int64
    assert np.array_equal(m, expected)
    assert m.sum() == 5
    assert m[1, 1] == 2
    tp, annotated, predicted = phase_counts(m)
    assert predicted[1] - tp[1] == 2  # false positives
    assert annotated[1] - tp[1] == 0  # false negatives
    assert np.flatnonzero(annotated).tolist() == [0, 1, 2]  # annotated phases


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion_of(_seq([0, 1]), _seq([0, 1, 2]), PHASES5)


def test_counts_are_read_only():
    m = confusion_of(_seq([0, 1]), _seq([1, 1]), PhaseSet(2))
    with pytest.raises(ValueError):
        m[0, 0] = 99


labels5 = st.lists(st.integers(0, 4), min_size=1, max_size=60)


@given(st.tuples(labels5, labels5))
def test_counts_by_brute_force(pair):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = a[:n], b[:n]
    m = confusion_of(_seq(y), _seq(yhat), PHASES5)
    for p in range(5):
        for q in range(5):
            want = sum(1 for t in range(n) if y[t] == p and yhat[t] == q)
            assert m[p, q] == want
    assert m.sum() == n
    assert sum(m[p].sum() for p in range(5)) == n


@given(st.lists(st.tuples(labels5, labels5), min_size=1, max_size=4))
def test_sum_matches_concatenation(pairs):
    pairs = [(a[: min(len(a), len(b))], b[: min(len(a), len(b))]) for a, b in pairs]
    mats = [confusion_of(_seq(y), _seq(p), PHASES5) for y, p in pairs]
    cat_y = [x for y, _ in pairs for x in y]
    cat_p = [x for _, p in pairs for x in p]
    assert np.array_equal(
        sum_confusions(mats), confusion_of(_seq(cat_y), _seq(cat_p), PHASES5)
    )


@given(st.integers(1, 8) | st.just(256), st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100)
def test_stack_equals_each_pair_counted_alone(phase_count, videos, runs, data):
    """Up to the widest vocabulary, whose largest pair index is 2**16 - 1."""
    phases = PhaseSet(phase_count)
    labels = st.integers(0, phase_count - 1) | st.just(phase_count - 1)
    anns, preds = {}, {}
    for v in range(videos):
        n = data.draw(st.integers(1, 40))
        frames = st.lists(labels, min_size=n, max_size=n)
        anns[v] = _seq(data.draw(frames))
        preds[v] = {f"r{r}": _seq(data.draw(frames)) for r in range(runs)}
    corpus = Corpus(phases, anns, preds)
    got = confusion_stack(corpus)
    want = stack_confusions({
        v: {r: confusion_of(anns[v], p, phases) for r, p in preds[v].items()} for v in anns
    })
    assert (corpus.videos, corpus.runs) == want[:2]
    assert got.dtype == np.int64 and np.array_equal(got, want[2])


def test_sum_rejects_mixed_sizes():
    a = np.zeros((3, 3), dtype=np.int64)
    b = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(DimensionMismatch):
        sum_confusions([a, b])
