"""Confusion-count construction and arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from reference import oracle_confusion

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


def _frames(labels, n):
    """n labels drawn one by one, or as a few runs of one label each, the
    last run filling what is left."""
    runs = st.lists(st.tuples(labels, st.integers(1, n)), min_size=1, max_size=4)
    return st.lists(labels, min_size=n, max_size=n) | runs.map(
        lambda rs: ([x for label, k in rs for x in [label] * k] + [rs[-1][0]] * n)[:n]
    )


@given(
    st.integers(1, 8) | st.sampled_from([128, 129, 181, 182, 256]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_stack_equals_each_pair_counted_alone(phase_count, videos, runs, data):
    """Each side of a change in the lane count (128/129 and 181/182 phases)
    and the widest vocabulary, whose largest pair index is 2**16 - 1; every
    video length mod 4, and long runs of one bin."""
    phases = PhaseSet(phase_count)
    labels = st.integers(0, phase_count - 1) | st.just(phase_count - 1)
    anns, preds = {}, {}
    for v in range(videos):
        n = data.draw(st.integers(1, 80))
        anns[v] = data.draw(_frames(labels, n))
        preds[v] = {f"r{r}": data.draw(_frames(labels, n)) for r in range(runs)}
    corpus = Corpus(
        phases,
        {v: _seq(y) for v, y in anns.items()},
        {v: {r: _seq(p) for r, p in preds[v].items()} for v in preds},
    )
    got = confusion_stack(corpus)
    want = [
        [oracle_confusion(anns[v], preds[v][r], phase_count) for r in sorted(preds[v])]
        for v in sorted(anns)
    ]
    assert corpus.videos == tuple(sorted(anns))
    assert got.dtype == np.int64 and np.array_equal(got, np.array(want, np.int64))


def test_sum_rejects_mixed_sizes():
    a = np.zeros((3, 3), dtype=np.int64)
    b = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(DimensionMismatch):
        sum_confusions([a, b])
