"""Metamorphic invariants: properties that follow from the definitions of
the metrics alone, checked on small corpora built in memory.

The oracles in reference.py and the goldens come from the same reading of
the metrics as the code.  These catch another kind of bug: a cell that
lands at the wrong (video, run), or a sum whose rounding depends on the
order of its terms.  They guard every rewrite of how frames are counted
(ROADMAP items 2 and 12) and how cells are summed (item 14).

The corpora here give every sum fewer terms than metrics.row_fsum's cutoff,
so the module lowers the cutoff to one term: every sum of three or more
terms takes the array path, which splits terms on a grid and sums the
parts in its own order.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from phaseeval import metrics
from phaseeval.aggregate import AveragingOrder, StdMode
from phaseeval.core import LabelSequence, PhaseSet, assumed_workflow
from phaseeval.errors import PhaseEvalError
from phaseeval.io import Corpus
from phaseeval.metrics import UndefinedPolicy
from phaseeval.pipeline import run_evaluate, run_relaxed
from phaseeval.relaxed import (
    MatrixMode,
    SegmentShorterThanOmega,
    build_matrices,
    graph_rules,
    legacy_rules,
    window_flags,
)

pytestmark = pytest.mark.thorough

PHASES = PhaseSet(7)  # the legacy grids exist for seven phases only

# Every evaluate protocol, then graph, legacy-grid and bug-compatible relaxed.
EVALUATE = [
    (run_evaluate, *protocol)
    for protocol in itertools.product(UndefinedPolicy, AveragingOrder, StdMode)
]
RELAXED = [
    (run_relaxed, MatrixMode.GRAPH_DERIVED, False),
    (run_relaxed, MatrixMode.LEGACY, True),
    (run_relaxed, MatrixMode.LEGACY, True, True),
]

# An annotation of 1 to 5 segments, each 1 to 6 frames of one phase.
annotations = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 6)), min_size=1, max_size=5
).map(lambda segments: [p for p, n in segments for _ in range(n)])


@st.composite
def corpora(draw):
    """Annotations and predictions of 1 to 4 videos with 1 to 3 runs each,
    as plain maps of label lists; each prediction is its annotation with
    some frames changed."""
    videos = draw(st.lists(annotations, min_size=1, max_size=4))
    runs = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    predictions = {}
    for v, y in enumerate(videos):
        predictions[v] = {}
        for r in runs:
            noise = st.lists(st.none() | st.integers(0, 6), min_size=len(y), max_size=len(y))
            changed = draw(noise)
            predictions[v][r] = [a if b is None else b for a, b in zip(y, changed)]
    return dict(enumerate(videos)), predictions


@pytest.fixture(autouse=True, scope="module")
def _array_sums():
    with mock.patch.object(metrics, "_ARRAY_TERMS", 1):
        yield


def _corpus(annotations, predictions) -> Corpus:
    return Corpus(
        PHASES,
        {v: LabelSequence(tuple(y)) for v, y in annotations.items()},
        {
            v: {r: LabelSequence(tuple(p)) for r, p in runs.items()}
            for v, runs in predictions.items()
        },
    )


def _outcome(call, corpus, omega):
    """A report's summaries and per-phase summaries, or the class of the
    error it raised."""
    run, *protocol = call
    if run is run_relaxed:
        protocol.insert(0, omega)
    try:
        report = run(corpus, *protocol)
    except PhaseEvalError as error:
        return type(error)
    return report.summary, report.per_phase


def _means(outcome):
    if isinstance(outcome, type):
        return outcome
    summary, per_phase = outcome
    rows = [summary, *per_phase.values()]
    return [{k: s.mean for k, s in row.items()} for row in rows]


@given(corpora(), st.integers(0, 3), st.data())
@settings(max_examples=examples(40), deadline=None)
def test_renaming_and_reordering_ids_changes_no_float(corpus, omega, data):
    """New video and run ids, in another sort order, and both maps listed in
    another order, leave every mean and spread bit-identical: exactly
    rounded sums do not depend on the order of their terms."""
    annotations, predictions = corpus
    videos, runs = list(annotations), list(predictions[0])
    new_videos = data.draw(
        st.lists(st.integers(0, 999), min_size=len(videos), max_size=len(videos), unique=True)
    )
    new_runs = data.draw(
        st.lists(
            st.text("abxyz", min_size=1, max_size=3),
            min_size=len(runs),
            max_size=len(runs),
            unique=True,
        )
    )
    video_of, run_of = dict(zip(videos, new_videos)), dict(zip(runs, new_runs))
    order = data.draw(st.permutations(videos))
    renamed = _corpus(
        {video_of[v]: annotations[v] for v in order},
        {
            video_of[v]: {run_of[r]: predictions[v][r] for r in data.draw(st.permutations(runs))}
            for v in reversed(order)
        },
    )
    original = _corpus(annotations, predictions)
    for call in EVALUATE + RELAXED:
        assert _outcome(call, renamed, omega) == _outcome(call, original, omega), call


@given(corpora(), st.integers(0, 3))
@settings(max_examples=examples(40), deadline=None)
def test_a_copy_of_every_run_changes_no_mean(corpus, omega):
    """Every cell counted twice leaves every mean bit-identical, however
    the spreads move."""
    annotations, predictions = corpus
    doubled = {
        v: {**runs, **{r + "-copy": p for r, p in runs.items()}} for v, runs in predictions.items()
    }
    original, copied = _corpus(annotations, predictions), _corpus(annotations, doubled)
    for call in EVALUATE + RELAXED:
        want = _means(_outcome(call, original, omega))
        assert _means(_outcome(call, copied, omega)) == want, call


@given(st.lists(annotations, min_size=1, max_size=4), st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=examples(40), deadline=None)
def test_a_perfect_prediction_scores_one(videos, runs, omega):
    """A prediction equal to its annotation scores 1.0 on every defined
    mean, per phase too.  Zero fill is left out: it defines the undefined
    cells of every phase a video lacks as 0."""
    annotations = dict(enumerate(videos))
    predictions = {v: {f"r{i}": y for i in range(runs)} for v, y in annotations.items()}
    corpus = _corpus(annotations, predictions)
    for call in EVALUATE + RELAXED:
        if UndefinedPolicy.ZERO_FILL in call:
            continue
        outcome = _means(_outcome(call, corpus, omega))
        if outcome is SegmentShorterThanOmega:
            continue  # bug-compatible mode refuses a segment shorter than omega
        for row in outcome:
            assert {m for m in row.values() if m is not None} <= {1.0}, (call, row)


@given(corpora(), st.permutations(range(PHASES.count)))
@settings(max_examples=examples(40), deadline=None)
def test_relabelling_phases_permutes_the_phase_rows(corpus, relabel):
    """Phase p renamed relabel[p] in every annotation and prediction moves
    phase p's row to relabel[p] and leaves every summary float
    bit-identical, under every evaluate protocol."""
    annotations, predictions = corpus
    relabelled = _corpus(
        {v: [relabel[p] for p in y] for v, y in annotations.items()},
        {
            v: {r: [relabel[p] for p in yhat] for r, yhat in runs.items()}
            for v, runs in predictions.items()
        },
    )
    original = _corpus(annotations, predictions)
    for call in EVALUATE:
        want, got = _outcome(call, original, 0), _outcome(call, relabelled, 0)
        if isinstance(want, type):
            assert got == want, call
            continue
        (summary, per_phase), (new_summary, new_per_phase) = want, got
        assert new_summary == summary, call
        assert new_per_phase == {relabel[p]: row for p, row in per_phase.items()}, call


@given(corpora(), st.integers(0, 3))
@settings(max_examples=examples(40), deadline=None)
def test_relaxed_accuracy_is_never_below_accuracy(corpus, omega):
    """The graph, legacy-grid and bug-compatible rules flag every frame whose
    prediction equals its annotation, so relaxed accuracy is never below
    accuracy: per pair, and as the mean of each report."""
    corpus = _corpus(*corpus)
    annotations = [corpus.annotations[v] for v in corpus.videos]
    graph = assumed_workflow(PHASES)[1]
    rules = [
        graph_rules(annotations, omega, build_matrices(graph, mode, PHASES.count))
        for mode in (MatrixMode.GRAPH_DERIVED, MatrixMode.LEGACY)
    ]
    try:
        rules.append(legacy_rules(annotations, omega))
    except SegmentShorterThanOmega:
        pass  # the bug-compatible rule refuses a segment shorter than omega
    videos = [[corpus.predictions[v][r] for r in corpus.runs] for v in corpus.videos]
    frames = np.cumsum([0, *map(len, annotations)])
    for windows in rules:
        masks = window_flags(windows, videos)
        for i, (y, runs) in enumerate(zip(annotations, videos)):
            for yhat, mask in zip(runs, masks[:, frames[i] : frames[i + 1]]):
                assert np.all(mask[y.labels == yhat.labels])
    summary, _ = _outcome(EVALUATE[0], corpus, omega)
    for call in RELAXED:
        outcome = _outcome(call, corpus, omega)
        if outcome is not SegmentShorterThanOmega:
            assert outcome[0]["relaxed_accuracy"].mean >= summary["accuracy"].mean, call
