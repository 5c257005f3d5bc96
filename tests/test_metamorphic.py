"""Metamorphic invariants: properties that follow from the definitions of
the metrics alone, checked on small corpora built in memory.

The oracles in reference.py and the goldens come from the same reading of
the metrics as the code.  These catch another kind of bug: a cell that
lands at the wrong (video, run), or a sum whose rounding depends on the
order of its terms.  They guard every rewrite of how frames are counted
(ROADMAP items 2 and 12) and how cells are summed (item 14).
"""

import itertools

from hypothesis import given, settings, strategies as st

from phaseeval.aggregate import AveragingOrder, StdMode
from phaseeval.core import LabelSequence, PhaseSet
from phaseeval.errors import PhaseEvalError
from phaseeval.io import Corpus
from phaseeval.metrics import UndefinedPolicy
from phaseeval.pipeline import run_evaluate, run_relaxed
from phaseeval.relaxed import MatrixMode, SegmentShorterThanOmega

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
@settings(max_examples=40, deadline=None)
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
@settings(max_examples=40, deadline=None)
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
@settings(max_examples=40, deadline=None)
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
