"""One loaded corpus, many reports: the frames of a Corpus are counted once,
and every report of it, in any order, is the committed one."""

import dataclasses
import itertools
import pickle
from pathlib import Path

import numpy as np
import pytest

from phaseeval import confusion
from phaseeval.aggregate import AveragingOrder, StdMode
from phaseeval.io import load_manifest, write_report
from phaseeval.metrics import UndefinedPolicy
from phaseeval.pipeline import run_evaluate, run_relaxed
from phaseeval.relaxed import MatrixMode
from phaseeval.synth import generate_corpus

REPORTS = Path(__file__).parent / "data" / "reports"

# The library call behind each golden's stem; the CLI's defaults filled in.
CALLS = {
    **{
        f"evaluate-{policy.value}-{order.value}": (run_evaluate, policy, order, StdMode.CORRECTED)
        for policy in UndefinedPolicy
        for order in AveragingOrder
    },
    "relaxed-graph": (run_relaxed, 2, MatrixMode.GRAPH_DERIVED, False),
    "relaxed-legacy": (run_relaxed, 2, MatrixMode.LEGACY, False),
    "relaxed-bug-compat": (run_relaxed, 2, MatrixMode.LEGACY, True, True),
    "relaxed-graph-omega4": (run_relaxed, 4, MatrixMode.GRAPH_DERIVED, False),
    "relaxed-bug-compat-omega4": (run_relaxed, 4, MatrixMode.LEGACY, True, True),
}


@pytest.fixture
def counted(monkeypatch):
    """The corpora whose confusion stack was counted, one entry a count."""
    calls = []
    original = confusion.confusion_stack

    def counting(corpus):
        calls.append(corpus)
        return original(corpus)

    monkeypatch.setattr(confusion, "confusion_stack", counting)
    return calls


@pytest.fixture
def golden_corpus(tmp_path):
    """The corpus behind tests/data/reports, loaded once."""
    return load_manifest(generate_corpus(tmp_path / "c", 7, 3, 2, 6, 12, 1, 0.1, 5))


def test_every_golden_comes_from_one_loaded_corpus(golden_corpus, counted):
    goldens = sorted(REPORTS.iterdir())
    assert {g.stem for g in goldens} == CALLS.keys()
    evaluate = [g for g in goldens if g.stem.startswith("evaluate")]
    relaxed = [g for g in goldens if not g.stem.startswith("evaluate")]
    # evaluate, graph, legacy and bug-compatible reports, interleaved
    for golden in filter(None, itertools.chain(*itertools.zip_longest(evaluate, relaxed))):
        run, *args = CALLS[golden.stem]
        report = run(golden_corpus, *args)
        text = write_report(report, golden.suffix.lstrip("."))
        assert text.encode("utf-8") == golden.read_bytes(), golden.name
    assert len(counted) == 1 and counted[0] is golden_corpus


def test_cached_counts_are_read_only_and_shared(golden_corpus, counted):
    counts = golden_corpus.counts
    assert golden_corpus.counts is counts
    stack = confusion.confusion_stack(golden_corpus)
    assert np.array_equal(counts.stack, stack)
    assert [a.shape for a in counts[1:]] == [(7, 3, 2)] * 3
    for a in counts:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1
    assert len(counted) == 2  # the cache's count and the direct one


@pytest.mark.parametrize(
    "copy",
    [dataclasses.replace, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["replace", "pickle"],
)
def test_a_copied_corpus_counts_again(golden_corpus, counted, copy):
    counts = golden_corpus.counts
    other = copy(golden_corpus)
    assert other == golden_corpus
    assert "counts" not in vars(other)
    assert other.counts is not counts
    assert all(np.array_equal(a, b) for a, b in zip(other.counts, counts))
    assert [id(c) for c in counted] == [id(golden_corpus), id(other)]
