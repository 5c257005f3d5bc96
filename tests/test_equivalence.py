"""The array cell layer end to end: evaluate and relaxed reports against
the brute-force oracles on random small grids, and report bytes against
reports written by the implementations they replaced."""

import json
import math
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from phaseeval.aggregate import (
    AveragingOrder,
    MetricSummary,
    ResultTensor,
    StdMode,
    SummarySpec,
    summarize,
)
from phaseeval.cli import main, run_evaluate, run_relaxed
from phaseeval.confusion import confusion_of, sum_confusions
from phaseeval.core import LABEL_MAX, LabelSequence, OutOfRangeLabel, PhaseSet, cholec80_graph
from phaseeval.io import Corpus
from phaseeval.metrics import F1, METRIC_KINDS, UNDEFINED_CELL, UndefinedPolicy, macro_metric
from phaseeval.relaxed import (
    RELAXED_KINDS,
    MatrixMode,
    SegmentShorterThanOmega,
    build_matrices,
    graph_rules,
    legacy_rules,
    relax_flags,
    window_flags,
    relax_flags_legacy,
    relaxed_counts,
)
from reference import (
    UNDEFINED,
    oracle_accuracy,
    oracle_flat_mean,
    oracle_legacy_flags,
    oracle_macro,
    oracle_metric,
    oracle_phase_first_mean,
    oracle_relax_flags,
    oracle_relaxed_counts,
    oracle_std,
    oracle_video_first_mean,
)

REPORTS = Path(__file__).parent / "data" / "reports"

ORDER_ORACLES = {
    AveragingOrder.FLAT: oracle_flat_mean,
    AveragingOrder.PHASE_FIRST: oracle_phase_first_mean,
    AveragingOrder.VIDEO_FIRST: oracle_video_first_mean,
}


@st.composite
def corpora(draw):
    """(phase_count, annotations, predictions); annotations use only the
    first `used` phases, so the others are absent from every video."""
    phase_count = draw(st.integers(1, 4))
    used = draw(st.integers(1, phase_count))
    runs = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    annotations, predictions = {}, {}
    for v in range(1, draw(st.integers(1, 3)) + 1):
        n = draw(st.integers(1, 12))
        frames = st.lists(st.integers(0, used - 1), min_size=n, max_size=n)
        annotations[v] = draw(frames)
        predicted = st.lists(st.integers(0, phase_count - 1), min_size=n, max_size=n)
        predictions[v] = {r: draw(predicted) for r in runs}
    return phase_count, annotations, predictions


def _none(x):
    return None if x is UNDEFINED else x


def _policy_cell(kind, y, yhat, p, policy):
    """One per-phase score after the undefined-value policy; None = dropped."""
    if policy is UndefinedPolicy.EXCLUDE_MISSING_PHASE and p not in y:
        return None
    value = oracle_metric(kind, y, yhat, p)
    if value is UNDEFINED:
        return {UndefinedPolicy.ZERO_FILL: 0.0, UndefinedPolicy.ONE_FILL: 1.0}.get(policy)
    return value


def _bold(y, yhat, phase_count, policy):
    p = oracle_macro("precision", y, yhat, phase_count, policy.value)
    r = oracle_macro("recall", y, yhat, phase_count, policy.value)
    if p is UNDEFINED or r is UNDEFINED:
        return None
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def _close(got, want):
    if want is UNDEFINED or want is None:
        assert got is None
    else:
        assert got is not None and abs(got - want) <= 1e-12


def _check(summary: MetricSummary, grid, order, corrected):
    _close(summary.mean, ORDER_ORACLES[order](grid))
    for axis, got in (
        ("videos", summary.sd_videos),
        ("phases", summary.sd_phases),
        ("runs", summary.sd_runs),
    ):
        _close(got, oracle_std(grid, axis, corrected))


@given(corpora())
@settings(max_examples=40, deadline=None)
@example((3, {1: [0, 0, 1]}, {1: {"r0": [0, 1, 1]}}))  # one video, one run, phase 2 absent
@example((2, {1: [0, 0], 2: [0]}, {1: {"r0": [0, 0]}, 2: {"r0": [0]}}))  # phase 1 nowhere
def test_evaluate_matches_oracles(data):
    phase_count, annotations, predictions = data
    corpus = Corpus(
        PhaseSet(phase_count),
        {v: LabelSequence(tuple(y)) for v, y in annotations.items()},
        {
            v: {r: LabelSequence(tuple(p)) for r, p in runs.items()}
            for v, runs in predictions.items()
        },
    )
    videos, runs = corpus.videos, corpus.runs
    pairs = [[(annotations[v], predictions[v][r]) for r in runs] for v in videos]

    def video_grid(fn):
        return [[[fn(y, yhat) for y, yhat in row] for row in pairs]]

    for policy in UndefinedPolicy:
        for order in AveragingOrder:
            for std_mode in StdMode:
                corrected = std_mode is StdMode.CORRECTED
                report = run_evaluate(corpus, policy, order, std_mode)
                summary = report.summary
                for kind in METRIC_KINDS:
                    grid = [
                        [[_policy_cell(kind, y, yhat, p, policy) for y, yhat in row]
                         for row in pairs]
                        for p in range(phase_count)
                    ]
                    _check(summary[kind], grid, order, corrected)
                    for p in range(phase_count):
                        _check(report.per_phase[p][kind], [grid[p]], order, corrected)
                _check(summary["accuracy"], video_grid(oracle_accuracy), order, corrected)
                for kind in ("precision", "recall", "f1"):
                    grid = video_grid(
                        lambda y, yhat: _none(
                            oracle_macro(kind, y, yhat, phase_count, policy.value)
                        )
                    )
                    _check(summary["macro_" + kind], grid, order, corrected)
                grid = video_grid(lambda y, yhat: _bold(y, yhat, phase_count, policy))
                _check(summary["bold_macro_f1"], grid, order, corrected)

                mp, mr = summary["precision"].mean, summary["recall"].mean
                if mp is not None and mr is not None and mp + mr > 0:
                    _close(summary["f1_upper"].mean, 2 * mp * mr / (mp + mr))
                else:
                    assert "f1_upper" not in summary

                pooled_y = [x for v in videos for x in annotations[v]]
                frame = [
                    _none(oracle_macro(
                        "f1", pooled_y, [x for v in videos for x in predictions[v][r]],
                        phase_count, policy.value,
                    ))
                    for r in runs
                ]
                kept = [x for x in frame if x is not None]
                got = summary["frame_f1"]
                _close(got.mean, sum(kept) / len(kept) if kept else None)
                _close(got.sd_runs, oracle_std([[frame]], "runs", corrected))
                assert got.sd_videos is None and got.sd_phases is None


@st.composite
def relaxed_corpora(draw):
    """(omega, annotations, predictions) on the seven-phase workflow.
    Segments run from 1 to 2*omega + 2 frames, so some are shorter than
    omega and some have overlapping start and end windows.  Predictions
    move the annotated label by up to 2 phases (what the windows forgive)
    or take any label, past the grids and up to the largest int32."""
    omega = draw(st.integers(0, 4))
    runs = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    segment = st.tuples(st.integers(0, 6), st.integers(1, 2 * omega + 2))
    frame = st.integers(-2, 2).map(lambda d: ("near", d)) | st.sampled_from(
        [*range(12), LABEL_MAX]
    ).map(lambda x: ("label", x))
    annotations, predictions = {}, {}
    for v in range(1, draw(st.integers(1, 3)) + 1):
        y = [p for p, n in draw(st.lists(segment, min_size=1, max_size=6)) for _ in range(n)]
        annotations[v] = y
        predictions[v] = {}
        for r in runs:
            codes = draw(st.lists(frame, min_size=len(y), max_size=len(y)))
            predictions[v][r] = [
                max(a + x, 0) if how == "near" else x for a, (how, x) in zip(y, codes)
            ]
    return omega, annotations, predictions


def _relaxed_grid(kind, pairs, truncate):
    """grid[p][v][r] of relaxed cells from oracle counts; phases missing
    from the annotation and undefined cells are None (dropped)."""
    field = {"precision": 2, "recall": 3, "jaccard": 1}[kind]
    grid = []
    for p in range(7):
        plane = []
        for row in pairs:
            cells = []
            for y, yhat, flags in row:
                counts = oracle_relaxed_counts(y, yhat, flags, p)
                if p not in y or counts[field] == 0:
                    cells.append(None)
                else:
                    value = counts[0] / counts[field]
                    cells.append(min(value, 1.0) if truncate else value)
            plane.append(cells)
        grid.append(plane)
    return grid


GRAPH_MX = build_matrices(cholec80_graph(), MatrixMode.GRAPH_DERIVED, 7)
LEGACY_MX = build_matrices(cholec80_graph(), MatrixMode.LEGACY, 7)


@given(relaxed_corpora(), st.booleans())
@settings(max_examples=60, deadline=None)
@example((4, {1: [3] * 5 + [4] * 7}, {1: {"r0": [3, 2, 4, 5, 5, 3, 4, 6, 4, 5, 5, 9]}}), False)
@example((3, {1: [0, 1, 1, 2, 2, 2]}, {1: {"r0": [1, 0, 2, 1, 3, LABEL_MAX]}}), True)
@example((0, {1: [5, 5, 6]}, {1: {"r0": [4, 6, 5]}}), True)
def test_relaxed_matches_oracles(data, truncate):
    """run_relaxed under both grids and the bug-compatible path against
    the scanning flag oracles and per-frame counts; the flag functions and
    relaxed_counts (mask and tuple flags) frame by frame.  The per-pair
    functions take the drawn predictions, labels past the grids included;
    a Corpus refuses those, so the reports score them with each label past
    6 lowered to 6."""
    omega, annotations, drawn = data
    seq = lambda labels: LabelSequence(tuple(labels))  # noqa: E731
    anns = {v: seq(y) for v, y in annotations.items()}

    def corpus_of(grid):
        preds = {v: {r: seq(p) for r, p in row.items()} for v, row in grid.items()}
        return Corpus(PhaseSet(7), anns, preds)

    predictions = {
        v: {r: [min(x, 6) for x in p] for r, p in row.items()} for v, row in drawn.items()
    }
    if predictions != drawn:
        with pytest.raises(OutOfRangeLabel):
            corpus_of(drawn)
    corpus = corpus_of(predictions)
    videos, runs = corpus.videos, corpus.runs

    for mode, mx in ((MatrixMode.GRAPH_DERIVED, GRAPH_MX), (MatrixMode.LEGACY, LEGACY_MX)):
        grids = mx[:7, :7], mx[7:, :7]
        for v in videos:
            y = anns[v]
            for yhat in drawn[v].values():
                flags = oracle_relax_flags(annotations[v], yhat, omega, *grids)
                pred = seq(yhat)
                assert list(relax_flags(y, pred, omega, mx)) == flags
                (mask,) = window_flags(graph_rules(y.labels, omega, mx), pred.labels[None])
                wide = range(10)  # phases past the grids too
                got = np.array(relaxed_counts(y, pred, mask, wide))
                assert np.array_equal(got, relaxed_counts(y, pred, tuple(flags), wide))
                for p in wide:
                    assert tuple(got[:, p]) == oracle_relaxed_counts(
                        annotations[v], yhat, flags, p
                    )
        pairs = [
            [(annotations[v], predictions[v][r],
              oracle_relax_flags(annotations[v], predictions[v][r], omega, *grids))
             for r in runs]
            for v in videos
        ]
        report = run_relaxed(corpus, omega, mode, truncate)
        for kind in RELAXED_KINDS:
            grid = _relaxed_grid(kind, pairs, truncate)
            _check(report.summary["relaxed_" + kind], grid, AveragingOrder.FLAT, True)
            for p in range(7):
                _check(report.per_phase[p]["relaxed_" + kind], [grid[p]], AveragingOrder.FLAT, True)
        accuracy = [[[sum(f) / len(f) for _, _, f in row] for row in pairs]]
        _check(report.summary["relaxed_accuracy"], accuracy, AveragingOrder.FLAT, True)

    pairs, short = [], False
    for v in videos:
        y = anns[v]
        try:
            row = [(annotations[v], predictions[v][r],
                    oracle_legacy_flags(annotations[v], predictions[v][r], omega))
                   for r in runs]
        except ValueError:  # the oracle meets a segment shorter than omega
            short = True
            with pytest.raises(SegmentShorterThanOmega):
                legacy_rules(y.labels, omega)
            continue
        for yhat in drawn[v].values():
            flags = oracle_legacy_flags(annotations[v], yhat, omega)
            assert list(relax_flags_legacy(y, seq(yhat), omega)) == flags
        pairs.append(row)
    if short:
        with pytest.raises(SegmentShorterThanOmega):
            run_relaxed(corpus, omega, MatrixMode.LEGACY, True, bug_compatible=True)
        return
    report = run_relaxed(corpus, omega, MatrixMode.LEGACY, True, bug_compatible=True)
    for kind in RELAXED_KINDS:
        grid = _relaxed_grid(kind, pairs, truncate=True)
        got = report.summary["relaxed_" + kind]
        _close(got.mean, oracle_video_first_mean(grid))
        _close(got.sd_phases, oracle_std(grid, "phases", True))
        assert got.sd_videos is None and got.sd_runs is None
        for p in range(7):
            _close(report.per_phase[p]["relaxed_" + kind].mean, oracle_flat_mean([grid[p]]))
    accuracy = [[[sum(f) / len(f) for _, _, f in row] for row in pairs]]
    got = report.summary["relaxed_accuracy"]
    _close(got.mean, oracle_video_first_mean(accuracy))
    _close(got.sd_videos, oracle_std(accuracy, "videos", True))


def test_frame_f1_mean_is_the_fsum_of_each_runs_pooled_macro_f1():
    # Found by search: plain float addition of these three runs' values
    # rounds differently from the exactly rounded sum.
    ph = PhaseSet(3)
    annotations = {1: (0, 2), 2: (0, 0)}
    predictions = {
        1: {"a": (0, 2), "b": (1, 0), "c": (0, 1)},
        2: {"a": (2, 1), "b": (0, 1), "c": (2, 1)},
    }
    corpus = Corpus(
        ph,
        {v: LabelSequence(y) for v, y in annotations.items()},
        {v: {r: LabelSequence(p) for r, p in runs.items()} for v, runs in predictions.items()},
    )
    policy = UndefinedPolicy.EXCLUDE_UNDEFINED
    values = [
        macro_metric(F1, sum_confusions(
            confusion_of(corpus.annotations[v], corpus.predictions[v][r], ph)
            for v in corpus.videos
        ), policy).value
        for r in corpus.runs
    ]
    assert sum(values) / len(values) != math.fsum(values) / len(values)
    for order in AveragingOrder:
        report = run_evaluate(corpus, policy, order, StdMode.CORRECTED)
        assert report.summary["frame_f1"].mean == math.fsum(values) / len(values)


def test_all_undefined_tensor_has_no_mean_or_spread():
    t = ResultTensor.build(range(2), (1, 2), ("a", "b"), lambda p, v, r: UNDEFINED_CELL)
    for order in AveragingOrder:
        for mode in StdMode:
            assert summarize(t, SummarySpec(mode, order)) == MetricSummary(
                None, None, None, None
            )


SYNTH = ["--videos", "3", "--runs", "2", "--min-len", "6", "--max-len", "12",
         "--boundary-shift", "1", "--flip-rate", "0.1", "--seed", "5"]


def _report_argv(manifest: str) -> dict[str, list[str]]:
    argv = {
        f"evaluate-{policy.value}-{order.value}": [
            "evaluate", manifest, "--policy", policy.value, "--order", order.value,
        ]
        for policy in UndefinedPolicy
        for order in AveragingOrder
    }
    argv["relaxed-graph"] = ["relaxed", manifest, "--omega", "2", "--matrices", "graph"]
    argv["relaxed-legacy"] = ["relaxed", manifest, "--omega", "2"]
    argv["relaxed-bug-compat"] = [
        "relaxed", manifest, "--omega", "2", "--truncate", "--bug-compat",
    ]
    # omega 4 on segments of 6-12 frames: head and tail windows overlap
    argv["relaxed-graph-omega4"] = ["relaxed", manifest, "--omega", "4", "--matrices", "graph"]
    argv["relaxed-bug-compat-omega4"] = [
        "relaxed", manifest, "--omega", "4", "--truncate", "--bug-compat",
    ]
    return argv


def _assert_goldens(tmp_path: Path, manifest: Path, goldens) -> None:
    argv = _report_argv(str(manifest))
    for golden in goldens:
        out = tmp_path / golden.name
        fmt = golden.suffix.lstrip(".")
        assert main([*argv[golden.stem], "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes(), golden.name


def test_reports_match_committed_bytes(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "c"), *SYNTH]) == 0
    capsys.readouterr()
    argv = _report_argv(str(tmp_path / "c" / "manifest.json"))
    assert sorted(argv) == sorted(p.stem for p in REPORTS.glob("*.json"))
    # plus csv and md goldens of a few reports, whose writers lay out the same
    # summary and per-phase rows differently
    goldens = sorted(p for p in REPORTS.iterdir() if p.suffix != ".sha256")
    _assert_goldens(tmp_path, tmp_path / "c" / "manifest.json", goldens)


def _zero_padded(root: Path) -> None:
    """Two digits a label: the general parse path instead of the one-digit one."""
    for f in root.glob("video*/*.txt"):
        f.write_text("".join(f"{int(x):02d}\n" for x in f.read_text().split()))


def _no_final_newline(root: Path) -> None:
    for f in root.glob("video*/*.txt"):
        f.write_bytes(f.read_bytes().removesuffix(b"\n"))


def _odd_label_paths(root: Path) -> None:
    """Entries pathlib reads as the same file: a trailing "/", "./", "//", "/."."""
    manifest = root / "manifest.json"
    doc = json.loads(manifest.read_text())
    for entry, (before, after) in zip(doc["videos"], [("", "/"), ("./", ""), ("./", "/.")]):
        parent, name = entry["annotation"].split("/")
        entry["annotation"] = f"{before}{parent}//{name}{after}"
        entry["predictions"] = {r: f"{before}{p}{after}" for r, p in entry["predictions"].items()}
    manifest.write_text(json.dumps(doc))


@pytest.mark.parametrize("rewrite", [_zero_padded, _no_final_newline, _odd_label_paths])
def test_rewritten_golden_corpus_gives_the_committed_reports(tmp_path, capsys, rewrite):
    """The same labels read through the general parse path, without final
    newlines, or through label paths written differently."""
    assert main(["synth", "--out-dir", str(tmp_path / "c"), *SYNTH]) == 0
    capsys.readouterr()
    files = sorted(p for p in (tmp_path / "c").rglob("*") if p.is_file())
    before = [p.read_bytes() for p in files]
    rewrite(tmp_path / "c")
    assert [p.read_bytes() for p in files] != before
    _assert_goldens(tmp_path, tmp_path / "c" / "manifest.json", sorted(REPORTS.glob("*.json")))
