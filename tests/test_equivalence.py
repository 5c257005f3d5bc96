"""The array cell layer end to end: evaluate reports against the
brute-force oracles on random small grids, and report bytes against
reports written by the per-cell implementation it replaced."""

from pathlib import Path

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
from phaseeval.cli import main, run_evaluate
from phaseeval.core import LabelSequence, PhaseSet
from phaseeval.io import Corpus
from phaseeval.metrics import METRIC_KINDS, UNDEFINED_CELL, UndefinedPolicy
from reference import (
    UNDEFINED,
    oracle_accuracy,
    oracle_flat_mean,
    oracle_macro,
    oracle_metric,
    oracle_phase_first_mean,
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
    return argv


def test_reports_match_committed_bytes(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "c"), *SYNTH]) == 0
    capsys.readouterr()
    argv = _report_argv(str(tmp_path / "c" / "manifest.json"))
    assert sorted(argv) == sorted(p.stem for p in REPORTS.glob("*.json"))
    for name, args in argv.items():
        out = tmp_path / f"{name}.json"
        assert main([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == (REPORTS / f"{name}.json").read_bytes(), name
