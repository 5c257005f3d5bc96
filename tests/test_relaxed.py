"""Boundary-relaxed scoring: acceptance grids, window flags, the
bit-exact reproduction of the shared legacy script, and its pipeline."""

from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phaseeval.aggregate
import phaseeval.relaxed
from phaseeval.aggregate import RaggedRuns
from phaseeval.cli import run_relaxed
from phaseeval.pipeline import BugCompatConflict
from phaseeval.core import (
    MAX_PHASES,
    LabelSequence,
    OutOfRangeLabel,
    PhaseSet,
    UnsupportedPhaseCount,
    cholec80_graph,
    extract_segments,
)
from phaseeval.io import Corpus
from phaseeval.metrics import CellState, JACCARD, PRECISION, RECALL
from phaseeval.relaxed import (
    LEGACY_WATERMARK,
    InvalidGrids,
    InvalidOmega,
    LegacyGridsUnavailable,
    MatrixMode,
    RelaxMatrices,
    SegmentShorterThanOmega,
    build_matrices,
    graph_rule,
    graph_rules,
    legacy_rule,
    legacy_rules,
    relax_flags,
    relax_flags_legacy,
    relaxed_accuracy,
    relaxed_counts,
    relaxed_metric,
    relaxed_tensors,
)
from reference import oracle_legacy_flags, oracle_relax_flags, oracle_relaxed_counts

GRAPH = cholec80_graph()
GRAPH_MX = build_matrices(GRAPH, MatrixMode.GRAPH_DERIVED, 7)
LEGACY_MX = build_matrices(GRAPH, MatrixMode.LEGACY, 7)


def _seq(labels):
    return LabelSequence(tuple(labels))


def test_graph_derived_matrices():
    start = np.zeros((7, 7), dtype=int)
    end = np.zeros((7, 7), dtype=int)
    for a, b in GRAPH.edges:
        start[b][a] = 1
        end[a][b] = 1
    assert np.array_equal(GRAPH_MX.start, start)
    assert np.array_equal(GRAPH_MX.end, end)


def test_legacy_matrices_drop_exactly_four_entries():
    diff_start = np.asarray(GRAPH_MX.start) - np.asarray(LEGACY_MX.start)
    diff_end = np.asarray(GRAPH_MX.end) - np.asarray(LEGACY_MX.end)
    assert diff_start.min() == 0 and diff_end.min() == 0  # legacy is a subset
    assert {tuple(ij) for ij in np.argwhere(diff_start)} == {(4, 5), (5, 6)}
    assert {tuple(ij) for ij in np.argwhere(diff_end)} == {(5, 4), (6, 5)}


def test_legacy_matrices_need_the_standard_workflow():
    from phaseeval.core import WorkflowGraph

    with pytest.raises(Exception):
        build_matrices(GRAPH, MatrixMode.LEGACY, 8)
    with pytest.raises(Exception):
        build_matrices(
            WorkflowGraph(frozenset({(0, 1)})), MatrixMode.LEGACY, 7
        )


def test_matrices_reject_diagonal():
    bad = np.zeros((7, 7), dtype=np.int64)
    bad[2, 2] = 1
    with pytest.raises(InvalidGrids):
        RelaxMatrices(bad, np.zeros((7, 7), dtype=np.int64))


def test_malformed_grids_are_a_typed_error():
    from phaseeval.core import WorkflowGraph

    with pytest.raises(InvalidGrids, match="square"):
        RelaxMatrices(((0, 1), (1, 0)), ((0,),))
    with pytest.raises(InvalidGrids, match="edge outside"):
        build_matrices(WorkflowGraph(frozenset({(0, 9)})), MatrixMode.GRAPH_DERIVED, 7)


labels7 = st.lists(st.integers(0, 6), min_size=1, max_size=80)


@given(st.tuples(labels7, labels7), st.sampled_from([GRAPH_MX, LEGACY_MX]))
@settings(max_examples=200)
def test_flags_match_scanning_oracle(pair, mx):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = a[:n], b[:n]
    for omega in (0, 1, 3, 10):
        got = relax_flags(_seq(y), _seq(yhat), omega, mx)
        want = oracle_relax_flags(
            y, yhat, omega, np.asarray(mx.start), np.asarray(mx.end)
        )
        assert list(got) == want


@given(st.tuples(labels7, labels7))
def test_omega_zero_is_plain_agreement(pair):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = a[:n], b[:n]
    got = relax_flags(_seq(y), _seq(yhat), 0, GRAPH_MX)
    assert list(got) == [u == v for u, v in zip(y, yhat)]


@given(st.tuples(labels7, labels7), st.integers(0, 6))
@settings(max_examples=150)
def test_flags_grow_with_omega(pair, omega):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = _seq(a[:n]), _seq(b[:n])
    small = relax_flags(y, yhat, omega, GRAPH_MX)
    large = relax_flags(y, yhat, omega + 1, GRAPH_MX)
    assert all(l or not s for s, l in zip(small, large))


@given(st.tuples(labels7, labels7), st.integers(0, 4))
@settings(max_examples=150)
def test_legacy_grid_is_never_more_permissive(pair, omega):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = _seq(a[:n]), _seq(b[:n])
    graph = relax_flags(y, yhat, omega, GRAPH_MX)
    legacy = relax_flags(y, yhat, omega, LEGACY_MX)
    assert all(g or not l for l, g in zip(legacy, graph))


# annotation built from segments each at least as long as any omega we use
segmented = st.lists(
    st.tuples(st.integers(0, 6), st.integers(4, 9)), min_size=1, max_size=8
)


@given(segmented, st.data())
@settings(max_examples=200)
def test_legacy_flags_match_transcription_oracle(segs, data):
    y = [p for p, n in segs for _ in range(n)]
    yhat = data.draw(
        st.lists(st.integers(0, 6), min_size=len(y), max_size=len(y))
    )
    for omega in (0, 2, 4):
        got = relax_flags_legacy(_seq(y), _seq(yhat), omega)
        assert list(got) == oracle_legacy_flags(y, yhat, omega)


def test_legacy_bug_visible_on_short_phase3_segment():
    """End-window matches land on the start of the segment."""
    y = _seq([3, 3, 3])
    yhat = _seq([3, 5, 4])
    corrected = relax_flags(y, yhat, 2, LEGACY_MX)
    buggy = relax_flags_legacy(y, yhat, 2)
    assert list(corrected) == [True, True, True]
    assert list(buggy) == [True, True, False]


def test_negative_omega_is_a_typed_error():
    """So is an omega past int64, the width of a window."""
    y, yhat = _seq([0, 0, 1]), _seq([0, 1, 1])
    anns, preds, ph = _corpus()
    corpus = Corpus(ph, anns, preds)
    for omega in (-1, 2**63, 2**64):
        for call in (
            lambda: relax_flags(y, yhat, omega, GRAPH_MX),
            lambda: relax_flags_legacy(y, yhat, omega),
            lambda: run_relaxed(corpus, omega, MatrixMode.GRAPH_DERIVED, False),
            lambda: run_relaxed(corpus, omega, MatrixMode.LEGACY, True, bug_compatible=True),
        ):
            with pytest.raises(InvalidOmega):
                call()
    # the largest omega clamps every window to its segment
    assert relax_flags(y, yhat, 2**63 - 1, GRAPH_MX) == relax_flags(y, yhat, 3, GRAPH_MX)


def test_annotated_phase_outside_grids_is_a_typed_error():
    with pytest.raises(OutOfRangeLabel, match="label 7 at frame 1"):
        relax_flags(_seq([0, 7, 8]), _seq([0, 0, 0]), 0, GRAPH_MX)


def test_relaxed_run_set_mismatch_is_a_typed_error():
    anns, preds, ph = _corpus()
    preds[2] = {"r1": preds[2]["r0"]}
    with pytest.raises(RaggedRuns):
        Corpus(ph, anns, preds)


def test_legacy_rejects_short_segments():
    with pytest.raises(SegmentShorterThanOmega):
        relax_flags_legacy(_seq([0, 0, 1, 0, 0]), _seq([0] * 5), 2)


def test_a_report_names_the_first_short_segment_in_video_order():
    """The windows of every annotation are found in one pass; the segment
    it refuses is still the first short one of the first video that has
    one, whatever order the corpus was built in."""
    ok = _seq([0] * 3 + [1] * 4)
    first = _seq([0] * 3 + [4] * 2 + [5] * 3)  # video 2: phase 4 has 2 frames
    later = _seq([0] * 3 + [1] * 1 + [2] * 4)  # video 3: phase 1 has 1 frame
    anns = {3: later, 2: first, 1: ok}
    corpus = Corpus(PhaseSet(7), anns, {v: {"r": y} for v, y in anns.items()})
    with pytest.raises(SegmentShorterThanOmega) as exc:
        run_relaxed(corpus, 3, MatrixMode.LEGACY, True, bug_compatible=True)
    assert str(exc.value) == "segment of phase 4 has 2 frames, shorter than omega=3"
    with pytest.raises(SegmentShorterThanOmega) as alone:
        relax_flags_legacy(first, first, 3)
    assert str(alone.value) == str(exc.value)


def test_legacy_ignores_out_of_range_phases():
    y = [7, 7, 7, 7]
    yhat = [7, 8, 6, 7]
    got = relax_flags_legacy(_seq(y), _seq(yhat), 3)
    assert list(got) == [True, False, False, True]


GOLDEN_Y = [3] * 3 + [4] * 6 + [5] * 6 + [6] * 3
GOLDEN_P = [3, 5, 4, 4, 3, 3, 3, 4, 6, 3, 4, 4, 6, 5, 6, 5, 4, 6]
GOLDEN_FLAGS = [
    True, True, True, True, True, False,
    False, True, True, True, True, False,
    False, True, True, True, True, True,
]


def test_golden_walkthrough():
    y, p = _seq(GOLDEN_Y), _seq(GOLDEN_P)
    flags = relax_flags(y, p, 2, LEGACY_MX)
    assert list(flags) == GOLDEN_FLAGS
    # no dropped grid entry is exercised here, so both modes agree
    assert flags == relax_flags(y, p, 2, GRAPH_MX)
    c4 = relaxed_counts(y, p, flags, 4)
    assert (c4.r_tp, c4.union, c4.predicted, c4.annotated) == (7, 10, 6, 6)
    assert relaxed_metric(JACCARD, c4, truncate=False).value == pytest.approx(0.7)
    raw = relaxed_metric(PRECISION, c4, truncate=False)
    assert raw.value == pytest.approx(7 / 6, abs=1e-12)
    assert relaxed_metric(PRECISION, c4, truncate=True).value == 1.0
    assert relaxed_metric(RECALL, c4, truncate=True).value == 1.0


@given(st.tuples(labels7, labels7))
@settings(max_examples=150)
def test_relaxed_tp_dominates_strict_tp(pair):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = a[:n], b[:n]
    flags = relax_flags(_seq(y), _seq(yhat), 3, GRAPH_MX)
    for p in range(7):
        c = relaxed_counts(_seq(y), _seq(yhat), flags, p)
        strict_tp = sum(1 for t in range(n) if y[t] == yhat[t] == p)
        assert c.r_tp >= strict_tp
        assert c.union >= max(c.predicted, c.annotated)


LABEL_MAX = 2**31 - 1


@given(st.data(), st.integers(1, 12), st.integers(-3, 3))
@settings(max_examples=200)
def test_counts_by_phase_match_oracle(data, phase_count, start):
    """Every phase of a range at once, which need not start at 0, including
    phases absent from both sequences and labels on either side of the
    range, up to the largest int32 label; any flag mask, agreeing frames
    left unflagged included, which no flag rule gives."""
    label = st.integers(0, phase_count + 3) | st.just(LABEL_MAX)
    y = data.draw(st.lists(label, min_size=1, max_size=60))
    n = len(y)
    yhat = data.draw(st.lists(label, min_size=n, max_size=n))
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    phases = range(start, start + phase_count + 2)
    got = relaxed_counts(_seq(y), _seq(yhat), tuple(flags), phases)
    assert got == relaxed_counts(_seq(y), _seq(yhat), np.array(flags), phases)
    assert len(got) == len(phases)
    for p, c in zip(phases, got):
        want = oracle_relaxed_counts(y, yhat, flags, p)
        got_p = (c.r_tp, c.union, c.predicted, c.annotated)
        assert got_p == want
        assert all(type(v) is int for v in got_p)
        assert c == relaxed_counts(_seq(y), _seq(yhat), tuple(flags), p)


def test_counts_stay_small_for_the_largest_label():
    y, yhat = _seq([0, 1, 1]), _seq([0, LABEL_MAX, 1])
    flags = (True, True, False)
    assert relaxed_counts(y, yhat, flags, range(2)) == (
        relaxed_counts(y, yhat, flags, 0),
        relaxed_counts(y, yhat, flags, 1),
    )
    top = relaxed_counts(y, yhat, flags, LABEL_MAX)
    assert (top.r_tp, top.union, top.predicted, top.annotated) == (1, 1, 1, 0)
    assert relaxed_counts(y, y, flags, LABEL_MAX).union == 0
    assert relaxed_counts(y, yhat, flags, -1).union == 0
    assert relaxed_counts(y, yhat, flags, range(LABEL_MAX, LABEL_MAX + 2)) == (
        top,
        relaxed_counts(y, yhat, flags, LABEL_MAX + 1),
    )
    with pytest.raises(ValueError):
        relaxed_counts(y, yhat, flags, range(0, 4, 2))


@pytest.mark.parametrize(
    "phases",
    [range(0, MAX_PHASES + 1), range(-1, MAX_PHASES), range(0, 2**31), range(-(2**40), 2**40)],
)
def test_counts_refuse_a_range_wider_than_max_phases(phases):
    """Refused before anything is allocated: a wide enough range would wrap
    the uint32 pair index and ask bincount for 2 * (width + 1)**2 bins."""
    y = _seq([0, 1, 1])
    with pytest.raises(UnsupportedPhaseCount, match=f"at most {MAX_PHASES}"):
        relaxed_counts(y, y, (True, True, True), phases)


def test_counts_of_max_phases_at_once_match_each_phase():
    y, yhat = _seq([0, 255, 255, 3]), _seq([255, 255, 7, 3])
    flags = (True, True, False, False)
    assert relaxed_counts(y, yhat, flags, range(MAX_PHASES)) == tuple(
        relaxed_counts(y, yhat, flags, p) for p in range(MAX_PHASES)
    )


@pytest.mark.parametrize("width", [180, 181, MAX_PHASES])
@pytest.mark.parametrize(
    "start, past",
    [(0, 0), (0, 2), (2, 0), (-1, 1)],
    ids=["labels-as-offsets", "labels-past-the-range", "range-from-2", "range-from-minus-1"],
)
def test_counts_around_the_two_byte_index_match_oracle(width, start, past):
    """180 phases are the most whose 2 * (width + 1)**2 bins a uint16 pair
    index holds.  Labels run from 0 to `past` beyond the range's last phase,
    and the last frames pair the largest label with itself, flagged, which
    fills the top bin: labels within a range from 0 are their own offsets,
    any other label takes the offset past the end."""
    rng = np.random.default_rng(width)
    top = start + width - 1 + past  # the largest label
    y = np.append(rng.integers(0, top + 1, 300), [top, top, 0])
    yhat = np.append(rng.integers(0, top + 1, 300), [top, 0, top])
    flags = np.append(rng.random(300) < 0.5, [True, True, False])
    phases = range(start, start + width)
    got = relaxed_counts(_seq(y), _seq(yhat), flags, phases)
    y, yhat, flags = y.tolist(), yhat.tolist(), flags.tolist()
    assert [tuple(c) for c in got] == [oracle_relaxed_counts(y, yhat, flags, p) for p in phases]


@given(
    st.lists(segmented, min_size=1, max_size=3),
    st.integers(1, 3),
    st.integers(0, 4),
    st.booleans(),
    st.data(),
)
@settings(max_examples=100)
def test_relaxed_tensors_stack_the_per_pair_counts(videos, runs, omega, legacy, data):
    """The (phase, video, run) counts relaxed_tensors scores are those of
    relaxed_counts on each pair, and each accuracy is relaxed_accuracy's
    float bit for bit, under both flag rules.  The corpus declares nine
    phases, so predicted labels 7 and 8 reach past the 7-phase grids."""
    anns, preds = {}, {}
    for v, segs in enumerate(videos):
        y = [p for p, n in segs for _ in range(n)]
        anns[v] = _seq(y)
        labels = st.lists(st.integers(0, 8), min_size=len(y), max_size=len(y))
        preds[v] = {f"r{r}": _seq(data.draw(labels)) for r in range(runs)}
    # the corpus's rules, found in one pass, against each annotation's own
    rules_of, rule_of = (
        (partial(legacy_rules, omega=omega), partial(legacy_rule, omega=omega))
        if legacy
        else (
            partial(graph_rules, omega=omega, matrices=GRAPH_MX),
            partial(graph_rule, omega=omega, matrices=GRAPH_MX),
        )
    )
    scored, seen = phaseeval.relaxed.relaxed_cells, []

    def spy(kind, counts, truncate):
        seen.append(counts)
        return scored(kind, counts, truncate)

    with mock.patch.object(phaseeval.relaxed, "relaxed_cells", spy):
        _, acc = relaxed_tensors(Corpus(PhaseSet(9), anns, preds), rules_of, legacy)
    assert len(seen) == 3  # precision, recall and jaccard, all of one stack
    for v in anns:
        flags_of = rule_of(anns[v])
        for ri, r in enumerate(sorted(preds[v])):
            flags = flags_of(preds[v][r])
            want = relaxed_counts(anns[v], preds[v][r], flags, range(9))
            for counts in seen:
                assert tuple(tuple(f[p, v, ri] for f in counts) for p in range(9)) == want
            assert acc.values[0, v, ri] == relaxed_accuracy(flags).value


# Videos of 1, 3 and 7 segments, some of them 2 or 3 frames long, each
# starting on a phase whose start window forgives a neighbour.
_VIDEOS = {
    1: [(3, 8)],
    2: [(2, 5), (3, 2), (4, 6)],
    3: [(1, 3), (2, 4), (3, 2), (4, 7), (5, 3), (6, 2), (5, 5)],
}


@pytest.mark.parametrize("omega", [0, 2], ids=["omega-0", "overlapping-windows"])
@pytest.mark.parametrize("bug_compatible", [False, True], ids=["graph", "bug-compat"])
def test_a_reports_flags_are_each_pairs_own(omega, bug_compatible):
    """The flags a report counts, with every annotation's windows found in
    one pass, are relax_flags (or relax_flags_legacy) of each pair alone."""
    rng = np.random.default_rng(omega)
    anns = {v: _seq([p for p, n in segs for _ in range(n)]) for v, segs in _VIDEOS.items()}
    preds = {v: {r: _seq(rng.integers(0, 7, len(y))) for r in "ab"} for v, y in anns.items()}
    seen = []

    def spy(y, yhat, flags, phases):
        seen.append((y, yhat, tuple(flags.tolist())))
        return relaxed_counts(y, yhat, flags, phases)

    mode = MatrixMode.LEGACY if bug_compatible else MatrixMode.GRAPH_DERIVED
    with mock.patch.object(phaseeval.relaxed, "relaxed_counts", spy):
        run_relaxed(Corpus(PhaseSet(7), anns, preds), omega, mode, bug_compatible, bug_compatible)
    pairs = [(anns[v], preds[v][r]) for v in anns for r in "ab"]
    assert [(y, yhat) for y, yhat, _ in seen] == pairs
    for (y, yhat), (_, _, flags) in zip(pairs, seen):
        if bug_compatible:
            assert flags == relax_flags_legacy(y, yhat, omega)
        else:
            assert flags == relax_flags(y, yhat, omega, GRAPH_MX)


def test_relaxed_metric_undefined_on_zero_denominator():
    counts = relaxed_counts(_seq([0, 0]), _seq([0, 0]), (True, True), 5)
    for kind in (JACCARD, PRECISION, RECALL):
        assert relaxed_metric(kind, counts, truncate=True).state is CellState.UNDEFINED


def test_relaxed_accuracy_is_flag_mean():
    assert relaxed_accuracy((True, False, True, True)).value == 0.75


def _corpus():
    ph = PhaseSet(7)
    y1 = _seq([0] * 4 + [1] * 4 + [2] * 4)
    y2 = _seq([1] * 4 + [2] * 4)
    anns = {1: y1, 2: y2}
    preds = {
        1: {"r0": _seq([0] * 4 + [1] * 3 + [2] * 5)},
        2: {"r0": _seq([1] * 5 + [2] * 3)},
    }
    return anns, preds, ph


def test_legacy_pipeline_report():
    anns, preds, ph = _corpus()
    rep = run_relaxed(Corpus(ph, anns, preds), 2, MatrixMode.LEGACY, True, bug_compatible=True)
    assert rep.protocol["watermark"] == LEGACY_WATERMARK
    assert rep.protocol["omega"] == 2

    # recompute by hand: pool counts per phase across videos, truncate,
    # mean over the phases that occur
    per_phase = {}
    for vid in (1, 2):
        flags = relax_flags_legacy(anns[vid], preds[vid]["r0"], 2)
        present = {s.phase for s in extract_segments(anns[vid])}
        for p in sorted(present):
            c = relaxed_counts(anns[vid], preds[vid]["r0"], flags, p)
            for kind in (PRECISION, RECALL, JACCARD):
                cell = relaxed_metric(kind, c, truncate=True)
                if cell.is_defined:
                    per_phase.setdefault(kind, {}).setdefault(p, []).append(cell.value)
    for kind in (PRECISION, RECALL, JACCARD):
        means = [sum(v) / len(v) for _, v in sorted(per_phase[kind].items())]
        summary = rep.summary["relaxed_" + kind]
        assert summary.mean == pytest.approx(sum(means) / len(means))
        assert summary.sd_videos is summary.sd_runs is None  # the script prints neither
        rows = [rep.per_phase[p]["relaxed_" + kind] for p in ph]
        defined = {p: row.mean for p, row in enumerate(rows) if row.mean is not None}
        assert set(defined) == set(per_phase[kind])
        for p, vals in per_phase[kind].items():
            assert defined[p] == pytest.approx(sum(vals) / len(vals))
        assert all(row.sd_videos is row.sd_runs is None for row in rows)

    # accuracy: every video counts once, whatever its length
    f1 = relax_flags_legacy(anns[1], preds[1]["r0"], 2)
    f2 = relax_flags_legacy(anns[2], preds[2]["r0"], 2)
    a1, a2 = sum(f1) / len(f1), sum(f2) / len(f2)
    accuracy = rep.summary["relaxed_accuracy"]
    assert accuracy.mean == pytest.approx((a1 + a2) / 2)
    import statistics

    assert accuracy.sd_videos == pytest.approx(statistics.stdev([a1, a2]))
    assert accuracy.sd_phases is accuracy.sd_runs is None


def test_bug_compat_computes_only_the_spreads_it_prints(monkeypatch):
    """One sample standard deviation for each spread the script prints over
    two or more points: sd_phases of each relaxed score and sd_videos of
    relaxed accuracy.  Every statistic it does not print is None."""
    anns, preds, ph = _corpus()
    points = []

    def counting(p, mode):
        points.append(len(p))
        return sample_std(p, mode)

    sample_std = phaseeval.aggregate._sample_std
    monkeypatch.setattr(phaseeval.aggregate, "_sample_std", counting)
    rep = run_relaxed(Corpus(ph, anns, preds), 2, MatrixMode.LEGACY, True, bug_compatible=True)
    printed = {
        **{"relaxed_" + kind: ("mean", "sd_phases") for kind in (PRECISION, RECALL, JACCARD)},
        "relaxed_accuracy": ("mean", "sd_videos"),
    }
    rows = [(printed[k], s) for k, s in rep.summary.items()]
    rows += [(("mean",), s) for row in rep.per_phase.values() for s in row.values()]
    spreads = 0
    for stats, s in rows:
        for name, value in vars(s).items():
            assert name in stats or value is None
            spreads += name != "mean" and value is not None
    assert sorted(rep.summary) == sorted(printed)
    assert spreads == len(points) == 4
    assert min(points) >= 2


def test_legacy_pipeline_guards_config():
    """Bug-compatible mode runs the script's own grids, truncated; other
    settings are refused rather than replaced."""
    anns, preds, ph = _corpus()
    corpus = Corpus(ph, anns, preds)
    for mode, truncate in (
        (MatrixMode.GRAPH_DERIVED, True),
        (MatrixMode.GRAPH_DERIVED, False),
        (MatrixMode.LEGACY, False),
    ):
        with pytest.raises(BugCompatConflict):
            run_relaxed(corpus, 2, mode, truncate, bug_compatible=True)


@pytest.mark.parametrize("bug_compatible", [False, True])
def test_legacy_grids_need_seven_phases_in_every_mode(bug_compatible):
    y = _seq([0] * 4 + [1] * 4 + [4] * 4)
    corpus = Corpus(PhaseSet(5), {1: y}, {1: {"r0": y}})
    with pytest.raises(LegacyGridsUnavailable, match="not a 5-phase workflow"):
        run_relaxed(corpus, 2, MatrixMode.LEGACY, True, bug_compatible=bug_compatible)
