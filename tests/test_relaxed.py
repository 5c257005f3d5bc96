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
from phaseeval.confusion import LengthMismatch
from phaseeval.core import (
    MAX_PHASES,
    LabelSequence,
    OutOfRangeLabel,
    PhaseSet,
    UnsupportedPhaseCount,
    cholec80_graph,
    extract_segments,
)
from phaseeval.io import Corpus, write_report
from phaseeval.metrics import DEFINED, CellState, JACCARD, PRECISION, RECALL
from phaseeval.relaxed import (
    _GROUP_FRAMES,
    _LANE_FRAMES,
    LEGACY_WATERMARK,
    InvalidGrids,
    InvalidOmega,
    LegacyGridsUnavailable,
    MatrixMode,
    RelaxedCounts,
    SegmentShorterThanOmega,
    build_matrices,
    graph_rules,
    legacy_rules,
    relax_flags,
    relax_flags_legacy,
    relaxed_accuracy,
    relaxed_counts,
    relaxed_metric,
    relaxed_tensors,
    window_flags,
)
from conftest import examples
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
    for table in (GRAPH_MX, LEGACY_MX):
        assert table.shape == (14, 8) and table.dtype == bool
        assert not table.flags.writeable
        assert not table[:, 7].any()  # labels past the grids are never accepted
    assert np.array_equal(GRAPH_MX[:7, :7], start)
    assert np.array_equal(GRAPH_MX[7:, :7], end)


def test_legacy_matrices_drop_exactly_four_entries():
    diff_start = GRAPH_MX[:7, :7].astype(int) - LEGACY_MX[:7, :7]
    diff_end = GRAPH_MX[7:, :7].astype(int) - LEGACY_MX[7:, :7]
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


def test_malformed_grids_are_a_typed_error():
    """A graph edge outside the table, and any array that is not a
    (2p, p + 1) bool table, such as one square grid, an int table or a
    table of no phases."""
    from phaseeval.core import WorkflowGraph

    with pytest.raises(InvalidGrids, match="edge outside"):
        build_matrices(WorkflowGraph(frozenset({(0, 9)})), MatrixMode.GRAPH_DERIVED, 7)
    y = _seq([0, 0, 1])
    for bad in (
        np.zeros((7, 7), dtype=bool),
        GRAPH_MX.astype(int),
        GRAPH_MX[:, :7],
        GRAPH_MX.ravel(),
        np.zeros((0, 1), dtype=bool),
        True,
    ):
        with pytest.raises(InvalidGrids, match="bool table"):
            graph_rules((y,), 1, bad)
        with pytest.raises(InvalidGrids, match="bool table"):
            relax_flags(y, y, 1, bad)


labels7 = st.lists(st.integers(0, 6), min_size=1, max_size=80)


@pytest.mark.thorough
@given(st.tuples(labels7, labels7), st.sampled_from([GRAPH_MX, LEGACY_MX]))
@settings(max_examples=examples(200))
def test_flags_match_scanning_oracle(pair, mx):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = a[:n], b[:n]
    for omega in (0, 1, 3, 10):
        got = relax_flags(_seq(y), _seq(yhat), omega, mx)
        assert list(got) == oracle_relax_flags(y, yhat, omega, mx[:7, :7], mx[7:, :7])


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


@pytest.mark.parametrize("top", [6, 7, 8, 9, 10, 255, 256, 2**31 - 1])
@given(segmented, st.data())
@settings(max_examples=examples(25))
def test_flags_match_scanning_oracle_past_the_last_column(top, segs, data):
    """A flag rule clamps a prediction's labels to its table's last column
    only when the largest of them passes it: predictions whose largest
    label is below, at and past the last column of the 7-phase grids (7),
    of the 10-column legacy table (9), and the largest label a file may
    hold, flag as the scanning oracles do."""
    y = [p for p, n in segs for _ in range(n)]
    near = st.sampled_from([q for q in (top - 2, top - 1, top) if q >= 0])
    yhat = data.draw(st.lists(st.integers(0, 6) | near, min_size=len(y), max_size=len(y)))
    yhat[data.draw(st.integers(0, len(y) - 1))] = top
    a, b = _seq(y), _seq(yhat)
    assert b.max_label == top
    for omega in (0, 2, 4):
        for mx in (GRAPH_MX, LEGACY_MX):
            want = oracle_relax_flags(y, yhat, omega, mx[:7, :7], mx[7:, :7])
            assert list(relax_flags(a, b, omega, mx)) == want
        assert list(relax_flags_legacy(a, b, omega)) == oracle_legacy_flags(y, yhat, omega)
        # A run of one-byte labels flagged with b at once flags as each alone.
        both = (_seq(yhat[::-1]), b)
        for windows in (graph_rules((a,), omega, GRAPH_MX), legacy_rules((a,), omega)):
            got = window_flags(windows, (both,)).tolist()
            assert got == [window_flags(windows, ((x,),))[0].tolist() for x in both]


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


@pytest.mark.parametrize(
    "omega", [True, False, np.bool_(True), 2.0, 1.5, np.float64(2), "2", None, np.int64(2)]
)
def test_omega_is_an_integer_not_a_bool(omega):
    """Every relaxed entry point refuses a bool, a float (whole or not) or
    a string as omega; a numpy integer scores, and a report records it, as
    the equal int, byte for byte."""
    y, yhat = _seq([0, 0, 0, 1, 1, 1]), _seq([0, 0, 1, 1, 0, 1])
    anns, preds, ph = _corpus()
    corpus = Corpus(ph, anns, preds)
    calls = [
        lambda w: relax_flags(y, yhat, w, GRAPH_MX),
        lambda w: relax_flags_legacy(y, yhat, w),
        *(
            lambda w, mode=mode: write_report(run_relaxed(corpus, w, *mode), "json")
            for mode in (
                (MatrixMode.GRAPH_DERIVED, False),
                (MatrixMode.LEGACY, True),
                (MatrixMode.LEGACY, True, True),
            )
        ),
    ]
    for call in calls:
        if isinstance(omega, np.integer):
            assert call(omega) == call(2)
        else:
            with pytest.raises(InvalidOmega):
                call(omega)


def test_annotated_phase_outside_grids_is_a_typed_error():
    with pytest.raises(OutOfRangeLabel, match="label 7 at frame 1"):
        relax_flags(_seq([0, 7, 8]), _seq([0, 0, 0]), 0, GRAPH_MX)


def test_a_pair_or_flags_of_unequal_length_is_a_typed_error():
    y, short = _seq([0, 0, 1]), _seq([0, 0])
    for flag_rule in (partial(relax_flags, accept=GRAPH_MX), relax_flags_legacy):
        with pytest.raises(LengthMismatch, match="^annotation has 3 frames, prediction has 2$"):
            flag_rule(y, short, 1)
    for flags in ([True, True], np.ones(2, dtype=bool)):
        for phase in (0, range(2)):
            with pytest.raises(LengthMismatch, match="^flags do not cover the sequence$"):
                relaxed_counts(y, y, flags, phase)


def test_relaxed_run_set_mismatch_is_a_typed_error():
    anns, preds, ph = _corpus()
    preds[2] = {"r1": preds[2]["r0"]}
    with pytest.raises(RaggedRuns):
        Corpus(ph, anns, preds)


def test_legacy_rejects_short_segments():
    with pytest.raises(SegmentShorterThanOmega):
        relax_flags_legacy(_seq([0, 0, 1, 0, 0]), _seq([0] * 5), 2)


def test_a_report_names_the_first_short_segment_in_video_order():
    """The segment a report refuses is the first short one of the first
    video that has one, whatever order the corpus was built in."""
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


def test_legacy_refusal_names_the_first_short_segment_across_chunks():
    """With a chunk of one video each, the rules of each chunk are found
    as it is flagged: the first video's chunk is flagged, and the second's
    refuses its short segment with the message the rules give over every
    annotation, not the third video's."""
    anns = [
        _seq([0] * 3 + [1] * 4),
        _seq([0] * 3 + [4] * 2 + [5] * 3),  # phase 4 has 2 frames
        _seq([0] * 3 + [1] * 1 + [2] * 4),  # phase 1 has 1 frame
    ]
    corpus = Corpus(PhaseSet(7), dict(enumerate(anns)), {v: {"r": y} for v, y in enumerate(anns)})
    with pytest.raises(SegmentShorterThanOmega) as whole:
        legacy_rules(anns, 3)
    assert str(whole.value) == "segment of phase 4 has 2 frames, shorter than omega=3"
    flagged = []

    def flag_spy(windows, videos):
        flagged.append(len(videos))
        return window_flags(windows, videos)

    with mock.patch.multiple(phaseeval.relaxed, _GROUP_FRAMES=1, window_flags=flag_spy):
        with pytest.raises(SegmentShorterThanOmega) as exc:
            relaxed_tensors(corpus, partial(legacy_rules, omega=3), True)
    assert str(exc.value) == str(whole.value)
    assert flagged == [1]


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


def _assert_oracle_counts(a, b, flags, phases):
    """The int counts of each of `phases` are the oracle's, whether the
    flags come as a tuple or as a mask."""
    y, yhat, flags = a.labels.tolist(), b.labels.tolist(), list(flags)
    for p in phases:
        c = relaxed_counts(a, b, tuple(flags), p)
        assert c == oracle_relaxed_counts(y, yhat, flags, p)
        assert all(type(v) is int for v in c)
        assert c == relaxed_counts(a, b, np.array(flags, dtype=bool), p)


def _assert_range_is_each_phase(a, b, flags, width):
    """The range form's arrays are the int form of each phase."""
    got = relaxed_counts(a, b, flags, range(width))
    assert isinstance(got, RelaxedCounts)
    assert all(f.shape == (width,) and f.dtype == np.int64 for f in got)
    want = [relaxed_counts(a, b, flags, p) for p in range(width)]
    assert [tuple(int(f[p]) for f in got) for p in range(width)] == want


@pytest.mark.thorough
@given(st.data(), st.integers(1, 12), st.booleans())
@settings(max_examples=examples(200))
def test_counts_by_phase_match_oracle(data, phase_count, wide):
    """Phases -3..phase_count+3 and the largest int32 label one at a time,
    absent phases included, in one-byte or (`wide`) int32 labels, and
    range(phase_count) at once over labels on either side of its end; any
    flag mask, agreeing frames left unflagged included, which no flag rule
    gives."""
    label = st.integers(0, phase_count + 3) | st.just(LABEL_MAX if wide else 255)
    y = data.draw(st.lists(label, min_size=1, max_size=60))
    n = len(y)
    yhat = data.draw(st.lists(label, min_size=n, max_size=n))
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a, b = _seq(y), _seq(yhat)
    assert wide or a.labels.dtype == b.labels.dtype == np.uint8  # else either may be int32
    _assert_oracle_counts(a, b, flags, [*range(-3, phase_count + 4), 255, LABEL_MAX])
    _assert_range_is_each_phase(a, b, tuple(flags), phase_count)
    _assert_range_is_each_phase(a, b, np.array(flags), phase_count)


def test_counts_stay_small_for_the_largest_label():
    y, yhat = _seq([0, 1, 1]), _seq([0, LABEL_MAX, 1])
    flags = (True, True, False)
    _assert_range_is_each_phase(y, yhat, flags, 2)
    top = relaxed_counts(y, yhat, flags, LABEL_MAX)
    assert top == (1, 1, 1, 0)
    assert relaxed_counts(y, y, flags, LABEL_MAX).union == 0
    assert relaxed_counts(y, yhat, flags, -1).union == 0
    assert relaxed_counts(y, yhat, flags, LABEL_MAX + 1).union == 0
    assert relaxed_counts(y, yhat, flags, 2**40).union == 0


@pytest.mark.parametrize("phases", [range(-1, 3), range(2, 5), range(0, 4, 2), range(-1, 0)])
def test_counts_take_only_a_range_from_0_in_steps_of_1(phases):
    y = _seq([0, 1, 1])
    with pytest.raises(ValueError, match="range from 0 in steps of 1"):
        relaxed_counts(y, y, (True, True, True), phases)


@pytest.mark.parametrize(
    "phases", [range(MAX_PHASES + 1), range(0, 2**16), range(0, 2**31), range(0, 2**40)]
)
def test_counts_refuse_a_range_wider_than_max_phases(phases):
    """Refused before anything is allocated: a wide enough range would wrap
    the uint32 pair index and ask bincount for 2 * (width + 1)**2 bins."""
    y = _seq([0, 1, 1])
    with pytest.raises(UnsupportedPhaseCount, match=f"at most {MAX_PHASES}"):
        relaxed_counts(y, y, (True, True, True), phases)


def test_counts_of_max_phases_at_once_match_each_phase():
    y, yhat = _seq([0, 255, 255, 3]), _seq([255, 255, 7, 3])
    _assert_range_is_each_phase(y, yhat, (True, True, False, False), MAX_PHASES)


@pytest.mark.parametrize("width", [180, 181, MAX_PHASES])
@pytest.mark.parametrize(
    "start, past",
    [(0, 0), (0, 2), (2, 0), (-1, 1)],
    ids=["labels-as-offsets", "labels-past-the-range", "range-from-2", "range-from-minus-1"],
)
def test_counts_around_the_two_byte_index_match_oracle(width, start, past):
    """180 phases are the most whose 2 * (width + 1)**2 bins a uint16 pair
    index holds.  Labels run from 0 to `past` beyond the last of the phases
    start..start+width-1, and the last frames pair the largest label with
    itself, flagged, which fills the top bin when it is `width` or past it:
    range(width) counts all of them at once, and each of start..start+width-1
    alone counts as the oracle does."""
    rng = np.random.default_rng(width)
    top = start + width - 1 + past  # the largest label
    y = np.append(rng.integers(0, top + 1, 300), [top, top, 0])
    yhat = np.append(rng.integers(0, top + 1, 300), [top, 0, top])
    flags = np.append(rng.random(300) < 0.5, [True, True, False])
    a, b = _seq(y), _seq(yhat)
    _assert_range_is_each_phase(a, b, flags, width)
    _assert_oracle_counts(a, b, flags, range(start, start + width))


@pytest.mark.parametrize("start", [-1, 2, LABEL_MAX])
def test_counts_of_one_byte_labels_match_oracle(start):
    """Labels held in one byte, 0 to 255, counted one phase at a time from
    below them, among them and past every one of them, and at once in
    ranges from 0 that end among them, where the labels at or past the end
    share the bin after it in their own dtype, and past them."""
    rng = np.random.default_rng(start % 1000)
    y = np.append(rng.integers(0, 256, 300), [255, 0, 255])
    yhat = np.append(rng.integers(0, 256, 300), [255, 255, 0])
    flags = np.append(rng.random(300) < 0.5, [True, False, True])
    a, b = _seq(y), _seq(yhat)
    assert a.labels.dtype == b.labels.dtype == np.uint8
    _assert_oracle_counts(a, b, flags, range(start, start + MAX_PHASES))
    for width in (1, 128, 255, MAX_PHASES):
        _assert_range_is_each_phase(a, b, flags, width)



def _runs(data, values, n):
    """n frames in at most eight runs of one value each, up to 1,500 long."""
    runs = data.draw(st.lists(st.tuples(values, st.integers(1, 1500)), min_size=1, max_size=8))
    frames = np.repeat(*map(np.array, zip(*runs)))
    return np.resize(frames, n)  # repeated from the start to n frames


@pytest.mark.thorough
@pytest.mark.parametrize("n", range(_LANE_FRAMES - 1, _LANE_FRAMES + 5))
@pytest.mark.parametrize("width", [89, 90])
@given(st.data())
@settings(max_examples=examples(3), deadline=None)
def test_long_pairs_count_in_lanes_as_each_phase(width, n, data):
    """Pairs from one frame short of _LANE_FRAMES to four past it, every
    length mod 4, made of long runs of one bin: 89 phases count them in
    four lanes (4 * 2 * 90**2 bins fit 16 bits), 90 in one square (4 * 2 *
    91**2 do not).  Labels reach the width and pass it, and flags come in
    runs of their own, so agreeing frames are left unflagged too."""
    labels = st.integers(0, width + 2) | st.sampled_from([0, width - 1, width])
    a, b = (_seq(_runs(data, labels, n)) for _ in range(2))
    flags = _runs(data, st.booleans(), n).astype(bool)
    _assert_range_is_each_phase(a, b, flags, width)
    seen = np.union1d(a.labels, b.labels).tolist()
    _assert_oracle_counts(a, b, flags, sorted({0, width - 1, *seen}))


@pytest.mark.thorough
@given(
    st.sampled_from([1, 7, 15, 63, 89, 90, 127, 180, 181]),
    st.sampled_from([1, 170, 1000, 2200, _LANE_FRAMES - 1, _LANE_FRAMES, _LANE_FRAMES + 3, 12289]),
    st.integers(1, 12),
    st.data(),
)
@settings(max_examples=examples(40), deadline=None)
def test_counts_of_a_videos_runs_are_each_runs_own(width, n, runs, data):
    """relaxed_counts over the runs of one annotation, with a (runs, frames)
    mask, is each run's own single-prediction call, field by field, and no
    bincount of it holds more than max(2**16, 2 * (width + 1)**2) bins, nor
    more than _GROUP_FRAMES frames unless one run has more (12,289 frames:
    five runs a group).  Pairs lie on both sides of _LANE_FRAMES, labels
    reach past the range (some past one byte), and the widths' groups of
    runs fill the two-byte index (63 phases: 8 runs a group, or 2 in four
    lanes; 127: 2 runs), fall short of it (90: 3 runs), hold one run (89 in
    four lanes, 180) or need four bytes (181).  A group counts in four
    lanes by its frames, not one run's: runs of 1,000 or 2,200 frames,
    each short of _LANE_FRAMES, do once a group of them reaches it."""
    labels = st.integers(0, width + 2) | st.sampled_from([0, width - 1, width, 1000])
    y = _seq(_runs(data, labels, n))
    yhats = [_seq(_runs(data, labels, n)) for _ in range(runs)]
    flags = np.array([_runs(data, st.booleans(), n) for _ in range(runs)], dtype=bool)
    bincount, bins, frames = np.bincount, [], []

    def spy(x, minlength=0):
        got = bincount(x, minlength=minlength)
        bins.append(len(got))
        frames.append(len(x))
        return got

    with mock.patch.object(np, "bincount", spy):
        got = relaxed_counts(y, yhats, flags, range(width))
    assert isinstance(got, RelaxedCounts)
    assert all(f.shape == (width, runs) and f.dtype == np.int64 for f in got)
    assert 1 <= len(bins) <= runs and max(bins) <= max(1 << 16, 2 * (width + 1) ** 2)
    assert sum(frames) == runs * n and max(frames) <= max(_GROUP_FRAMES, n)
    if width <= 15 and runs * n <= _GROUP_FRAMES:
        assert len(bins) == 1  # every run in one group
    square = 2 * (width + 1) ** 2
    lanes = {b // (f // n * square) for b, f in zip(bins, frames)}
    assert all(b == next(iter(lanes)) * f // n * square for b, f in zip(bins, frames))
    if width > 89 or runs * n < _LANE_FRAMES:
        assert lanes == {1}
    elif n >= _LANE_FRAMES or width <= 15 and min(runs, _GROUP_FRAMES // n) * n >= _LANE_FRAMES:
        assert lanes == {4}
    for r, (yhat, mask) in enumerate(zip(yhats, flags)):
        want = relaxed_counts(y, yhat, mask, range(width))
        assert all(np.array_equal(f[:, r], w) for f, w in zip(got, want))


@pytest.mark.thorough
@pytest.mark.parametrize("width", [1, 7, 15, 63, 89, 90, 127, 180, 181])
@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from([1, 3000, _GROUP_FRAMES]), st.data())
@settings(max_examples=examples(6), deadline=None)
def test_a_chunks_counts_are_each_pairs_own(width, size, runs, cap, data):
    """relaxed_counts over a chunk of videos, their annotations laid end to
    end with a (runs, frames) mask, gives each (video, run) pair its own
    call's counts, field by field, and the oracle's, and no bincount of it
    holds more than max(2**16, 2 * (width + 1)**2) bins.  Labels reach past
    the range (some past one byte); _GROUP_FRAMES, set here, splits a
    chunk's runs into groups of one run or of a few.  The widths count in
    four lanes (up to 89), in one (90 to 180) or in a uint32 index (181),
    and 89 phases on five videos, 127 on three and 180 on two do not fit
    one run's squares in a uint16 index, so each video's runs count apart."""
    lengths = data.draw(st.lists(st.sampled_from([1, 2, 170, 900, 2200]), min_size=size, max_size=size))
    labels = st.integers(0, width + 2) | st.sampled_from([0, width - 1, width, 1000])
    ys = [_seq(_runs(data, labels, n)) for n in lengths]
    videos = [[_seq(_runs(data, labels, n)) for _ in range(runs)] for n in lengths]
    flags = np.array([_runs(data, st.booleans(), sum(lengths)) for _ in range(runs)], dtype=bool)
    bincount, bins, frames = np.bincount, [], []

    def spy(x, minlength=0):
        got = bincount(x, minlength=minlength)
        bins.append(len(got))
        frames.append(len(x))
        return got

    with mock.patch.object(np, "bincount", spy), mock.patch.object(phaseeval.relaxed, "_GROUP_FRAMES", cap):
        got = relaxed_counts(ys, videos, flags, range(width))
    assert all(f.shape == (width, len(ys), runs) and f.dtype == np.int64 for f in got)
    assert max(bins) <= max(1 << 16, 2 * (width + 1) ** 2)
    assert sum(frames) == runs * sum(lengths) and max(frames) <= max(cap, sum(lengths))
    edges = np.cumsum([0, *lengths])
    for v, (y, yhats) in enumerate(zip(ys, videos)):
        for r, yhat in enumerate(yhats):
            mask = flags[r, edges[v] : edges[v + 1]]
            want = relaxed_counts(y, yhat, mask, range(width))
            assert all(np.array_equal(f[:, v, r], w) for f, w in zip(got, want))
            for p in {0, width - 1, data.draw(st.integers(0, width - 1))}:
                oracle = oracle_relaxed_counts(y.labels.tolist(), yhat.labels.tolist(), mask.tolist(), p)
                assert tuple(int(f[p, v, r]) for f in got) == oracle


def test_counts_of_runs_need_a_mask_of_each_and_a_range():
    y = _seq([0, 1, 1])
    with pytest.raises(LengthMismatch, match="flags do not cover"):
        relaxed_counts(y, [y, y], [True, True, True], range(2))
    with pytest.raises(LengthMismatch, match="prediction has 2$"):
        relaxed_counts(y, [y, _seq([0, 1])], np.ones((2, 3), bool), range(2))
    with pytest.raises(TypeError, match="one prediction"):
        relaxed_counts(y, [y, y], np.ones((2, 3), bool), 1)
    z = _seq([2, 2])
    with pytest.raises(LengthMismatch, match="as many as the others"):
        relaxed_counts([y, z], [[y, y]], np.ones((2, 5), bool), range(3))
    with pytest.raises(LengthMismatch, match="as many as the others"):
        relaxed_counts([y, z], [[y, y], [z]], np.ones((2, 5), bool), range(3))
    with pytest.raises(LengthMismatch, match="prediction has 3$"):
        relaxed_counts([y, z], [[y], [y]], np.ones((1, 5), bool), range(3))
    with pytest.raises(LengthMismatch, match="flags do not cover"):
        relaxed_counts([y, z], [[y], [z]], np.ones((1, 3), bool), range(3))
    with pytest.raises(TypeError, match="one prediction"):
        relaxed_counts([y, z], [[y], [z]], np.ones((1, 5), bool), 1)


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
    # the rules of each chunk of videos against each annotation's own
    rules_of = (
        partial(legacy_rules, omega=omega)
        if legacy
        else partial(graph_rules, omega=omega, accept=GRAPH_MX)
    )
    scored, seen = phaseeval.relaxed.relaxed_cells, []

    def spy(kind, counts, truncate):
        seen.append(counts)
        return scored(kind, counts, truncate)

    with mock.patch.object(phaseeval.relaxed, "relaxed_cells", spy):
        _, (acc, acc_state) = relaxed_tensors(Corpus(PhaseSet(9), anns, preds), rules_of, legacy)
    assert len(seen) == 3  # precision, recall and jaccard, all of one stack
    assert acc.shape == acc_state.shape == (1, len(anns), runs) and (acc_state == DEFINED).all()
    for v in anns:
        windows = rules_of((anns[v],))
        for ri, r in enumerate(sorted(preds[v])):
            (flags,) = window_flags(windows, ((preds[v][r],),))
            want = relaxed_counts(anns[v], preds[v][r], flags, range(9))
            for counts in seen:
                assert all(np.array_equal(f[:, v, ri], w) for f, w in zip(counts, want))
            assert acc[0, v, ri] == relaxed_accuracy(flags).value


@pytest.mark.thorough
@pytest.mark.parametrize("held", ["one", "two", "all"])
@given(
    st.lists(segmented, min_size=3, max_size=5),
    st.lists(st.integers(1, 6), min_size=4, max_size=4),
    st.integers(1, 3),
    st.integers(0, 4),
    st.booleans(),
    st.data(),
)
@settings(max_examples=examples(30), deadline=None)
def test_chunks_of_videos_flag_and_count_as_each_pair(held, videos, joins, runs, omega, legacy, data):
    """relaxed_tensors flags videos laid end to end in chunks of at most
    _GROUP_FRAMES (runs, frames) items, set here so that a chunk holds one
    video, the first two, or all of them, and counts each chunk in one
    relaxed_counts call: every pair's flags and counts, split back from
    the chunk's, are still the oracles'.  Each video begins with a segment
    of the phase the one before ends on, so a segment or window that
    crossed from one to the next would show; windows touch each video's
    first and last frame; the first video is the longest; and the corpus
    declares nine phases, so predicted labels 7 and 8 pass the 7-phase
    grids."""
    ys = [[p for p, n in segs for _ in range(n)] for segs in videos]
    ys.insert(0, ys.pop(max(range(len(ys)), key=lambda v: len(ys[v]))))
    for v in range(1, len(ys)):
        ys[v][:0] = [ys[v - 1][-1]] * joins[v - 1]
    ys[0].append(ys[0][-1])  # longer than any after it
    preds = {
        v: {r: data.draw(st.lists(st.integers(0, 8), min_size=len(y), max_size=len(y)))
            for r in range(runs)}
        for v, y in enumerate(ys)
    }
    frames = {"one": 1, "two": len(ys[0]) + len(ys[1]), "all": sum(map(len, ys))}[held]
    corpus = Corpus(
        PhaseSet(9),
        {v: _seq(y) for v, y in enumerate(ys)},
        {v: {r: _seq(p) for r, p in row.items()} for v, row in preds.items()},
    )
    if legacy:
        rules_of, oracle = partial(legacy_rules, omega=omega), oracle_legacy_flags
    else:
        rules_of = partial(graph_rules, omega=omega, accept=GRAPH_MX)
        oracle = partial(oracle_relax_flags, start_grid=GRAPH_MX[:7, :7], end_grid=GRAPH_MX[7:, :7])
    chunks, counted, masks, pairs, cells = [], [], [], [], []
    flag, count, scored = window_flags, relaxed_counts, phaseeval.relaxed.relaxed_cells

    def flag_spy(windows, videos):
        chunks.append(len(videos))
        return flag(windows, videos)

    def count_spy(anns, videos, flags, phases):
        """The chunk's mask and counts, split back by (video, run)."""
        counted.append((list(anns), videos))
        got = count(anns, videos, flags, phases)
        edges = np.cumsum([0, *map(len, anns)])
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            masks.append(flags[:, lo:hi].tolist())
            pairs.append([[int(f[p, k, r]) for f in got] for r in range(runs) for p in range(9)])
        return got

    def cells_spy(kind, counts, truncate):
        cells.append(counts)
        return scored(kind, counts, truncate)

    try:
        want = [[oracle(y, preds[v][r], omega) for r in range(runs)] for v, y in enumerate(ys)]
    except ValueError:  # a segment shorter than omega, refused by the legacy rule
        want = None
    with mock.patch.multiple(
        phaseeval.relaxed,
        _GROUP_FRAMES=runs * frames,
        window_flags=flag_spy,
        relaxed_counts=count_spy,
        relaxed_cells=cells_spy,
    ):
        if want is None:
            with pytest.raises(SegmentShorterThanOmega):
                relaxed_tensors(corpus, rules_of, legacy)
            return
        relaxed_tensors(corpus, rules_of, legacy)
    assert sum(chunks) == len(ys)
    assert chunks[0] == {"one": 1, "two": 2, "all": len(ys)}[held]
    # one count a chunk, of the chunk's videos in order
    assert [len(anns) for anns, _ in counted] == chunks
    assert [y for anns, _ in counted for y in anns] == [corpus.annotations[v] for v in range(len(ys))]
    assert [list(row) for _, videos in counted for row in videos] == [
        [corpus.predictions[v][r] for r in range(runs)] for v in range(len(ys))
    ]
    assert masks == want
    for v, y in enumerate(ys):
        for r in range(runs):
            for p in range(9):
                got = tuple(int(f[p, v, r]) for f in cells[0])
                assert got == oracle_relaxed_counts(y, preds[v][r], want[v][r], p)
                assert list(got) == pairs[v][r * 9 + p]


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
    """The flags a report counts, with the runs of all three videos flagged
    in one chunk and the chunk counted in one call, are relax_flags (or
    relax_flags_legacy) of each pair alone, and each pair's counts are its
    own call's."""
    rng = np.random.default_rng(omega)
    anns = {v: _seq([p for p, n in segs for _ in range(n)]) for v, segs in _VIDEOS.items()}
    preds = {v: {r: _seq(rng.integers(0, 7, len(y))) for r in "ab"} for v, y in anns.items()}
    seen = []

    def spy(ys, videos, flags, phases):
        got = relaxed_counts(ys, videos, flags, phases)
        seen.append((list(ys), videos, flags.copy(), got))
        return got

    mode = MatrixMode.LEGACY if bug_compatible else MatrixMode.GRAPH_DERIVED
    with mock.patch.object(phaseeval.relaxed, "relaxed_counts", spy):
        run_relaxed(Corpus(PhaseSet(7), anns, preds), omega, mode, bug_compatible, bug_compatible)
    assert [ys for ys, *_ in seen] == [list(anns.values())]  # one call a chunk
    ((ys, videos, mask, got),) = seen
    edges = np.cumsum([0, *map(len, ys)])
    pairs = [
        (y, yhat, tuple(flags.tolist()), [f[:, k, r] for f in got])
        for k, (y, yhats, lo, hi) in enumerate(zip(ys, videos, edges, edges[1:]))
        for r, (yhat, flags) in enumerate(zip(yhats, mask[:, lo:hi], strict=True))
    ]
    assert [(y, yhat) for y, yhat, *_ in pairs] == [(anns[v], preds[v][r]) for v in anns for r in "ab"]
    for y, yhat, flags, counts in pairs:
        if bug_compatible:
            assert flags == relax_flags_legacy(y, yhat, omega)
        else:
            assert flags == relax_flags(y, yhat, omega, GRAPH_MX)
        want = relaxed_counts(y, yhat, flags, range(7))
        assert all(np.array_equal(f, w) for f, w in zip(counts, want))


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

    def counting(lines, kept, mode):
        points.extend(kept.sum(axis=1).tolist())  # one spread a row
        return spreads_of(lines, kept, mode)

    spreads_of = phaseeval.aggregate._spreads
    monkeypatch.setattr(phaseeval.aggregate, "_spreads", counting)
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
