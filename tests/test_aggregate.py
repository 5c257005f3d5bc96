"""Result tensors, averaging orders, and spread statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phaseeval.aggregate import (
    AveragingOrder,
    Groupings,
    MetricSummary,
    NoDefinedCells,
    ResultTensor,
    StdMode,
    SummarySpec,
    ordered_mean,
    phase_metric_tensor,
    RaggedRuns,
    summarize,
)
from phaseeval.confusion import confusion_of
from phaseeval.core import LabelSequence, PhaseSet
from phaseeval.metrics import (
    EXCLUDED_CELL,
    PRECISION,
    UNDEFINED_CELL,
    MetricCell,
    UndefinedPolicy,
    accuracy_cells,
    cell_arrays,
    cell_of,
    macro_cells,
    mean_defined,
    phase_counts,
)
from reference import (
    UNDEFINED,
    oracle_flat_mean,
    oracle_phase_first_mean,
    oracle_std,
    oracle_video_first_mean,
)


def _tensor_from_grid(grid, missing=EXCLUDED_CELL):
    """grid[p][v][r]: float -> Defined, None -> `missing` (Excluded)."""
    nph, nv, nr = len(grid), len(grid[0]), len(grid[0][0])
    videos = tuple(range(1, nv + 1))
    runs = tuple(f"r{i}" for i in range(nr))

    def fn(p, v, r):
        x = grid[p][videos.index(v)][runs.index(r)]
        return missing if x is None else MetricCell.defined(x)

    return ResultTensor.build(range(nph), videos, runs, fn)


def _grid(nph, nv, nr):
    """grid[p][v][r] of the given shape: a float, or None for a missing cell."""
    return st.lists(
        st.lists(
            st.lists(
                st.one_of(st.none(), st.floats(0, 1, width=32)),
                min_size=nr,
                max_size=nr,
            ),
            min_size=nv,
            max_size=nv,
        ),
        min_size=nph,
        max_size=nph,
    )


shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
grids = shapes.flatmap(lambda shape: _grid(*shape))
# 1 to 3 grids of one shape, for a (group, phase, video, run) stack
stacks = shapes.flatmap(lambda shape: st.lists(_grid(*shape), min_size=1, max_size=3))


def test_tensor_layout_and_lookup():
    t = _tensor_from_grid([[[0.1, 0.2]], [[0.3, None]]])
    assert t.phases == (0, 1)
    assert t.videos == (1,)
    assert t.runs == ("r0", "r1")
    assert t.cell_at(0, 0, 1).value == 0.2
    assert not t.cell_at(1, 0, 1).is_defined


@pytest.mark.parametrize("code", [-128, -1, 3, 127])
def test_tensor_rejects_unknown_state_codes(code):
    state = np.array([[[0], [1], [2]]], dtype=np.int8)
    ResultTensor((0,), (1, 2, 3), ("r",), np.zeros((1, 3, 1)), state)  # every known code
    state[0, 1, 0] = code
    with pytest.raises(ValueError, match="known state"):
        ResultTensor((0,), (1, 2, 3), ("r",), np.zeros((1, 3, 1)), state)


@pytest.mark.parametrize("code, value", [(3, 0.5), (0, -0.5), (0, math.inf)])
def test_groupings_refuse_cells_a_tensor_refuses(code, value):
    """An unknown state code, and a defined value below 0 or not finite,
    raise from Groupings as from a tensor: check_cells guards both."""
    values, state = np.full((2, 1, 2, 1), 0.5), np.zeros((2, 1, 2, 1), np.int8)
    Groupings(values, state, StdMode.CORRECTED)
    values[1, 0, 1, 0], state[1, 0, 1, 0] = value, code
    with pytest.raises(ValueError, match="known state"):
        Groupings(values, state, StdMode.CORRECTED)


def test_mean_defined_skips_non_defined():
    values, state = cell_arrays(
        [MetricCell.defined(0.2), UNDEFINED_CELL, MetricCell.defined(0.4), EXCLUDED_CELL]
    )
    assert cell_of(*mean_defined(values, state, 0)).value == pytest.approx(0.3)
    assert not cell_of(*mean_defined(values[3:], state[3:], 0)).is_defined


@given(grids)
@settings(max_examples=200)
def test_ordered_means_match_enumeration(grid):
    t = _tensor_from_grid(grid)
    for order, oracle in [
        (AveragingOrder.FLAT, oracle_flat_mean),
        (AveragingOrder.PHASE_FIRST, oracle_phase_first_mean),
        (AveragingOrder.VIDEO_FIRST, oracle_video_first_mean),
    ]:
        want = oracle(grid)
        if want is UNDEFINED:
            with pytest.raises(NoDefinedCells):
                ordered_mean(t, order)
        else:
            assert ordered_mean(t, order) == pytest.approx(want, abs=1e-12)


@given(grids)
@settings(max_examples=200)
def test_orders_agree_on_full_grids(grid):
    full = [
        [[0.5 if x is None else x for x in row] for row in plane]
        for plane in grid
    ]
    t = _tensor_from_grid(full)
    flat = ordered_mean(t, AveragingOrder.FLAT)
    # balanced groups: every two-stage mean collapses to the flat mean
    assert ordered_mean(t, AveragingOrder.PHASE_FIRST) == pytest.approx(flat, abs=1e-12)
    assert ordered_mean(t, AveragingOrder.VIDEO_FIRST) == pytest.approx(flat, abs=1e-12)


def test_orders_diverge_with_exclusions():
    # phase 1 is missing from video 1, and video 1 scores low
    grid = [
        [[0.2], [0.8]],
        [[None], [0.4]],
    ]
    t = _tensor_from_grid(grid)
    flat = ordered_mean(t, AveragingOrder.FLAT)
    pf = ordered_mean(t, AveragingOrder.PHASE_FIRST)
    vf = ordered_mean(t, AveragingOrder.VIDEO_FIRST)
    assert flat == pytest.approx((0.2 + 0.8 + 0.4) / 3)
    assert pf == pytest.approx((0.2 + 0.6) / 2)
    assert vf == pytest.approx((0.5 + 0.4) / 2)
    assert len({round(flat, 9), round(pf, 9), round(vf, 9)}) == 3


def _sd(tensor, axis, mode):
    return getattr(summarize(tensor, SummarySpec(mode)), "sd_" + axis)


@given(grids, st.sampled_from(["videos", "phases", "runs"]))
@settings(max_examples=200)
def test_std_matches_enumeration(grid, axis):
    t = _tensor_from_grid(grid)
    for mode, corrected in [(StdMode.CORRECTED, True), (StdMode.UNCORRECTED, False)]:
        want = oracle_std(grid, axis, corrected)
        if want is UNDEFINED:
            assert _sd(t, axis, mode) is None
        else:
            assert _sd(t, axis, mode) == pytest.approx(want, abs=1e-12)


def test_std_known_values():
    # per-video means 1, 2, 3
    grid = [[[1.0], [2.0], [3.0]]]
    t = _tensor_from_grid(grid)
    assert _sd(t, "videos", StdMode.CORRECTED) == pytest.approx(1.0)
    assert _sd(t, "videos", StdMode.UNCORRECTED) == pytest.approx(
        math.sqrt(2.0 / 3.0)
    )


@given(grids)
@settings(max_examples=150)
def test_uncorrected_never_exceeds_corrected(grid):
    t = _tensor_from_grid(grid)
    for axis in ("videos", "phases", "runs"):
        c = _sd(t, axis, StdMode.CORRECTED)
        u = _sd(t, axis, StdMode.UNCORRECTED)
        if c is None:
            assert u is None
            continue
        assert u <= c + 1e-12
        if c > 1e-9:
            assert u < c


def _fsum_mean(cells):
    kept = [x for x in cells if x is not None]
    return math.fsum(kept) / len(kept) if kept else None


def _fsum_sd(means, mode):
    points = [x for x in means if x is not None]
    if len(points) < 2:
        return None
    m = math.fsum(points) / len(points)
    ss = math.fsum((x - m) * (x - m) for x in points)
    return math.sqrt(ss / (len(points) - (mode is StdMode.CORRECTED)))


def _exact_summaries(grid, spec):
    """The group summary and phase rows of grid[p][v][r], every mean the
    fsum of its defined cells over their count, by nested loops."""
    P, V, R = range(len(grid)), range(len(grid[0])), range(len(grid[0][0]))
    phase = [_fsum_mean(grid[p][v][r] for v in V for r in R) for p in P]
    video = [_fsum_mean(grid[p][v][r] for p in P for r in R) for v in V]
    run = [_fsum_mean(grid[p][v][r] for p in P for v in V) for r in R]
    mean = {
        AveragingOrder.FLAT: _fsum_mean(x for plane in grid for row in plane for x in row),
        AveragingOrder.PHASE_FIRST: _fsum_mean(
            _fsum_mean(grid[p][v][r] for p in P) for v in V for r in R
        ),
        AveragingOrder.VIDEO_FIRST: _fsum_mean(phase),
    }[spec.order]
    mode = spec.std_mode
    summary = MetricSummary(mean, _fsum_sd(video, mode), _fsum_sd(phase, mode), _fsum_sd(run, mode))
    rows = tuple(
        MetricSummary(
            phase[p],
            _fsum_sd([_fsum_mean(grid[p][v]) for v in V], mode),
            None,
            _fsum_sd([_fsum_mean(grid[p][v][r] for v in V) for r in R], mode),
        )
        for p in P
    )
    return summary, rows


@given(stacks)
@settings(max_examples=150)
@example([[[[None, None]], [[0.5, 0.25]]]])  # one video; phase 0 has no defined cell
@example([[[[0.1], [0.7], [None]]], [[[None], [None], [None]]]])  # one run; a group with none
@example([[[[0.5, 0.75, 0.125]]], [[[0.25, None, 1.0]]]])  # one phase and one video
@example([[[[None, None, 0.0], [None, 0.84375, 0.06706871837377548]]]])  # d ** 2 != d * d
def test_summaries_of_a_stack_equal_each_tensor_summarized(grids):
    """The Groupings of a stack give each tensor's summarize and the phase
    rows of its Groupings alone, and each mean is the fsum of its cells over
    their count."""
    for missing in (EXCLUDED_CELL, UNDEFINED_CELL):
        tensors = [_tensor_from_grid(g, missing) for g in grids]
        values = np.stack([t.values for t in tensors])
        state = np.stack([t.state for t in tensors])
        for mode in StdMode:
            for order in AveragingOrder:
                spec = SummarySpec(mode, order)
                groupings = Groupings(values, state, mode)
                groups, rows = groupings.summaries(order), groupings.phase_rows()
                assert groups == [summarize(t, spec) for t in tensors]
                assert rows == [
                    Groupings(t.values[None], t.state[None], mode).phase_rows()[0]
                    for t in tensors
                ]
                assert list(zip(groups, rows)) == [_exact_summaries(g, spec) for g in grids]
                for s in groups:
                    for axis, positions in zip(("phases", "videos", "runs"), values.shape[1:]):
                        if positions == 1:
                            assert getattr(s, "sd_" + axis) is None


@given(grids)
@settings(max_examples=200)
@example([[[None, None]], [[0.5, 0.25]]])  # one video; phase 0 has no defined cell
@example([[[0.1], [0.7], [None]], [[None], [None], [None]]])  # one run
def test_phase_rows_equal_each_phase_summarized_alone(grid):
    for missing in (EXCLUDED_CELL, UNDEFINED_CELL):
        t = _tensor_from_grid(grid, missing)
        for mode in StdMode:
            rows = Groupings(t.values[None], t.state[None], mode).phase_rows()[0]
            assert len(rows) == len(t.phases)
            for pi, row in enumerate(rows):
                at = slice(pi, pi + 1)
                alone = ResultTensor(t.phases[at], t.videos, t.runs, t.values[at], t.state[at])
                for order in AveragingOrder:
                    assert row == summarize(alone, SummarySpec(mode, order))


def test_summarize_fills_none_where_degenerate():
    t = _tensor_from_grid([[[0.5]]])  # single cell: no spread anywhere
    s = summarize(t, SummarySpec())
    assert s == MetricSummary(mean=0.5, sd_videos=None, sd_phases=None, sd_runs=None)


def test_summarize_uses_requested_order():
    grid = [
        [[0.2], [0.8]],
        [[None], [0.4]],
    ]
    t = _tensor_from_grid(grid)
    s = summarize(t, SummarySpec(order=AveragingOrder.PHASE_FIRST))
    assert s.mean == pytest.approx(0.4)


def _matrices():
    ph = PhaseSet(3)
    y1 = LabelSequence((0, 0, 1, 1, 2))
    p1 = LabelSequence((0, 1, 1, 1, 2))
    y2 = LabelSequence((0, 1, 1))  # phase 2 never annotated here
    p2 = LabelSequence((0, 1, 2))
    return {
        1: {"a": confusion_of(y1, p1, ph)},
        2: {"a": confusion_of(y2, p2, ph)},
    }


def test_phase_tensor_from_matrices():
    t = phase_metric_tensor(PRECISION, _matrices(), 3)
    assert t.phases == (0, 1, 2)
    assert t.videos == (1, 2)
    assert t.cell_at(0, 0, 0).value == 1.0
    # video 2 phase 2: predicted but never annotated -> precision 0
    assert t.cell_at(2, 1, 0).value == 0.0


def test_phase_metric_tensor_rejects_a_different_run_set():
    matrices = _matrices()
    matrices[2] = {"other": matrices[2]["a"]}
    with pytest.raises(RaggedRuns, match="^video 2 has a different run set$"):
        phase_metric_tensor(PRECISION, matrices, 3)


def test_accuracy_and_macro_tensors():
    videos, runs = (1, 2), ("a",)
    matrices = _matrices()
    counts = np.array([[matrices[v]["a"]] for v in videos])
    values, state = accuracy_cells(counts)
    acc = ResultTensor.build((None,), videos, runs, (values[None], state[None]))
    assert acc.phases == (None,)
    assert acc.cell_at(0, 0, 0).value == pytest.approx(0.8)
    assert acc.cell_at(0, 1, 0).value == pytest.approx(2 / 3)
    values, state = macro_cells(
        PRECISION, *phase_counts(counts), UndefinedPolicy.EXCLUDE_MISSING_PHASE
    )
    mac = ResultTensor.build((None,), videos, runs, (values[None], state[None]))
    # video 2: phase 2 dropped as unannotated, phases 0 and 1 kept
    assert mac.cell_at(0, 1, 0).value == pytest.approx((1.0 + 1.0) / 2)
