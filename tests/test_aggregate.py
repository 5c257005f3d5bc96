"""Result tensors, averaging orders, and spread statistics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from phaseeval.aggregate import (
    AveragingOrder,
    InsufficientPoints,
    MetricSummary,
    NoDefinedCells,
    ResultTensor,
    StdMode,
    SummarySpec,
    mean_cells,
    ordered_mean,
    phase_metric_tensor,
    stack_confusions,
    std_over,
    summarize,
    video_tensor,
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
    macro_cells,
    phase_counts,
)
from reference import (
    UNDEFINED,
    oracle_flat_mean,
    oracle_phase_first_mean,
    oracle_std,
    oracle_video_first_mean,
)


def _tensor_from_grid(grid):
    """grid[p][v][r]: float -> Defined, None -> Excluded."""
    nph, nv, nr = len(grid), len(grid[0]), len(grid[0][0])
    videos = tuple(range(1, nv + 1))
    runs = tuple(f"r{i}" for i in range(nr))

    def fn(p, v, r):
        x = grid[p][videos.index(v)][runs.index(r)]
        return EXCLUDED_CELL if x is None else MetricCell.defined(x)

    return ResultTensor.build(range(nph), videos, runs, fn)


grids = st.integers(1, 3).flatmap(
    lambda nph: st.integers(1, 3).flatmap(
        lambda nv: st.integers(1, 3).flatmap(
            lambda nr: st.lists(
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
        )
    )
)


def test_tensor_layout_and_lookup():
    t = _tensor_from_grid([[[0.1, 0.2]], [[0.3, None]]])
    assert t.phases == (0, 1)
    assert t.videos == (1,)
    assert t.runs == ("r0", "r1")
    assert t.cell_at(0, 0, 1).value == 0.2
    assert not t.cell_at(1, 0, 1).is_defined


def test_mean_cells_skips_non_defined():
    cells = [MetricCell.defined(0.2), UNDEFINED_CELL, MetricCell.defined(0.4)]
    assert mean_cells(cells).value == pytest.approx(0.3)
    assert not mean_cells([EXCLUDED_CELL]).is_defined


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


@given(grids, st.sampled_from(["videos", "phases", "runs"]))
@settings(max_examples=200)
def test_std_matches_enumeration(grid, axis):
    t = _tensor_from_grid(grid)
    for mode, corrected in [(StdMode.CORRECTED, True), (StdMode.UNCORRECTED, False)]:
        want = oracle_std(grid, axis, corrected)
        if want is UNDEFINED:
            with pytest.raises((InsufficientPoints, NoDefinedCells)):
                std_over(t, axis, mode)
        else:
            assert std_over(t, axis, mode) == pytest.approx(want, abs=1e-12)


def test_std_known_values():
    # per-video means 1, 2, 3
    grid = [[[1.0], [2.0], [3.0]]]
    t = _tensor_from_grid(grid)
    assert std_over(t, "videos", StdMode.CORRECTED) == pytest.approx(1.0)
    assert std_over(t, "videos", StdMode.UNCORRECTED) == pytest.approx(
        math.sqrt(2.0 / 3.0)
    )


@given(grids)
@settings(max_examples=150)
def test_uncorrected_never_exceeds_corrected(grid):
    t = _tensor_from_grid(grid)
    for axis in ("videos", "phases", "runs"):
        try:
            c = std_over(t, axis, StdMode.CORRECTED)
            u = std_over(t, axis, StdMode.UNCORRECTED)
        except (InsufficientPoints, NoDefinedCells):
            continue
        assert u <= c + 1e-12
        if c > 1e-9:
            assert u < c


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


def test_accuracy_and_macro_tensors():
    videos, runs, counts = stack_confusions(_matrices())
    acc = video_tensor(videos, runs, accuracy_cells(counts))
    assert acc.phases == (None,)
    assert acc.cell_at(0, 0, 0).value == pytest.approx(0.8)
    assert acc.cell_at(0, 1, 0).value == pytest.approx(2 / 3)
    mac = video_tensor(
        videos,
        runs,
        macro_cells(
            PRECISION, *phase_counts(counts), UndefinedPolicy.EXCLUDE_MISSING_PHASE
        ),
    )
    # video 2: phase 2 dropped as unannotated, phases 0 and 1 kept
    assert mac.cell_at(0, 1, 0).value == pytest.approx((1.0 + 1.0) / 2)
