"""Per-phase ratios, the undefined/excluded states, and macro means."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phaseeval import metrics
from phaseeval.confusion import confusion_of
from phaseeval.core import LabelSequence, PhaseSet
from phaseeval.metrics import (
    _ARRAY_TERMS,
    EXCLUDED_CELL,
    F1,
    JACCARD,
    METRIC_KINDS,
    PRECISION,
    RECALL,
    CellState,
    DegenerateMeans,
    MetricCell,
    UndefinedPolicy,
    accuracy,
    cell_arrays,
    cell_of,
    f1_of_means_cells,
    f1_upper,
    harmonic,
    macro_cells,
    macro_metric,
    phase_counts,
    phase_metric,
    resolve,
    row_fsum,
)
from conftest import examples
from reference import UNDEFINED, oracle_accuracy, oracle_macro, oracle_metric, oracle_row_fsum

PHASES = PhaseSet(4)
labels = st.lists(st.integers(0, 3), min_size=1, max_size=50)


def _matrix(y, yhat):
    return confusion_of(LabelSequence(tuple(y)), LabelSequence(tuple(yhat)), PHASES)


def test_metric_cell_validation():
    c = MetricCell.defined(0.5)
    assert c.is_defined and c.value == 0.5
    MetricCell.defined(1.25)  # pre-truncation ratios may exceed 1
    with pytest.raises(ValueError):
        MetricCell.defined(-0.1)
    with pytest.raises(ValueError):
        MetricCell.defined(float("nan"))
    with pytest.raises(ValueError):
        MetricCell(CellState.DEFINED, None)
    with pytest.raises(ValueError):
        MetricCell(CellState.UNDEFINED, 0.3)


def test_known_values():
    # y has phases {0,1,2}; predictions hit phase 3 spuriously
    m = _matrix([0, 0, 1, 2], [0, 3, 1, 1])
    assert phase_metric(PRECISION, m, 0).value == 1.0
    assert phase_metric(RECALL, m, 0).value == 0.5
    assert phase_metric(F1, m, 0).value == pytest.approx(2 / 3)
    assert phase_metric(JACCARD, m, 0).value == 0.5
    assert accuracy(m).value == 0.5


@given(st.tuples(labels, labels))
def test_against_counting_oracle(pair):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = a[:n], b[:n]
    m = _matrix(y, yhat)
    for p in range(4):
        for kind in METRIC_KINDS:
            got = phase_metric(kind, m, p)
            want = oracle_metric(kind, y, yhat, p)
            if want is UNDEFINED:
                assert got.state is CellState.UNDEFINED
            else:
                assert got.value == pytest.approx(want, abs=1e-12)
    assert accuracy(m).value == pytest.approx(oracle_accuracy(y, yhat))


@given(st.tuples(labels, labels))
def test_f1_jaccard_identities(pair):
    a, b = pair
    n = min(len(a), len(b))
    m = _matrix(a[:n], b[:n])
    for p in range(4):
        f = phase_metric(F1, m, p)
        j = phase_metric(JACCARD, m, p)
        assert f.is_defined == j.is_defined
        if j.is_defined:
            assert f.value == pytest.approx(2 * j.value / (1 + j.value), abs=1e-12)
            assert j.value <= f.value + 1e-12


def test_absence_pattern():
    """Neither side: all undefined. One side only: the row in which a
    single zero-ratio survives. Both sides: everything defined."""
    # phase 3 absent everywhere, phase 2 predicted only, phase 1 annotated only
    m = _matrix([0, 0, 1], [0, 2, 0])
    p3 = {k: phase_metric(k, m, 3) for k in METRIC_KINDS}
    assert all(c.state is CellState.UNDEFINED for c in p3.values())

    p2 = {k: phase_metric(k, m, 2) for k in METRIC_KINDS}
    assert p2[PRECISION].value == 0.0
    assert p2[RECALL].state is CellState.UNDEFINED
    assert p2[F1].value == 0.0
    assert p2[JACCARD].value == 0.0

    p1 = {k: phase_metric(k, m, 1) for k in METRIC_KINDS}
    assert p1[PRECISION].state is CellState.UNDEFINED
    assert p1[RECALL].value == 0.0
    assert p1[F1].value == 0.0
    assert p1[JACCARD].value == 0.0


def test_resolve_policies():
    und = MetricCell(CellState.UNDEFINED)
    half = MetricCell.defined(0.5)
    cells = cell_arrays([und, half])

    def resolved(policy, present):
        return [cell_of(*cell) for cell in zip(*resolve(*cells, policy, present))]

    P = UndefinedPolicy
    assert resolved(P.EXCLUDE_UNDEFINED, True) == [EXCLUDED_CELL, half]
    assert resolved(P.ZERO_FILL, True) == [MetricCell.defined(0.0), half]
    assert resolved(P.ONE_FILL, True) == [MetricCell.defined(1.0), half]
    # absent phase: even a defined value is dropped, and residual
    # undefined entries never reach the fill rules
    assert resolved(P.EXCLUDE_MISSING_PHASE, False) == [EXCLUDED_CELL, EXCLUDED_CELL]
    assert resolved(P.EXCLUDE_MISSING_PHASE, True) == [EXCLUDED_CELL, half]
    assert resolved(P.EXCLUDE_MISSING_PHASE, [True, False]) == [EXCLUDED_CELL, EXCLUDED_CELL]
    assert resolved(P.ZERO_FILL, [True, False]) == [MetricCell.defined(0.0), half]


@given(st.tuples(labels, labels), st.sampled_from(list(UndefinedPolicy)))
@settings(max_examples=150)
def test_macro_against_oracle(pair, policy):
    a, b = pair
    n = min(len(a), len(b))
    y, yhat = a[:n], b[:n]
    m = _matrix(y, yhat)
    for kind in METRIC_KINDS:
        got = macro_metric(kind, m, policy)
        want = oracle_macro(kind, y, yhat, 4, policy.value)
        if want is UNDEFINED:
            assert not got.is_defined
        else:
            assert got.value == pytest.approx(want, abs=1e-12)


@given(st.tuples(labels, labels))
def test_fill_policies_bracket(pair):
    a, b = pair
    n = min(len(a), len(b))
    m = _matrix(a[:n], b[:n])
    for kind in METRIC_KINDS:
        lo = macro_metric(kind, m, UndefinedPolicy.ZERO_FILL)
        hi = macro_metric(kind, m, UndefinedPolicy.ONE_FILL)
        assert lo.is_defined and hi.is_defined
        assert lo.value <= hi.value + 1e-12


def test_harmonic():
    assert harmonic(0.0, 0.0) == 0.0
    assert harmonic(1.0, 0.0) == 0.0
    assert harmonic(0.5, 0.5) == 0.5
    assert harmonic(0.2, 0.8) == pytest.approx(0.32)


def test_f1_of_means_cells():
    per_phase = phase_counts(_matrix([0, 0, 1, 1], [0, 1, 1, 0]))
    means = [
        macro_cells(kind, *per_phase, UndefinedPolicy.EXCLUDE_UNDEFINED)
        for kind in (PRECISION, RECALL)
    ]
    # macro precision = macro recall = 0.5 -> harmonic 0.5
    assert cell_of(*f1_of_means_cells(*means)).value == pytest.approx(0.5)


def test_f1_upper():
    assert f1_upper(0.5, 0.5) == pytest.approx(0.5)
    assert f1_upper(0.839, 0.805) == pytest.approx(0.8217, abs=5e-4)
    with pytest.raises(DegenerateMeans):
        f1_upper(0.0, 0.0)
    with pytest.raises(DegenerateMeans):
        f1_upper(-0.1, 0.5)


@given(
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
)
def test_f1_upper_bounds_harmonic_means(p, r):
    # harmonic of means >= mean of harmonics, so it sits at/above any
    # per-phase harmonic recombination with the same means
    assert f1_upper(p, r) <= max(p, r) + 1e-12
    assert f1_upper(p, r) >= min(p, r) - 1e-12
    # harmonic <= arithmetic, strictly when the gap clears float noise
    assert f1_upper(p, r) <= (p + r) / 2 + 1e-12
    if abs(p - r) > 1e-6:
        assert f1_upper(p, r) < (p + r) / 2


@st.composite
def sum_rows(draw):
    """Calls on both sides of row_fsum's cutoff, of the widths reports make
    (up to 3,500 terms a row, 500 and more in 1 to 8 rows) and of the
    widths where the grid's bit budget b steps (2**k and 2**k + 1), each
    kind of them drawn from a seeded generator: ratios of small counts as
    cells take (with exact zeros); 1.0 among values in (0.5, 1), whose
    totals land on rounding midpoints; or terms of mixed sign across 80
    binades at any scale, half of them near-negations of the others."""
    width = draw(st.sampled_from(
        [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 32, 33, 35, 64, 100, 256, 257, 500, 1400,
         2048, 2049, 3500]
    ))
    rows = draw(st.integers(1, max(8, 2 * _ARRAY_TERMS // width)))
    kind = draw(st.sampled_from(["cells", "midpoints", "cancelling"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, width)
    if kind == "cells":
        den = rng.integers(1, 60, shape)
        return rng.integers(0, den + 1) / den
    if kind == "midpoints":
        return np.where(rng.random(shape) < 0.4, 1.0, 0.5 + rng.random(shape) / 2)
    scale = rng.integers(-990, 990, (rows, 1)) - rng.integers(0, 80, shape)
    a = rng.standard_normal(shape) * np.exp2(scale)
    a[:, 1::2] = -a[:, : width - 1 : 2] * (1 + rng.standard_normal((rows, width // 2)) * 1e-15)
    return a + 0.0  # no -0.0: cells never are


def _wide_row_past_two_levels():
    """One row of 3,500 terms: 1.0, 2**-90 and thirds.  Its two levels keep
    2b = 82 binades below 1.0, so 2**-90 is left over."""
    row = np.full((1, 3500), 1 / 3)
    row[0, :2] = 1.0, 2.0**-90
    return row


def _cells(shape, seed=0):
    rng = np.random.default_rng(seed)
    den = rng.integers(1, 60, shape)
    return rng.integers(0, den + 1) / den


@pytest.mark.thorough
@given(sum_rows())
@settings(max_examples=examples(200), deadline=None)
# Rows the array path cannot sum on its own: its two levels keep 2b = 102
# binades below 1.0, which leaves 2**-106 over; without it the total is
# the midpoint 1 + 2**-53, which rounds to 1.0, not to fsum's 1 + 2**-52.
@example(np.array([[1.0, 2.0**-53, 2.0**-106]] * _ARRAY_TERMS))
@example(_wide_row_past_two_levels())
# Near the top of the range the grid's sigma overflows.
@example(np.array([[2.0**1023, 2.0**1022, -(2.0**1023)]] * _ARRAY_TERMS))
# A largest term that is subnormal, and three largest subnormals, whose
# total is a normal number that needs rounding.
@example(np.array([[2.0**-1060, 3 * 2.0**-1074, -(2.0**-1073)]] * _ARRAY_TERMS))
@example(np.array([[2.0**-1022 - 2.0**-1074] * 3] * _ARRAY_TERMS))
# A tall block of cells, as a report's per-video rows are.
@example(_cells((2800, 5)))
def test_row_fsum_is_fsum_of_every_row(rows):
    assert list(map(float.hex, row_fsum(rows).tolist())) == list(
        map(float.hex, oracle_row_fsum(rows))
    )


@pytest.mark.thorough
@given(st.integers(3, 3500), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=examples(50), deadline=None)
def test_row_fsum_sums_cells_without_fsum(width, extra_rows, seed):
    """Cell-like ratios (denominators below 2**20) never fall back to
    math.fsum above the cutoff: their nonzero terms lie within 21 binades
    of a row's largest, and the two levels keep 2b - 53 >= 25 binades
    below it exact for up to 2**14 terms a row."""
    rng = np.random.default_rng(seed)
    den = rng.integers(1, 2**20, (-(-_ARRAY_TERMS // width) + extra_rows, width))
    cells = rng.integers(0, den + 1) / den
    with mock.patch.object(metrics.math, "fsum", wraps=math.fsum) as fsum:
        sums = row_fsum(cells)
    fsum.assert_not_called()
    assert list(map(float.hex, sums.tolist())) == list(map(float.hex, oracle_row_fsum(cells)))
