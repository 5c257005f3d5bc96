"""Label sequences, segments, the workflow graph, and split definitions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phaseeval.core import (
    CHOLEC80_PHASE_NAMES,
    LABEL_MAX,
    MAX_PHASES,
    EmptySequence,
    LabelSequence,
    OutOfRangeLabel,
    PhaseSet,
    Segment,
    SplitDefinition,
    UnknownSplit,
    UnsupportedPhaseCount,
    builtin_split_names,
    cholec80_graph,
    cholec80_phases,
    cv_folds,
    extract_segments,
    resolve_split,
    validate_sequence,
)
from phaseeval.io import canonical_json


def test_phase_set_basics():
    ph = cholec80_phases()
    assert ph.count == 7
    assert list(ph) == [0, 1, 2, 3, 4, 5, 6]
    assert 6 in ph and 7 not in ph and -1 not in ph
    assert ph.name_of(2) == "Clipping and cutting"
    assert len(CHOLEC80_PHASE_NAMES) == 7


def test_phase_count_is_bounded():
    assert PhaseSet(MAX_PHASES).count == MAX_PHASES
    for count in (0, MAX_PHASES + 1, 1_000_000_000):
        with pytest.raises(UnsupportedPhaseCount):
            PhaseSet(count)


def test_label_sequence_validation():
    seq = LabelSequence((0, 0, 1, 2))
    assert len(seq) == 4
    assert seq[2] == 1
    with pytest.raises(EmptySequence):
        LabelSequence(())
    with pytest.raises(OutOfRangeLabel):
        LabelSequence((0, -1, 2))


def test_label_array_is_read_only_in_its_label_dtype():
    seq = LabelSequence([0, 0, 1, 2])
    assert seq.labels.dtype == np.uint8
    with pytest.raises(ValueError):
        seq.labels[0] = 5
    source = np.array([3, 1], dtype=np.int64)
    copied = LabelSequence(source)
    source[0] = 0
    assert tuple(copied) == (3, 1)
    assert LabelSequence((0, 1)) == LabelSequence(np.array([0, 1]))
    assert LabelSequence((0, 1)) != LabelSequence((0, 2))


def test_label_sequence_hashes_by_value():
    """Equal labels from a list, int64, uint8 or bool input are one value."""
    a, b = LabelSequence((0, 1)), LabelSequence(np.array([0, 1], dtype=np.int64))
    assert hash(a) == hash(b) and len({a, b, LabelSequence((0, 2))}) == 2
    sources = [[0, 1, 1], np.array([0, 1, 1], np.int64), np.array([0, 1, 1], np.uint8),
               np.array([False, True, True])]
    seqs = [LabelSequence(x) for x in sources]
    assert all(s == seqs[0] and hash(s) == hash(seqs[0]) for s in seqs)
    assert len(set(seqs)) == 1


@pytest.mark.parametrize("top,dtype", [(255, np.uint8), (256, np.int32), (LABEL_MAX, np.int32)])
def test_labels_below_256_take_one_byte(top, dtype):
    for values in ([0, top], [top], [top, 7, 0]):
        seq = LabelSequence(np.array(values, dtype=np.int64))
        assert seq.labels.dtype == dtype
        assert seq.labels.tolist() == values and seq.max_label == top


@pytest.mark.parametrize(
    "dtype", [bool, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
)
def test_label_sequence_dtype_matrix(dtype):
    """Each integer dtype: values up to its own or int32's bound are taken as
    a read-only copy in the label dtype of the largest, and one step past
    either bound is refused."""
    lo, hi = (0, 1) if dtype is bool else (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    top = min(hi, LABEL_MAX)
    cases = [([0, 1, top], None), ([top, 0], None)]
    if lo < 0:
        cases.append(([0, -1], "labels must be non-negative"))
        cases.append(([lo, 0], "labels must be non-negative"))
    if hi > LABEL_MAX:
        cases.append(([0, LABEL_MAX + 1], f"labels must not exceed {LABEL_MAX}"))
        cases.append(([1, hi], f"labels must not exceed {LABEL_MAX}"))
        if lo < 0:  # both bounds crossed: the sign is reported first
            cases.append(([LABEL_MAX + 1, -1], "labels must be non-negative"))
    for values, message in cases:
        source = np.array(values, dtype=dtype)
        if message is not None:
            with pytest.raises(OutOfRangeLabel, match=f"^{message}$"):
                LabelSequence(source)
            continue
        seq = LabelSequence(source)
        assert seq.labels.dtype == (np.uint8 if max(values) < 256 else np.int32)
        assert not seq.labels.flags.writeable
        assert seq.labels.tolist() == [int(v) for v in values]
        assert seq.max_label == max(int(v) for v in values)
        assert seq.labels.base is not source and not np.shares_memory(seq.labels, source)


@pytest.mark.parametrize(
    "labels", [(1, 2**31), (1, 2**63), (1, 10**30), (0.5, 1.0), ("1", "2")]
)
def test_label_sequence_rejects_non_int32_values(labels):
    with pytest.raises(OutOfRangeLabel):
        LabelSequence(labels)


def test_sequence_and_segments_yield_python_ints():
    seq = LabelSequence(np.array([4, 4, 2], dtype=np.int32))
    assert type(seq[0]) is int
    assert all(type(x) is int for x in seq)
    for seg in extract_segments(seq):
        assert all(type(v) is int for v in (seg.phase, seg.start, seg.end))
    assert canonical_json([seq[1], *seq, extract_segments(seq)[0].end]) == (
        "[\n  4,\n  4,\n  4,\n  2,\n  1\n]"
    )


def test_validate_sequence_reports_frame():
    seq = LabelSequence((0, 1, 9))
    with pytest.raises(OutOfRangeLabel) as exc:
        validate_sequence(seq, cholec80_phases())
    assert "2" in str(exc.value)


def test_extract_segments_known_case():
    seq = LabelSequence((0, 0, 1, 1, 1, 0))
    segs = extract_segments(seq)
    assert segs == (Segment(0, 0, 1), Segment(1, 2, 4), Segment(0, 5, 5))
    assert all(type(s) is Segment for s in segs)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=120))
def test_segments_partition_and_round_trip(labels):
    seq = LabelSequence(tuple(labels))
    segs = extract_segments(seq)
    # contiguous, non-overlapping cover of [0, T)
    assert segs[0].start == 0
    assert segs[-1].end == len(labels) - 1
    for a, b in zip(segs, segs[1:]):
        assert b.start == a.end + 1
        assert b.phase != a.phase  # maximality
    rebuilt = [s.phase for s in segs for _ in range(s.start, s.end + 1)]
    assert rebuilt == labels


def test_cholec80_graph_edges():
    g = cholec80_graph()
    expected = {
        (0, 1), (1, 2), (2, 3), (3, 4), (3, 5),
        (4, 5), (4, 6), (5, 4), (5, 6), (6, 5),
    }
    assert g.edges == frozenset(expected)
    assert (3, 5) in g.edges and (5, 3) not in g.edges
    assert g.successors(4) == (5, 6)
    assert {a for a, b in g.edges if b == 5} == {3, 4, 6}


def test_graph_rejects_self_loops():
    from phaseeval.core import WorkflowGraph

    with pytest.raises(ValueError):
        WorkflowGraph(frozenset({(1, 1)}))


def test_split_definition_rejects_overlap():
    with pytest.raises(ValueError):
        SplitDefinition("x", train=(1, 2), validation=(2,), test=(3,))


@pytest.mark.parametrize(
    "name,train,val,test",
    [
        ("32:8:40", range(1, 33), range(33, 41), range(41, 81)),
        ("40:40", range(1, 41), (), range(41, 81)),
        ("40:8:32", range(1, 41), range(41, 49), range(49, 81)),
        ("40:20:20", range(1, 41), range(41, 61), range(61, 81)),
        ("60:20", range(1, 61), (), range(61, 81)),
    ],
)
def test_builtin_splits(name, train, val, test):
    sp = resolve_split(name)
    assert sp.train == tuple(train)
    assert sp.validation == tuple(val)
    assert sp.test == tuple(test)


def test_cv_folds():
    folds = cv_folds()
    assert len(folds) == 5
    for k, f in enumerate(folds):
        assert f.test == tuple(range(61, 81))
        assert f.validation == tuple(range(12 * k + 1, 12 * k + 13))
        assert len(f.train) == 48
        assert set(f.train) | set(f.validation) == set(range(1, 61))
    # the cv name resolves to the first fold
    assert resolve_split("48:12:20-cv") == folds[0]


def test_unknown_split():
    assert "48:12:20-cv" in builtin_split_names()
    with pytest.raises(UnknownSplit):
        resolve_split("70:10")
