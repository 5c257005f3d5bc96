"""Label files, corpus manifests, and report serialization."""

import copy
import importlib
import json
import math
import os
import pickle
import pkgutil
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from reference import oracle_canonical_json

import phaseeval
from phaseeval import core, io, vocab
from phaseeval.aggregate import MetricSummary
from phaseeval.confusion import LengthMismatch
from phaseeval.aggregate import AveragingOrder, StdMode
from phaseeval.core import LABEL_MAX, LabelSequence, OutOfRangeLabel, PhaseSet
from phaseeval.errors import PhaseEvalError
from phaseeval.io import (
    Corpus,
    EmptyFile,
    EvaluationReport,
    MissingFile,
    ParseError,
    RaggedRuns,
    SchemaError,
    canonical_json,
    dump_labels,
    load_labels,
    load_manifest,
    parse_labels,
    write_report,
)
from phaseeval.metrics import UndefinedPolicy
from phaseeval.pipeline import run_evaluate, run_relaxed
from phaseeval.relaxed import MatrixMode
from phaseeval.synth import generate_corpus


def test_parse_labels_plain():
    seq = parse_labels("0\n0\n3\n2\n")
    assert tuple(seq) == (0, 0, 3, 2)


def test_parse_labels_without_trailing_newline():
    assert tuple(parse_labels("1\n2")) == (1, 2)


@pytest.mark.parametrize(
    "text,want",
    [
        ("5", (5,)),
        ("5\n", (5,)),
        ("9\n0\n12\n", (9, 0, 12)),  # one wider line leaves the one-digit layout
        ("12\n3", (12, 3)),
        ("5\n\n", 2),  # a second newline is a blank line, not a label
        ("\n", 1),
        ("4\n:\n", 2),  # ':' sits just past '9'
        ("4\n/\n", 2),  # '/' sits just before '0'
    ],
)
def test_parse_labels_one_digit_layout_and_its_edges(text, want):
    if isinstance(want, tuple):
        seq = parse_labels(text)
        assert tuple(seq) == want and seq.max_label == max(want)
        assert seq.labels.dtype == "int32" and not seq.labels.flags.writeable
        return
    with pytest.raises(ParseError) as exc:
        parse_labels(text)
    assert exc.value.line == want


@pytest.mark.parametrize(
    "text,line",
    [
        ("0\n\n1\n", 2),   # blank interior line
        ("0\nx\n", 2),     # junk token
        ("-1\n", 1),       # sign is not a digit
        ("1.0\n", 1),      # not an integer
        (" 3\n", 1),       # stray whitespace
    ],
)
def test_parse_labels_rejects_junk(text, line):
    with pytest.raises(ParseError) as exc:
        parse_labels(text)
    assert exc.value.line == line


def test_parse_labels_rejects_labels_wider_than_int32():
    assert tuple(parse_labels("2147483647\n00000000000000000007\n")) == (2147483647, 7)
    for text in ("0\n2147483648\n", "0\n99999999999999999999999\n"):
        with pytest.raises(PhaseEvalError) as exc:
            parse_labels(text)
        assert "line 2" in str(exc.value)


label_text = st.one_of(
    st.text(),
    st.lists(
        st.one_of(
            st.integers(0, 2**40).map(str),
            st.text(alphabet="0123456789", max_size=25),
            st.sampled_from(["", " 1", "+1", "-1", "1\r", "\u0663", "1_0"]),
        ),
        max_size=30,
    ).map("\n".join),
)


def _line_oracle(data: bytes) -> list[int] | int:
    """The labels as int() reads each line, when every line is ASCII digits;
    otherwise the 1-based number of the first line that is not (bytes.isdigit
    is false on an empty line)."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    bad = [i for i, line in enumerate(lines) if not line.isdigit()]
    return bad[0] + 1 if bad else [int(line) for line in lines]


def _assert_parses_as_oracle(data: bytes, text: str | bytes) -> None:
    """parse_labels(text), where text is data or its decoding, against _line_oracle."""
    want = _line_oracle(data)
    if isinstance(want, int):
        with pytest.raises(ParseError) as exc:
            parse_labels(text)
        assert exc.value.line == want
    elif any(label > LABEL_MAX for label in want):
        first = next(i for i, label in enumerate(want) if label > LABEL_MAX)
        with pytest.raises(OutOfRangeLabel, match=f"^line {first + 1}: "):
            parse_labels(text)
    else:
        seq = parse_labels(text)
        assert seq.labels.dtype == np.int32 and not seq.labels.flags.writeable
        assert list(seq) == want and seq.max_label == max(want)


@given(label_text, st.booleans())
def test_parse_labels_fuzz(text, as_bytes):
    """Either every line is read as int() reads it, or a typed error naming
    the first line that is not."""
    data = text.encode("utf-8", "surrogatepass")
    if not data:
        with pytest.raises(EmptyFile):
            parse_labels(data if as_bytes else text)
        return
    _assert_parses_as_oracle(data, data if as_bytes else text)


@pytest.mark.parametrize("base", [b"3\n1\n4\n1\n5\n", b"3\n1\n4\n1\n5", b"2\n", b"7"])
def test_one_digit_layout_edits_parse_as_the_line_oracle(base):
    """The one-digit-a-line fast path accepts exactly what the line-by-line
    reading accepts: every byte replaced by a neighbour of the digits, a
    newline, a carriage return or an edge digit, and a newline-digit pair
    written where a digit-newline pair belongs."""
    for i in range(len(base)):
        edits = [base[:i] + bytes([b]) + base[i + 1 :] for b in b"/:\n\r09"]
        edits.append(base[:i] + b"\n5" + base[i + 2 :])
        for data in edits:
            _assert_parses_as_oracle(data, data)


def test_parse_labels_empty():
    with pytest.raises(EmptyFile):
        parse_labels("")


@given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
def test_labels_round_trip(labels):
    seq = LabelSequence(tuple(labels))
    assert tuple(parse_labels(dump_labels(seq))) == tuple(labels)


@pytest.mark.parametrize("phase_count", [7, 12])  # 12: every phase, so two-digit labels
def test_synth_writes_its_label_files_through_dump_labels(tmp_path, phase_count):
    """Each label file synth writes is the dump_labels text of the sequence
    parsed back from it: one label a line, each line ending in a newline."""
    generate_corpus(tmp_path, phase_count, 3, 2, 4, 9, 1, 0.2, 3)
    files = sorted(tmp_path.glob("video*/*.txt"))
    assert len(files) == 3 * (1 + 2)
    for path in files:
        data = path.read_bytes()
        assert re.fullmatch(rb"([0-9]+\n)+", data)
        assert data == dump_labels(load_labels(path)).encode("ascii")


def test_load_labels_missing(tmp_path):
    """A missing path or one that is not a regular file, reported as pathlib
    names it.  A FIFO is never waited on for a writer."""
    with pytest.raises(MissingFile, match=f"^{re.escape(str(tmp_path / 'nope.txt'))}$"):
        load_labels(f"{tmp_path}/./nope.txt/")
    fifo = tmp_path / "fifo.txt"
    os.mkfifo(fifo)
    for path in (tmp_path, fifo, f"{fifo}/"):
        with pytest.raises(MissingFile):
            load_labels(path)


def test_load_labels_through_symlinks(tmp_path):
    """A link to a label file loads it; a link to a directory is MissingFile."""
    (tmp_path / "labels.txt").write_text("0\n3\n")
    (tmp_path / "to-file").symlink_to(tmp_path / "labels.txt")
    (tmp_path / "to-dir").symlink_to(tmp_path, target_is_directory=True)
    assert tuple(load_labels(tmp_path / "to-file")) == (0, 3)
    with pytest.raises(MissingFile, match=f"^{re.escape(str(tmp_path / 'to-dir'))}$"):
        load_labels(tmp_path / "to-dir")


@pytest.mark.parametrize("stale", [False, True], ids=["as-stat", "grown-after-fstat"])
def test_load_labels_reads_a_large_file_whole(tmp_path, monkeypatch, stale):
    """A million frames, also when fstat gave a size the file has outgrown."""
    path = tmp_path / "long.txt"
    path.write_bytes(b"1\n" * 999_999 + b"6\n")
    if stale:
        fstat = os.fstat

        def stale_fstat(fd):  # st_size, field 6, says 3 bytes
            return os.stat_result([*fstat(fd)[:6], 3, *fstat(fd)[7:10]])
        monkeypatch.setattr(os, "fstat", stale_fstat)
    seq = load_labels(path)
    assert len(seq) == 1_000_000 and seq[0] == 1 and seq[999_999] == 6


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file whatever its mode")
def test_load_labels_unreadable_is_a_permission_error(tmp_path):
    """An OSError, which the CLI reports as exit 1, not a MissingFile."""
    path = tmp_path / "locked.txt"
    path.write_text("0\n")
    path.chmod(0)
    with pytest.raises(PermissionError):
        load_labels(path)


def _write_corpus(tmp_path, *, lengths=None, runs=("r0", "r1")):
    lengths = lengths or {1: 6, 2: 6}
    videos = []
    for vid, n in lengths.items():
        d = tmp_path / f"video{vid:02d}"
        d.mkdir()
        (d / "annotation.txt").write_text("\n".join("0" for _ in range(n)) + "\n")
        entry = {"id": vid, "annotation": f"video{vid:02d}/annotation.txt", "predictions": {}}
        for r in runs:
            (d / f"{r}.txt").write_text("\n".join("0" for _ in range(n)) + "\n")
            entry["predictions"][r] = f"video{vid:02d}/{r}.txt"
        videos.append(entry)
    manifest = {"phase_count": 7, "split": "32:8:40", "videos": videos}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to count descriptors in")
def test_loading_leaves_no_descriptor_open(tmp_path):
    """load_labels reads through a raw os.open descriptor, which no
    ResourceWarning reports if it leaks: count them, on success and on a
    label file that does not parse."""
    path = _write_corpus(tmp_path)
    before = len(os.listdir("/dev/fd"))
    for _ in range(3):
        load_manifest(path)
    (tmp_path / "video02" / "r1.txt").write_text("0\nx\n")
    with pytest.raises(ParseError):
        load_manifest(path)
    assert len(os.listdir("/dev/fd")) == before


def test_load_manifest_round_trip(tmp_path):
    corpus = load_manifest(_write_corpus(tmp_path))
    assert isinstance(corpus, Corpus)
    assert corpus.phases.count == 7
    assert corpus.split == "32:8:40"
    assert corpus.videos == (1, 2)
    assert corpus.runs == ("r0", "r1")
    assert len(corpus.annotations[1]) == 6


def test_load_manifest_rejects_ragged_runs(tmp_path):
    path = _write_corpus(tmp_path)
    data = json.loads(path.read_text())
    del data["videos"][1]["predictions"]["r1"]
    path.write_text(json.dumps(data))
    with pytest.raises(RaggedRuns):
        load_manifest(path)


def test_load_manifest_rejects_length_mismatch(tmp_path):
    path = _write_corpus(tmp_path)
    (tmp_path / "video01" / "r0.txt").write_text("0\n0\n")
    with pytest.raises(LengthMismatch):
        load_manifest(path)


@pytest.mark.parametrize(
    "content, error, message",
    [
        ("", EmptyFile, "no frames"),
        ("0\nx\n", ParseError, "line 2: not a non-negative integer: 'x'"),
        ("0\n2147483648\n", OutOfRangeLabel, "line 2: label 2147483648 exceeds 2147483647"),
        ("9\n0\n", OutOfRangeLabel, "label 9 at frame 0 exceeds phase range 0..6"),
    ],
)
def test_load_manifest_errors_name_the_label_file(tmp_path, content, error, message):
    path = _write_corpus(tmp_path)
    (tmp_path / "video02" / "r1.txt").write_text(content)
    with pytest.raises(error) as exc:
        load_manifest(path)
    assert type(exc.value) is error
    assert str(exc.value) == f"{tmp_path / 'video02' / 'r1.txt'}: {message}"
    if error is ParseError:
        assert exc.value.line == 2


def _count_validations(monkeypatch) -> list:
    """Count validate_sequence calls through every loaded module's binding."""
    calls, validate = [], core.validate_sequence

    def counting(seq, phases):
        calls.append(seq)
        return validate(seq, phases)

    for name, module in list(sys.modules.items()):
        if name.startswith("phaseeval.") and hasattr(module, "validate_sequence"):
            monkeypatch.setattr(module, "validate_sequence", counting)
    return calls


def test_load_manifest_checks_each_label_file_once(tmp_path, monkeypatch):
    """V videos of R runs: V annotations and V*R predictions, each checked once."""
    path = _write_corpus(tmp_path, lengths={1: 6, 2: 6, 3: 6}, runs=("r0", "r1"))
    calls = _count_validations(monkeypatch)
    load_manifest(path)
    assert len(calls) == 3 + 3 * 2


def test_load_manifest_names_the_first_file_out_of_range_in_manifest_order(tmp_path):
    """Video 2 comes first in the manifest, though the Corpus checks video 1 first."""
    path = _write_corpus(tmp_path, lengths={2: 6, 1: 6})
    (tmp_path / "video01" / "annotation.txt").write_text("8\n" * 6)
    (tmp_path / "video02" / "r1.txt").write_text("0\n" * 5 + "9\n")
    with pytest.raises(OutOfRangeLabel) as exc:
        load_manifest(path)
    assert str(exc.value) == (
        f"{tmp_path / 'video02' / 'r1.txt'}: label 9 at frame 5 exceeds phase range 0..6"
    )
    assert exc.value.__context__ is None or exc.value.__suppress_context__


@pytest.mark.parametrize("later", ["parse", "schema"])
def test_a_later_bad_file_or_entry_wins_over_an_earlier_label_out_of_range(tmp_path, later):
    """Labels are range-checked once every file is read, so a parse error in
    a later file, or a schema error in a later entry, is what is raised."""
    path = _write_corpus(tmp_path)
    (tmp_path / "video01" / "r0.txt").write_text("9\n" * 6)
    if later == "parse":
        (tmp_path / "video02" / "r1.txt").write_text("0\nx\n")
    else:
        data = json.loads(path.read_text())
        data["videos"][1]["predictions"]["r1"] = 7
        path.write_text(json.dumps(data))
    with pytest.raises(ParseError if later == "parse" else SchemaError) as exc:
        load_manifest(path)
    if later == "parse":
        assert str(exc.value).startswith(f"{tmp_path / 'video02' / 'r1.txt'}: line 2")


# The error census below sees only the classes of imported modules.
for _module in pkgutil.iter_modules(phaseeval.__path__):
    importlib.import_module(f"phaseeval.{_module.name}")


def _error_classes(cls=PhaseEvalError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_error_census_covers_every_module():
    names = {cls.__name__ for cls in _error_classes()}
    moved = {"SchemaError", "RaggedRuns", "LengthMismatch", "UnknownSplit"}
    assert moved | {"BugCompatConflict", "ParseError", "DuplicateEntry"} <= names


def _clones(error):
    return pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)


@pytest.mark.parametrize(
    "cls", sorted(set(_error_classes()), key=str), ids=lambda c: f"{c.__module__}.{c.__name__}"
)
def test_every_error_survives_pickle_and_copy(cls):
    """So an error raised in a worker process reaches its parent intact."""
    error = cls("bad", 2) if issubclass(cls, ParseError) else cls("bad")
    for clone in _clones(error):
        assert type(clone) is cls
        assert clone.args == error.args and str(clone) == str(error)
        assert vars(clone) == vars(error)


def test_load_time_parse_error_survives_pickle_and_copy(tmp_path):
    path = _write_corpus(tmp_path)
    (tmp_path / "video02" / "r1.txt").write_text("0\nx\n")
    with pytest.raises(ParseError) as exc:
        load_manifest(path)
    assert str(exc.value).startswith(str(tmp_path / "video02" / "r1.txt"))
    for clone in _clones(exc.value):
        assert type(clone) is ParseError
        assert str(clone) == str(exc.value) and clone.line == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("phase_count"),
        lambda d: d.update(phase_count=0),
        lambda d: d.update(phase_count=257),  # past core.MAX_PHASES
        lambda d: d.update(videos=[]),
        lambda d: d["videos"].append(dict(d["videos"][0])),  # duplicate id
        lambda d: d["videos"][0].pop("annotation"),
        lambda d: d.update(phase_count=True),  # bools are not ints
        lambda d: d["videos"][0].update(id=True),
        lambda d: d.update(split=5),
        lambda d: d.update(split=""),  # a stated split names one; leave it out if unknown
    ],
)
def test_load_manifest_schema_errors(tmp_path, mutate):
    path = _write_corpus(tmp_path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_manifest(path)


_Y = LabelSequence([0] * 4 + [1] * 4)

_RUNNERS = [
    lambda c: run_evaluate(
        c, UndefinedPolicy.EXCLUDE_MISSING_PHASE, AveragingOrder.FLAT, StdMode.CORRECTED
    ),
    lambda c: run_relaxed(c, 1, MatrixMode.GRAPH_DERIVED, False),
    lambda c: run_relaxed(c, 1, MatrixMode.LEGACY, True, bug_compatible=True),
]


@pytest.mark.parametrize("run", _RUNNERS, ids=["evaluate", "graph-relaxed", "bug-compat"])
@pytest.mark.parametrize(
    "annotations, predictions",
    [
        ({1: _Y}, {1: {"r": _Y}, 2: {"r": _Y}}),  # a prediction without annotation
        ({1: _Y, 2: _Y}, {1: {"r": _Y}}),  # an annotation without predictions
        ({}, {}),
        ({1: _Y}, {1: {}}),
    ],
    ids=["extra-predictions", "extra-annotation", "empty", "no-runs"],
)
def test_corpus_maps_must_name_the_same_videos_with_runs(run, annotations, predictions):
    with pytest.raises(SchemaError):
        run(Corpus(PhaseSet(7), annotations, predictions))


@pytest.mark.parametrize("split", ["", 5])
def test_hand_built_corpus_with_an_empty_or_non_string_split_is_refused(split):
    """The Corpus owns the split check, so no report says "unknown" for a
    stated split."""
    with pytest.raises(SchemaError, match="split must be a non-empty string if present"):
        Corpus(PhaseSet(7), {1: _Y}, {1: {"r": _Y}}, split)
    assert Corpus(PhaseSet(7), {1: _Y}, {1: {"r": _Y}}, "test").split == "test"


@pytest.mark.parametrize("run", _RUNNERS, ids=["evaluate", "graph-relaxed", "bug-compat"])
def test_hand_built_corpus_with_a_short_prediction_is_a_length_mismatch(run):
    """A Corpus built without load_manifest is still length-checked, in
    any pair of the grid."""
    short = LabelSequence(_Y.labels[:-1])
    grid = {1: {"a": _Y, "b": _Y}, 2: {"a": _Y, "b": short}}
    with pytest.raises(LengthMismatch):
        run(Corpus(PhaseSet(7), {1: _Y, 2: _Y}, grid))


@pytest.mark.parametrize("where", ["annotation", "prediction"])
def test_hand_built_corpus_with_a_label_past_the_phases_is_out_of_range(where):
    """For every report, graph relaxed and bug-compat included: their flag
    rules take labels past the grids, so only the Corpus can refuse them."""
    bad = LabelSequence([0] * 4 + [1] * 3 + [7])
    annotations = {1: _Y, 2: bad if where == "annotation" else _Y}
    grid = {1: {"a": _Y, "b": _Y}, 2: {"a": _Y, "b": bad if where == "prediction" else _Y}}
    for run in _RUNNERS:
        with pytest.raises(OutOfRangeLabel, match="label 7 at frame 7"):
            run(Corpus(PhaseSet(7), annotations, grid))


def _corpus_2x3():
    grid = {v: {r: _Y for r in ("a", "b", "c")} for v in (1, 2)}
    return Corpus(PhaseSet(7), {1: _Y, 2: _Y}, grid)


def test_a_built_corpus_is_read_only():
    annotations, runs = {1: _Y}, {"a": _Y}
    corpus = Corpus(PhaseSet(7), annotations, {1: runs})
    with pytest.raises(TypeError):
        corpus.annotations[1] = LabelSequence([7] * 8)
    with pytest.raises(TypeError):
        corpus.predictions[1]["a"] = LabelSequence([7] * 8)
    with pytest.raises(TypeError):
        corpus.predictions[2] = {"a": _Y}
    annotations[2], runs["b"] = _Y, LabelSequence([7])  # the caller's maps are copied
    assert corpus.annotations == {1: _Y} and corpus.predictions == {1: {"a": _Y}}


def test_a_corpus_validates_each_sequence_once_and_reports_trust_it(monkeypatch):
    calls = _count_validations(monkeypatch)
    corpus = _corpus_2x3()
    assert len(calls) == 2 + 2 * 3
    for run, count in zip(_RUNNERS, (0, 2)):  # graph relaxed: each annotation against the grids
        calls.clear()
        run(corpus)
        assert len(calls) == count


def test_corpus_survives_pickle_and_copy():
    corpus = _corpus_2x3()
    for clone in (pickle.loads(pickle.dumps(corpus)), copy.copy(corpus), copy.deepcopy(corpus)):
        assert type(clone) is Corpus and clone == corpus
        assert (clone.videos, clone.runs) == ((1, 2), ("a", "b", "c"))


def test_canonical_json_is_sorted_and_fixed_point():
    obj = {"b": 0.5, "a": [1, None, True, "x"], "c": {"z": 1 / 3}}
    out = canonical_json(obj)
    assert out.index('"a"') < out.index('"b"') < out.index('"c"')
    assert "0.333333" in out
    assert "0.500000" in out
    assert json.loads(out) == {
        "b": 0.5,
        "a": [1, None, True, "x"],
        "c": {"z": 0.333333},
    }


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-10**6, 10**6),
            st.floats(0, 1e6),
            st.text(max_size=20),
        ),
        lambda leaf: st.one_of(
            st.lists(leaf, max_size=4),
            st.dictionaries(st.text(max_size=8), leaf, max_size=4),
        ),
        max_leaves=12,
    )
)
def test_canonical_json_parses_and_is_deterministic(obj):
    out = canonical_json(obj)
    assert canonical_json(obj) == out
    json.loads(out)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_canonical_json_refuses_non_finite_floats(x):
    with pytest.raises(SchemaError):
        canonical_json({"mean": x})
    for deep in ({"a": [{"b": x}]}, [(0, {"b": np.float64(x)})]):  # three containers deep
        with pytest.raises(SchemaError):
            canonical_json(deep)


@pytest.mark.parametrize("value", [{1, 2}, b"raw", {"a": [frozenset()]}, [1, b""]])
def test_canonical_json_refuses_unsupported_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


# Characters that quoting must treat exactly as json.dumps does.
_AWKWARD = st.sampled_from(
    ['"', "\\", "\u2028", "\u2029", "\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\n", "é", "𝄞"]
)
_TEXT = st.text(st.one_of(st.characters(), _AWKWARD), max_size=12)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    _TEXT,
)


@given(
    st.recursive(
        _LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.one_of(_TEXT, st.integers(-5, 5)), inner, max_size=4),
        ),
        max_leaves=20,
    )
)
def test_canonical_json_matches_the_recursive_oracle(obj):
    assert canonical_json(obj) == oracle_canonical_json(obj)


def _report():
    summary = {
        "accuracy": MetricSummary(0.865, 0.066, None, 0.004),
        "f1_upper": MetricSummary(0.822, None, None, 0.005),
    }
    per_phase = {
        0: {"precision": MetricSummary(0.9, 0.02, None, None)},
        3: {"precision": MetricSummary(0.8, 0.05, None, None)},
    }
    return EvaluationReport(
        protocol={"split": "32:8:40", "relaxed": False},
        summary=summary,
        per_phase=per_phase,
        phase_names=("Preparation", "Calot triangle dissection", "Clipping", "Cutting"),
    )


def test_report_json_is_byte_deterministic():
    a = write_report(_report(), "json")
    b = write_report(_report(), "json")
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["format_version"] == "1"
    assert parsed["summary"]["accuracy"]["mean"] == 0.865


def test_report_csv_and_md_shapes():
    csv_text = write_report(_report(), "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "section,phase,metric,statistic,value"
    assert any(line.startswith("summary,,accuracy,mean,0.865000") for line in lines)
    md = write_report(_report(), "md")
    assert "| accuracy |" in md
    assert "| Cutting | precision | 0.800000 | 0.050000 | n/a |" in md
    assert "32:8:40" in md
    with pytest.raises(Exception):
        write_report(_report(), "xml")


def test_every_report_format_has_a_writer():
    assert tuple(io._WRITERS) == vocab.REPORT_FORMATS
