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
import unicodedata

import numpy as np
import pytest
from conftest import examples
from hypothesis import assume, given, settings, strategies as st
from reference import oracle_canonical_json, oracle_lone_surrogate

import phaseeval
from phaseeval import core, io, vocab
from phaseeval.aggregate import MetricSummary
from phaseeval.confusion import LengthMismatch
from phaseeval.cli import main
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
    load_manifest,
    parse_labels,
    write_report,
)
from phaseeval.metrics import UndefinedPolicy
from phaseeval.pipeline import run_evaluate, run_relaxed
from phaseeval.relaxed import MatrixMode
from phaseeval.synth import generate_corpus


def test_parse_labels_plain():
    seq = parse_labels(b"0\n0\n3\n2\n")
    assert tuple(seq) == (0, 0, 3, 2)


def test_parse_labels_without_trailing_newline():
    assert tuple(parse_labels(b"1\n2")) == (1, 2)


@pytest.mark.parametrize(
    "text,want",
    [
        (b"5", (5,)),
        (b"5\n", (5,)),
        (b"9\n0\n12\n", (9, 0, 12)),  # one wider line leaves the one-digit layout
        (b"12\n3", (12, 3)),
        (b"5\n\n", 2),  # a second newline is a blank line, not a label
        (b"\n", 1),
        (b"4\n:\n", 2),  # ':' sits just past '9'
        (b"4\n/\n", 2),  # '/' sits just before '0'
    ],
)
def test_parse_labels_one_digit_layout_and_its_edges(text, want):
    if isinstance(want, tuple):
        seq = parse_labels(text)
        assert tuple(seq) == want and seq.max_label == max(want)
        assert seq.labels.dtype == np.uint8 and not seq.labels.flags.writeable
        return
    with pytest.raises(ParseError) as exc:
        parse_labels(text)
    assert exc.value.line == want


@pytest.mark.parametrize(
    "text,line",
    [
        (b"0\n\n1\n", 2),   # blank interior line
        (b"0\nx\n", 2),     # junk token
        (b"-1\n", 1),       # sign is not a digit
        (b"1.0\n", 1),      # not an integer
        (b" 3\n", 1),       # stray whitespace
    ],
)
def test_parse_labels_rejects_junk(text, line):
    with pytest.raises(ParseError) as exc:
        parse_labels(text)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "short,padded,dtype",
    [
        (b"7\n", b"07\n", np.uint8),
        (b"3\n255", b"3\n0255", np.uint8),
        (b"256\n1\n", b"0256\n1\n", np.int32),
    ],
)
def test_leading_zeros_parse_to_an_equal_sequence_of_one_dtype(short, padded, dtype):
    """One digit a line and the wider layout hold the same labels alike."""
    a, b = parse_labels(short), parse_labels(padded)
    assert a == b and hash(a) == hash(b)
    assert a.labels.dtype == b.labels.dtype == dtype


def test_parse_labels_rejects_labels_wider_than_int32():
    assert tuple(parse_labels(b"2147483647\n00000000000000000007\n")) == (2147483647, 7)
    for text in (b"0\n2147483648\n", b"0\n99999999999999999999999\n"):
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


def _assert_parses_as_oracle(data: bytes) -> None:
    """parse_labels(data) against _line_oracle."""
    want = _line_oracle(data)
    if isinstance(want, int):
        with pytest.raises(ParseError) as exc:
            parse_labels(data)
        assert exc.value.line == want
    elif any(label > LABEL_MAX for label in want):
        first = next(i for i, label in enumerate(want) if label > LABEL_MAX)
        with pytest.raises(OutOfRangeLabel, match=f"^line {first + 1}: "):
            parse_labels(data)
    else:
        seq = parse_labels(data)
        assert seq.labels.dtype == (np.uint8 if max(want) < 256 else np.int32)
        assert not seq.labels.flags.writeable
        assert list(seq) == want and seq.max_label == max(want)


@given(label_text)
def test_parse_labels_fuzz(text):
    """Either every line is read as int() reads it, or a typed error naming
    the first line that is not."""
    data = text.encode("utf-8", "surrogatepass")
    if not data:
        with pytest.raises(EmptyFile):
            parse_labels(data)
        return
    _assert_parses_as_oracle(data)


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
            _assert_parses_as_oracle(data)


def test_parse_labels_empty():
    with pytest.raises(EmptyFile):
        parse_labels(b"")


@given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
def test_labels_round_trip(labels):
    seq = LabelSequence(tuple(labels))
    assert tuple(parse_labels(dump_labels(seq).encode("ascii"))) == tuple(labels)


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
        assert data == dump_labels(parse_labels(vocab.read_file(path))).encode("ascii")


def test_load_labels_missing(tmp_path):
    """A label file is read by vocab.read_file: a missing path or one that
    is not a regular file is MissingFile, reported as pathlib names it.  A
    FIFO is never waited on for a writer."""
    with pytest.raises(MissingFile, match=f"^{re.escape(str(tmp_path / 'nope.txt'))}$"):
        vocab.read_file(f"{tmp_path}/./nope.txt/")
    fifo = tmp_path / "fifo.txt"
    os.mkfifo(fifo)
    for path in (tmp_path, fifo, f"{fifo}/"):
        with pytest.raises(MissingFile):
            vocab.read_file(path)


def test_load_labels_through_symlinks(tmp_path):
    """vocab.read_file follows a link to a label file; a link to a directory
    is MissingFile."""
    (tmp_path / "labels.txt").write_text("0\n3\n")
    (tmp_path / "to-file").symlink_to(tmp_path / "labels.txt")
    (tmp_path / "to-dir").symlink_to(tmp_path, target_is_directory=True)
    data = vocab.read_file(tmp_path / "to-file")
    assert data == b"0\n3\n" and tuple(parse_labels(data)) == (0, 3)
    with pytest.raises(MissingFile, match=f"^{re.escape(str(tmp_path / 'to-dir'))}$"):
        vocab.read_file(tmp_path / "to-dir")


@pytest.mark.parametrize("stale", [False, True], ids=["as-stat", "grown-after-fstat"])
def test_load_labels_reads_a_large_file_whole(tmp_path, monkeypatch, stale):
    """vocab.read_file reads a million frames whole, also when fstat gave a
    size the file has outgrown."""
    path = tmp_path / "long.txt"
    data = b"1\n" * 999_999 + b"6\n"
    path.write_bytes(data)
    if stale:
        fstat = os.fstat

        def stale_fstat(fd):  # st_size, field 6, says 3 bytes
            return os.stat_result([*fstat(fd)[:6], 3, *fstat(fd)[7:10]])
        monkeypatch.setattr(os, "fstat", stale_fstat)
    assert vocab.read_file(path) == data
    assert len(parse_labels(data)) == 1_000_000


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file whatever its mode")
def test_load_labels_unreadable_is_a_permission_error(tmp_path):
    """An OSError, which the CLI reports as exit 1, not a MissingFile."""
    path = tmp_path / "locked.txt"
    path.write_text("0\n")
    path.chmod(0)
    with pytest.raises(PermissionError):
        vocab.read_file(path)


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
    """read_file reads through a raw os.open descriptor, which no
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
    moved = {"SchemaError", "RaggedRuns", "LengthMismatch", "UnknownSplit", "MissingFile"}
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
        lambda d: d.update(split="a\nb"),
    ],
)
def test_load_manifest_schema_errors(tmp_path, mutate):
    path = _write_corpus(tmp_path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_manifest(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(splt="32:8:40"), "manifest: unknown key 'splt'"),
        (lambda d: d.update(a=1, b=2), "manifest: unknown key 'a'"),  # the first, in file order
        (lambda d: d.update(phase_cont=7), "manifest: unknown key 'phase_cont'"),
        (lambda d: d["videos"][1].update(runs={}), "video entry 1: unknown key 'runs'"),
        (lambda d: d["videos"][0].update(Id=1), "video entry 0: unknown key 'Id'"),
    ],
)
def test_load_manifest_refuses_unknown_keys(tmp_path, mutate, message):
    """A misspelt key would be dropped without a word: a misspelt split
    would make every report say `unknown`."""
    path = _write_corpus(tmp_path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=f"^{message}$"):
        load_manifest(path)



@pytest.mark.parametrize("command", [["evaluate"], ["relaxed", "--omega", "1"]])
@pytest.mark.parametrize(
    "key, member, repeated",
    [
        ("phase_count", '"phase_count": 7', '"phase_count": 2, "phase_count": 7'),
        ("r0", '"r0": "video01/r0.txt"', '"r0": "video01/r0.txt", "r0": "video01/r1.txt"'),
        ("id", '"id": 2', '"id": 3, "id": 2'),
    ],
    ids=["top-level", "prediction-run", "video-entry"],
)
def test_a_repeated_manifest_key_is_refused(tmp_path, capsys, command, key, member, repeated):
    """json.loads keeps a repeated key's last value; a manifest with one
    would score other phases or drop a run without a word."""
    path = _write_corpus(tmp_path)
    text = path.read_text()
    assert text.count(member) == 1
    path.write_text(text.replace(member, repeated))
    with pytest.raises(SchemaError, match=f"^key '{key}' appears twice in one object$"):
        load_manifest(path)
    assert main([command[0], str(path), *command[1:]]) == 1
    assert f"key '{key}' appears twice" in capsys.readouterr().err


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


def test_a_split_is_refused_exactly_when_it_holds_a_control_character():
    """A md report writes the split raw into its one Protocol line, where a
    line break would start a line, or a heading, of the split's making: a
    control character, or U+2028 or U+2029, at which str.splitlines breaks
    too, is refused as a control character."""
    controls = [chr(i) for i in range(0x110000) if unicodedata.category(chr(i)) == "Cc"]
    controls += ["\u2028", "\u2029"]
    assert all(c in controls for c in map(chr, range(0x110000)) if len(f"x{c}y".splitlines()) > 1)
    for c in controls:
        split = f"x{c}# y"
        message = f"^split {re.escape(repr(split))} holds a control character$"
        with pytest.raises(SchemaError, match=message):
            Corpus(PhaseSet(7), {1: _Y}, {1: {"r": _Y}}, split)
    for c in map(chr, range(0x3000)):
        if c not in controls:
            assert Corpus(PhaseSet(7), {1: _Y}, {1: {"r": _Y}}, f"x{c}y").split == f"x{c}y"


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


# Subclasses of the scalar types, which the writer cannot dispatch on by
# their exact type.
class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_canonical_json_refuses_non_finite_floats(x):
    """The package's SchemaError, where the test oracle raises ValueError."""
    for obj in (
        x,
        {"mean": x},
        [x],
        {"a": [{"b": _Float(x)}]},
        [(0, {"b": np.float64(x)})],  # three containers deep
    ):
        with pytest.raises(SchemaError):
            canonical_json(obj)
        with pytest.raises(ValueError):
            oracle_canonical_json(obj)


@pytest.mark.parametrize("value", [{1, 2}, b"raw", {"a": [frozenset()]}, [1, b""]])
def test_canonical_json_refuses_unsupported_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


# Characters that quoting must treat exactly as json.dumps does.
_AWKWARD = st.sampled_from(
    ['"', "\\", "\u2028", "\u2029", "\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\n", "é", "𝄞"]
)
_TEXT = st.text(st.one_of(st.characters(), _AWKWARD), max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FINITE,
    st.just(-0.0),
    _FINITE.map(np.float64),
    _TEXT,
    _TEXT.map(_Str),
    st.integers().map(_Int),
    _FINITE.map(_Float),
)


@pytest.mark.thorough
@given(
    st.recursive(
        _LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(
                st.one_of(_TEXT, _TEXT.map(_Str), st.integers(-5, 5), st.booleans()),
                inner,
                max_size=4,
            ),
        ),
        max_leaves=20,
    )
)
@settings(max_examples=examples(100))
def test_canonical_json_matches_the_recursive_oracle(obj):
    assert canonical_json(obj) == oracle_canonical_json(obj)


def _distinct_keys(pairs):
    # "\ud83d\ude00" and "\U0001f600" are two keys, but escaped alike.
    assume(len(dict(pairs)) == len(pairs))
    return dict(pairs)


@pytest.mark.thorough
@given(
    st.recursive(
        st.none() | st.booleans() | st.integers() | _TEXT,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
        max_leaves=12,
    ),
    st.sampled_from(["escaped", "text", "utf-8", "utf-16", "utf-32"]),
)
@settings(max_examples=examples(100))
def test_parse_json_refuses_exactly_the_documents_with_a_lone_surrogate(doc, form):
    """Escaped, or raw in a str or in bytes of each JSON encoding; an
    adjacent high and low surrogate decode to one character from an escape
    or UTF-16 bytes, and stay two lone ones in a str or UTF-8 or UTF-32 bytes."""
    text = json.dumps(doc, ensure_ascii=form == "escaped")
    data = text if form in ("escaped", "text") else text.encode(form, "surrogatepass")
    decoded = json.loads(data, object_pairs_hook=_distinct_keys)
    try:
        got = vocab.parse_json(data, "document")
    except SchemaError as e:
        assert oracle_lone_surrogate(decoded) is not None
        assert str(e).startswith("document is not valid JSON: a string holds the lone surrogate ")
    else:
        assert oracle_lone_surrogate(decoded) is None and got == decoded


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
