"""Label files, corpus manifests, and report serialization."""

import json

import pytest
from hypothesis import given, strategies as st

from phaseeval.aggregate import MetricSummary
from phaseeval.confusion import LengthMismatch
from phaseeval.core import LabelSequence
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
        assert tuple(parse_labels(text)) == want
        assert parse_labels(text).labels.dtype == "int32"
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


@given(label_text, st.booleans())
def test_parse_labels_fuzz(text, as_bytes):
    """Either every line is read as int() reads it, or a typed error."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        seq = parse_labels(text.encode("utf-8", "surrogatepass") if as_bytes else text)
    except PhaseEvalError:
        return
    assert list(seq) == [int(line) for line in lines]


def test_parse_labels_empty():
    with pytest.raises(EmptyFile):
        parse_labels("")


@given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
def test_labels_round_trip(labels):
    seq = LabelSequence(tuple(labels))
    assert tuple(parse_labels(dump_labels(seq))) == tuple(labels)


def test_load_labels_missing(tmp_path):
    with pytest.raises(MissingFile):
        load_labels(tmp_path / "nope.txt")


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
    "mutate",
    [
        lambda d: d.pop("phase_count"),
        lambda d: d.update(phase_count=0),
        lambda d: d.update(videos=[]),
        lambda d: d["videos"].append(dict(d["videos"][0])),  # duplicate id
        lambda d: d["videos"][0].pop("annotation"),
        lambda d: d.update(phase_count=True),  # bools are not ints
        lambda d: d["videos"][0].update(id=True),
    ],
)
def test_load_manifest_schema_errors(tmp_path, mutate):
    path = _write_corpus(tmp_path)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_manifest(path)


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
        phase_names=("Preparation", "Calot triangle dissection"),
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
    assert "32:8:40" in md
    with pytest.raises(Exception):
        write_report(_report(), "xml")
