"""The input contract: whatever bytes a manifest, its label files or a
ledger hold, loading returns a value or raises PhaseEvalError, never
anything else.  Generated names stay short, since a path the OS refuses raises
OSError, which the CLI reports as exit 1 on its own."""

import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from phaseeval.errors import PhaseEvalError
from phaseeval.io import MissingFile, SchemaError, load_manifest
from phaseeval.protocol import METRIC_NAMES, PROTOCOL_FIELDS, parse_ledger, seed_ledger
from phaseeval.vocab import parse_json, read_file

pytestmark = pytest.mark.thorough

SEED_LEDGER = Path(__file__).parent / "data" / "cli" / "seed-ledger.json"

# Any JSON value, with the ints that typed fields must tell from bools and
# floats, and the huge ones a count must not be trusted with.
edge_ints = st.sampled_from([-1, 0, 1, 7, 256, 257, 10**9, 2**31, 2**63, 10**30])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | edge_ints | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def field(sensible):
    """A field's sensible value, or one time in five any JSON value at all,
    so that generated documents also get past their first checks."""
    return st.integers(0, 4).flatmap(lambda k: json_values if k == 3 else sensible)


FILES = ("a", "b", "c", "d/e")
paths = field(st.sampled_from([*FILES, "d", "missing", "", "manifest.json"]))
label_files = st.binary(max_size=24) | st.lists(
    st.integers(0, 8) | st.sampled_from([300, 2**31, 10**12]), min_size=1, max_size=4
).map(lambda xs: "".join(f"{x}\n" for x in xs).encode())


def stray(objects, key):
    """`objects`, or one time in five the same object with `key`, which a
    manifest does not take there, added."""
    return st.tuples(objects, st.integers(0, 4)).map(lambda o: {**o[0], key: 0} if o[1] == 3 else o[0])


entries = stray(st.fixed_dictionaries(
    {
        "id": field(st.integers(1, 3)),
        "annotation": paths,
        "predictions": field(st.dictionaries(st.sampled_from(["r0", "r1"]), paths, min_size=1, max_size=2)),
    }
), "ids")
manifests = field(stray(st.fixed_dictionaries(
    {"phase_count": field(st.integers(1, 8)), "videos": field(st.lists(field(entries), min_size=1, max_size=3))},
    optional={"split": field(st.text(max_size=4))},
), "splt"))


@given(
    st.dictionaries(st.sampled_from(FILES), label_files, max_size=4),
    manifests.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=30),
)
@settings(max_examples=examples(300), deadline=None)
def test_load_manifest_returns_or_raises_a_typed_error(files, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_bytes(data)
        path = root / "manifest.json"
        path.write_bytes(manifest)
        try:
            load_manifest(path)
        except PhaseEvalError:
            pass


vocabulary = st.sampled_from(["unknown", "zero-fill", "corrected", "videos", "32:8:40"])
records = st.fixed_dictionaries(
    {
        "method": field(st.text(max_size=4)),
        "source": field(st.text(max_size=4)),
        "protocol": field(
            st.dictionaries(st.sampled_from([*PROTOCOL_FIELDS, "x"]), field(vocabulary), max_size=4)
        ),
        "metrics": field(
            st.dictionaries(
                st.sampled_from([*METRIC_NAMES[:3], "x"]),
                field(st.fixed_dictionaries({"mean": json_values}, optional={"spread": json_values})),
                max_size=3,
            )
        ),
    },
    optional={"provenance": json_values},
)


@given(
    field(st.lists(field(records), max_size=3)).map(json.dumps)
    | st.text(max_size=30)
    | st.binary(max_size=30)
)
@settings(max_examples=examples(300), deadline=None)
def test_parse_ledger_returns_or_raises_a_typed_error(text):
    try:
        parse_ledger(text)
    except PhaseEvalError:
        pass


def test_undecodable_or_deeply_nested_documents_are_schema_errors(tmp_path):
    """A manifest and a ledger are read and decoded alike: both files are
    read by read_file, the same bytes get the same error class from
    load_manifest and parse_ledger, and the same encodings load."""
    (tmp_path / "a").write_text("0\n")
    (tmp_path / "dir").mkdir()
    os.mkfifo(tmp_path / "fifo")
    for name in ("missing.json", "dir", "fifo", "a/x"):
        for read in (load_manifest, read_file):
            with pytest.raises(MissingFile):
                read(tmp_path / name)
    path = tmp_path / "doc.json"
    for data in (b"[\x80]", b"[" * 100_000, b'{"a": 1, "a": 1}'):
        path.write_bytes(data)
        with pytest.raises(SchemaError):
            load_manifest(path)
        with pytest.raises(SchemaError):
            parse_ledger(data)
    video = {"id": 1, "annotation": "a", "predictions": {"r0": "a"}}
    record = {"method": "m", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}

    def loads(text):
        """Whether parse_json returns a document for the text rather than
        raising SchemaError; any other error propagates."""
        try:
            return parse_json(text, "document") is not None
        except SchemaError:
            return False

    def manifest_with(split):
        return json.dumps({"phase_count": 1, "split": split, "videos": [video]})

    def ledger_with(method):
        return json.dumps([{**record, "method": method}])

    # A lone surrogate, escaped or passed through by the decoding, in a key
    # or a value at any depth, has no UTF-8 form, so no report or leaderboard
    # could carry it; the first in document order is named.
    for data, first in (
        (manifest_with("\ud800").encode(), "\ud800"),
        (ledger_with("\udc80").encode(), "\udc80"),
        (manifest_with("x").replace('"x"', '"\ud800"').encode("utf-8", "surrogatepass"), "\ud800"),
        (ledger_with("x").replace('"x"', '"\udfff"').encode("utf-16", "surrogatepass"), "\udfff"),
        (json.dumps({"phase_count": 1, "\udc00": "\ud800", "videos": [video]}).encode(), "\udc00"),
        (json.dumps([{**record, "provenance": [["x", ["\udbff"]]]}]).encode(), "\udbff"),
        (json.dumps({"b": [["x", "\udfff"]], "a": "\ud800"}).encode(), "\udfff"),
    ):
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=f"lone surrogate {re.escape(repr(first))}$"):
            load_manifest(path)
        with pytest.raises(SchemaError, match=f"lone surrogate {re.escape(repr(first))}$"):
            parse_ledger(data)
    # A non-ASCII document as deep as the decoder takes is re-encoded to look
    # for a surrogate: it loads, or is a SchemaError, never a RecursionError.
    for nest in (
        lambda depth, s: "[" * depth + f'"{s}"' + "]" * depth,
        lambda depth, s: f'{{"{s}": ' * depth + "0" + "}" * depth,
    ):
        deepest = next(d for d in range(sys.getrecursionlimit(), 0, -1) if loads(nest(d, "e")))
        assert loads(nest(deepest, "\xe9"))
        for depth in range(deepest - 3, deepest + 4):
            loads(nest(depth, "\xe9"))
    # An escaped surrogate pair spells one character, which loads.
    assert json.dumps("\U0001f600") == '"\\ud83d\\ude00"'
    path.write_text(manifest_with("\U0001f600"))
    assert load_manifest(path).split == "\U0001f600"
    path.write_text(ledger_with("\U0001f600"))
    assert parse_ledger(read_file(path))[0].method == "\U0001f600"
    manifest = json.dumps({"phase_count": 1, "videos": [video]})
    seed = SEED_LEDGER.read_text(encoding="utf-8")
    for encoding in ("utf-8-sig", "utf-16", "utf-16-le", "utf-32"):
        path.write_bytes(manifest.encode(encoding))
        assert load_manifest(path).videos == (1,)
        assert parse_ledger(seed.encode(encoding)) == seed_ledger()
