"""Random manifests, label files, ledgers and flags through `cli.main`.

Whatever a user hands the `evaluate`, `relaxed`, `compare` and `splits`
commands, `main` exits 0 with output that parses back, exits 1 with one
error line, or raises SystemExit(2) for a usage error, and only a command
that succeeds writes its `--out` file, the same bytes each time it runs.
Generated corpora and ledgers are tiny and often valid, so both the
writers and the refusals are reached."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from phaseeval.cli import main
from phaseeval.protocol import PROTOCOL_FIELDS
from phaseeval.vocab import CONTROL_CHARACTERS, METRIC_NAMES, AveragingOrder, MatrixMode
from phaseeval.vocab import StdMode, UndefinedPolicy, builtin_split_names, canonical_json
from phaseeval.vocab import parse_json

pytestmark = pytest.mark.thorough


def mostly(valid, invalid):
    """A value from `valid`, or one time in eight from `invalid`, so that a
    draw often gets past every check and the output is read back too."""
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 3 else valid)


SIZES = [1, 2, 7, 10, 256]
phase_counts = mostly(st.sampled_from(SIZES), st.sampled_from([0, -1, 257, True, 7.0, "7", None]))
# Splits of any script, and ones holding a character at which
# str.splitlines breaks a line.
splits = mostly(
    st.sampled_from([None, "32:8:40", "any", "café", "분할", "a\u00a0b", "\U0001d7d8"]),
    st.sampled_from(["", "a\nb", "a\u2028b", "a\x85b", "a\x1cb", "a\x0bb", 5]),
)
# A path that names no label file, or one that an error line must escape.
odd_paths = st.sampled_from(["missing.txt", ".", "", "v\x00.txt", "v\n.txt"])
run_sets = mostly(
    st.lists(st.sampled_from(["r0", "r1"]), min_size=1, max_size=2, unique=True), st.just([])
)


@st.composite
def corpora(draw):
    """A manifest's bytes and its label files by relative path: 0-3 videos
    of 0-2 runs, each file `frames` digit lines below `top`, the phase count
    but for one time in eight, or one time in twenty a few random bytes;
    one annotation path in eight names no file."""
    phase_count = draw(phase_counts)
    sized = phase_count in SIZES and type(phase_count) is int
    top = draw(mostly(st.just(phase_count if sized else 7), st.sampled_from(SIZES)))
    runs = draw(run_sets)
    files, videos = {}, []
    for vid in range(1, draw(mostly(st.integers(1, 3), st.just(0))) + 1):
        frames = draw(st.integers(1, 12))
        names = [f"v{vid}.txt", *(f"v{vid}{r}.txt" for r in runs)]
        for name in names:
            if draw(st.integers(0, 19)) == 3:
                files[name] = draw(st.binary(max_size=8))
            else:
                labels = draw(st.lists(st.integers(0, top - 1), min_size=frames, max_size=frames))
                files[name] = "".join(f"{x}\n" for x in labels).encode()
        annotation = draw(mostly(st.just(names[0]), odd_paths))
        videos.append({"id": vid, "annotation": annotation, "predictions": dict(zip(runs, names[1:]))})
    doc = {"phase_count": phase_count, "videos": videos}
    if (split := draw(splits)) is not None:
        doc["split"] = split
    return json.dumps(doc).encode(), files


def flag(name, valid, *invalid):
    """No flag, or `name` with a value from `valid`, or one time in eight
    from `invalid`."""
    return st.just([]) | mostly(st.sampled_from(valid), st.sampled_from(invalid)).map(
        lambda v: [name, v]
    )


def switch(name):
    return st.sampled_from([[], [name]])


def values(enum):
    return [m.value for m in enum]


OUT, UNWRITABLE = "out", "missing/out"  # under the example's directory
evaluate_flags = [
    flag("--policy", values(UndefinedPolicy), "bogus"),
    flag("--order", values(AveragingOrder), "Flat"),
    flag("--std-mode", values(StdMode), ""),
]
relaxed_flags = [
    flag("--omega", ["0", "1", "2", "5"], "-1", "x", "1.5", "99999999999", "\u0663"),
    flag("--matrices", values(MatrixMode), "grid"),
    switch("--truncate"),
    switch("--bug-compat"),
]
output_flags = [
    flag("--format", ["json", "csv", "md"], "xml"),
    flag("--out", ["-", OUT], UNWRITABLE),
]
commands = st.one_of(
    st.tuples(st.just(["evaluate"]), *evaluate_flags, *output_flags),
    st.tuples(st.just(["relaxed"]), *relaxed_flags, *output_flags),
).map(lambda parts: sum(parts, []))


def _check_output(data: bytes, fmt: str) -> None:
    """A report in `fmt` that reads back: json through the package's own
    decoder, csv rows all of one width, md as UTF-8 under its title."""
    if fmt == "json":
        assert isinstance(parse_json(data, "report"), dict)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        assert rows and len({len(row) for row in rows}) == 1
    else:
        assert data.decode("utf-8").startswith("# Evaluation report\n")


def _run(argv: list[str]) -> tuple[int, bytes, str]:
    """cli.main(argv) in process: its exit code, stdout bytes and stderr."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, exc.code
            code = 2
    stdout.flush()
    return code, stdout.buffer.getvalue(), stderr.getvalue()


@given(corpora(), commands, mostly(st.just("manifest.json"), st.sampled_from(["missing", "."])))
@settings(max_examples=examples(150), deadline=None)
def test_main_exits_0_1_or_2_and_its_output_reads_back(corpus, argv, manifest):
    """An exit-0 draw, run again in the same directory, writes the same
    stdout and `--out` bytes."""
    manifest_bytes, files = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "manifest.json").write_bytes(manifest_bytes)
        for name, data in files.items():
            (root / name).write_bytes(data)
        argv = [argv[0], str(root / manifest)] + [
            str(root / a) if a in (OUT, UNWRITABLE) else a for a in argv[1:]
        ]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"

        def read_back(report: bytes) -> None:
            _check_output(report, fmt)
            if fmt == "md":
                _check_md_lines(root, argv, report)

        _check_main(root, argv, read_back)


def _check_md_lines(root: Path, argv: list[str], report: bytes) -> None:
    """`report`, a md report of root/manifest.json, has as many lines
    under str.splitlines() as the same report of the manifest with its
    split, if it has one, named in ASCII."""
    doc = json.loads((root / "manifest.json").read_bytes())
    if "split" in doc:
        doc["split"] = "ascii"
    (root / "ascii.json").write_text(json.dumps(doc))
    plain = [argv[0], str(root / "ascii.json"), *argv[2:]]
    if "--out" in plain:
        plain[plain.index("--out") + 1] = "-"
    code, out, _ = _run(plain)
    assert code == 0
    assert len(report.decode("utf-8").splitlines()) == len(out.decode("utf-8").splitlines())


def _check_main(root: Path, argv: list[str], read_back) -> None:
    """main(argv) exits 0, 1 or 2; on failure it writes nothing to stdout or
    `--out` under `root`, and on exit 1 one error line with no control
    character; on success `read_back` takes its output, and a second run
    gives the same stdout, stderr and `--out` bytes."""
    code, out, err = _run(argv)
    written = root / OUT
    assert code in (0, 1, 2)
    if code:
        assert not written.exists() and not (root / UNWRITABLE).exists()
        assert not out
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not CONTROL_CHARACTERS.search(err[:-1]), err
    if code == 0:
        output = written.read_bytes() if written.exists() else out
        read_back(output)
        again = _run(argv)
        assert again == (0, out, err)
        assert (written.read_bytes() if written.exists() else again[1]) == output


# Ledgers: lists of valid records but for one in eight, which has one
# value of a wrong type or out of range; or one time in eight random
# bytes or a document of the wrong type.
amounts = st.floats(0, 1)
valid_records = st.fixed_dictionaries(
    {
        "method": st.sampled_from([f"m{i}" for i in range(6)]),
        "source": st.just("s"),
        "metrics": st.dictionaries(
            st.sampled_from(METRIC_NAMES),
            st.fixed_dictionaries({"mean": amounts}, optional={"spread": amounts}),
            min_size=1,
            max_size=2,
        ),
    },
    optional={
        "protocol": st.fixed_dictionaries({}, optional={
            "split": st.sampled_from(["32:8:40", "60:20", "unknown"]),
            "relaxed": st.booleans(),
            "omega": st.integers(0, 20),
            "policy": st.sampled_from(values(UndefinedPolicy)),
            "runs": st.integers(1, 5) | st.just("unknown"),
        }),
        "provenance": st.just("p"),
    },
)
bad_fields = st.sampled_from([
    {"method": 7}, {"source": None}, {"provenance": 3}, {"extra": 1},
    *({"metrics": m} for m in ({}, [], {"bogus": {"mean": 0.5}}, {"f1": {"spread": 0.1}})),
    *({"metrics": {"f1": {"mean": x}}} for x in (-0.5, True, "0.5", float("inf"))),
    *({"protocol": p} for p in ([], {"banana": 1}, {"split": ""}, {"split": 5}, {"runs": 0})),
    *({"protocol": {"omega": x}} for x in (-1, 2**63, 10**30, True, 1.0)),
])
records = mostly(valid_records, st.tuples(valid_records, bad_fields).map(lambda r: {**r[0], **r[1]}))
ledgers = mostly(
    st.lists(records, min_size=1, max_size=3).map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=8) | st.sampled_from([b"[]", b"{}", b"5", b'[1, "x"]']),
)
# --ref pairs: known or unknown keys, any one of which may repeat, with
# values of the key's type or, one time in eight, of another, huge,
# negative or not ASCII.
TEXT = {str: ("32:8:40", "60:20"), bool: ("true", "false"), int: ("1", "10")}


def ref_pair(key: str):
    """A --ref pair of `key`, with "unknown" or a value of its type."""
    field = PROTOCOL_FIELDS[key]
    valid = ["unknown", *(field.vocabulary or TEXT[field.kind])]
    invalid = ["-3", "9" * 30, "1.5", "", "\u0663", "caf\u00e9", "a\nb", "true", "10"]
    return mostly(st.sampled_from(valid), st.sampled_from(invalid)).map(lambda v: [f"{key}={v}"])


refs = st.lists(
    mostly(
        st.sampled_from(list(PROTOCOL_FIELDS)).flatmap(ref_pair),
        st.sampled_from([["banana=1"], ["split"], ["=10"], ["\u00e9=1"]]),
    ).map(lambda pair: ["--ref", *pair]),
    max_size=3,
).map(lambda pairs: sum(pairs, []))
LEDGER = "ledger.json"  # under the example's directory, as OUT is
compare_argv = st.tuples(
    st.just(["compare"]),
    mostly(st.sampled_from([[], ["--ledger", LEDGER]]), st.just(["--ledger", "missing"])),
    refs,
    flag("--sort-metric", list(METRIC_NAMES), "bogus"),
    flag("--out", ["-", OUT], UNWRITABLE),
).map(lambda parts: sum(parts, []))
splits_argv = st.tuples(
    st.just(["splits"]),
    mostly(
        st.sampled_from([[name] for name in builtin_split_names()] + [["--list"]]),
        st.sampled_from([[], ["nope"], [""], ["a\nb"], ["60:20", "--list"]]),
    ),
    flag("--out", ["-", OUT], UNWRITABLE),
).map(lambda parts: sum(parts, []))


def _canonical(data: bytes) -> None:
    """JSON that reads back, written as its own canonical_json."""
    assert data.decode("utf-8") == canonical_json(parse_json(data, "output")) + "\n"


@given(ledgers, compare_argv | splits_argv)
@settings(max_examples=examples(100), deadline=None)
def test_compare_and_splits_exit_0_1_or_2_and_their_output_reads_back(ledger, argv):
    """Ledgers, references, sort metrics and split names hold each property
    that manifests and report flags do."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / LEDGER).write_bytes(ledger)
        argv = [str(root / a) if a in (OUT, UNWRITABLE, LEDGER, "missing") else a for a in argv]
        _check_main(root, argv, _canonical)
