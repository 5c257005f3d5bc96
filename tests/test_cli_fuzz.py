"""Random manifests, label files and flags through `cli.main`.

Whatever a user hands the `evaluate` and `relaxed` commands, `main` exits 0
with output that parses back, exits 1 with one error line, or raises
SystemExit(2) for a usage error, and only a command that succeeds writes
its `--out` file, the same bytes each time it runs.  Generated corpora are
tiny and often valid, so both the report writers and the refusals are
reached."""

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
from phaseeval.vocab import CONTROL_CHARACTERS, AveragingOrder, MatrixMode, StdMode
from phaseeval.vocab import UndefinedPolicy, parse_json

pytestmark = pytest.mark.thorough


def mostly(valid, invalid):
    """A value from `valid`, or one time in eight from `invalid`, so that a
    draw often gets past every check and the output is read back too."""
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 3 else valid)


SIZES = [1, 2, 7, 10, 256]
phase_counts = mostly(st.sampled_from(SIZES), st.sampled_from([0, -1, 257, True, 7.0, "7", None]))
splits = mostly(
    st.sampled_from([None, "32:8:40", "any"]), st.sampled_from(["", "a\nb", "a\u2028b", 5])
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
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
            report = written.read_bytes() if written.exists() else out
            _check_output(report, fmt)
            again = _run(argv)
            assert again == (0, out, err)
            assert (written.read_bytes() if written.exists() else again[1]) == report
