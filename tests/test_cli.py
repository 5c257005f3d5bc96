"""End-to-end behavior of the command-line interface."""

import json
import re
import shlex
from importlib import resources
from pathlib import Path

import pytest

from phaseeval import cli
from phaseeval.cli import main
from phaseeval.errors import PhaseEvalError
from phaseeval.synth import MAX_FRAMES, InvalidSynthSettings, check_settings, generate_corpus
from phaseeval.vocab import canonical_json

README = Path(__file__).parents[1] / "README.md"
GOLDEN_CLI = Path(__file__).parent / "data" / "cli"

GOLDEN_Y = [3] * 3 + [4] * 6 + [5] * 6 + [6] * 3
GOLDEN_P = [3, 5, 4, 4, 3, 3, 3, 4, 6, 3, 4, 4, 6, 5, 6, 5, 4, 6]


def _write_corpus(root, sequences, phase_count=7, split=None):
    """sequences: {vid: (annotation, {run: prediction})}"""
    videos = []
    for vid, (ann, runs) in sorted(sequences.items()):
        d = root / f"video{vid:02d}"
        d.mkdir()
        (d / "annotation.txt").write_text("".join(f"{x}\n" for x in ann))
        entry = {
            "id": vid,
            "annotation": f"video{vid:02d}/annotation.txt",
            "predictions": {},
        }
        for run, pred in sorted(runs.items()):
            (d / f"{run}.txt").write_text("".join(f"{x}\n" for x in pred))
            entry["predictions"][run] = f"video{vid:02d}/{run}.txt"
        videos.append(entry)
    manifest = {"phase_count": phase_count, "videos": videos}
    if split:
        manifest["split"] = split
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def _run_json(capsys, argv):
    code = main(argv)
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["synth", "--videos", "3", "--runs", "2", "--seed", "11",
            "--boundary-shift", "1", "--flip-rate", "0.05", "--min-len", "6"]
    assert main(argv + ["--out-dir", str(a)]) == 0
    assert main(argv + ["--out-dir", str(b)]) == 0
    rel = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rel == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for r in rel:
        assert (a / r).read_bytes() == (b / r).read_bytes()


def test_synth_noise_free_predictions_match_annotations(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["synth", "--out-dir", str(out), "--videos", "2", "--seed", "3"]) == 0
    capsys.readouterr()
    for vdir in sorted(out.glob("video*")):
        ann = (vdir / "annotation.txt").read_bytes()
        assert (vdir / "r0.txt").read_bytes() == ann


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--out-dir", "x", "--flip-rate", "1.5"],
        ["synth", "--out-dir", "x", "--videos", "0"],
        ["synth", "--out-dir", "x", "--boundary-shift", "4", "--min-len", "8"],
        ["synth", "--out-dir", "x", "--phase-count", "1"],
        ["relaxed", "m.json", "--bug-compat"],
        ["relaxed", "m.json", "--omega", "-1"],
        ["relaxed", "m.json", "--omega", "99999999999999999999"],
        ["relaxed", "m.json", "--omega", "99999999999999999999", "--matrices", "legacy",
         "--truncate", "--bug-compat"],
        ["compare", "--ref", "split"],
        ["compare", "--ref", "relaxed=si"],
        ["compare", "--ref", "banana=1"],
        ["splits"],
        ["splits", "70:10"],
        ["evaluate", "m.json", "--jobs", "4"],
        ["relaxed", "m.json", "--jobs", "4"],
        ["compare", "--ref", "omega=true"],
        ["compare", "--sort-metric", "bogus"],
        # integer flags take ASCII decimals only, as --ref does
        ["relaxed", "m.json", "--omega", "\u0663"],  # an Arabic-Indic three
        ["relaxed", "m.json", "--omega", "1_0"],
        ["relaxed", "m.json", "--omega", " 4 "],
        ["relaxed", "m.json", "--omega", "+3"],
        ["synth", "--out-dir", "x", "--videos", "+3"],
        ["synth", "--out-dir", "x", "--runs", "1_0"],
        ["synth", "--out-dir", "x", "--seed", " 4 "],
        ["synth", "--out-dir", "x", "--phase-count", "\u0663"],
        ["synth", "--out-dir", "x", "--min-len", "1_0"],
        ["synth", "--out-dir", "x", "--max-len", "+30"],
        ["synth", "--out-dir", "x", "--boundary-shift", "\u0663"],
        ["splits", "40:40", "--list"],
        ["relaxed", "m.json", "--truncate", "--bug-compat", "--matrices", "graph"],
        ["synth", "--out-dir", "x", "--boundary-shift", "-1"],
        ["synth", "--out-dir", "x", "--max-len", "4", "--min-len", "8"],
        ["synth", "--out-dir", "x", "--videos", "1", "--min-len", "200000000",
         "--max-len", "200000000"],
        ["splits", "nope", "--out", "F"],
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch):
    """Each is refused before any file IO: nothing is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "refs, message",
    [
        (["runs=1_000"], "takes an integer or unknown"),
        (["omega=+5"], "takes an integer or unknown"),
        (["omega= 7"], "takes an integer or unknown"),
        (["runs=\u0665"], "takes an integer or unknown"),  # an Arabic-Indic five
        (["omega=-1"], "omega must be non-negative"),
        (["split=a", "split=b"], "'split' given twice"),
        (["runs=unknown", "runs=3"], "'runs' given twice"),
        (["omega=\u0663"], "takes an integer or unknown"),
        (["omega=1_0"], "takes an integer or unknown"),
        (["split="], "reference: split_name must not be empty"),
        (["omega=99999999999999999999999"], f"omega must be non-negative and at most {2**63 - 1}"),
        (["omega=9223372036854775808"], f"and at most {2**63 - 1}"),
    ],
)
def test_bad_reference_exits_2(refs, message, capsys):
    argv = ["compare"]
    for r in refs:
        argv += ["--ref", r]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_evaluate_perfect_predictions(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["synth", "--out-dir", str(out), "--videos", "3", "--runs", "2",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    report = _run_json(capsys, ["evaluate", str(out / "manifest.json")])
    for name in ("precision", "recall", "f1", "jaccard", "accuracy"):
        s = report["summary"][name]
        assert s["mean"] == 1.0
        for k in ("sd_videos", "sd_runs"):
            assert s[k] in (0.0, None)


def test_evaluate_report_shape(tmp_path, capsys):
    path = _write_corpus(
        tmp_path,
        {1: ([0, 0, 1, 1], {"r0": [0, 1, 1, 1]})},
        phase_count=3,
        split="60:20",
    )
    report = _run_json(capsys, ["evaluate", str(path)])
    assert report["protocol"] == {
        "order": "flat",
        "policy": "exclude-missing-phase",
        "relaxed": False,
        "runs": 1,
        "split": "60:20",
        "std_mode": "corrected",
    }
    assert report["format_version"] == "1"
    assert set(report["per_phase"]) == {"0", "1", "2"}
    # phase 2 unannotated and never predicted: excluded everywhere
    assert report["per_phase"]["2"]["precision"]["mean"] is None
    assert report["summary"]["accuracy"]["mean"] == 0.75


def test_relaxed_golden_fixture(tmp_path, capsys):
    path = _write_corpus(tmp_path, {1: (GOLDEN_Y, {"r0": GOLDEN_P})})
    report = _run_json(capsys, ["relaxed", str(path), "--omega", "2"])
    assert report["protocol"]["relaxed"] is True
    assert report["protocol"]["omega"] == 2
    assert report["per_phase"]["4"]["relaxed_jaccard"]["mean"] == 0.7


def test_relaxed_omega_zero_matches_evaluate(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["synth", "--out-dir", str(out), "--videos", "4", "--runs", "2",
                 "--seed", "21", "--boundary-shift", "1", "--flip-rate", "0.2",
                 "--min-len", "6"]) == 0
    capsys.readouterr()
    regular = _run_json(capsys, ["evaluate", str(out / "manifest.json")])
    relaxed = _run_json(
        capsys, ["relaxed", str(out / "manifest.json"), "--omega", "0"]
    )
    for kind in ("precision", "recall", "jaccard"):
        assert relaxed["summary"]["relaxed_" + kind] == regular["summary"][kind]
        for p, block in regular["per_phase"].items():
            assert relaxed["per_phase"][p]["relaxed_" + kind] == block[kind]
    assert relaxed["summary"]["relaxed_accuracy"] == regular["summary"]["accuracy"]


def test_bug_compat_watermark_in_every_format(tmp_path, capsys):
    path = _write_corpus(tmp_path, {1: (GOLDEN_Y, {"r0": GOLDEN_P})})
    for fmt in ("json", "csv", "md"):
        assert main(["relaxed", str(path), "--omega", "2", "--truncate",
                     "--bug-compat", "--format", fmt]) == 0
        assert "legacy-bug-compatible" in capsys.readouterr().out


def test_bug_compat_short_segment_is_an_evaluation_error(tmp_path, capsys):
    path = _write_corpus(tmp_path, {1: ([0, 0, 1, 0, 0], {"r0": [0] * 5})})
    code = main(["relaxed", str(path), "--omega", "3", "--truncate", "--bug-compat"])
    assert code == 1
    assert "shorter than omega" in capsys.readouterr().err


def test_compare_single_entry_no_findings(tmp_path, capsys):
    protocol = {
        "split": "60:20",
        "relaxed": False,
        "omega": "unknown",
        "policy": "exclude-missing-phase",
        "f1_variant": "mean-of-harmonic",
        "std_source": "runs",
        "std_mode": "corrected",
        "runs": 3,
        "trained_on_validation": False,
    }
    ledger = [
        {
            "method": "m",
            "source": "s",
            "protocol": protocol,
            "metrics": {"accuracy": {"mean": 0.9}},
        }
    ]
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger))
    refs = [
        "split=60:20", "relaxed=false", "policy=exclude-missing-phase",
        "f1_variant=mean-of-harmonic", "std_source=runs",
        "std_mode=corrected", "runs=3", "trained_on_validation=false",
    ]
    argv = ["compare", "--ledger", str(path)]
    for r in refs:
        argv += ["--ref", r]
    out = _run_json(capsys, argv)
    assert len(out["groups"]) == 1
    assert out["groups"][0]["findings"] == []
    assert out["groups"][0]["verdict"] == "comparable"


def test_compare_malformed_ledger_exits_1(tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text("{\"not\": \"a list\"}")
    assert main(["compare", "--ledger", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "metric",
    [
        '{"mean": 1e999}',
        '{"mean": NaN}',
        '{"mean": -0.1}',
        '{"mean": 1' + "0" * 400 + '}',
        '{"mean": 0.5, "spread": -0.5}',
        '{"mean": 0.5, "spread": Infinity}',
        '{"mean": 0.5, "spread": NaN}',
    ],
)
def test_compare_ledger_value_not_finite_or_negative_exits_1(tmp_path, capsys, metric):
    path = tmp_path / "ledger.json"
    path.write_text(
        '[{"method": "m", "source": "s", "metrics": {"accuracy": %s}}]' % metric
    )
    assert main(["compare", "--ledger", str(path)]) == 1
    err = capsys.readouterr().err
    assert "finite and non-negative" in err and "Traceback" not in err


def test_compare_seed_ledger_groups_relaxed_apart(capsys):
    out = _run_json(
        capsys,
        ["compare", "--ref", "split=32:8:40", "--ref", "relaxed=false"],
    )
    relaxed_groups = [
        g
        for g in out["groups"]
        if any(f["field"] == "relaxed" and f["severity"] == "hard"
               for f in g["findings"])
    ]
    assert relaxed_groups
    assert all(g["verdict"] == "incomparable" for g in relaxed_groups)


def test_splits_output(capsys):
    assert main(["splits", "40:40"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["validation"] == []
    assert len(obj["train"]) == 40 and len(obj["test"]) == 40
    assert main(["splits", "48:12:20-cv"]) == 0
    folds = json.loads(capsys.readouterr().out)
    assert isinstance(folds, list) and len(folds) == 5


def _outcome(argv, capsys):
    """main's exit code, stdout and stderr for argv."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "-h"] for command in ("evaluate", "relaxed", "compare", "synth", "splits")),
        ["-h"],
        [],
        ["bogus"],
        ["-x", "evaluate"],
        ["relaxed", "--omega", "x"],
        ["relaxed", "m.json", "--bug-compat"],
        ["synth"],
        ["splits"],
        ["compare", "--ref", "omega=-1"],
    ],
    ids=shlex.join,
)
def test_parser_for_the_invoked_command_reads_as_the_full_parser(argv, capsys, monkeypatch):
    """main builds the arguments of the command in argv only; what it prints
    and returns is what a parser with every command's arguments gives."""
    lazy = _outcome(argv, capsys)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command: full_parser())
    assert _outcome(argv, capsys) == lazy
    assert lazy[0] in (0, 2)


def test_missing_manifest_exits_1(capsys):
    assert main(["evaluate", "/nonexistent/manifest.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["evaluate"], ["relaxed", "--omega", "1"]])
def test_unknown_manifest_key_exits_1(tmp_path, capsys, argv):
    """A misspelt split is refused, not reported as `split: unknown`."""
    y = [0, 0, 1]
    path = _write_corpus(tmp_path, {1: (y, {"r0": y})})
    path.write_text(path.read_text().replace('"phase_count"', '"splt": "32:8:40", "phase_count"'))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: manifest: unknown key 'splt'\n" and captured.out == ""


def test_a_split_with_a_line_break_exits_1(tmp_path, capsys):
    """The md report would cut its Protocol line at the split's line break
    and go on with a heading of the manifest's making."""
    y = [0, 0, 1]
    path = _write_corpus(tmp_path, {1: (y, {"r0": y})}, split="x\n# injected")
    assert main(["evaluate", str(path), "--format", "md"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: split 'x\\n# injected' holds a control character\n"
    assert captured.out == ""


@pytest.mark.parametrize("separator", ["\u2028", "\u2029"])
def test_a_split_with_a_unicode_line_separator_exits_1(tmp_path, capsys, separator):
    """str.splitlines breaks at U+2028 and U+2029 too, so the md report's
    Protocol line would split in two."""
    y = [0, 0, 1]
    path = _write_corpus(tmp_path, {1: (y, {"r0": y})}, split=f"x{separator}# injected")
    assert main(["evaluate", str(path), "--format", "md"]) == 1
    captured = capsys.readouterr()
    escaped = repr(separator)[1:-1]
    assert captured.err == f"error: split 'x{escaped}# injected' holds a control character\n"
    assert captured.out == ""


def test_an_error_line_escapes_the_control_characters_of_its_message(tmp_path, capsys):
    """A label path holding a NUL, a tab and a line separator is named in
    the error line with each of them escaped, so the line holds no control
    character but its final newline."""
    y = [0, 0, 1]
    path = _write_corpus(tmp_path, {1: (y, {"r0": y})})
    manifest = json.loads(path.read_text())
    manifest["videos"][0]["annotation"] = "c/x\x00y\t\u2028z.txt"
    path.write_text(json.dumps(manifest))
    assert main(["evaluate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("c/x\\x00y\\t\\u2028z.txt\n")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.splitlines()) == 1
    assert all(c.isprintable() for c in captured.err[:-1])


def test_compare_missing_ledger_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["compare", "--ledger", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: {missing}\n"


def test_a_lone_surrogate_in_a_manifest_or_ledger_exits_1(tmp_path, capsys):
    """No output could encode it, so it is refused with the document, before
    any report is written."""
    y = [0, 0, 1]
    manifest = _write_corpus(tmp_path, {1: (y, {"r0": y})}, split="\ud800")
    ledger = tmp_path / "ledger.json"
    record = {"method": "\udc80", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}
    ledger.write_text(json.dumps([record]))
    for argv, what in (
        (["evaluate", str(manifest)], "manifest"),
        (["compare", "--ledger", str(ledger)], "ledger"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {what} is not valid JSON: ")
        assert "lone surrogate" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("phase_count", [1, 5])
def test_relaxed_legacy_grids_on_non_7_phase_corpus_exit_1(tmp_path, capsys, phase_count):
    y = [min(p, phase_count - 1) for p in (0, 0, 1, 1, 4)]
    path = _write_corpus(tmp_path, {1: (y, {"r0": y})}, phase_count=phase_count)
    assert main(["relaxed", str(path)]) == 1
    assert "7-phase" in capsys.readouterr().err
    assert main(["relaxed", str(path), "--matrices", "graph"]) == 0


def test_label_wider_than_int32_exits_1(tmp_path, capsys):
    path = _write_corpus(tmp_path, {1: ([0, 0, 1], {"r0": [0, 0, 1]})})
    (tmp_path / "video01" / "r0.txt").write_text("0\n99999999999999999999999\n1\n")
    assert main(["evaluate", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "no frames"),
        ("0\nx\n1\n", "line 2: not a non-negative integer: 'x'"),
        ("9\n0\n1\n", "label 9 at frame 0 exceeds phase range 0..6"),
    ],
)
def test_label_file_errors_name_the_file(tmp_path, capsys, content, message):
    """An empty, malformed or out-of-range label file is named in the error,
    among the many files a corpus holds."""
    y = [0, 0, 1]
    path = _write_corpus(tmp_path, {1: (y, {"r0": y, "r1": y}), 2: (y, {"r0": y, "r1": y})})
    bad = tmp_path / "video02" / "r1.txt"
    bad.write_text(content)
    assert main(["evaluate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("argv", [["evaluate"], ["relaxed", "--matrices", "graph"]])
def test_phase_count_past_the_maximum_exits_1(tmp_path, capsys, argv):
    """The counts would take phase_count**2 int64 a (video, run) pair: the
    manifest is refused before anything is allocated."""
    path = _write_corpus(tmp_path, {1: ([0, 1], {"r0": [0, 1]})}, phase_count=1_000_000_000)
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "phase_count must be an integer within 1..256" in err
    assert "Traceback" not in err


def test_synth_phase_count_past_the_maximum_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out-dir", str(tmp_path / "c"), "--phase-count", "257"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--phase-count must be within 2..256" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--omega", "-1"], "omega must be within 0..9223372036854775807, got -1"),
        (["--bug-compat"], "bug-compatible mode needs the legacy grids and truncation"),
        (["--truncate", "--bug-compat", "--matrices", "graph"],
         "bug-compatible mode needs the legacy grids and truncation"),
    ],
)
def test_relaxed_usage_errors_carry_the_library_message(flags, message, tmp_path, monkeypatch, capsys):
    """The relaxed rules have one owner each in the library; the CLI maps
    their errors to exit 2 before it reads the (missing) manifest."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["relaxed", "m.json", *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, message",
    [
        ((1, 1, 1, 8, 16, 0, 0.0), "--phase-count must be within 2..256"),
        ((257, 1, 1, 8, 16, 0, 0.0), "--phase-count must be within 2..256"),
        ((7, 0, 1, 8, 16, 0, 0.0), "--videos and --runs must be >= 1"),
        ((7, 1, 0, 8, 16, 0, 0.0), "--videos and --runs must be >= 1"),
        ((7, 1, 1, 8, 16, 0, 2.0), "--flip-rate must be within [0, 1]"),
        ((7, 1, 1, 8, 16, 0, float("nan")), "--flip-rate must be within [0, 1]"),
        ((7, 1, 1, 8, 16, -1, 0.0), "--boundary-shift must be >= 0"),
        ((7, 2, 1, 8, 4, 0, 0.0), "--max-len must be >= --min-len"),
        ((7, 1, 1, 2, 2, 5, 0.0), "--min-len must be at least 2*shift+1"),
        ((7, 1, 1, 2 * 10**8, 2 * 10**8, 0, 0.0),
         "--videos/--runs/--max-len give 3600000000 frames, over 16777216"),
    ],
    ids=["1-phase", "257-phases", "no-videos", "no-runs", "flip-rate-2", "flip-rate-nan",
         "negative-shift", "max-below-min", "min-below-2-shift-plus-1", "too-many-frames"],
)
def test_synth_refuses_each_bad_setting_before_writing(tmp_path, settings, message):
    """The library refuses what the CLI does, with the same message, and
    writes nothing: not even the output directory."""
    out = tmp_path / "c"
    with pytest.raises(InvalidSynthSettings, match=f"^{re.escape(message)}$"):
        generate_corpus(out, *settings, 0)
    assert issubclass(InvalidSynthSettings, PhaseEvalError)
    assert not out.exists()


@pytest.mark.parametrize(
    "phase_count, videos, runs, max_len",
    [(7, 1, 1, MAX_FRAMES // 18), (2, 1, 1, MAX_FRAMES // 4), (8, 2, 3, MAX_FRAMES // 64)],
)
def test_synth_bounds_the_frames_a_corpus_could_hold(phase_count, videos, runs, max_len):
    """videos x (runs + 1) x segments x max_len, where the 7-phase walk has
    up to 9 segments and any other count one a phase: up to MAX_FRAMES is
    allowed, and one more --max-len is refused.  Nothing is generated."""
    check_settings(phase_count, videos, runs, 1, max_len, 0, 0.0)
    with pytest.raises(InvalidSynthSettings, match="frames, over"):
        check_settings(phase_count, videos, runs, 1, max_len + 1, 0, 0.0)


def test_bug_compat_on_a_5_phase_corpus_exits_1(tmp_path, capsys):
    """Bug-compatible mode runs on the legacy grids too, so it is refused
    with the same message as the plain legacy-grid command."""
    out = tmp_path / "c"
    main(["synth", "--out-dir", str(out), "--phase-count", "5", "--min-len", "20", "--max-len", "30"])
    capsys.readouterr()
    errors = []
    for extra in ([], ["--bug-compat"]):
        assert main(["relaxed", str(out / "manifest.json"), "--omega", "2", "--truncate", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert "7-phase" in errors[0]


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("compare-default.json", ["compare"]),
        (
            "compare-split-32-8-40-unrelaxed.json",
            ["compare", "--ref", "split=32:8:40", "--ref", "relaxed=false"],
        ),
        (
            "compare-relaxed-omega10-f1.json",
            ["compare", "--ref", "relaxed=true", "--ref", "omega=10", "--sort-metric", "f1"],
        ),
        ("splits-list.json", ["splits", "--list"]),
        ("splits-32-8-40.json", ["splits", "32:8:40"]),
        # the packaged seed and its dump read as a ledger file rank alike
        ("compare-default.json", ["compare", "--ledger", str(GOLDEN_CLI / "seed-ledger.json")]),
    ],
)
def test_cli_output_matches_golden_bytes(golden, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_CLI / golden).read_bytes()


def test_seed_ledger_dump_matches_golden_bytes():
    """The packaged seed ledger is the golden byte for byte, so `compare
    --ledger` of the golden above reads what `compare` alone reads, and it
    is in the one canonical JSON layout."""
    packaged = (resources.files("phaseeval") / "data" / "seed_ledger.json").read_bytes()
    assert packaged == (GOLDEN_CLI / "seed-ledger.json").read_bytes()
    assert (canonical_json(json.loads(packaged)) + "\n").encode("utf-8") == packaged


def _readme_block(lang, heading):
    """The first fenced `lang` block after `heading` in README."""
    text = README.read_text()
    return re.search(rf"```{lang}\n(.*?)```", text[text.index(heading):], re.S).group(1)


def test_readme_examples_run(tmp_path, capsys):
    block = _readme_block("sh", "## CLI").replace("\\\n", " ")
    commands = [
        shlex.split(line.replace("/tmp/demo", str(tmp_path)), comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("phaseeval ")
    ]
    assert len(commands) == 7
    outputs = []
    for argv in commands:
        assert main(argv) == 0, argv
        outputs.append((argv, capsys.readouterr().out))

    def summary(*words):
        (out,) = [out for argv, out in outputs if set(words) <= set(argv)]
        return json.loads(out)["summary"]

    # the shift-2 corpus is scored perfectly at omega=2, and not without relaxation
    assert summary("relaxed", "graph")["relaxed_accuracy"]["mean"] == 1.0
    assert summary("evaluate")["accuracy"]["mean"] < 1.0

    code = _readme_block("python", "## Library").replace(
        '"manifest.json"', repr(str(tmp_path / "manifest.json"))
    )
    namespace = {}
    exec(code, namespace)
    assert namespace["report"].summary["f1"].mean is not None
    assert capsys.readouterr().out.strip()
