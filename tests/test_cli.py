"""End-to-end behavior of the command-line interface."""

import json

import pytest

from phaseeval.cli import main

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
        ["compare", "--ref", "split"],
        ["compare", "--ref", "relaxed=si"],
        ["compare", "--ref", "banana=1"],
        ["splits"],
        ["splits", "70:10"],
        ["evaluate", "m.json", "--jobs", "4"],
        ["relaxed", "m.json", "--jobs", "4"],
        ["compare", "--ref", "omega=true"],
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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


def test_missing_manifest_exits_1(capsys):
    assert main(["evaluate", "/nonexistent/manifest.json"]) == 1
    assert "error:" in capsys.readouterr().err


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
