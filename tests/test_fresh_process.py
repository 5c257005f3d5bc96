"""What a fresh interpreter sees: the modules each entry point imports, the
thread default numpy starts under, and the bytes the CLI writes to stdout."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phaseeval import vocab
from phaseeval.cli import main

SRC = Path(__file__).parents[1] / "src"

# Prints, after the snippet has run, the value OPENBLAS_NUM_THREADS had when
# numpy was first looked up and the phaseeval and numpy modules loaded.
_PROBE = """
import json, os, sys
blas = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not blas:
            blas.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
{snippet}
loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "phaseeval")
print(json.dumps({{"blas": blas, "modules": loaded}}))
"""


def _python(args, **env):
    """Run a fresh interpreter on this checkout's package, without a thread
    setting of its own."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**base, "PYTHONPATH": path, **env},
        capture_output=True, check=True, timeout=120,
    )


def _probe(snippet: str) -> dict:
    out = _python(["-c", _PROBE.format(snippet=snippet)])
    return json.loads(out.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize(
    "snippet",
    [
        "import phaseeval.cli",
        "import phaseeval.protocol",
        "from phaseeval.cli import main\n"
        "main(['compare', '--ref', 'split=32:8:40', '--out', os.devnull])",
        "from phaseeval.cli import main\nmain(['splits', '--list', '--out', os.devnull])",
    ],
)
def test_protocol_side_never_imports_numpy(snippet):
    loaded = _probe(snippet)
    assert "numpy" not in loaded["modules"] and loaded["blas"] == []


def test_loading_a_corpus_imports_only_the_load_path():
    loaded = _probe("from phaseeval.io import load_manifest")
    mods = ("phaseeval", *(f"phaseeval.{m}" for m in ("core", "errors", "io", "vocab")))
    assert [m for m in loaded["modules"] if m.startswith("phaseeval")] == list(mods)


def test_numpy_starts_with_one_blas_thread(tmp_path):
    manifest = tmp_path / "c" / "manifest.json"
    assert main(["synth", "--out-dir", str(manifest.parent), "--videos", "2"]) == 0
    loaded = _probe(
        "from phaseeval.cli import main\n"
        f"main(['evaluate', {str(manifest)!r}, '--out', os.devnull])"
    )
    assert loaded["blas"] == ["1"] and "phaseeval.pipeline" in loaded["modules"]


# Every name vocab holds, at each module path it was importable from before.
_OLD_PATHS = {
    "aggregate": ("AveragingOrder", "StdMode", "MetricSummary", "RaggedRuns"),
    "metrics": ("UndefinedPolicy",),
    "relaxed": ("MatrixMode", "OMEGA_MAX"),
    "confusion": ("LengthMismatch",),
    "io": ("SchemaError", "RaggedRuns", "LengthMismatch", "canonical_json", "REPORT_FORMATS",
           "MissingFile"),
    "core": ("MAX_PHASES", "UnknownSplit", "SplitDefinition", "resolve_split", "cv_folds",
             "builtin_split_names"),
    "protocol": ("METRIC_NAMES", "SchemaError", "canonical_json", "UndefinedPolicy", "StdMode"),
    "cli": ("AveragingOrder", "StdMode", "UndefinedPolicy", "MatrixMode", "OMEGA_MAX",
            "MAX_PHASES", "METRIC_NAMES", "REPORT_FORMATS", "SchemaError", "UnknownSplit",
            "canonical_json", "resolve_split", "cv_folds", "builtin_split_names"),
}


@pytest.mark.parametrize("module", sorted(_OLD_PATHS))
def test_old_import_paths_re_export_the_vocab_objects(module):
    old = importlib.import_module(f"phaseeval.{module}")
    for name in _OLD_PATHS[module]:
        assert getattr(old, name) is getattr(vocab, name), name


def test_omega_max_is_the_int64_maximum():
    assert vocab.OMEGA_MAX == np.iinfo(np.int64).max


def _stdout_and_file(args, tmp_path, encoding):
    out = tmp_path / f"out-{encoding}"
    shown = _python(["-m", "phaseeval.cli", *args], PYTHONIOENCODING=encoding).stdout
    _python(["-m", "phaseeval.cli", *args, "--out", str(out)], PYTHONIOENCODING=encoding)
    return shown, out.read_bytes()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_carries_the_out_file_bytes_whatever_the_locale(tmp_path, encoding):
    corpus = tmp_path / "c"
    assert main(["synth", "--out-dir", str(corpus), "--videos", "2", "--runs", "2"]) == 0
    manifest = corpus / "manifest.json"
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, "split": "32:8:40é"}))
    ledger = tmp_path / "ledger.json"
    record = {"method": "Méthode 中", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}
    ledger.write_text(json.dumps([record]))
    for args, text in [
        (["evaluate", str(manifest)], "32:8:40é"),
        (["compare", "--ledger", str(ledger)], "Méthode 中"),
    ]:
        shown, written = _stdout_and_file(args, tmp_path, encoding)
        assert shown == written and text.encode("utf-8") in written


def test_synth_prints_its_manifest_path_as_bytes_whatever_the_locale(tmp_path):
    out = tmp_path / "synth-é"
    args = ["-m", "phaseeval.cli", "synth", "--out-dir", str(out), "--videos", "1"]
    shown = _python(args, PYTHONIOENCODING="ascii").stdout  # raises unless it exits 0
    assert shown == os.fsencode(out / "manifest.json") + b"\n"
