"""Self-test of the benchmark at toy scale.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus as corpora  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

TOY = {
    "cholec80-1fps": corpora.CorpusSpec(3, 2, 300, 30, 60, 2, 0.05),
    "cholec80-25fps": corpora.CorpusSpec(2, 2, 900, 100, 180, 10, 0.05),
    "clip-sweep": corpora.CorpusSpec(4, 2, 60, 5, 15, 1, 0.05),
}
TOY_OMEGA = {"cholec80-1fps": 3, "cholec80-25fps": 10, "clip-sweep": 2}


def toy(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], spec=TOY[name], omega=TOY_OMEGA[name])


def bench_metrics(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    lines, result = run.run_benchmark(ROOT, name, 3, 1, trace, toy(name))
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = bench_metrics("per_layer" if trace else "end_to_end")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert sum(line.startswith("oracle ") and line.endswith("PASS") for line in lines) == 3


def _ops_config(tmp_path: Path, name: str, trace: bool, seconds: int = 1) -> dict:
    workload = toy(name)
    data = corpora.generate(tmp_path / "corpus", workload.spec, 5)
    (tmp_path / "out").mkdir()
    return {
        "mode": workload.mode,
        "manifest": str(data.manifest),
        "omega": workload.omega,
        "sequence_pairs": workload.spec.videos * workload.spec.runs,
        "seconds": seconds,
        "trace": trace,
        "out_dir": str(tmp_path / "out"),
        "trace_path": str(tmp_path / "trace.npz"),
    }


def test_corrupted_report_byte_is_a_failed_operation(tmp_path, monkeypatch):
    cfg = _ops_config(tmp_path, "cholec80-1fps", False, seconds=4)
    worker._use_checkout(ROOT)
    import phaseeval.cli as cli

    original = cli.main
    evaluations = []

    def corrupting(argv):
        rc = original(argv)
        if argv[0] == "evaluate":
            evaluations.append(argv)
            if len(evaluations) == 2:
                out = Path(argv[argv.index("--out") + 1])
                data = bytearray(out.read_bytes())
                data[0] ^= 1
                out.write_bytes(bytes(data))
        return rc

    monkeypatch.setattr(cli, "main", corrupting)
    res = worker.run_ops(ROOT, cfg)
    assert len(evaluations) >= 3
    assert res["ops"]["evaluate"]["failed"] == 1
    assert sum(op["failed"] for op in res["ops"].values()) == 1


def _bindings():
    import phaseeval.aggregate

    out = {("ResultTensor", "build"): phaseeval.aggregate.ResultTensor.__dict__["build"]}
    for module in tracing._package_modules():
        for attr, value in vars(module).items():
            if callable(value):
                out[(module.__name__, attr)] = value
    return out


@pytest.mark.parametrize("name", ["cholec80-1fps", "clip-sweep"])
def test_traced_run_restores_every_patched_binding(tmp_path, name):
    cfg = _ops_config(tmp_path, name, True)
    worker._use_checkout(ROOT)
    import phaseeval.cli  # noqa: F401

    before = _bindings()
    res = worker.run_ops(ROOT, cfg)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert res["traced_rounds"] >= 1
    assert res["layers"]["relaxed.relaxed_counts.calls"] > 0
    assert res["layers"]["io.load_manifest.calls"] > 0
    assert (tmp_path / "trace.npz").is_file()


def test_missing_hook_is_reported_absent(monkeypatch):
    worker._use_checkout(ROOT)
    import phaseeval.cli  # noqa: F401

    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (("core", "no_such_function"),))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["core.no_such_function"]


def test_windowed_oracle_matches_the_full_oracle(tmp_path):
    spec = corpora.CorpusSpec(3, 2, 400, 30, 80, 3, 0.1)
    data = corpora.generate(tmp_path, spec, 9)
    ref = run._load_reference(ROOT)
    start, end = run._graph_grids()
    for omega in (0, 1, 4, 15, 40):
        for v, y in data.annotations.items():
            for yhat in data.predictions[v].values():
                y_, yhat_ = y.tolist(), yhat.tolist()
                full = sum(ref.oracle_relax_flags(y_, yhat_, omega, start, end))
                ky, kyhat, matches = run._windowed(y, yhat, omega)
                assert sum(ref.oracle_relax_flags(ky, kyhat, omega, start, end)) + matches == full


def test_corpus_is_a_function_of_the_seed(tmp_path):
    spec = TOY["clip-sweep"]
    a = corpora.generate(tmp_path / "a", spec, 1)
    b = corpora.generate(tmp_path / "b", spec, 1)
    c = corpora.generate(tmp_path / "c", spec, 2)
    assert a.digest == b.digest != c.digest
    for labels in a.annotations.values():
        assert len(labels) == spec.frames_per_video
