"""phaseeval benchmark: one closed-loop client, three Cholec80-shaped workloads.

    python3 bench/run.py --workload cholec80-1fps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run
  1. generates the workload's corpus from --seed (bench/corpus.py) into a
     scratch directory under .bench_work/ that is removed at exit;
  2. with --trace 0, times `import phaseeval.cli` plus the first
     load_manifest in several fresh interpreters (setup_s);
  3. runs the operations in a fresh worker for --seconds (bench/worker.py);
     every repetition must reproduce its reference report bytes;
  4. checks, untimed, the reference reports' accuracy means against the
     brute-force oracles of tests/reference.py at 1e-9;
  5. prints what it measured, then one JSON line: the end-to-end metrics
     of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Workloads (7 phases, one client, no threads):
  cholec80-1fps   40 videos x 5 runs, 2,200 frames a video (440k pairs),
                  segments 150-500, shift 10, omega 10; CLI operations
  cholec80-25fps  8 videos x 3 runs, 52,000 frames a video (1.25M pairs),
                  segments 3,750-12,500, shift 250, omega 250; CLI operations
  clip-sweep      100 videos x 5 runs, 170 frames a video (85k pairs),
                  segments 10-40, shift 2, omega 5; one load, then sweeps of
                  4 policies x 3 orders (json, csv, md each) plus a graph
                  and a bug-compatible relaxed report through the library API
Every workload also times `compare` on the packaged seed ledger.

Times are medians over the run, at reference speed: while an operation
runs, a timer samples how long a fixed calibration job takes (see
worker.Speedometer), and the operation's time is scaled by
CAL_REFERENCE_S over that mean.  A shared machine changes speed by tens of
percent within seconds as other tenants come and go; the scaled times
follow the program instead.  Raw medians are printed alongside.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus as corpora  # noqa: E402
from worker import CAL_REFERENCE_S  # noqa: E402

SETUP_REPS = 5
TOLERANCE = 1e-9
WORK_DIR = ".bench_work"


@dataclass(frozen=True)
class Workload:
    mode: str  # "cli" or "sweep"
    spec: corpora.CorpusSpec
    omega: int


WORKLOADS = {
    "cholec80-1fps": Workload(
        "cli", corpora.CorpusSpec(40, 5, 2200, 150, 500, 10, 0.05), 10),
    "cholec80-25fps": Workload(
        "cli", corpora.CorpusSpec(8, 3, 52000, 3750, 12500, 250, 0.05), 250),
    "clip-sweep": Workload(
        "sweep", corpora.CorpusSpec(100, 5, 170, 10, 40, 2, 0.05), 5),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ----------------------------------------------------------------- oracles

def _load_reference(root: Path):
    spec = importlib.util.spec_from_file_location(
        "phaseeval_reference", root / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _graph_grids():
    start = [[0] * corpora.PHASES for _ in range(corpora.PHASES)]
    end = [[0] * corpora.PHASES for _ in range(corpora.PHASES)]
    for a, successors in corpora.SUCCESSORS.items():
        for b in successors:
            start[b][a] = 1
            end[a][b] = 1
    return start, end


def _windowed(y: np.ndarray, yhat: np.ndarray, omega: int):
    """Cut every annotated segment longer than 2*omega to its first and
    last omega frames.  oracle_relax_flags scans each frame's whole
    segment, which is quadratic in segment length; a frame's flag depends
    only on its own segment and on its distance to the segment's ends, and
    only frames within omega of an end can be forgiven, so the cut keeps
    every forgivable frame's flag.  Returns the cut sequences as lists and
    the number of exact matches among the frames dropped."""
    starts = np.flatnonzero(np.diff(y, prepend=y[0] - 1))
    ends = np.append(starts[1:], len(y)) - 1
    keep, matches = [], 0
    for s, e in zip(starts.tolist(), ends.tolist()):
        if e - s + 1 > 2 * omega:
            keep += [np.arange(s, s + omega), np.arange(e - omega + 1, e + 1)]
            inner = slice(s + omega, e - omega + 1)
            matches += int(np.count_nonzero(y[inner] == yhat[inner]))
        else:
            keep.append(np.arange(s, e + 1))
    idx = np.concatenate(keep)
    return y[idx].tolist(), yhat[idx].tolist(), matches


def oracle_means(root: Path, data: corpora.Corpus, omega: int) -> dict[str, float]:
    """Accuracy means over every (video, run) cell, from the oracles."""
    ref = _load_reference(root)
    start, end = _graph_grids()
    acc, graph, legacy = [], [], []
    for v in sorted(data.annotations):
        ya = data.annotations[v]
        y = ya.tolist()
        for r in sorted(data.predictions[v]):
            yhat = data.predictions[v][r].tolist()
            acc.append(ref.oracle_accuracy(y, yhat))
            ky, kyhat, matches = _windowed(ya, data.predictions[v][r], omega)
            flags = ref.oracle_relax_flags(ky, kyhat, omega, start, end)
            graph.append((sum(flags) + matches) / len(y))
            legacy.append(sum(ref.oracle_legacy_flags(y, yhat, omega)) / len(y))
    return {
        "evaluate": math.fsum(acc) / len(acc),
        "relaxed": math.fsum(graph) / len(graph),
        "bugcompat": math.fsum(legacy) / len(legacy),
    }


# ------------------------------------------------------------------ running

def _worker(root: Path, args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def _normalized(samples, kind, traced=False):
    return [
        raw * CAL_REFERENCE_S / cal
        for k, raw, cal, t in samples
        if k == kind and t == traced
    ]


def _describe(values, unit, scale=1.0) -> str:
    n = len(values)
    text = f"median {statistics.median(values) * scale:.4f} {unit}, n={n}"
    if n >= 20:
        # Highest percentile with at least ten samples above it.
        pct = math.floor(100 * (n - 10) / n)
        q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        text += f", p{pct} {q * scale:.4f} {unit}"
    return text


def run_benchmark(root: Path, name: str, seed: int, seconds: int, trace: bool,
                  workload: Workload | None = None) -> tuple[list[str], dict]:
    """Run one workload; return the lines to print and the result object."""
    workload = workload or WORKLOADS[name]
    spec = workload.spec
    bench = json.loads((root / "BENCHMARK.json").read_text())
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]
    (root / WORK_DIR).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / WORK_DIR))
    try:
        t0 = perf_counter()
        data = corpora.generate(scratch / "corpus", spec, seed)
        lines.append(f"corpus sha256 {data.digest} generated in {perf_counter() - t0:.2f} s")
        lines.append("corpus size " + json.dumps(spec.size(), sort_keys=True))

        setups = []
        if not trace:
            for _ in range(SETUP_REPS):
                out = _worker(root, ["setup", str(root), str(data.manifest)], 30)
                setups.append(json.loads(out.stdout.strip().splitlines()[-1]))

        out_dir = scratch / "out"
        out_dir.mkdir()
        cfg = {
            "mode": workload.mode,
            "manifest": str(data.manifest),
            "omega": workload.omega,
            "sequence_pairs": spec.videos * spec.runs,
            "seconds": seconds,
            "trace": trace,
            "out_dir": str(out_dir),
            "trace_path": str(root / WORK_DIR / "traces" / f"{name}-seed{seed}.npz"),
        }
        (scratch / "config.json").write_text(json.dumps(cfg))
        _worker(root, ["ops", str(root), str(scratch / "config.json"),
                       str(scratch / "result.json")], seconds + 90)
        res = json.loads((scratch / "result.json").read_text())

        t0 = perf_counter()
        expected = oracle_means(root, data, workload.omega)
        verdicts = {}
        for kind, want in expected.items():
            got = res["checks"].get(kind)
            ok = got is not None and abs(got - want) <= TOLERANCE
            verdicts[kind] = ok
            lines.append(
                f"oracle {kind}: report {got!r} oracle {want!r} -> {'PASS' if ok else 'FAIL'}")
        lines.append(f"oracle checks took {perf_counter() - t0:.2f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    for op_name, op in sorted(res["ops"].items()):
        if op["kind"] in verdicts and not verdicts[op["kind"]]:
            op["failed"] = op["attempted"]  # its bytes hold a wrong number
        attempted += op["attempted"]
        failed += op["failed"]
        lines.append(
            f"report {op_name}: sha256 {op['sha256']} attempted {op['attempted']} failed {op['failed']}")
    lines.extend(f"failure: {f}" for f in res["failures"])
    lines.append(f"rounds {res['rounds']} (traced {res['traced_rounds']})")

    samples = res["samples"]
    metrics: dict[str, float] = {}
    if not trace:
        timed = {
            "evaluate_s": ("evaluate", 1.0),
            "relaxed_s": ("relaxed", 1.0),
            "bugcompat_s": ("bugcompat", 1.0),
            "compare_ms": ("compare", 1000.0),
        }
        for metric, (kind, scale) in timed.items():
            norm = _normalized(samples, kind)
            if not norm:
                continue
            metrics[metric] = statistics.median(norm) * scale
            raw = [s[1] for s in samples if s[0] == kind]
            unit = "ms" if scale != 1.0 else "s"
            lines.append(f"{metric}: {_describe(norm, unit, scale)}; raw {_describe(raw, unit, scale)}")
        report_times = [
            x for kind in ("evaluate", "relaxed", "bugcompat") for x in _normalized(samples, kind)
        ]
        if report_times:
            metrics["frames_per_s"] = spec.pairs * len(report_times) / math.fsum(report_times)
            lines.append(
                f"frames_per_s over {len(report_times)} reports of {spec.pairs} frame pairs each")
        if setups:
            norm = [s["setup_s"] * CAL_REFERENCE_S / s["cal_s"] for s in setups]
            metrics["setup_s"] = statistics.median(norm)
            raw = [s["setup_s"] for s in setups]
            lines.append(f"setup_s: {_describe(norm, 's')}; raw {_describe(raw, 's')}")
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        wanted = bench["end_to_end"]
    else:
        layers = dict(res["layers"] or {})
        absent = layers.pop("absent", [])
        if absent:
            lines.append("absent hooks: " + ", ".join(absent))
        metrics.update(layers)
        metrics["trace.overhead_frac"] = _overhead(samples)
        wanted = bench["per_layer"]

    emitted = {}
    for m in wanted:
        if m["name"] in metrics and metrics[m["name"]] is not None:
            emitted[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            lines.append(f"absent metric: {m['name']}")
    for m_name, m in emitted.items():
        lines.append(f"metric {m_name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and attempted > 0 and all(verdicts.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": emitted,
    }
    return lines, result


def _overhead(samples) -> float | None:
    """Traced / untraced time of a round, minus one, from the median time
    of each operation kind run in both modes, weighted by how often the
    traced rounds ran it."""
    weight = Counter(s[0] for s in samples if s[3])
    kinds = weight.keys() & {s[0] for s in samples if not s[3]}
    plain = sum(weight[k] * statistics.median(_normalized(samples, k)) for k in kinds)
    traced = sum(weight[k] * statistics.median(_normalized(samples, k, True)) for k in kinds)
    return traced / plain - 1 if plain else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    root = Path.cwd()
    for needed in ("BENCHMARK.json", "src/phaseeval/__init__.py", "tests/reference.py"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    try:
        lines, result = run_benchmark(
            root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
