"""Benchmark worker, run in a fresh interpreter so that its imports, its
peak RSS and its timings belong to the program alone.

    python3 bench/worker.py setup <checkout> <manifest>
        time `import phaseeval.cli` plus the first load_manifest
    python3 bench/worker.py ops <checkout> <config.json> <result.json>
        run the workload's operations in a closed loop (one client, each
        operation waits for the previous one) and write the samples

Operations go only through the stable surface: `phaseeval.cli.main(argv)`
for the CLI workloads, and the README library API (`load_manifest`,
`run_evaluate`, `run_relaxed`, `write_report`) for the sweep.  Every
timed repetition must reproduce its reference bytes exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

# ------------------------------------------------------------ calibration

# Typical calibration time on a shared 2-vCPU x86 sandbox; normalized
# times read as seconds at this speed.
CAL_REFERENCE_S = 0.0006
TICK_S = 0.02

_CAL_TEXT = "\n".join(str(i * 7919 % 7) for i in range(2000))


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python job shaped like the program's
    per-frame loops (parse integer lines, compare neighbours, count)."""
    t0 = perf_counter()
    labels = [int(x) for x in _CAL_TEXT.split("\n")]
    same = 0
    for a, b in zip(labels, labels[1:]):
        if a == b:
            same += 1
    counts: dict[int, int] = {}
    for x in labels:
        counts[x] = counts.get(x, 0) + 1
    return perf_counter() - t0


class Speedometer:
    """Samples the machine's speed while an operation runs.

    On a shared machine the speed of a core changes by tens of percent
    within a second as other tenants come and go, so a calibration taken
    before an operation does not describe the operation.  Every TICK_S a
    timer signal runs calibrate() between two bytecodes of the operation;
    `spent` is the time those ticks took (to be subtracted from the
    operation's wall time) and `cal_s` their mean duration, so the
    operation's time at reference speed is net * CAL_REFERENCE_S / cal_s.
    """

    def __enter__(self):
        self.total = self.spent = 0.0
        self.ticks = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.ticks == 0:  # shorter than a tick: calibrate just after
            self._tick()
        return False

    def _tick(self, *_):
        t0 = perf_counter()
        self.total += calibrate()
        self.ticks += 1
        self.spent += perf_counter() - t0

    @property
    def cal_s(self) -> float:
        return self.total / self.ticks


def _use_checkout(root: Path) -> None:
    src = root / "src"
    if not (src / "phaseeval" / "__init__.py").is_file():
        raise SystemExit(f"no phaseeval package under {src}")
    sys.path.insert(0, str(src))


# ------------------------------------------------------------------ setup

def setup(root: Path, manifest: str) -> dict:
    _use_checkout(root)
    for _ in range(5):  # the first calibrations of a fresh interpreter run cold
        calibrate()
    with Speedometer() as speed:
        t0 = perf_counter()
        import phaseeval.cli  # noqa: F401  (the import is what is timed)
        from phaseeval.io import load_manifest

        corpus = load_manifest(manifest)
        elapsed = perf_counter() - t0 - speed.spent
    return {"setup_s": elapsed, "cal_s": speed.cal_s, "videos": len(corpus.videos)}


# -------------------------------------------------------------- operations

@dataclass
class Op:
    """One kind of operation.  run() is the timed part and returns a
    handle; output(handle) gathers the report bytes outside the timing."""

    name: str
    kind: str  # metric group: evaluate, relaxed, bugcompat, compare, load
    run: Callable[[], object]
    output: Callable[[object], bytes]
    count: int = 1  # program invocations per repetition
    reference: Callable[[], bytes] | None = None
    attempted: int = 0
    failed: int = 0
    ref: bytes | None = None


def _cli_op(lib, name, kind, argv, out: Path, reference=None, count=1):
    outs = [out.with_name(f"{out.stem}-{i}{out.suffix}") for i in range(count)]

    def run():
        for path in outs:
            rc = lib.cli.main(argv + ["--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")

    def output(_):
        data = [p.read_bytes() for p in outs]
        if any(d != data[0] for d in data):
            return b"<repetitions in one batch differ>"
        return data[0]

    return Op(name, kind, run, output, count, reference)


class Library:
    """The README surface, looked up on its modules at call time so that
    traced rounds call the tracer's wrappers."""

    def __init__(self):
        import phaseeval.cli as cli
        import phaseeval.io as io
        from phaseeval.aggregate import AveragingOrder, StdMode
        from phaseeval.metrics import UndefinedPolicy
        from phaseeval.relaxed import MatrixMode

        self.cli, self.io = cli, io
        self.orders, self.policies = AveragingOrder, UndefinedPolicy
        self.default_policy = UndefinedPolicy.EXCLUDE_MISSING_PHASE
        self.default_order = AveragingOrder.FLAT
        self.std_mode = StdMode.CORRECTED
        self.graph, self.legacy = MatrixMode.GRAPH_DERIVED, MatrixMode.LEGACY

    def evaluate(self, corpus, policy=None, order=None):
        return self.cli.run_evaluate(
            corpus, policy or self.default_policy, order or self.default_order, self.std_mode)

    def relaxed(self, corpus, omega):
        return self.cli.run_relaxed(corpus, omega, self.graph, False)

    def bugcompat(self, corpus, omega):
        return self.cli.run_relaxed(corpus, omega, self.legacy, True, bug_compatible=True)


def _check_value(kind: str, report) -> float:
    """The accuracy mean that the oracles check, at full precision."""
    return report.summary["accuracy" if kind == "evaluate" else "relaxed_accuracy"].mean


def _cli_ops(cfg, lib: Library, checks) -> list[Op]:
    """evaluate, graph relaxed and bug-compatible relaxed through
    cli.main, each followed by a batch of compare invocations.  The
    reference bytes come from the same reports built through the library."""
    m, omega, out = cfg["manifest"], cfg["omega"], Path(cfg["out_dir"])
    loaded = []

    def reference(kind):
        def build():
            if not loaded:
                loaded.append(lib.io.load_manifest(m))
            report = getattr(lib, kind)(loaded[0], *([] if kind == "evaluate" else [omega]))
            checks[kind] = _check_value(kind, report)
            return lib.io.write_report(report, "json").encode("utf-8")
        return build

    argv = {
        "evaluate": ["evaluate", m],
        "relaxed": ["relaxed", m, "--matrices", "graph", "--omega", str(omega)],
        "bugcompat": ["relaxed", m, "--omega", str(omega), "--truncate", "--bug-compat"],
    }
    compare = _compare_op(lib, out)
    # compare takes milliseconds: a batch after every report gives its
    # median as many samples as the reports get.
    return [
        op
        for kind, args in argv.items()
        for op in (
            _cli_op(lib, kind, kind, args, out / f"{kind}.json", reference(kind)),
            compare,
        )
    ]


def _compare_op(lib: Library, out: Path) -> Op:
    return _cli_op(
        lib, "compare", "compare",
        ["compare", "--ref", "split=32:8:40", "--ref", "relaxed=false"],
        out / "compare.json", count=15,
    )


def _sweep_ops(cfg, lib: Library, corpus, checks) -> list[Op]:
    """Every policy x averaging order, each written as json, csv and md;
    a graph-mode and a bug-compatible relaxed report; compare."""

    def report_op(name, kind, make, formats, check=False):
        def run():
            report = make()
            if check and kind not in checks:
                checks[kind] = _check_value(kind, report)
            return [lib.io.write_report(report, f) for f in formats]

        return Op(name, kind, run, lambda texts: "\0".join(texts).encode("utf-8"))

    omega = cfg["omega"]
    tail = [
        report_op("relaxed", "relaxed", lambda: lib.relaxed(corpus, omega), ("json",), True),
        report_op("bugcompat", "bugcompat", lambda: lib.bugcompat(corpus, omega), ("json",), True),
        _compare_op(lib, Path(cfg["out_dir"])),
    ]
    # The relaxed reports and compare are short next to the twelve
    # evaluate configurations; running them after each policy's three
    # orders gives their medians four samples per sweep instead of one.
    ops = []
    for policy in lib.policies:
        for order in lib.orders:
            ops.append(report_op(
                f"evaluate:{policy.value}:{order.value}", "evaluate",
                lambda p=policy, o=order: lib.evaluate(corpus, p, o),
                ("json", "csv", "md"),
                policy is lib.default_policy and order is lib.default_order,
            ))
        ops.extend(tail)
    return ops


def _load_op(cfg, lib: Library) -> Op:
    """Corpus load of the sweep, run in traced rounds only so that the
    io layer is measured there too."""
    def output(corpus):
        return f"{len(corpus.videos)} videos, {len(corpus.runs)} runs".encode()

    return Op("load", "load", lambda: lib.io.load_manifest(cfg["manifest"]), output)


@dataclass
class Loop:
    ops: list[Op]
    samples: list[list] = field(default_factory=list)  # [kind, raw_s, cal_s, traced]
    failures: list[str] = field(default_factory=list)
    op_kinds: dict[int, str] = field(default_factory=dict)
    traced_ops: set[int] = field(default_factory=set)
    next_id: int = 1

    def execute(self, op: Op, tracer=None) -> None:
        op.attempted += op.count
        op_id = self.next_id
        self.next_id += 1
        self.op_kinds[op_id] = op.kind
        if tracer is not None:
            tracer.op = op_id
            self.traced_ops.add(op_id)
        gc.collect()
        with Speedometer() as speed:
            t0 = perf_counter()
            try:
                handle = op.run()
            except (Exception, SystemExit) as exc:  # a failed operation, not a crash
                self._fail(op, f"{op.name}: {type(exc).__name__}: {exc}")
                return
            elapsed = perf_counter() - t0 - speed.spent
        try:
            data = op.output(handle)
        except OSError as exc:
            self._fail(op, f"{op.name}: no report: {exc}")
            return
        if data != op.ref:
            self._fail(op, f"{op.name}: report bytes differ from the reference")
            return
        self.samples.append([op.kind, elapsed / op.count, speed.cal_s, tracer is not None])

    @property
    def distinct(self) -> list[Op]:
        return list({id(op): op for op in self.ops}.values())

    def _fail(self, op: Op, why: str) -> None:
        op.failed += op.count
        if len(self.failures) < 20:
            self.failures.append(why)


def run_ops(root: Path, cfg: dict) -> dict:
    """Reference pass, then timed rounds until cfg['seconds'] would be
    exceeded.  With cfg['trace'], rounds alternate untraced and traced."""
    _use_checkout(root)
    lib = Library()
    import tracing

    checks: dict[str, float] = {}
    if cfg["mode"] == "cli":
        ops = _cli_ops(cfg, lib, checks)
        traced_extra: list[Op] = []
    else:
        corpus = lib.io.load_manifest(cfg["manifest"])
        ops = _sweep_ops(cfg, lib, corpus, checks)
        traced_extra = [_load_op(cfg, lib)]
    loop = Loop(ops + traced_extra)

    # Reference pass, untimed: it also lets lazy set-up finish.
    for op in loop.distinct:
        try:
            op.ref = op.reference() if op.reference else op.output(op.run())
        except (Exception, SystemExit) as exc:
            loop.failures.append(f"{op.name} reference: {type(exc).__name__}: {exc}")
            op.attempted += op.count
            op.failed += op.count
    if any(op.failed for op in loop.distinct):
        return _result(loop, checks, None, 0)

    tracer = tracing.Tracer() if cfg["trace"] else None
    start = perf_counter()
    rounds: list[float] = []
    traced_rounds = 0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        r0 = perf_counter()
        if traced:
            with tracer:
                for op in traced_extra + ops:
                    loop.execute(op, tracer)
            traced_rounds += 1
        else:
            for op in ops:
                loop.execute(op)
        rounds.append(perf_counter() - r0)
        elapsed = perf_counter() - start
        enough = tracer is None or traced_rounds >= 1
        if enough and elapsed + statistics.fmean(rounds) > cfg["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.write(Path(cfg["trace_path"]), loop.op_kinds)
        layers = _layers(tracer, loop, cfg, traced_rounds)
    return _result(loop, checks, layers, peak_rss_mb, len(rounds), traced_rounds)


def _layers(tracer, loop: Loop, cfg: dict, n: int) -> dict:
    """Per-layer figures per traced round (one repetition of every
    operation of the workload); hooks that no longer exist are listed
    under "absent" instead.  Layer times are scaled to reference speed by
    the factor that scales the traced operations' times."""
    traced_samples = [(raw, cal) for _, raw, cal, t in loop.samples if t]
    speed = 1.0
    if traced_samples:
        speed = math.fsum(raw * CAL_REFERENCE_S / cal for raw, cal in traced_samples) / (
            math.fsum(raw for raw, _ in traced_samples))
    absent = set(tracer.absent)
    tot = tracer.totals()
    for t in tot.values():
        t["busy_s"] *= speed
        t["self_s"] *= speed
    out: dict = {"absent": sorted(absent)}
    for name, t in tot.items():
        if name not in absent:
            for stat in ("calls", "busy_s", "self_s"):
                out[f"{name}.{stat}"] = t[stat] / n
    units = tracer.units
    traced = loop.traced_ops
    if {"io.parse_labels", "core.validate_sequence"}.isdisjoint(absent):
        parse = tot["io.parse_labels"]
        if units["io.parse_labels"]:
            out["io.parse_labels.ns_per_frame"] = (
                parse["busy_s"] * 1e9 / units["io.parse_labels"]
            )
        if parse["calls"]:
            out["core.validate_sequence.per_sequence"] = (
                tot["core.validate_sequence"]["calls"] / parse["calls"]
            )
    graph_ops = {i for i in traced if loop.op_kinds[i] == "relaxed"}
    if "relaxed.relaxed_counts" not in absent and graph_ops:
        calls = tracer.totals(graph_ops)["relaxed.relaxed_counts"]["calls"]
        out["relaxed.relaxed_counts.passes_per_pair"] = calls / (
            len(graph_ops) * cfg["sequence_pairs"]
        )
    cells = units["aggregate.ResultTensor.build"]
    if "aggregate.ResultTensor.build" not in absent and cells is not None:
        reports = sum(
            1 for i in traced if loop.op_kinds[i] in ("evaluate", "relaxed", "bugcompat")
        )
        out["aggregate.ResultTensor.build.cells"] = cells / n
        out["aggregate.cells_per_report"] = cells / reports
    if "io.write_report" not in absent and units["io.write_report"] is not None:
        out["io.write_report.bytes"] = units["io.write_report"] / n
    return out


def _result(loop, checks, layers, peak_rss_mb, rounds=0, traced_rounds=0) -> dict:
    return {
        "ops": {
            op.name: {
                "kind": op.kind,
                "attempted": op.attempted,
                "failed": op.failed,
                "sha256": None if op.ref is None else hashlib.sha256(op.ref).hexdigest(),
            }
            for op in loop.distinct
        },
        "samples": loop.samples,
        "failures": loop.failures,
        "checks": checks,
        "layers": layers,
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
        "traced_rounds": traced_rounds,
    }


def main(argv: list[str]) -> int:
    mode, root = argv[0], Path(argv[1])
    if mode == "setup":
        print(json.dumps(setup(root, argv[2])))
        return 0
    if mode == "ops":
        cfg = json.loads(Path(argv[2]).read_text())
        Path(argv[3]).write_text(json.dumps(run_ops(root, cfg)))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
