"""Timing wrappers around the package's public functions, from outside.

A Tracer replaces every binding of each hooked function across the loaded
`phaseeval.*` modules (callers such as `cli` import names directly, so
patching only the defining module would miss their calls) and restores
the original objects on exit.  Each call becomes a span: id, hook, start,
end, parent span and operation id, kept in memory and written out once.
A hook whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module, attribute path) of every hooked function, in layer order.
HOOKS = (
    ("io", "load_manifest"),
    ("io", "parse_labels"),
    ("core", "validate_sequence"),
    ("core", "extract_segments"),
    ("confusion", "confusion_of"),
    ("relaxed", "relax_flags"),
    ("relaxed", "relax_flags_legacy"),
    ("relaxed", "relaxed_counts"),
    ("relaxed", "legacy_pipeline"),
    ("metrics", "phase_metric"),
    ("metrics", "macro_metric"),
    ("metrics", "apply_policy"),
    ("aggregate", "summarize"),
    ("aggregate", "ResultTensor.build"),
    ("io", "write_report"),
    ("protocol", "parse_ledger"),
    ("protocol", "check_comparable"),
    ("protocol", "render_leaderboard"),
    ("cli", "run_evaluate"),
    ("cli", "run_relaxed"),
    ("cli", "main"),
)

# Work units counted from a hooked call's result, outside its span.
UNITS = {
    "io.parse_labels": len,
    "aggregate.ResultTensor.build": lambda tensor: len(tensor.cells),
    "io.write_report": lambda text: len(text.encode("utf-8")),
}

_FIELDS = 6  # span id, hook index, start ns, end ns, parent span id, op id


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "phaseeval" or name.startswith("phaseeval."))
    ]


class Tracer:
    """Context manager: patch on enter, restore on exit."""

    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in HOOKS]
        self.absent: list[str] = []
        self.units: dict[str, int | None] = {k: 0 for k in UNITS}
        self.op = 0
        self._buf = array("q")
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def __enter__(self):
        self.absent = []
        for index, (mod, attr) in enumerate(HOOKS):
            try:
                module = importlib.import_module(f"phaseeval.{mod}")
            except ImportError:
                self.absent.append(self.names[index])
                continue
            owner_name, _, func_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # Methods are looked up in the class's own namespace so that a
            # classmethod is wrapped as one.
            original = None if owner is None else vars(owner).get(func_name)
            if original is None:
                self.absent.append(self.names[index])
            elif owner_name:
                self._patch_method(owner, func_name, original, index)
            else:
                self._patch_function(original, index)
        return self

    def _patch_function(self, original, index):
        wrapper = self._wrap(original, index)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, name, raw, index):
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self._wrap(raw.__func__, index))
        else:
            wrapper = self._wrap(raw, index)
        self._patched.append((cls, name, raw))
        setattr(cls, name, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, index):
        name = self.names[index]
        count_units = UNITS.get(name)
        buf, stack, ids = self._buf, self._stack, self._ids
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                buf.extend((sid, index, t0, t1, parent, tracer.op))
            if count_units is not None and tracer.units[name] is not None:
                try:
                    tracer.units[name] += count_units(out)
                except (AttributeError, TypeError):
                    tracer.units[name] = None  # result no longer has that shape
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------- results

    def spans(self) -> np.ndarray:
        """Spans as an (n, 6) int64 array ordered by span id."""
        a = np.frombuffer(self._buf, dtype=np.int64).reshape(-1, _FIELDS)
        return a[np.argsort(a[:, 0], kind="stable")]

    def write(self, path: Path, op_kinds: dict[int, str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ops = sorted(op_kinds)
        np.savez_compressed(
            path,
            spans=self.spans(),
            hooks=np.array(self.names),
            op_ids=np.array(ops, dtype=np.int64),
            op_kinds=np.array([op_kinds[o] for o in ops]),
        )

    def totals(self, ops=None) -> dict[str, dict[str, float]]:
        """Per hook: calls, busy seconds and self seconds (busy minus the
        time its hooked children cover), over the spans of the given op ids
        (all spans when ops is None)."""
        s = self.spans()
        out = {}
        if len(s) == 0:
            return {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in self.names}
        dur = s[:, 3] - s[:, 2]
        pos = np.searchsorted(s[:, 0], s[:, 4])
        has_parent = s[:, 4] >= 0
        child = np.zeros(len(s), dtype=np.int64)
        np.add.at(child, pos[has_parent], dur[has_parent])
        keep = np.ones(len(s), dtype=bool)
        if ops is not None:
            keep = np.isin(s[:, 5], np.fromiter(ops, dtype=np.int64))
        for index, name in enumerate(self.names):
            m = keep & (s[:, 1] == index)
            out[name] = {
                "calls": int(m.sum()),
                "busy_s": float(dur[m].sum()) / 1e9,
                "self_s": float((dur[m] - child[m]).sum()) / 1e9,
            }
        return out
