"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive (per-frame counting, literal loop
transcriptions, exhaustive enumeration) and shares no code with the
package under test.  Values are plain floats; UNDEFINED marks a ratio
with a zero denominator, and a None inside an aggregation grid marks a
dropped (excluded) entry.
"""

from __future__ import annotations

import json
import math

import numpy as np


class _Undefined:
    def __repr__(self):
        return "UNDEFINED"


UNDEFINED = _Undefined()


def oracle_metric(kind, y, yhat, p):
    """Per-phase metric by literal counting of time indices."""
    n = len(y)
    tp = sum(1 for t in range(n) if y[t] == p and yhat[t] == p)
    fp = sum(1 for t in range(n) if y[t] != p and yhat[t] == p)
    fn = sum(1 for t in range(n) if y[t] == p and yhat[t] != p)
    if kind == "precision":
        return UNDEFINED if tp + fp == 0 else tp / (tp + fp)
    if kind == "recall":
        return UNDEFINED if tp + fn == 0 else tp / (tp + fn)
    if kind == "f1":
        return UNDEFINED if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
    if kind == "jaccard":
        return UNDEFINED if tp + fp + fn == 0 else tp / (tp + fp + fn)
    raise ValueError(kind)


def oracle_confusion(y, yhat, phase_count):
    """counts[p][q], the frames annotated p and predicted q, one frame at a
    time."""
    counts = [[0] * phase_count for _ in range(phase_count)]
    for a, b in zip(y, yhat):
        counts[a][b] += 1
    return counts


def oracle_accuracy(y, yhat):
    return sum(1 for a, b in zip(y, yhat) if a == b) / len(y)


def oracle_macro(kind, y, yhat, phase_count, policy):
    """Macro mean under one of the four undefined-value policies."""
    values = []
    for p in range(phase_count):
        if policy == "exclude-missing-phase" and p not in y:
            continue
        val = oracle_metric(kind, y, yhat, p)
        if val is UNDEFINED:
            if policy == "zero-fill":
                val = 0.0
            elif policy == "one-fill":
                val = 1.0
            else:
                continue
        values.append(val)
    if not values:
        return UNDEFINED
    return sum(values) / len(values)


def oracle_relax_flags(y, yhat, omega, start_grid, end_grid):
    """Per-frame relaxed correctness, segment bounds found by scanning.
    A predicted label past the grids is never accepted."""
    n = len(y)
    flags = []
    for t in range(n):
        s = t
        while s > 0 and y[s - 1] == y[t]:
            s -= 1
        e = t
        while e < n - 1 and y[e + 1] == y[t]:
            e += 1
        w = min(omega, e - s + 1)
        ok = yhat[t] == y[t]
        inside = yhat[t] < len(start_grid[y[t]])
        if not ok and inside and t - s < w and start_grid[y[t]][yhat[t]]:
            ok = True
        if not ok and inside and e - t < w and end_grid[y[t]][yhat[t]]:
            ok = True
        flags.append(ok)
    return flags


def oracle_legacy_flags(y, yhat, omega):
    """Transcription of the shared MATLAB evaluation loop, kept as close
    to the original's vectorized statements as numpy allows."""
    d = np.asarray(yhat, dtype=np.int64) - np.asarray(y, dtype=np.int64)
    n = len(d)
    s = 0
    while s < n:
        e = s
        while e < n - 1 and y[e + 1] == y[s]:
            e += 1
        phase = y[s]
        if phase > 6:
            s = e + 1
            continue
        cur = d[s : e + 1].copy()
        t = omega
        if t > len(cur):
            raise ValueError("segment shorter than omega")
        if t > 0:
            if phase in (3, 4):
                m1 = cur[:t] == -1
                cur[:t][m1] = 0
                m2 = (cur[-t:] == 1) | (cur[-t:] == 2)
                cur[:t][m2] = 0
            elif phase in (5, 6):
                m1 = (cur[:t] == -1) | (cur[:t] == -2)
                cur[:t][m1] = 0
                m2 = (cur[-t:] == 1) | (cur[-t:] == 2)
                cur[:t][m2] = 0
            else:
                m1 = cur[:t] == -1
                cur[:t][m1] = 0
                m2 = cur[-t:] == 1
                cur[:t][m2] = 0
        d[s : e + 1] = cur
        s = e + 1
    return [bool(x == 0) for x in d]


def oracle_relaxed_counts(y, yhat, flags, p):
    r_tp = sum(
        1 for t in range(len(y)) if (y[t] == p or yhat[t] == p) and flags[t]
    )
    union = sum(1 for t in range(len(y)) if y[t] == p or yhat[t] == p)
    predicted = sum(1 for t in range(len(y)) if yhat[t] == p)
    annotated = sum(1 for t in range(len(y)) if y[t] == p)
    return r_tp, union, predicted, annotated


def _retained(grid):
    return [
        x
        for plane in grid
        for row in plane
        for x in row
        if x is not None
    ]


def oracle_flat_mean(grid):
    """grid[p][v][r] with None = dropped."""
    vals = _retained(grid)
    return UNDEFINED if not vals else sum(vals) / len(vals)


def _mean(vals):
    vals = [x for x in vals if x is not None]
    if not vals:
        return None
    return sum(vals) / len(vals)


def oracle_phase_first_mean(grid):
    """Mean over phases within each (video, run), then over the groups."""
    nph, nv, nr = len(grid), len(grid[0]), len(grid[0][0])
    groups = []
    for v in range(nv):
        for r in range(nr):
            groups.append(_mean([grid[p][v][r] for p in range(nph)]))
    m = _mean(groups)
    return UNDEFINED if m is None else m


def oracle_video_first_mean(grid):
    """Mean over (video, run) within each phase, then over phases."""
    nph, nv, nr = len(grid), len(grid[0]), len(grid[0][0])
    per_phase = []
    for p in range(nph):
        per_phase.append(
            _mean([grid[p][v][r] for v in range(nv) for r in range(nr)])
        )
    m = _mean(per_phase)
    return UNDEFINED if m is None else m


def oracle_std(grid, axis, corrected):
    """Std across one axis after collapsing the other two by the mean of
    retained entries; positions that retain nothing are dropped."""
    nph, nv, nr = len(grid), len(grid[0]), len(grid[0][0])
    if axis == "phases":
        points = [
            _mean([grid[p][v][r] for v in range(nv) for r in range(nr)])
            for p in range(nph)
        ]
    elif axis == "videos":
        points = [
            _mean([grid[p][v][r] for p in range(nph) for r in range(nr)])
            for v in range(nv)
        ]
    elif axis == "runs":
        points = [
            _mean([grid[p][v][r] for p in range(nph) for v in range(nv)])
            for r in range(nr)
        ]
    else:
        raise ValueError(axis)
    points = [x for x in points if x is not None]
    k = len(points)
    if k < 2:
        return UNDEFINED
    m = sum(points) / k
    ss = sum((x - m) * (x - m) for x in points)
    return math.sqrt(ss / (k - 1 if corrected else k))


def oracle_row_fsum(rows):
    """math.fsum of each row of a 2-D array, one row at a time."""
    return [math.fsum(row) for row in rows.tolist()]


def oracle_canonical_json(obj, indent=0):
    """The canonical JSON layout as one string-returning recursion: sorted
    keys, six fractional digits, two-space indent.  A non-finite float
    raises ValueError here (the package raises its SchemaError)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{obj!r} has no JSON form")
        return format(obj, ".6f")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            items.append(
                f"{inner}{json.dumps(str(k), ensure_ascii=False)}: "
                f"{oracle_canonical_json(obj[k], indent + 1)}"
            )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{oracle_canonical_json(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def oracle_lone_surrogate(doc):
    """A lone surrogate that a key or string of a decoded JSON document
    holds, or None: a walk of every key and value, each string encoded
    alone in UTF-8, which fails on a surrogate and only on one."""
    todo = [doc]
    while todo:
        x = todo.pop()
        if type(x) is dict:
            todo += x
            todo += x.values()
        elif type(x) is list:
            todo += x
        elif type(x) is str:
            try:
                x.encode("utf-8")
            except UnicodeEncodeError as e:
                return x[e.start]
    return None
