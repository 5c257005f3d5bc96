"""File formats: label files, evaluation manifests and report serialization.

A label file is ASCII decimal, one non-negative integer per line, with an
optional final newline and no blank lines.  A manifest is
a JSON document naming, per video, one annotation file and one prediction
file per run id; run-id sets must agree across videos.

Reports serialize to json (canonical key order, numbers with six
fractional digits, byte-deterministic), csv, or markdown; every format
carries the full protocol block so no number travels without its
evaluation settings.
"""

from __future__ import annotations

import copyreg
import csv
import io as _io
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .core import LABEL_MAX, MAX_PHASES, LabelSequence, OutOfRangeLabel, PhaseSet, validate_sequence
from .errors import PhaseEvalError
from .vocab import MissingFile  # noqa: F401  (re-exported)
from .vocab import REPORT_FORMATS, SUMMARY_STATS, LengthMismatch, MetricSummary, RaggedRuns
from .vocab import CONTROL_CHARACTERS, SchemaError, canonical_json, fmt_float, known_keys
from .vocab import parse_json, read_file

FORMAT_VERSION = "1"


class ParseError(PhaseEvalError):
    """Malformed label file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line

    def __reduce__(self):  # args hold the formatted text, so rebuild without __init__
        return copyreg.__newobj__, (type(self),), {**vars(self), "args": self.args}


class EmptyFile(PhaseEvalError):
    """A label file with no frames."""


_NEWLINE = ord("\n")
_ZERO = ord("0")
# Ten digits hold every int32 label; a nonzero digit further left does not fit.
_WIDTH = len(str(LABEL_MAX))


def parse_labels(data: bytes) -> LabelSequence:
    """Parse the bytes of a label file, as vocab.read_file returns them."""
    if not data:
        raise EmptyFile("no frames")
    # One digit a line, the usual layout: each (digit, newline) byte pair, read
    # as a little-endian uint16, is 0x0A30 plus the digit; in uint16 any other
    # pair wraps or runs past 9.  The digits then fit the uint8 labels.
    pairs = np.frombuffer(data + b"\n"[: len(data) % 2], "<u2")
    digits = np.subtract(pairs, 0x0A30, dtype=np.uint16)
    if (max_label := int(digits.max())) <= 9:
        return LabelSequence._adopt(digits.astype(np.uint8), max_label)
    buf = np.frombuffer(data, dtype=np.uint8)
    digit = buf - np.uint8(_ZERO)  # non-digit bytes wrap to values above 9
    newline = buf == _NEWLINE
    # int32 line indices while they fit: frame-long int64 arrays are fresh pages.
    index = np.int32 if buf.size < 1 << 31 else np.int64
    ends = np.flatnonzero(newline).astype(index)  # one past each line's last byte
    junk = np.count_nonzero(digit > 9) > len(ends)  # a byte neither digit nor newline
    if not newline[-1]:
        ends = np.append(ends, index(buf.size))
    lengths = np.diff(ends, prepend=index(-1)) - index(1)
    if junk or not lengths.all():
        bad = lengths == 0  # blank, or holding a byte that is not a digit
        bad[np.searchsorted(ends, np.flatnonzero((digit > 9) & ~newline))] = True
        i = int(np.argmax(bad))
        if lengths[i] == 0:
            raise ParseError("blank line", line=i + 1)
        line = data[ends[i] - lengths[i] : ends[i]].decode("utf-8", "backslashreplace")
        raise ParseError(f"not a non-negative integer: {line!r}", line=i + 1)
    # Each line's value from its last _WIDTH digits, one place value at a
    # time, `at` stepping left; below ten digits a value fits int32.
    wide = int(lengths.max())
    value = np.int64 if wide >= _WIDTH else np.int32
    at = ends - index(1)
    values = np.take(digit, at).astype(value)  # take: fancy indexing converts int32 indices
    for place in range(1, min(wide, _WIDTH)):
        at -= index(1)
        values += np.multiply((lengths > place) * np.take(digit, at), 10**place, dtype=value)
    too_wide = values > LABEL_MAX
    if wide > _WIDTH:
        nonzero = np.flatnonzero((digit >= 1) & (digit <= 9))
        owner = np.searchsorted(ends, nonzero)
        too_wide[owner[nonzero < ends[owner] - _WIDTH]] = True
    if too_wide.any():
        i = int(np.argmax(too_wide))
        label = data[ends[i] - lengths[i] : ends[i]].decode("ascii")
        raise OutOfRangeLabel(f"line {i + 1}: label {label} exceeds {LABEL_MAX}")
    return LabelSequence(values)


def dump_labels(seq: LabelSequence) -> str:
    """The label-file text of `seq`: one label a line, each line ending in
    a newline."""
    return "\n".join(map(str, seq.labels.tolist())) + "\n"


class CorpusCounts(NamedTuple):
    """A corpus's (video, run, phase, phase) int64 confusion stack, and the
    true-positive, annotated and predicted frame counts of each phase of it,
    each shaped (phase, video, run)."""

    stack: np.ndarray
    tp: np.ndarray
    annotated: np.ndarray
    predicted: np.ndarray


@dataclass(frozen=True)
class Corpus:
    """Sequences to score, valid by construction: the same videos in both
    maps, each with runs, one run-id set, every label within `phases`, each
    prediction as long as its annotation, and a split that is None or a
    non-empty name with no control character or line separator.  Both maps
    are held as read-only copies, so a built Corpus stays valid and reports
    trust it, and its evaluate reports share one count of its frames,
    `counts`."""

    phases: PhaseSet
    annotations: Mapping[int, LabelSequence]
    predictions: Mapping[int, Mapping[str, LabelSequence]]
    split: str | None = None
    videos: tuple[int, ...] = field(init=False)
    runs: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.split is not None and not (isinstance(self.split, str) and self.split):
            raise SchemaError("split must be a non-empty string if present")
        # Any of them would break a md report's lines.
        if self.split and CONTROL_CHARACTERS.search(self.split):
            raise SchemaError(f"split {self.split!r} holds a control character")
        annotations = dict(self.annotations)
        predictions = {v: MappingProxyType(dict(runs)) for v, runs in self.predictions.items()}
        videos = tuple(sorted(annotations))
        if not videos or set(videos) != predictions.keys() or not all(predictions.values()):
            raise SchemaError(
                "a corpus needs at least one video, and each video an annotation and runs"
            )
        runs = tuple(sorted(predictions[videos[0]]))
        for v in videos:
            if (got := tuple(sorted(predictions[v]))) != runs:
                raise RaggedRuns(f"video {v} has runs {list(got)}, expected {list(runs)}")
            annotation = annotations[v]
            validate_sequence(annotation, self.phases)
            for r in runs:
                pred = predictions[v][r]
                validate_sequence(pred, self.phases)
                if len(pred) != len(annotation):
                    raise LengthMismatch(
                        f"video {v} run {r}: prediction has {len(pred)} frames, "
                        f"annotation has {len(annotation)}"
                    )
        object.__setattr__(self, "annotations", MappingProxyType(annotations))
        object.__setattr__(self, "predictions", MappingProxyType(predictions))
        object.__setattr__(self, "videos", videos)
        object.__setattr__(self, "runs", runs)

    @cached_property
    def counts(self) -> CorpusCounts:
        """The confusion counts of every pair, as read-only arrays: counted
        by `confusion.confusion_stack` on first use, then shared."""
        from . import confusion, metrics  # confusion imports this module

        stack = confusion.confusion_stack(self)
        counts = CorpusCounts(stack, *metrics.phase_counts(stack))
        for a in counts:
            a.flags.writeable = False
        return counts

    def __reduce__(self):  # the proxies do not pickle; rebuild through the checks
        predictions = {v: dict(runs) for v, runs in self.predictions.items()}
        return type(self), (self.phases, dict(self.annotations), predictions, self.split)


_MANIFEST_KEYS = frozenset(("phase_count", "videos", "split"))
_VIDEO_KEYS = frozenset(("id", "annotation", "predictions"))


def load_manifest(path: str | Path) -> Corpus:
    """Load a manifest and every file it references, each read by
    vocab.read_file and the manifest decoded by vocab.parse_json.

    Checks the JSON shape here, refusing any key but _MANIFEST_KEYS at the
    top level and _VIDEO_KEYS in a video entry, and a phase_count or video id
    whose type is not exactly int (true is not 1, as in a ledger), and parses
    each label file as it is read, so a parse error names its file.  The Corpus it builds
    holds the one label check and the split's, with run-id agreement and
    that each prediction covers exactly the annotated frames.  Labels are range-checked only
    once every file is read, so a schema or parse error in any entry wins
    over a label out of range; a range error names the first bad file in
    manifest order.
    """
    doc = parse_json(read_file(path), "manifest")
    if not isinstance(doc, dict):
        raise SchemaError("manifest must be a JSON object")
    known_keys(doc, _MANIFEST_KEYS, "manifest: unknown key")
    phase_count = doc.get("phase_count")
    if type(phase_count) is not int or not 1 <= phase_count <= MAX_PHASES:
        raise SchemaError(f"phase_count must be an integer within 1..{MAX_PHASES}")
    videos = doc.get("videos")
    if not isinstance(videos, list) or not videos:
        raise SchemaError("videos must be a non-empty list")
    phases = PhaseSet(phase_count)
    base = os.fspath(Path(path).parent)
    loaded: list[tuple[str, LabelSequence]] = []  # in manifest order

    def load(rel: str) -> LabelSequence:
        path = os.path.join(base, rel)
        try:
            seq = parse_labels(read_file(path))
        except (EmptyFile, ParseError, OutOfRangeLabel) as e:
            e.args = (f"{Path(path)}: {e}",)  # name the file, keep the class
            raise
        loaded.append((path, seq))
        return seq
    annotations: dict[int, LabelSequence] = {}
    predictions: dict[int, dict[str, LabelSequence]] = {}
    for i, entry in enumerate(videos):
        if not isinstance(entry, dict):
            raise SchemaError("each video entry must be an object")
        known_keys(entry, _VIDEO_KEYS, "video entry {}: unknown key", i)
        vid = entry.get("id")
        if type(vid) is not int:
            raise SchemaError("video id must be an integer")
        if vid in annotations:
            raise SchemaError(f"video id {vid} listed twice")
        ann_path = entry.get("annotation")
        preds = entry.get("predictions")
        if not isinstance(ann_path, str) or not isinstance(preds, dict) or not preds:
            raise SchemaError(
                f"video {vid} needs an annotation path and a predictions map"
            )
        annotations[vid] = load(ann_path)
        predictions[vid] = {}
        for run, rel in preds.items():
            if not isinstance(rel, str):
                raise SchemaError(f"video {vid} run {run!r}: path must be a string")
            predictions[vid][run] = load(rel)
    try:
        return Corpus(phases, annotations, predictions, doc.get("split"))
    except OutOfRangeLabel:
        for path, seq in loaded:  # name the first file out of range
            try:
                validate_sequence(seq, phases)
            except OutOfRangeLabel as e:
                e.args = (f"{Path(path)}: {e}",)
                raise e from None
        raise


@dataclass(frozen=True)
class EvaluationReport:
    """Protocol block, summaries, and the summaries of each phase, which
    phase_names names."""

    protocol: dict[str, object]
    summary: dict[str, MetricSummary]
    per_phase: dict[int, dict[str, MetricSummary]]
    phase_names: tuple[str, ...]


# A phase's summary has no spread across phases.
_PHASE_STATS = tuple(k for k in SUMMARY_STATS if k != "sd_phases")


def _summary_obj(s: MetricSummary) -> dict:
    return {k: getattr(s, k) for k in SUMMARY_STATS}


def _json_report(report: EvaluationReport) -> str:
    obj = {
        "format_version": FORMAT_VERSION,
        "protocol": dict(report.protocol),
        "summary": {k: _summary_obj(s) for k, s in report.summary.items()},
        "per_phase": {
            str(p): {k: _summary_obj(s) for k, s in metrics.items()}
            for p, metrics in report.per_phase.items()
        },
    }
    return canonical_json(obj) + "\n"


def _csv_report(report: EvaluationReport) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["section", "phase", "metric", "statistic", "value"])
    w.writerow(["meta", "", "format_version", "", FORMAT_VERSION])
    for k in sorted(report.protocol):
        w.writerow(["protocol", "", k, "", _csv_value(report.protocol[k])])
    sections = [("summary", "", report.summary)]
    sections += [("per_phase", p, report.per_phase[p]) for p in sorted(report.per_phase)]
    for section, phase, rows in sections:
        for name in sorted(rows):
            for stat in SUMMARY_STATS:
                w.writerow([section, phase, name, stat, _csv_value(getattr(rows[name], stat))])
    return buf.getvalue()


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def _md_table(head: list[str], stats: tuple[str, ...], rows) -> list[str]:
    """A markdown table of (leading cells, MetricSummary) rows: the `head`
    columns, then one column per statistic."""
    lines = ["| " + " | ".join([*head, *stats]) + " |", "|---" * (len(head) + len(stats)) + "|"]
    for cells, s in rows:
        values = (getattr(s, k) for k in stats)
        shown = ["n/a" if v is None else fmt_float(v) for v in values]
        lines.append("| " + " | ".join(cells + shown) + " |")
    return lines


def _md_report(report: EvaluationReport) -> str:
    lines = ["# Evaluation report", ""]
    proto = ", ".join(
        f"{k}={_csv_value(report.protocol[k]) or 'n/a'}"
        for k in sorted(report.protocol)
    )
    lines.append(f"Protocol: {proto}")
    lines.append("")
    summary, per_phase = report.summary, report.per_phase
    lines += _md_table(["metric"], SUMMARY_STATS, [([k], s) for k, s in sorted(summary.items())])
    lines += ["", "## Per phase", ""]
    named = [(report.phase_names[p], per_phase[p]) for p in sorted(per_phase)]
    rows = [([name, k], s) for name, row in named for k, s in sorted(row.items())]
    lines += _md_table(["phase", "metric"], _PHASE_STATS, rows)
    lines.append("")
    return "\n".join(lines)


_WRITERS = {"json": _json_report, "csv": _csv_report, "md": _md_report}


def write_report(report: EvaluationReport, fmt: str) -> str:
    """Serialize a report; identical reports yield identical bytes."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")
    return _WRITERS[fmt](report)
