"""File formats: label files, evaluation manifests and report serialization.

A label file is UTF-8 text, one non-negative integer per line, with an
optional final newline; blank interior lines are rejected.  A manifest is
a JSON document naming, per video, one annotation file and one prediction
file per run id; run-id sets must agree across videos.

Reports serialize to json (canonical key order, numbers with six
fractional digits, byte-deterministic), csv, or markdown; every format
carries the full protocol block so no number travels without its
evaluation settings.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .aggregate import MetricSummary
from .confusion import LengthMismatch
from .core import LABEL_MAX, LabelSequence, OutOfRangeLabel, PhaseSet, validate_sequence
from .errors import PhaseEvalError

FORMAT_VERSION = "1"

REPORT_FORMATS = ("json", "csv", "md")


class ParseError(PhaseEvalError):
    """Malformed label file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyFile(PhaseEvalError):
    """A label file with no frames."""


class MissingFile(PhaseEvalError):
    """A manifest entry points at a file that does not exist."""


class SchemaError(PhaseEvalError):
    """A structured document does not match its expected shape."""


class RaggedRuns(PhaseEvalError):
    """Videos in one manifest must share the same run ids."""


_NEWLINE = ord("\n")
_ZERO = ord("0")
# Ten digits hold every int32 label; a nonzero digit further left does not fit.
_WIDTH = len(str(LABEL_MAX))


def parse_labels(text: str | bytes) -> LabelSequence:
    """Parse label-file content; see load_labels."""
    if isinstance(text, str):
        data, errors = text.encode("utf-8", "surrogatepass"), "surrogatepass"
    else:
        data, errors = text, "backslashreplace"
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0:
        raise EmptyFile("no frames")
    digit = buf - np.uint8(_ZERO)  # non-digit bytes wrap to values above 9
    # One digit a line, the usual layout, is read without the line arrays
    # below, whose allocation costs more than the parsing itself.
    if (buf[1::2] == _NEWLINE).all() and (digit[::2] <= 9).all():
        return LabelSequence(digit[::2])
    newline = buf == _NEWLINE
    ends = np.flatnonzero(newline)  # one past each line's last byte
    if not newline[-1]:
        ends = np.concatenate((ends, [buf.size]))
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    junk = (digit > 9) & ~newline
    if junk.any() or not lengths.all():
        first_junk = np.searchsorted(ends, np.argmax(junk)) if junk.any() else ends.size
        first_blank = np.argmin(lengths) if not lengths.all() else ends.size
        i = int(min(first_junk, first_blank))
        if lengths[i] == 0:
            raise ParseError("blank line", line=i + 1)
        line = data[starts[i] : ends[i]].decode("utf-8", errors)
        raise ParseError(f"not a non-negative integer: {line!r}", line=i + 1)
    # Each line's value from its last _WIDTH digits, one place value at a time.
    values = digit[ends - 1].astype(np.int64)
    for place in range(1, min(int(lengths.max()), _WIDTH)):
        longer = lengths > place
        values[longer] += digit[ends[longer] - 1 - place].astype(np.int64) * 10**place
    too_wide = values > LABEL_MAX
    if lengths.max() > _WIDTH:
        nonzero = np.flatnonzero((digit >= 1) & (digit <= 9))
        owner = np.searchsorted(ends, nonzero)
        too_wide[owner[nonzero < ends[owner] - _WIDTH]] = True
    if too_wide.any():
        i = int(np.argmax(too_wide))
        label = data[starts[i] : ends[i]].decode("ascii")
        raise OutOfRangeLabel(f"line {i + 1}: label {label} exceeds {LABEL_MAX}")
    return LabelSequence(values)


def load_labels(path: str | Path) -> LabelSequence:
    """Read one label file (one integer per line)."""
    p = Path(path)
    if not p.is_file():
        raise MissingFile(str(p))
    return parse_labels(p.read_bytes())


def dump_labels(seq: LabelSequence) -> str:
    return "\n".join(map(str, seq.labels.tolist())) + "\n"


@dataclass(frozen=True)
class Corpus:
    """One manifest's worth of loaded, length-checked sequences."""

    phases: PhaseSet
    annotations: dict[int, LabelSequence]
    predictions: dict[int, dict[str, LabelSequence]]
    split: str | None = None

    @property
    def videos(self) -> tuple[int, ...]:
        return tuple(sorted(self.annotations))

    @property
    def runs(self) -> tuple[str, ...]:
        first = self.videos[0]
        return tuple(sorted(self.predictions[first]))


def _is_int(value) -> bool:
    """JSON integers only: true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_manifest(path: str | Path) -> Corpus:
    """Load a manifest and every file it references.

    Validates the JSON shape, run-id agreement across videos, label range
    against the declared phase count, and that each prediction covers
    exactly the annotated frames.
    """
    p = Path(path)
    if not p.is_file():
        raise MissingFile(str(p))
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise SchemaError(f"manifest is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("manifest must be a JSON object")
    phase_count = doc.get("phase_count")
    if not _is_int(phase_count) or phase_count < 1:
        raise SchemaError("phase_count must be a positive integer")
    split = doc.get("split")
    if split is not None and not isinstance(split, str):
        raise SchemaError("split must be a string if present")
    videos = doc.get("videos")
    if not isinstance(videos, list) or not videos:
        raise SchemaError("videos must be a non-empty list")
    phases = PhaseSet(phase_count)
    base = p.parent
    annotations: dict[int, LabelSequence] = {}
    predictions: dict[int, dict[str, LabelSequence]] = {}
    run_ids: tuple[str, ...] | None = None
    for entry in videos:
        if not isinstance(entry, dict):
            raise SchemaError("each video entry must be an object")
        vid = entry.get("id")
        if not _is_int(vid):
            raise SchemaError("video id must be an integer")
        if vid in annotations:
            raise SchemaError(f"video id {vid} listed twice")
        ann_path = entry.get("annotation")
        preds = entry.get("predictions")
        if not isinstance(ann_path, str) or not isinstance(preds, dict) or not preds:
            raise SchemaError(
                f"video {vid} needs an annotation path and a predictions map"
            )
        entry_runs = tuple(sorted(preds))
        if run_ids is None:
            run_ids = entry_runs
        elif entry_runs != run_ids:
            raise RaggedRuns(
                f"video {vid} has runs {list(entry_runs)}, expected {list(run_ids)}"
            )
        annotation = load_labels(base / ann_path)
        validate_sequence(annotation, phases)
        annotations[vid] = annotation
        predictions[vid] = {}
        for run, rel in preds.items():
            if not isinstance(rel, str):
                raise SchemaError(f"video {vid} run {run!r}: path must be a string")
            pred = load_labels(base / rel)
            validate_sequence(pred, phases)
            if len(pred) != len(annotation):
                raise LengthMismatch(
                    f"video {vid} run {run}: prediction has {len(pred)} frames, "
                    f"annotation has {len(annotation)}"
                )
            predictions[vid][run] = pred
    return Corpus(phases, annotations, predictions, split)


@dataclass(frozen=True)
class EvaluationReport:
    """Protocol block plus summaries; per_phase may be None (video-level
    only reports)."""

    protocol: dict[str, object]
    summary: dict[str, MetricSummary]
    per_phase: dict[int, dict[str, MetricSummary]] | None = None
    phase_names: tuple[str, ...] | None = None
    format_version: str = FORMAT_VERSION


def _fmt_float(x: float) -> str:
    return format(x, ".6f")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats with six fractional digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            items.append(
                f"{inner}{json.dumps(str(k), ensure_ascii=False)}: "
                f"{canonical_json(obj[k], indent + 1)}"
            )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{canonical_json(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _summary_obj(s: MetricSummary) -> dict:
    return {
        "mean": s.mean,
        "sd_videos": s.sd_videos,
        "sd_phases": s.sd_phases,
        "sd_runs": s.sd_runs,
    }


def _report_obj(report: EvaluationReport) -> dict:
    obj: dict[str, object] = {
        "format_version": report.format_version,
        "protocol": dict(report.protocol),
        "summary": {k: _summary_obj(s) for k, s in report.summary.items()},
    }
    if report.per_phase is not None:
        obj["per_phase"] = {
            str(p): {k: _summary_obj(s) for k, s in metrics.items()}
            for p, metrics in report.per_phase.items()
        }
    return obj


_STATS = ("mean", "sd_videos", "sd_phases", "sd_runs")


def _csv_report(report: EvaluationReport) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["section", "phase", "metric", "statistic", "value"])
    w.writerow(["meta", "", "format_version", "", report.format_version])
    for k in sorted(report.protocol):
        w.writerow(["protocol", "", k, "", _csv_value(report.protocol[k])])
    for name in sorted(report.summary):
        s = _summary_obj(report.summary[name])
        for stat in _STATS:
            w.writerow(["summary", "", name, stat, _csv_value(s[stat])])
    if report.per_phase is not None:
        for p in sorted(report.per_phase):
            for name in sorted(report.per_phase[p]):
                s = _summary_obj(report.per_phase[p][name])
                for stat in _STATS:
                    w.writerow(["per_phase", p, name, stat, _csv_value(s[stat])])
    return buf.getvalue()


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _md_cell(v: float | None) -> str:
    return "n/a" if v is None else _fmt_float(v)


def _md_report(report: EvaluationReport) -> str:
    lines = ["# Evaluation report", ""]
    proto = ", ".join(
        f"{k}={_csv_value(report.protocol[k]) or 'n/a'}"
        for k in sorted(report.protocol)
    )
    lines.append(f"Protocol: {proto}")
    lines.append("")
    lines.append("| metric | mean | sd_videos | sd_phases | sd_runs |")
    lines.append("|---|---|---|---|---|")
    for name in sorted(report.summary):
        s = report.summary[name]
        lines.append(
            f"| {name} | {_md_cell(s.mean)} | {_md_cell(s.sd_videos)} "
            f"| {_md_cell(s.sd_phases)} | {_md_cell(s.sd_runs)} |"
        )
    if report.per_phase is not None:
        lines.append("")
        lines.append("## Per phase")
        lines.append("")
        lines.append("| phase | metric | mean | sd_videos | sd_runs |")
        lines.append("|---|---|---|---|---|")
        for p in sorted(report.per_phase):
            label = (
                report.phase_names[p]
                if report.phase_names is not None and p < len(report.phase_names)
                else str(p)
            )
            for name in sorted(report.per_phase[p]):
                s = report.per_phase[p][name]
                lines.append(
                    f"| {label} | {name} | {_md_cell(s.mean)} "
                    f"| {_md_cell(s.sd_videos)} | {_md_cell(s.sd_runs)} |"
                )
    lines.append("")
    return "\n".join(lines)


def write_report(report: EvaluationReport, fmt: str) -> str:
    """Serialize a report; identical reports yield identical bytes."""
    if fmt == "json":
        return canonical_json(_report_obj(report)) + "\n"
    if fmt == "csv":
        return _csv_report(report)
    if fmt == "md":
        return _md_report(report)
    raise ValueError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")
