"""Protocol descriptors, comparability checking and reported-result ledgers.

Two benchmark numbers are only comparable when they were produced under
the same evaluation protocol.  A ProtocolDescriptor captures the choices
that matter; every field may be None, meaning the publication does not
state it.  check_comparable grades each field:

* hard conflicts (verdict INCOMPARABLE): different split, different
  relaxed flag or window width, different f1 construction, different
  undefined-value policy;
* soft findings (verdict stays COMPARABLE): different spread axis or std
  estimator, different use of validation data for training;
* unknown findings (verdict INDETERMINATE unless something is already
  hard): a compared field is unstated on either side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from sys import float_info
from typing import Iterable, Mapping

from .aggregate import StdMode
from .errors import PhaseEvalError
from .io import SchemaError, canonical_json
from .metrics import UndefinedPolicy


class DuplicateEntry(PhaseEvalError):
    """Ledger entries are keyed by (method, source)."""


class EmptyLedger(PhaseEvalError):
    """A leaderboard needs at least one entry."""


POLICIES = tuple(p.value for p in UndefinedPolicy)
F1_VARIANTS = (
    "mean-of-harmonic",
    "harmonic-of-macro-means",
    "harmonic-of-overall-means",
)
STD_SOURCES = ("videos", "phases", "runs")
STD_MODES = tuple(m.value for m in StdMode)

METRIC_NAMES = (
    "accuracy",
    "precision",
    "recall",
    "f1",
    "f1_upper",
    "frame_f1",
    "jaccard",
    "macro_precision",
    "macro_recall",
    "macro_f1",
    "bold_macro_f1",
    "relaxed_accuracy",
    "relaxed_precision",
    "relaxed_recall",
    "relaxed_jaccard",
)


@dataclass(frozen=True)
class ProtocolDescriptor:
    """Evaluation protocol of one reported result; None means unstated."""

    split_name: str | None = None
    relaxed: bool | None = None
    omega: int | None = None
    policy: str | None = None
    f1_variant: str | None = None
    std_source: str | None = None
    std_mode: str | None = None
    runs: int | None = None
    trained_on_validation: bool | None = None

    def __post_init__(self):
        for field_name, vocab in (
            ("policy", POLICIES),
            ("f1_variant", F1_VARIANTS),
            ("std_source", STD_SOURCES),
            ("std_mode", STD_MODES),
        ):
            value = getattr(self, field_name)
            if value is not None and value not in vocab:
                raise SchemaError(f"{field_name} must be one of {vocab}, got {value!r}")
        if self.omega is not None and self.omega < 0:
            raise SchemaError("omega must be non-negative")
        if self.runs is not None and self.runs < 1:
            raise SchemaError("runs must be positive")


class Verdict(Enum):
    COMPARABLE = "comparable"
    INDETERMINATE = "indeterminate"
    INCOMPARABLE = "incomparable"


HARD = "hard"
SOFT = "soft"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Finding:
    rule: str
    severity: str
    field: str
    detail: str


def _pair(a, b) -> str:
    sa, sb = sorted((_show(a), _show(b)))
    return f"{sa} / {sb}"


def _show(v) -> str:
    if v is None:
        return "unstated"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _grade(rule: str, field: str, a, b, severity_when_different: str) -> Finding | None:
    if a is None or b is None:
        if a is None and b is None:
            detail = f"{field} unstated on both sides"
        else:
            detail = f"{field} unstated on one side ({_pair(a, b)})"
        return Finding(rule, UNKNOWN, field, detail)
    if a != b:
        return Finding(
            rule, severity_when_different, field, f"{field} differs: {_pair(a, b)}"
        )
    return None


@dataclass(frozen=True)
class ComparabilityReport:
    verdict: Verdict
    findings: tuple[Finding, ...]


def check_comparable(a: ProtocolDescriptor, b: ProtocolDescriptor) -> ComparabilityReport:
    """Grade two protocols field by field; symmetric in its arguments."""
    findings = []

    def add(f: Finding | None):
        if f is not None:
            findings.append(f)

    add(_grade("C", "split_name", a.split_name, b.split_name, HARD))
    add(_grade("A", "relaxed", a.relaxed, b.relaxed, HARD))
    if a.relaxed is True and b.relaxed is True:
        add(_grade("A", "omega", a.omega, b.omega, HARD))
    add(_grade("policy", "policy", a.policy, b.policy, HARD))
    add(_grade("f1-variant", "f1_variant", a.f1_variant, b.f1_variant, HARD))
    add(_grade("B", "std_source", a.std_source, b.std_source, SOFT))
    add(_grade("std-mode", "std_mode", a.std_mode, b.std_mode, SOFT))
    add(
        _grade(
            "validation-use",
            "trained_on_validation",
            a.trained_on_validation,
            b.trained_on_validation,
            SOFT,
        )
    )
    findings.sort(key=lambda f: (f.rule, f.field))
    if any(f.severity == HARD for f in findings):
        verdict = Verdict.INCOMPARABLE
    elif any(f.severity == UNKNOWN for f in findings):
        verdict = Verdict.INDETERMINATE
    else:
        verdict = Verdict.COMPARABLE
    return ComparabilityReport(verdict, tuple(findings))


@dataclass(frozen=True)
class MetricValue:
    mean: float
    spread: float | None = None


@dataclass(frozen=True)
class ReportedResult:
    """One row of a results ledger: a method, where its numbers come from,
    the protocol they were produced under, and the numbers themselves."""

    method: str
    source: str
    protocol: ProtocolDescriptor
    metrics: Mapping[str, MetricValue]
    provenance: str | None = None

    def __post_init__(self):
        for name in self.metrics:
            if name not in METRIC_NAMES:
                raise ValueError(f"unknown metric name {name!r}")
        object.__setattr__(self, "metrics", dict(self.metrics))


# Ledger key -> (ProtocolDescriptor attribute, JSON type).  Types match
# exactly, so a bool is not an int here.
PROTOCOL_FIELDS = {
    "split": ("split_name", str),
    "relaxed": ("relaxed", bool),
    "omega": ("omega", int),
    "policy": ("policy", str),
    "f1_variant": ("f1_variant", str),
    "std_source": ("std_source", str),
    "std_mode": ("std_mode", str),
    "runs": ("runs", int),
    "trained_on_validation": ("trained_on_validation", bool),
}

_TYPE_NAMES = {str: "a string", bool: "true or false", int: "an integer"}
_FROM_TEXT = {str: str, int: int, bool: {"true": True, "false": False}.__getitem__}


def _parse_protocol(obj, where: str) -> ProtocolDescriptor:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: protocol must be an object")
    kwargs = {}
    for key, value in obj.items():
        if key not in PROTOCOL_FIELDS:
            raise SchemaError(f"{where}: unknown protocol field {key!r}")
        if value == "unknown" or value is None:
            continue
        attr, kind = PROTOCOL_FIELDS[key]
        if type(value) is not kind:
            raise SchemaError(
                f"{where}: protocol field {key!r} must be {_TYPE_NAMES[kind]}, "
                f"got {value!r}"
            )
        kwargs[attr] = value
    try:
        return ProtocolDescriptor(**kwargs)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def parse_reference(pairs: Iterable[str]) -> ProtocolDescriptor:
    """A reference protocol from KEY=VALUE strings, with the keys and types
    of a ledger protocol: VALUE is "unknown", true/false for a flag, a
    decimal integer for a count, else the string itself."""
    obj = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or key not in PROTOCOL_FIELDS:
            raise SchemaError(f"bad reference field {pair!r}")
        kind = PROTOCOL_FIELDS[key][1]
        try:
            obj[key] = text if text == "unknown" else _FROM_TEXT[kind](text)
        except (KeyError, ValueError):
            raise SchemaError(
                f"{key} takes {_TYPE_NAMES[kind]} or unknown, got {text!r}"
            ) from None
    return _parse_protocol(obj, "reference")


def _protocol_obj(d: ProtocolDescriptor) -> dict:
    out = {}
    for key, (attr, _) in PROTOCOL_FIELDS.items():
        value = getattr(d, attr)
        out[key] = "unknown" if value is None else value
    return out


def parse_ledger(text: str | bytes) -> tuple[ReportedResult, ...]:
    """Parse a ledger document (str, or bytes in a JSON encoding): a list of records."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise SchemaError(f"ledger is not valid JSON: {e}") from None
    if not isinstance(doc, list):
        raise SchemaError("ledger must be a JSON list of records")
    results = []
    seen = set()
    for i, rec in enumerate(doc):
        where = f"record {i}"
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}: must be an object")
        method = rec.get("method")
        source = rec.get("source")
        if not isinstance(method, str) or not isinstance(source, str):
            raise SchemaError(f"{where}: method and source must be strings")
        key = (method, source)
        if key in seen:
            raise DuplicateEntry(f"{where}: duplicate entry {method!r} / {source!r}")
        seen.add(key)
        protocol = _parse_protocol(rec.get("protocol", {}), where)
        metrics_obj = rec.get("metrics")
        if not isinstance(metrics_obj, dict) or not metrics_obj:
            raise SchemaError(f"{where}: metrics must be a non-empty object")
        metrics = {}
        for name, mv in metrics_obj.items():
            if name not in METRIC_NAMES:
                raise SchemaError(f"{where}: unknown metric name {name!r}")
            if not isinstance(mv, dict) or "mean" not in mv:
                raise SchemaError(f"{where}: metric {name!r} needs a mean")
            mean, spread = mv["mean"], mv.get("spread")
            for field, x in (("mean", mean), ("spread", 0 if spread is None else spread)):
                # json.loads gives exact types, so a bool is neither; NaN fails the range
                if type(x) not in (int, float) or not 0 <= x <= float_info.max:
                    raise SchemaError(
                        f"{where}: metric {name!r} {field} must be a finite and "
                        f"non-negative number, got {x!r}"
                    )
            metrics[name] = MetricValue(float(mean), None if spread is None else float(spread))
        provenance = rec.get("provenance")
        if provenance is not None and not isinstance(provenance, str):
            raise SchemaError(f"{where}: provenance must be a string")
        results.append(ReportedResult(method, source, protocol, metrics, provenance))
    return tuple(results)


def ingest_ledger(path: str | Path) -> tuple[ReportedResult, ...]:
    p = Path(path)
    if not p.is_file():
        raise SchemaError(f"no such ledger file: {p}")
    return parse_ledger(p.read_bytes())


def dump_ledger(results: Iterable[ReportedResult]) -> str:
    """Canonical serialization; dump(parse(dump(x))) is byte-identical."""
    records = []
    for r in results:
        rec = {
            "method": r.method,
            "source": r.source,
            "protocol": _protocol_obj(r.protocol),
            "metrics": {
                name: {"mean": mv.mean, "spread": mv.spread}
                for name, mv in sorted(r.metrics.items())
            },
        }
        if r.provenance is not None:
            rec["provenance"] = r.provenance
        records.append(rec)
    return canonical_json(records) + "\n"


def seed_ledger() -> tuple[ReportedResult, ...]:
    """Bundled ledger of published cholecystectomy phase-recognition
    results, transcribed as reported (not re-verified)."""
    text = (
        resources.files("phaseeval").joinpath("data/seed_ledger.json").read_text("utf-8")
    )
    return parse_ledger(text)


@dataclass(frozen=True)
class LeaderboardGroup:
    verdict: Verdict
    findings: tuple[Finding, ...]
    entries: tuple[ReportedResult, ...]


@dataclass(frozen=True)
class Leaderboard:
    reference: ProtocolDescriptor
    sort_metric: str
    groups: tuple[LeaderboardGroup, ...]


_VERDICT_RANK = {
    Verdict.COMPARABLE: 0,
    Verdict.INDETERMINATE: 1,
    Verdict.INCOMPARABLE: 2,
}


def render_leaderboard(
    results: Iterable[ReportedResult],
    reference: ProtocolDescriptor,
    sort_metric: str = "accuracy",
) -> Leaderboard:
    """Group entries by how they compare to a reference protocol.

    Entries with identical findings against the reference share a group;
    within a group, entries sort by the chosen metric, best first.  Any
    juxtaposition across groups carries the groups' findings, so unlike
    numbers never sit in one undifferentiated ranking.
    """
    results = list(results)
    if not results:
        raise EmptyLedger("no entries to rank")
    if sort_metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric name {sort_metric!r}")
    buckets: dict[tuple, tuple[Verdict, tuple[Finding, ...], list[ReportedResult]]] = {}
    for r in results:
        report = check_comparable(reference, r.protocol)
        key = tuple((f.rule, f.severity, f.field) for f in report.findings)
        if key not in buckets:
            buckets[key] = (report.verdict, report.findings, [])
        buckets[key][2].append(r)
    groups = []
    for verdict, findings, entries in buckets.values():
        entries.sort(
            key=lambda r: (
                -(r.metrics[sort_metric].mean) if sort_metric in r.metrics else 1.0,
                r.method,
                r.source,
            )
        )
        groups.append(LeaderboardGroup(verdict, findings, tuple(entries)))
    groups.sort(
        key=lambda g: (
            _VERDICT_RANK[g.verdict],
            len(g.findings),
            tuple((f.rule, f.field) for f in g.findings),
        )
    )
    return Leaderboard(reference, sort_metric, tuple(groups))


def leaderboard_obj(board: Leaderboard) -> dict:
    """JSON-ready view of a leaderboard."""
    return {
        "reference": _protocol_obj(board.reference),
        "sort_metric": board.sort_metric,
        "groups": [
            {
                "verdict": g.verdict.value,
                "findings": [
                    {
                        "rule": f.rule,
                        "severity": f.severity,
                        "field": f.field,
                        "detail": f.detail,
                    }
                    for f in g.findings
                ],
                "entries": [
                    {
                        "method": r.method,
                        "source": r.source,
                        "metrics": {
                            name: {"mean": mv.mean, "spread": mv.spread}
                            for name, mv in sorted(r.metrics.items())
                        },
                    }
                    for r in g.entries
                ],
            }
            for g in board.groups
        ],
    }
