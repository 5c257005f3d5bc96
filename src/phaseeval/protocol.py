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

from dataclasses import dataclass
from enum import Enum
from importlib import resources
from sys import float_info
from typing import Iterable, Mapping, NamedTuple

from .errors import PhaseEvalError
from .vocab import METRIC_NAMES, OMEGA_MAX, SchemaError, StdMode, UndefinedPolicy, decimal
from .vocab import known_keys, parse_json
from .vocab import canonical_json  # noqa: F401  (re-exported)


class DuplicateEntry(PhaseEvalError):
    """Ledger entries are keyed by (method, source)."""


class EmptyLedger(PhaseEvalError):
    """A leaderboard needs at least one entry."""


HARD = "hard"
SOFT = "soft"
UNKNOWN = "unknown"


class ProtocolField(NamedTuple):
    """Everything about one ledger protocol key: the ProtocolDescriptor
    attribute (which findings name), the exact JSON type (a bool is not an
    int), the closed vocabulary or None, and the rule and severity of a
    difference, or None for a field that is not graded."""

    attr: str
    kind: type
    vocabulary: tuple[str, ...] | None = None
    rule: str | None = None
    severity: str | None = None


PROTOCOL_FIELDS = {
    "split": ProtocolField("split_name", str, None, "C", HARD),
    "relaxed": ProtocolField("relaxed", bool, None, "A", HARD),
    "omega": ProtocolField("omega", int, None, "A", HARD),  # graded when both are relaxed
    "policy": ProtocolField("policy", str, tuple(p.value for p in UndefinedPolicy), "policy", HARD),
    "f1_variant": ProtocolField(
        "f1_variant",
        str,
        ("mean-of-harmonic", "harmonic-of-macro-means", "harmonic-of-overall-means"),
        "f1-variant",
        HARD,
    ),
    "std_source": ProtocolField("std_source", str, ("videos", "phases", "runs"), "B", SOFT),
    "std_mode": ProtocolField("std_mode", str, tuple(m.value for m in StdMode), "std-mode", SOFT),
    "runs": ProtocolField("runs", int),
    "trained_on_validation": ProtocolField(
        "trained_on_validation", bool, None, "validation-use", SOFT
    ),
}

_CLOSED = tuple(f for f in PROTOCOL_FIELDS.values() if f.vocabulary is not None)
_GRADED = tuple((f.attr, f.rule, f.severity) for f in PROTOCOL_FIELDS.values() if f.rule)


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
        if self.split_name == "":
            raise SchemaError("split_name must not be empty")
        for f in _CLOSED:
            value = getattr(self, f.attr)
            if value is not None and value not in f.vocabulary:
                raise SchemaError(f"{f.attr} must be one of {f.vocabulary}, got {value!r}")
        if self.omega is not None and not 0 <= self.omega <= OMEGA_MAX:
            raise SchemaError(f"omega must be non-negative and at most {OMEGA_MAX}")
        if self.runs is not None and self.runs < 1:
            raise SchemaError("runs must be positive")


class Verdict(Enum):
    """In rank order: a leaderboard lists comparable groups first."""

    COMPARABLE = "comparable"
    INDETERMINATE = "indeterminate"
    INCOMPARABLE = "incomparable"


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


@dataclass(frozen=True)
class ComparabilityReport:
    verdict: Verdict
    findings: tuple[Finding, ...]


def check_comparable(a: ProtocolDescriptor, b: ProtocolDescriptor) -> ComparabilityReport:
    """Grade two protocols field by field; symmetric in its arguments."""
    both_relaxed = a.relaxed is True and b.relaxed is True
    findings = []
    for attr, rule, severity in _GRADED:
        x, y = getattr(a, attr), getattr(b, attr)
        if (x == y and x is not None) or (attr == "omega" and not both_relaxed):
            continue
        if x is None and y is None:
            severity, detail = UNKNOWN, f"{attr} unstated on both sides"
        elif x is None or y is None:
            severity, detail = UNKNOWN, f"{attr} unstated on one side ({_pair(x, y)})"
        else:
            detail = f"{attr} differs: {_pair(x, y)}"
        findings.append(Finding(rule, severity, attr, detail))
    findings.sort(key=lambda f: (f.rule, f.field))
    if any(f.severity == HARD for f in findings):
        verdict = Verdict.INCOMPARABLE
    elif any(f.severity == UNKNOWN for f in findings):
        verdict = Verdict.INDETERMINATE
    else:
        verdict = Verdict.COMPARABLE
    return ComparabilityReport(verdict, tuple(findings))


_METRICS = frozenset(METRIC_NAMES)


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
            if name not in _METRICS:
                raise ValueError(f"unknown metric name {name!r}")
        object.__setattr__(self, "metrics", dict(self.metrics))


_TYPE_NAMES = {str: "a string", bool: "true or false", int: "an integer"}
_FROM_TEXT = {str: str, int: decimal, bool: {"true": True, "false": False}.__getitem__}


def _parse_protocol(obj, where: str) -> ProtocolDescriptor:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: protocol must be an object")
    known_keys(obj, PROTOCOL_FIELDS.keys(), "{}: unknown protocol field", where)
    kwargs = {}
    for key, value in obj.items():
        if value == "unknown" or value is None:
            continue
        field = PROTOCOL_FIELDS[key]
        if type(value) is not field.kind:
            raise SchemaError(
                f"{where}: protocol field {key!r} must be {_TYPE_NAMES[field.kind]}, "
                f"got {value!r}"
            )
        kwargs[field.attr] = value
    try:
        return ProtocolDescriptor(**kwargs)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def parse_reference(pairs: Iterable[str]) -> ProtocolDescriptor:
    """A reference protocol from KEY=VALUE strings, with the keys and types
    of a ledger protocol: VALUE is "unknown", true/false for a flag, an
    ASCII decimal integer (-?[0-9]+) for a count, else the string itself.
    Each key may be given once."""
    obj = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep or key not in PROTOCOL_FIELDS:
            raise SchemaError(f"bad reference field {pair!r}")
        if key in obj:
            raise SchemaError(f"reference field {key!r} given twice")
        kind = PROTOCOL_FIELDS[key].kind
        try:
            obj[key] = text if text == "unknown" else _FROM_TEXT[kind](text)
        except (KeyError, ValueError):
            raise SchemaError(
                f"{key} takes {_TYPE_NAMES[kind]} or unknown, got {text!r}"
            ) from None
    return _parse_protocol(obj, "reference")


def _protocol_obj(d: ProtocolDescriptor) -> dict:
    out = {}
    for key, field in PROTOCOL_FIELDS.items():
        value = getattr(d, field.attr)
        out[key] = "unknown" if value is None else value
    return out


def _metrics_obj(r: ReportedResult) -> dict:
    return {
        name: {"mean": mv.mean, "spread": mv.spread} for name, mv in sorted(r.metrics.items())
    }


_RECORD_KEYS = frozenset(("method", "source", "protocol", "metrics", "provenance"))
_METRIC_KEYS = frozenset(("mean", "spread"))
_NUMBERS, _MAX = (int, float), float_info.max


def _amount(x) -> bool:
    """Whether x is a finite, non-negative number: json.loads gives exact
    types, so a bool is not one, and NaN fails the range."""
    return type(x) in _NUMBERS and 0 <= x <= _MAX


def parse_ledger(text: str | bytes) -> tuple[ReportedResult, ...]:
    """Parse a ledger document (str, or bytes in a JSON encoding): a list of records."""
    doc = parse_json(text, "ledger")
    if not isinstance(doc, list):
        raise SchemaError("ledger must be a JSON list of records")
    results = []
    seen = set()
    # Each distinct protocol object is parsed once, keyed by its repr, which
    # tells 1, 1.0 and True apart where equality and hashing do not.
    protocols: dict[str, ProtocolDescriptor] = {}
    for i, rec in enumerate(doc):
        where = f"record {i}"
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}: must be an object")
        known_keys(rec, _RECORD_KEYS, "{}: unknown record key", where)
        method = rec.get("method")
        source = rec.get("source")
        if not isinstance(method, str) or not isinstance(source, str):
            raise SchemaError(f"{where}: method and source must be strings")
        key = (method, source)
        if key in seen:
            raise DuplicateEntry(f"{where}: duplicate entry {method!r} / {source!r}")
        seen.add(key)
        obj = rec.get("protocol", {})
        protocol = protocols.get(memo := repr(obj))
        if protocol is None:
            protocol = protocols[memo] = _parse_protocol(obj, where)
        metrics_obj = rec.get("metrics")
        if not isinstance(metrics_obj, dict) or not metrics_obj:
            raise SchemaError(f"{where}: metrics must be a non-empty object")
        metrics = {}
        for name, mv in metrics_obj.items():
            if name not in _METRICS:
                raise SchemaError(f"{where}: unknown metric name {name!r}")
            if not isinstance(mv, dict) or "mean" not in mv:
                raise SchemaError(f"{where}: metric {name!r} needs a mean")
            known_keys(mv, _METRIC_KEYS, "{}: metric {!r} has unknown key", where, name)
            mean, spread = mv["mean"], mv.get("spread")
            if not _amount(mean) or not (spread is None or _amount(spread)):
                field, x = ("mean", mean) if not _amount(mean) else ("spread", spread)
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


def seed_ledger() -> tuple[ReportedResult, ...]:
    """Bundled ledger of published cholecystectomy phase-recognition
    results, transcribed as reported (not re-verified)."""
    seed = resources.files("phaseeval") / "data" / "seed_ledger.json"
    return parse_ledger(seed.read_bytes())


def render_leaderboard(
    results: Iterable[ReportedResult],
    reference: ProtocolDescriptor,
    sort_metric: str = "accuracy",
) -> dict:
    """Group entries by how they compare to a reference protocol, as the
    JSON-ready object that `compare` writes.

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
    # Descriptors are frozen, so each distinct protocol is graded and keyed
    # once, and then names its bucket.
    buckets: dict[tuple, tuple[ComparabilityReport, list[ReportedResult]]] = {}
    bucket_of: dict[ProtocolDescriptor, tuple[ComparabilityReport, list[ReportedResult]]] = {}
    for r in results:
        bucket = bucket_of.get(r.protocol)
        if bucket is None:
            report = check_comparable(reference, r.protocol)
            key = tuple((f.rule, f.severity, f.field) for f in report.findings)
            bucket = bucket_of[r.protocol] = buckets.setdefault(key, (report, []))
        bucket[1].append(r)
    ranked = sorted(
        buckets.values(),
        key=lambda b: (
            list(Verdict).index(b[0].verdict),
            len(b[0].findings),
            tuple((f.rule, f.field) for f in b[0].findings),
        ),
    )

    def best_first(r: ReportedResult):
        mean = -r.metrics[sort_metric].mean if sort_metric in r.metrics else 1.0
        return mean, r.method, r.source

    return {
        "reference": _protocol_obj(reference),
        "sort_metric": sort_metric,
        "groups": [
            {
                "verdict": report.verdict.value,
                # asdict's deep copy would cost about 5 us a finding
                "findings": [dict(vars(f)) for f in report.findings],
                "entries": [
                    {"method": r.method, "source": r.source, "metrics": _metrics_obj(r)}
                    for r in sorted(entries, key=best_first)
                ],
            }
            for report, entries in ranked
        ],
    }
