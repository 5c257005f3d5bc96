"""The package's vocabulary, with no numpy: the enums that name a report's
choices, the report's summary record and canonical JSON writer, the
registered dataset splits, and the constants and errors the array modules
and the protocol side share.  Loading a corpus, comparing protocols and
listing splits need nothing else; the modules that once defined these
names re-export them.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from enum import Enum

from .errors import PhaseEvalError


class UndefinedPolicy(Enum):
    EXCLUDE_UNDEFINED = "exclude-undefined"
    EXCLUDE_MISSING_PHASE = "exclude-missing-phase"
    ZERO_FILL = "zero-fill"
    ONE_FILL = "one-fill"


class AveragingOrder(Enum):
    FLAT = "flat"
    PHASE_FIRST = "phase-first"
    VIDEO_FIRST = "video-first"


class StdMode(Enum):
    CORRECTED = "corrected"
    UNCORRECTED = "uncorrected"


class MatrixMode(Enum):
    GRAPH_DERIVED = "graph"
    LEGACY = "legacy"


# Counts are phase x phase int64 per (video, run) pair, 512 KiB at this width:
# far past any surgical workflow, and a bound on what a manifest can allocate.
MAX_PHASES = 256

# Windows are int64 frame counts.
OMEGA_MAX = 2**63 - 1

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

REPORT_FORMATS = ("json", "csv", "md")

_DECIMAL = re.compile("-?[0-9]+")


def decimal(text: str) -> int:
    """The integer an ASCII decimal (-?[0-9]+) spells; ValueError for any
    other text, such as a sign, spaces, underscores or non-ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    return int(text)


class SchemaError(PhaseEvalError):
    """A structured document does not match its expected shape."""


class RaggedRuns(PhaseEvalError):
    """Videos in one manifest or video/run grid must share the same run ids."""


class LengthMismatch(PhaseEvalError):
    """Annotation and prediction must cover the same number of frames."""


class UnknownSplit(PhaseEvalError):
    """No built-in split is registered under the requested name."""


@dataclass(frozen=True)
class MetricSummary:
    """Mean plus per-axis spreads; None marks a statistic with no value
    (a single-point axis, or no defined cells at all)."""

    mean: float | None
    sd_videos: float | None
    sd_phases: float | None
    sd_runs: float | None


# A summary's statistics, in field order.
SUMMARY_STATS = tuple(f.name for f in fields(MetricSummary))


def fmt_float(x: float) -> str:
    return format(x, ".6f")


# Quotes a string exactly as json.dumps(s, ensure_ascii=False) does.
_quote = json.encoder.encode_basestring


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats with six fractional digits,
    two-space indent."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out: list[str], pad: str) -> None:
    """Append obj's canonical form to out; pad is the line break and indent
    of the line obj starts on."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise SchemaError(f"{obj!r} has no JSON form")
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(obj, key=str):
            out += (sep, _quote(str(k)), ": ")
            _write(obj[k], out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write(x, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class SplitDefinition:
    """Named partition of video ids into train / validation / test lists."""

    name: str
    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self):
        ids = list(self.train) + list(self.validation) + list(self.test)
        if len(set(ids)) != len(ids):
            raise ValueError(f"split {self.name!r} reuses a video id")


def _ids(first: int, last: int) -> tuple[int, ...]:
    return tuple(range(first, last + 1))


def cv_folds() -> tuple[SplitDefinition, ...]:
    """The five cross-validation folds of the 48:12:20 protocol.

    Validation blocks are contiguous 12-id windows over videos 1..60
    (fold k validates on 12k+1 .. 12k+12); videos 61..80 are a fixed
    test set shared by all folds.
    """
    folds = []
    for k in range(5):
        val = _ids(12 * k + 1, 12 * k + 12)
        train = tuple(v for v in _ids(1, 60) if v not in set(val))
        folds.append(
            SplitDefinition(f"48:12:20-cv/fold{k}", train, val, _ids(61, 80))
        )
    return tuple(folds)


_BUILTIN_SPLITS = {
    "32:8:40": lambda: SplitDefinition(
        "32:8:40", _ids(1, 32), _ids(33, 40), _ids(41, 80)
    ),
    "40:40": lambda: SplitDefinition("40:40", _ids(1, 40), (), _ids(41, 80)),
    "40:8:32": lambda: SplitDefinition(
        "40:8:32", _ids(1, 40), _ids(41, 48), _ids(49, 80)
    ),
    "40:20:20": lambda: SplitDefinition(
        "40:20:20", _ids(1, 40), _ids(41, 60), _ids(61, 80)
    ),
    "60:20": lambda: SplitDefinition("60:20", _ids(1, 60), (), _ids(61, 80)),
    "48:12:20-cv": lambda: cv_folds()[0],
}


def builtin_split_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_SPLITS))


def resolve_split(name: str) -> SplitDefinition:
    """Look up a built-in split by name.

    The cross-validation protocol resolves to its first fold; use
    cv_folds() for all five.
    """
    try:
        factory = _BUILTIN_SPLITS[name]
    except KeyError:
        known = ", ".join(builtin_split_names())
        raise UnknownSplit(f"unknown split {name!r}; built-ins: {known}") from None
    return factory()
