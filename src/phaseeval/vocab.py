"""The package's vocabulary, with no numpy: the enums that name a report's
choices, the report's summary record and canonical JSON writer, the
registered dataset splits, the one reader of the files a user hands in,
and the constants and errors the array modules and the protocol side
share.  Loading a corpus, comparing protocols and listing splits need
nothing else; the modules that once defined these names re-export them.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

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
# The control characters (Unicode category Cc), and the line and paragraph
# separators at which str.splitlines also breaks: text that must stay on one
# line holds none of them.
CONTROL_CHARACTERS = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def decimal(text: str) -> int:
    """The integer an ASCII decimal (-?[0-9]+) spells; ValueError for any
    other text, such as a sign, spaces, underscores or non-ASCII digits."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    return int(text)


class SchemaError(PhaseEvalError):
    """A structured document does not match its expected shape."""


class MissingFile(PhaseEvalError):
    """A label file, manifest or ledger path that names no regular file."""


def read_file(path: str | os.PathLike) -> bytes:
    """The bytes of the label file, manifest or ledger Path(path) names.  It is
    opened once, without blocking, so a FIFO is never waited on, and read to its
    end whatever its size said; anything but a regular file (a missing path, a
    directory, a FIFO) is MissingFile, and an unreadable one a PermissionError."""
    name = os.fspath(path)
    try:
        try:
            fd = os.open(name, os.O_RDONLY | os.O_NONBLOCK)
        except (FileNotFoundError, NotADirectoryError):  # "file/" or "file/."
            fd = os.open(str(Path(name)), os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, NotADirectoryError, ValueError):  # ValueError: a NUL in it
        raise MissingFile(str(Path(name))) from None
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise MissingFile(str(Path(name)))
        data = os.read(fd, st.st_size + 1)  # a byte over, to see a grown file
        while more := os.read(fd, 1):  # on to EOF, also after a short read
            data += more + os.read(fd, len(data))
    finally:
        os.close(fd)
    return data


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, as json.loads' object_pairs_hook:
    a repeated key is refused, where json.loads would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise SchemaError(f"key {repeated!r} appears twice in one object")
    return doc


def parse_json(data: str | bytes, what: str):
    """A JSON document from str, or bytes in UTF-8 (a BOM ignored), UTF-16 or UTF-32,
    with no repeated key and no lone surrogate in a string, which no output could
    encode; anything else is SchemaError("<what> is not valid JSON")."""
    try:
        if not isinstance(data, str):  # decoded as json.loads decodes, to see the text
            data = data.decode(json.detect_encoding(data), "surrogatepass")
        doc = json.loads(data, object_pairs_hook=unique_keys)
        # A surrogate is in the text itself or spelt by a \u escape, so an ASCII
        # text with no backslash, such as the seed ledger, is not re-encoded;
        # the one-character search is the fast one.  The re-encoding writes
        # keys and values in document order and fails on a lone surrogate only.
        if not data.isascii() or ("\\" in data and "\\u" in data):
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as e:
        raise SchemaError(
            f"{what} is not valid JSON: a string holds the lone surrogate {e.object[e.start]!r}"
        ) from None
    except (ValueError, RecursionError) as e:  # not decodable, not JSON, or nested too deep
        raise SchemaError(f"{what} is not valid JSON: {e}") from None
    return doc


def known_keys(obj: dict, keys, message: str, *args) -> None:
    """Refuse the first key of obj not in keys, a frozenset or a dict's keys:
    SchemaError(f"{message.format(*args)} {key!r}"), formatted only then."""
    if not obj.keys() <= keys:
        key = next(k for k in obj if k not in keys)
        raise SchemaError(f"{message.format(*args)} {key!r}")


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


def _number(x: float) -> str:
    if not math.isfinite(x):
        raise SchemaError(f"{x!r} has no JSON form")
    return fmt_float(x)


# Each JSON scalar type's form, by exact type; a subclass of int, float or
# str takes its base's form.
_SCALARS = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: str,
    float: _number,
    str: _quote,
}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats with six fractional digits,
    two-space indent."""
    out: list[str] = []
    _write(obj, out, "\n", {})
    return "".join(out)


def _write(obj, out: list[str], pad: str, names: dict[str, str]) -> None:
    """Append obj's canonical form to out; pad is the line break and indent
    of the line obj starts on, and names holds the document's quoted str
    keys, each with its ": "."""
    kind = type(obj)
    form = _SCALARS.get(kind)
    if form is not None:
        out.append(form(obj))
    elif isinstance(obj, dict):
        _write_dict(obj, out, pad, names)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for x in obj:
            out.append(sep)
            _write(x, out, inner, names)
            sep = comma
        out.append(pad + "]")
    else:
        base = next((b for b in (int, float, str) if isinstance(obj, b)), None)
        if base is None:
            raise TypeError(f"cannot serialize {kind.__name__}")
        out.append(_SCALARS[base](obj))


def _write_dict(obj: dict, out: list[str], pad: str, names: dict[str, str]) -> None:
    """_write of a dict, whose str, finite float, None and dict members it
    writes without a call to _write."""
    if not obj:
        out.append("{}")
        return
    inner = pad + "  "
    sep, comma = "{" + inner, "," + inner
    for k in sorted(obj, key=str):
        if type(k) is str:
            name = names.get(k)
            if name is None:
                name = names[k] = _quote(k) + ": "
        else:
            name = _quote(str(k)) + ": "
        v = obj[k]
        kind = type(v)
        if kind is str:
            out += (sep, name, _quote(v))
        elif kind is float and v - v == 0:  # finite
            out += (sep, name, format(v, ".6f"))  # fmt_float, without its call
        elif v is None:
            out += (sep, name, "null")
        elif kind is dict:
            out += (sep, name)
            _write_dict(v, out, inner, names)
        else:
            out += (sep, name)
            _write(v, out, inner, names)
        sep = comma
    out.append(pad + "}")


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
