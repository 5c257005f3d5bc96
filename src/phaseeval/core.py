"""Core domain types: phase vocabularies, label sequences, segments and
workflow graphs.  The built-in cholecystectomy dataset splits live in
`vocab` and are re-exported here.

Video ids are 1-based (matching the common file naming video01..video80),
time indices are 0-based frame positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import PhaseEvalError
from .vocab import MAX_PHASES, SplitDefinition, UnknownSplit  # noqa: F401  (re-exported)
from .vocab import builtin_split_names, cv_folds, resolve_split  # noqa: F401


class OutOfRangeLabel(PhaseEvalError):
    """A label lies outside the declared phase vocabulary."""


class EmptySequence(PhaseEvalError):
    """A label sequence must contain at least one frame."""


class UnsupportedPhaseCount(PhaseEvalError):
    """A vocabulary holds 1 to MAX_PHASES phases."""


@dataclass(frozen=True)
class PhaseSet:
    """Label vocabulary: phases are the integers 0 .. count-1."""

    count: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.count <= MAX_PHASES:
            raise UnsupportedPhaseCount(
                f"phase count must be within 1..{MAX_PHASES}, got {self.count}"
            )
        if self.names is not None and len(self.names) != self.count:
            raise ValueError("need exactly one name per phase")

    def __iter__(self):
        return iter(range(self.count))

    def __contains__(self, phase: int) -> bool:
        return 0 <= phase < self.count

    def name_of(self, phase: int) -> str:
        if self.names is None:
            return str(phase)
        return self.names[phase]


CHOLEC80_PHASE_NAMES = (
    "Preparation",
    "Calot triangle dissection",
    "Clipping and cutting",
    "Gallbladder dissection",
    "Gallbladder packaging",
    "Cleaning and coagulation",
    "Gallbladder retraction",
)


def cholec80_phases() -> PhaseSet:
    """The seven-phase cholecystectomy vocabulary."""
    return PhaseSet(7, CHOLEC80_PHASE_NAMES)


LABEL_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True, eq=False)
class LabelSequence:
    """Frame-wise phase labels.

    Labels are held as a read-only copy: uint8 when the largest of them,
    `max_label`, is below 256, as every label of a PhaseSet is, else int32.
    Arithmetic on labels names its dtype, since NumPy 1 and 2 promote uint8
    differently.  Indexing and iteration yield plain Python ints.  Two
    sequences are equal when their labels are, and equal labels share a
    dtype.
    """

    labels: np.ndarray
    max_label: int = field(init=False, repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ValueError("labels must be a flat sequence")
        if labels.size == 0:
            raise EmptySequence("label sequence has no frames")
        if labels.dtype.kind not in "biu":
            raise OutOfRangeLabel(f"labels must be integers in 0..{LABEL_MAX}")
        if labels.dtype.kind == "i" and labels.min() < 0:  # only signed can be negative
            raise OutOfRangeLabel("labels must be non-negative")
        max_label = int(labels.max())
        if max_label > LABEL_MAX:
            raise OutOfRangeLabel(f"labels must not exceed {LABEL_MAX}")
        labels = labels.astype(np.uint8 if max_label < 256 else np.int32)
        labels.flags.writeable = False
        vars(self).update(labels=labels, max_label=max_label)  # past the frozen __setattr__

    @classmethod
    def _adopt(cls, labels: np.ndarray, max_label: int) -> "LabelSequence":
        """A sequence that takes `labels`, a read-only, flat, non-empty array
        of non-negative labels in the dtype the constructor would give them,
        and its largest label, without the checks or the copy."""
        seq = object.__new__(cls)
        vars(seq).update(labels=labels, max_label=max_label)
        return seq

    def __eq__(self, other):
        if not isinstance(other, LabelSequence):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash(self.labels.tobytes())

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels.tolist())

    def __getitem__(self, t: int) -> int:
        return int(self.labels[t])


def validate_sequence(seq: LabelSequence, phases: PhaseSet) -> None:
    """Raise OutOfRangeLabel if any frame label is outside the vocabulary."""
    if seq.max_label >= phases.count:
        t = int(np.argmax(seq.labels >= phases.count))
        raise OutOfRangeLabel(
            f"label {seq[t]} at frame {t} exceeds phase range 0..{phases.count - 1}"
        )


class Segment(NamedTuple):
    """Maximal run of one phase; start and end are inclusive frame indices."""

    phase: int
    start: int
    end: int


def segment_bounds(seq: LabelSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase, first frame and last frame (inclusive) of each maximal
    constant-phase run, as arrays in frame order."""
    labels = seq.labels
    cuts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts - 1, [len(labels) - 1]))
    return labels[starts], starts, ends


def extract_segments(seq: LabelSequence) -> tuple[Segment, ...]:
    """Decompose a sequence into its maximal constant-phase runs.

    Consecutive segments always carry distinct phases, and concatenating
    the segments reproduces the sequence exactly.
    """
    return tuple(map(Segment, *(a.tolist() for a in segment_bounds(seq))))


@dataclass(frozen=True)
class WorkflowGraph:
    """Directed graph of permitted phase transitions; self-loops are not edges."""

    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) is not a transition")
            if a < 0 or b < 0:
                raise ValueError("phase ids must be non-negative")
        object.__setattr__(self, "edges", edges)

    def successors(self, phase: int) -> tuple[int, ...]:
        return tuple(sorted(b for a, b in self.edges if a == phase))


def cholec80_graph() -> WorkflowGraph:
    """Transition structure of the seven cholecystectomy phases.

    Linear through the first four transitions, then packaging (4) and
    cleaning (5) may occur in either order, and retraction (6) may be
    interleaved with cleaning.
    """
    return WorkflowGraph(
        frozenset(
            {
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (4, 6),
                (5, 4),
                (5, 6),
                (6, 5),
            }
        )
    )


def linear_graph(count: int) -> WorkflowGraph:
    """Strictly sequential workflow 0 -> 1 -> ... -> count-1; a single
    phase has no transitions."""
    if count < 1:
        raise ValueError("a workflow needs at least one phase")
    return WorkflowGraph(frozenset((p, p + 1) for p in range(count - 1)))


def assumed_workflow(phases: PhaseSet) -> tuple[PhaseSet, WorkflowGraph]:
    """The named vocabulary and workflow graph a corpus is scored with.  A
    manifest names neither, so seven phases are taken as the cholecystectomy
    workflow, and any other count as its phases in order."""
    if phases.count == 7:
        return cholec80_phases(), cholec80_graph()
    return phases, linear_graph(phases.count)
