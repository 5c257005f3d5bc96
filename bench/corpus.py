"""Deterministic Cholec80-shaped corpora for the benchmark.

The generator follows the parameters of `phaseeval synth` (phase walk over
the seven-phase cholecystectomy workflow, segment lengths within
[min_len, max_len], boundary shift, interior flip rate) but shares no code
with the package, so a change to the program's own generator cannot
change the benchmark's inputs.  Unlike `synth`, every video has the same
frame count, so the amount of work in a run does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHASES = 7

# Permitted transitions of the seven cholecystectomy phases: linear up to
# clipping (3), then packaging (4) and cleaning (5) in either order, with
# retraction (6) interleaved with cleaning.
SUCCESSORS = {
    0: (1,),
    1: (2,),
    2: (3,),
    3: (4, 5),
    4: (5, 6),
    5: (4, 6),
    6: (5,),
}


@dataclass(frozen=True)
class CorpusSpec:
    videos: int
    runs: int
    frames_per_video: int
    min_len: int
    max_len: int
    boundary_shift: int
    flip_rate: float

    def __post_init__(self):
        # A walk visits 5 to 9 segments; each must fit the length range.
        if not 9 * self.min_len <= self.frames_per_video <= 5 * self.max_len:
            raise ValueError("frames_per_video cannot be split into 5..9 segments")
        if self.min_len < 2 * self.boundary_shift + 1:
            raise ValueError("min_len must be at least 2*boundary_shift+1")

    @property
    def pairs(self) -> int:
        """Scored (annotation, prediction) frame pairs in the corpus."""
        return self.videos * self.runs * self.frames_per_video

    def size(self) -> dict:
        return {
            "videos": self.videos,
            "runs": self.runs,
            "frame_pairs": self.pairs,
            "label_files": self.videos * (1 + self.runs),
            "cells_per_metric": PHASES * self.videos * self.runs,
        }


@dataclass
class Corpus:
    """A generated corpus on disk plus its labels as arrays."""

    manifest: Path
    annotations: dict[int, np.ndarray]
    predictions: dict[int, dict[str, np.ndarray]]
    digest: str


def _walk(rng: np.random.Generator) -> list[int]:
    phases = [0]
    for _ in range(int(rng.integers(4, 9))):
        options = SUCCESSORS[phases[-1]]
        phases.append(options[int(rng.integers(len(options)))])
    return phases


def _lengths(rng: np.random.Generator, k: int, spec: CorpusSpec) -> np.ndarray:
    """k segment lengths within [min_len, max_len] summing to frames_per_video."""
    lengths = np.full(k, spec.min_len, dtype=np.int64)
    extra = spec.frames_per_video - k * spec.min_len
    while extra:
        open_ = np.flatnonzero(lengths < spec.max_len)
        share = rng.multinomial(extra, np.full(len(open_), 1.0 / len(open_)))
        add = np.minimum(share, spec.max_len - lengths[open_])
        lengths[open_] += add
        extra -= int(add.sum())
    return lengths


def _perturb(rng, labels, phases, boundaries, spec: CorpusSpec) -> np.ndarray:
    """One prediction run: move each boundary by at most boundary_shift
    frames, then flip frames further than boundary_shift from every
    boundary to a random other phase at flip_rate."""
    n = len(labels)
    shift = spec.boundary_shift
    moved = boundaries + rng.integers(-shift, shift + 1, size=len(boundaries))
    pred = np.repeat(phases, np.diff(np.concatenate(([0], moved, [n]))))
    near = np.zeros(n, dtype=bool)
    near[: shift + 1] = True
    near[n - 1 - shift :] = True
    for b in boundaries:
        near[max(0, b - 1 - shift) : b + shift + 1] = True
    flip = (rng.random(n) < spec.flip_rate) & ~near
    other = (labels + rng.integers(1, PHASES, size=n)) % PHASES
    return np.where(flip, other, pred)


def _text(labels: np.ndarray) -> bytes:
    return ("\n".join(map(str, labels.tolist())) + "\n").encode("ascii")


def generate(out_dir: Path, spec: CorpusSpec, seed: int) -> Corpus:
    """Write manifest.json and its label files under out_dir."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, bytes] = {}
    entries = []
    annotations: dict[int, np.ndarray] = {}
    predictions: dict[int, dict[str, np.ndarray]] = {}
    for vid in range(1, spec.videos + 1):
        walk = _walk(rng)
        lengths = _lengths(rng, len(walk), spec)
        phases = np.asarray(walk, dtype=np.int64)
        labels = np.repeat(phases, lengths)
        boundaries = np.cumsum(lengths)[:-1]
        annotations[vid] = labels
        predictions[vid] = {}
        entry = {"id": vid, "annotation": f"video{vid:03d}/annotation.txt", "predictions": {}}
        files[entry["annotation"]] = _text(labels)
        for ri in range(spec.runs):
            run = f"r{ri}"
            pred = _perturb(rng, labels, phases, boundaries, spec)
            predictions[vid][run] = pred
            entry["predictions"][run] = f"video{vid:03d}/{run}.txt"
            files[entry["predictions"][run]] = _text(pred)
        entries.append(entry)
    files["manifest.json"] = (
        json.dumps({"phase_count": PHASES, "videos": entries}, indent=1, sort_keys=True) + "\n"
    ).encode("ascii")
    h = hashlib.sha256()
    for rel in sorted(files):
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(files[rel])
        h.update(rel.encode("ascii") + b"\0" + files[rel] + b"\0")
    return Corpus(out_dir / "manifest.json", annotations, predictions, h.hexdigest())
