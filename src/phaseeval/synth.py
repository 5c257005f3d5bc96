"""Deterministic synthetic corpora: annotations that walk a workflow, and
prediction runs that shift its boundaries and flip frames."""

from __future__ import annotations

import random
from itertools import accumulate
from pathlib import Path

from .core import MAX_PHASES, LabelSequence, PhaseSet, assumed_workflow, cholec80_graph
from .errors import PhaseEvalError
from .io import dump_labels
from .vocab import canonical_json


class InvalidSynthSettings(PhaseEvalError):
    """A setting generate_corpus cannot write a loadable corpus from."""


# Frames a corpus may hold, at most videos x (runs + 1) x segments x max_len.
# Writing takes about 75 bytes of memory a frame of one video, so settings past
# 2**24 (186 hours at 25 fps) are refused before anything is written.
MAX_FRAMES = 2**24
_WALK_STEPS = (4, 8)  # the 7-phase walk's steps after phase 0


def check_settings(phase_count, videos, runs, min_len, max_len, boundary_shift, flip_rate) -> None:
    """Refuse the first setting that generate_corpus cannot honour, in the
    order of its arguments, then MAX_FRAMES; the messages name synth's flags."""
    segments = 1 + _WALK_STEPS[1] if phase_count == 7 else phase_count
    frames = videos * (runs + 1) * segments * max_len
    for bad, message in (
        (not 2 <= phase_count <= MAX_PHASES, f"--phase-count must be within 2..{MAX_PHASES}"),
        (videos < 1 or runs < 1, "--videos and --runs must be >= 1"),
        (not 0.0 <= flip_rate <= 1.0, "--flip-rate must be within [0, 1]"),
        (boundary_shift < 0, "--boundary-shift must be >= 0"),
        (max_len < min_len, "--max-len must be >= --min-len"),
        # a boundary shifted past a whole segment breaks its run's length
        (min_len < 2 * boundary_shift + 1, "--min-len must be at least 2*shift+1"),
        (frames > MAX_FRAMES, f"--videos/--runs/--max-len give {frames} frames, over {MAX_FRAMES}"),
    ):
        if bad:
            raise InvalidSynthSettings(message)


def _walk_phases(rng: random.Random, graph, phase_count: int) -> list[int]:
    """A random walk on the cholecystectomy workflow, else every phase in order."""
    if graph == cholec80_graph():
        phases = [0]
        for _ in range(rng.randint(*_WALK_STEPS)):
            phases.append(rng.choice(graph.successors(phases[-1])))
        return phases
    return list(range(phase_count))


def _perturb(labels, boundaries, phase_order, rng, shift, flip_rate, phase_count):
    """One prediction run: shift segment boundaries by <= shift frames,
    then flip interior frames (further than `shift` from any original
    boundary) to a random other phase at rate flip_rate."""
    total = len(labels)
    moved = [b + rng.randint(-shift, shift) for b in boundaries] if shift else list(boundaries)
    cuts = zip(phase_order, [0, *moved], [*moved, total])
    pred = [phase for phase, start, cut in cuts for _ in range(start, cut)]
    edges = [0] + list(boundaries) + [total - 1]
    if flip_rate > 0:
        for t in range(total):
            near = any(abs(t - b) <= shift for b in edges) or any(
                abs(t - (b - 1)) <= shift for b in boundaries
            )
            if not near and rng.random() < flip_rate:
                pred[t] = rng.choice([q for q in range(phase_count) if q != labels[t]])
    return pred


def generate_corpus(
    out_dir: Path,
    phase_count: int,
    videos: int,
    runs: int,
    min_len: int,
    max_len: int,
    boundary_shift: int,
    flip_rate: float,
    seed: int,
) -> Path:
    """Write a synthetic corpus and return the manifest path; settings that
    check_settings refuses write nothing."""
    check_settings(phase_count, videos, runs, min_len, max_len, boundary_shift, flip_rate)
    rng = random.Random(seed)
    _, graph = assumed_workflow(PhaseSet(phase_count))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_videos = []
    for vid in range(1, videos + 1):
        phase_order = _walk_phases(rng, graph, phase_count)
        lengths = [rng.randint(min_len, max_len) for _ in phase_order]
        labels = [p for p, n in zip(phase_order, lengths) for _ in range(n)]
        boundaries = list(accumulate(lengths[:-1]))
        vdir = out_dir / f"video{vid:02d}"
        vdir.mkdir(exist_ok=True)
        (vdir / "annotation.txt").write_text(dump_labels(LabelSequence(labels)), encoding="utf-8")
        entry = {
            "id": vid,
            "annotation": f"video{vid:02d}/annotation.txt",
            "predictions": {},
        }
        for ri in range(runs):
            run = f"r{ri}"
            pred = _perturb(
                labels, boundaries, phase_order, rng,
                boundary_shift, flip_rate, phase_count,
            )
            (vdir / f"{run}.txt").write_text(dump_labels(LabelSequence(pred)), encoding="utf-8")
            entry["predictions"][run] = f"video{vid:02d}/{run}.txt"
        manifest_videos.append(entry)
    manifest = {"phase_count": phase_count, "videos": manifest_videos}
    path = out_dir / "manifest.json"
    path.write_text(canonical_json(manifest) + "\n", encoding="utf-8")
    return path
