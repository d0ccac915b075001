"""Synthetic untrimmed-video world: planted moments, interval sampling,
chunking, and the binary feature-store format.

Frame features are unit-norm rows in R^C. Frames inside a planted moment
point toward that moment's concept vector (plus noise); background frames
are random directions. Features are held as float32, the on-disk dtype,
from generation on, so the format round-trips bit-exactly; the model's
stacked forward makes the one float64 copy. A dataset's chunks are
StoredChunk records, which hold a chunk file's header shape and read its
frames only when they are used.
"""
from __future__ import annotations

import struct
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .errors import DataFileError, FormatError, GenerationError

MAGIC = b"MALN"
VERSION = 2

# the largest |norm - 1| of a row that must be unit: a vocabulary vector,
# or a predicted row that the loss takes
UNIT_NORM_TOL = 1e-6


@dataclass
class Narration:
    concept_id: int
    t: float          # annotation timestamp, seconds
    a: float          # true interval start
    b: float          # true interval end


@dataclass
class VideoRecord:
    video_id: str
    duration: float
    fps: int
    features: np.ndarray          # T x C, float32, unit rows
    narrations: list[Narration] = field(default_factory=list)


@dataclass
class MomentSample:
    concept_id: int
    start: float
    end: float


class ConceptVocabulary:
    """Fixed random unit concept vectors standing in for text embeddings."""

    def __init__(self, vectors: np.ndarray):
        self.vectors = np.asarray(vectors, dtype=np.float64)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def generate(cls, size: int, dim: int, rng: np.random.Generator,
                 max_cosine: float = 0.5) -> "ConceptVocabulary":
        vectors = np.zeros((size, dim))
        for k in range(size):
            for _ in range(1000):
                v = rng.standard_normal(dim)
                v /= np.linalg.norm(v)
                if k == 0 or np.max(np.abs(vectors[:k] @ v)) < max_cosine:
                    vectors[k] = v
                    break
            else:
                raise GenerationError(
                    f"could not place concept {k} with pairwise |cos| < {max_cosine}"
                )
        return cls(vectors)

    def save(self, path):
        with fileio.replace_file(path) as f:
            np.savez(f, vectors=self.vectors)

    @classmethod
    def load(cls, path) -> "ConceptVocabulary":
        """Raises DataFileError naming ``path`` unless the file holds a
        non-empty 2-D array of finite unit rows."""
        try:
            with np.load(path) as z:
                vectors = np.asarray(z["vectors"], dtype=np.float64)
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as e:
            raise DataFileError(f"{path}: unreadable vocabulary ({e})") from e
        # a NaN or an infinity makes its row's norm fail the test
        if not (vectors.ndim == 2 and vectors.size > 0 and np.all(
                np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= UNIT_NORM_TOL)):
            raise DataFileError(
                f"{path}: vocabulary vectors must be a non-empty 2-D array of "
                f"finite unit rows, got shape {vectors.shape}")
        return cls(vectors)


def frame_count(duration: float, fps: int) -> int:
    """The frames of a video of ``duration`` seconds at ``fps``."""
    return int(round(duration * fps))


def check_moments_fit(num_moments: int, duration: float, fps: int):
    """Raise GenerationError unless ``num_moments`` slots of the timeline
    hold at least two frames each."""
    if num_moments < 1:
        raise GenerationError("need at least one moment")
    if duration / num_moments * fps < 2:
        raise GenerationError(
            f"{num_moments} moments cannot fit in {duration}s at {fps} fps"
        )


def generate_video(vocab: ConceptVocabulary, num_moments: int, duration: float,
                   fps: int, noise_level: float, rng_seed: int,
                   video_id: str = "video") -> VideoRecord:
    """Plant ``num_moments`` non-overlapping moments in a synthetic video.

    One moment per equal slot of the timeline; the narration timestamp is
    the interval midpoint. Deterministic per seed.
    """
    check_moments_fit(num_moments, duration, fps)
    slot = duration / num_moments
    rng = np.random.default_rng(rng_seed)
    if num_moments <= vocab.size:
        concepts = rng.permutation(vocab.size)[:num_moments]
    else:
        concepts = rng.integers(0, vocab.size, size=num_moments)

    narrations = []
    for j in range(num_moments):
        length = rng.uniform(0.3, 0.6) * slot
        a = j * slot + rng.uniform(0.0, slot - length)
        b = a + length
        narrations.append(Narration(int(concepts[j]), (a + b) / 2.0, a, b))

    T = frame_count(duration, fps)
    C = vocab.dim
    feats = rng.standard_normal((T, C))
    times = (np.arange(T) + 0.5) / fps
    for n in narrations:
        inside = (times >= n.a) & (times <= n.b)
        feats[inside] = vocab.vectors[n.concept_id] + noise_level * feats[inside]
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    # held in the storage dtype, so store/load is bit-exact
    feats = feats.astype(np.float32)
    return VideoRecord(video_id, duration, fps, feats, narrations)


def sample_interval(narrations: list[Narration], j: int, duration: float,
                    rng: np.random.Generator) -> MomentSample:
    """Draw a start/end pair around narration j, bounded by its neighbors.

    start ~ U(t_{j-1}, t_j), end ~ U(t_j, t_{j+1}); the first narration uses
    the video start as its left bound and the last uses the video end.
    """
    t = narrations[j].t
    t_prev = narrations[j - 1].t if j > 0 else 0.0
    t_next = narrations[j + 1].t if j < len(narrations) - 1 else duration
    return MomentSample(
        narrations[j].concept_id,
        float(rng.uniform(t_prev, t)),
        float(rng.uniform(t, t_next)),
    )


def chunk_lengths(duration: float, chunk_seconds: float, n_chunks: int) -> list[float]:
    """Each chunk's length in seconds, chunk k first; the last may be short."""
    return [min(chunk_seconds, duration - k * chunk_seconds) for k in range(n_chunks)]


def chunk_narrations(narrations: list[Narration], duration: float,
                     chunk_seconds: float, n_chunks: int) -> list[list[Narration]]:
    """Each chunk's narrations, chunk k first: a narration lands in the chunk
    containing its timestamp, re-based to the chunk start, with its
    timestamp and true interval clipped to the chunk; the last chunk may be
    short."""
    chunks: list[list[Narration]] = [[] for _ in range(n_chunks)]
    lengths = chunk_lengths(duration, chunk_seconds, n_chunks)
    for n in narrations:
        k = min(int(n.t // chunk_seconds), n_chunks - 1)
        off, dur = k * chunk_seconds, lengths[k]
        chunks[k].append(Narration(n.concept_id, min(max(n.t - off, 0.0), dur),
                                   max(n.a - off, 0.0), min(n.b - off, dur)))
    return chunks


def chunk_bounds(duration: float, fps: int, chunk_seconds: float) -> np.ndarray:
    """The frame bounds of a video's consecutive chunks, ``n_chunks + 1``
    of them: chunk k holds frames bounds[k] <= i < bounds[k + 1], and the
    last one may be short. Raises GenerationError when there are more
    chunks than frames."""
    if chunk_seconds <= 0:
        raise GenerationError("chunk_seconds must be positive")
    frames = frame_count(duration, fps)
    count = duration / chunk_seconds
    # the chunks' frames add up to the video's, so more chunks than frames
    # leaves one empty; refused before a count that large is allocated
    if not count <= frames:
        raise GenerationError(
            f"{duration:g} s in {chunk_seconds:g}-s chunks is more chunks "
            f"than the video's {frames} frames")
    return np.minimum(np.round(np.arange(int(np.ceil(count)) + 1) * chunk_seconds * fps),
                      frames).astype(np.int64)


# ---------------------------------------------------------------------------
# feature-store format (little-endian):
#   "MALN" | u32 version | u32 T | u32 C | T*C float32 row-major
# and nothing after. A chunk file holds only its frames: each video's
# narrations are in the dataset manifest, and chunk_narrations cuts them.
# ---------------------------------------------------------------------------

def store(features: np.ndarray, path):
    """Write a chunk's ``T x C`` frames to ``path``."""
    T, C = features.shape
    with fileio.replace_file(path) as f:
        f.write(struct.pack("<4sIII", MAGIC, VERSION, T, C))
        # the array's buffer, no bytes copy (and no cast of float32 features)
        f.write(np.ascontiguousarray(features, dtype="<f4").data)


def _shape(f) -> tuple[int, int]:
    """The (T, C) of an open chunk file, after checking its magic, its
    version and that the file is exactly as long as they say."""
    T, C = fileio.header(f, MAGIC, VERSION, "II", "shorter than the 16-byte header")
    extra = fileio.left(f) - T * C * 4
    if extra < 0:
        raise FormatError(f"{f.name}: truncated feature payload")
    if extra:
        raise DataFileError(f"{f.name}: {extra} trailing bytes after the feature payload")
    return T, C


def read_shape(path) -> tuple[int, int]:
    """A chunk file's (T, C), from its header and its size; no frame is
    read. Raises what ``load`` raises for a bad header or size."""
    with fileio.open_read(path, "chunk") as f:
        return _shape(f)


def load(path) -> np.ndarray:
    """Read one chunk's ``T x C`` float32 frames. Raises FormatError naming
    the file for a bad header or a short payload, and DataFileError for an
    unreadable file or trailing bytes."""
    with fileio.open_read(path, "chunk") as f:
        feats = np.empty(_shape(f), dtype="<f4")
        fileio.readinto(f, feats, "truncated feature payload")
    return feats


@dataclass
class StoredChunk:
    """A dataset chunk whose frames stay on disk: the record that
    cli.load_dataset makes from a chunk file's header. ``features`` reads
    the file through ``load`` at every access and keeps nothing, so the
    caller holds the frames only as long as it uses them."""
    path: Path
    video_id: str
    duration: float
    shape: tuple[int, int]        # (T, C), from the file's header
    narrations: list[Narration]

    @property
    def features(self) -> np.ndarray:
        feats = load(self.path)
        if feats.shape != self.shape:
            raise DataFileError(f"{self.path}: holds {feats.shape[0]} x {feats.shape[1]} "
                                f"frames, not the {self.shape[0]} x {self.shape[1]} "
                                f"it held when the dataset was loaded")
        return feats
