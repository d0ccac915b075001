"""Run configuration: flat JSON schema, validation, CLI overrides."""
from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass

from .errors import ConfigError, describe, listing
from .model import ModelConfig

# The most generate threads a config may ask for: generate holds the frames
# of up to ``workers`` videos at once. A fixed cap, as model.MAX_PARAMS is.
MAX_WORKERS = 64


def is_number(v) -> bool:
    """An int or float JSON value; bool, although an int subclass, is not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """A JSON number that a float holds finitely. An int too large for a
    float is refused, where float() and math.isfinite raise OverflowError."""
    return is_number(v) and abs(v) <= sys.float_info.max


def _is_a(v, field_type) -> bool:
    """Whether a JSON value fits a field: an int field takes no bool, a
    float field also takes an int, and an int must be one a float holds.
    A NaN or infinite float fits, for validate to refuse by name."""
    if field_type is bool:
        return isinstance(v, bool)
    if field_type is int:
        return isinstance(v, int) and is_finite_number(v)
    if field_type is float:
        return isinstance(v, float) or is_finite_number(v)
    return isinstance(v, field_type)


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    """The model fields (inherited from ModelConfig) plus the dataset,
    optimizer-schedule and generate fields of one run. Adam's betas and
    epsilon (optim.py) and the NLQ protocol (cli.py) are constants.

    A config is frozen, and ``validate`` (ConfigError) runs whenever one is
    made: from a file, by the constructor, or by ``dataclasses.replace``
    (cli's --seed and --workers, and the snapshot that load_model merges).
    It checks each field on its own terms and no rule that mixes
    model and run fields: whether a chunk holds a conv window is checked on
    the chunks themselves (ModelConfig.check_input), by generate on those it
    cuts and by train and eval on those they forward."""
    # dataset
    seed: int = 0
    videos: int = 32
    duration: float = 100.0
    fps: int = 6
    chunk_seconds: float = 50.0
    vocab_size: int = 12
    moments_per_video: int = 4
    noise_level: float = 0.1
    # optimizer / schedule
    lr: float = 5e-4
    epochs: int = 30
    batch_size: int = 8
    freeze_intervals: bool = False
    # threads for generate only
    workers: int = 1

    def validate(self):
        problems = []
        # a JSON config file can set NaN or Infinity
        if not all(math.isfinite(v) for v in (self.duration, self.chunk_seconds,
                                              self.noise_level, self.lr)):
            problems.append("duration, chunk_seconds, noise_level and lr must be finite")
        if self.fps < 1:
            problems.append("fps must be >= 1")
        if self.duration <= 0 or self.chunk_seconds <= 0:
            problems.append("duration and chunk_seconds must be positive")
        # a video holds round(duration * fps) frames; a .maln header stores
        # a chunk's count as a u32
        frames = float(self.duration) * self.fps
        if not (math.isfinite(frames) and round(frames) < 2**32):
            problems.append(f"duration * fps ({frames:g}) must round to fewer "
                            f"than 2^32 frames")
        if self.lr <= 0:
            problems.append("lr must be positive")
        if self.seed < 0:  # np.random.default_rng takes no negative entropy
            problems.append("seed must be >= 0")
        if self.videos < 1 or self.vocab_size < 1:
            problems.append("videos and vocab_size must be >= 1")
        if self.batch_size < 1 or self.epochs < 1:
            problems.append("batch_size and epochs must be >= 1")
        if not 1 <= self.workers <= MAX_WORKERS:
            problems.append(f"workers must be in [1, {MAX_WORKERS}]")
        if problems:
            raise ConfigError("; ".join(problems))
        super().validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        types = typing.get_type_hints(cls)
        unknown = sorted(set(d) - set(types))
        if unknown:
            raise ConfigError(f"unknown config keys: {listing([describe(k) for k in unknown])}")
        wrong = [f"{k} ({describe(v)})" for k, v in d.items() if not _is_a(v, types[k])]
        if wrong:
            raise ConfigError(f"config values of the wrong type or size: {listing(wrong)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                d = json.load(f)
        except OSError as e:
            raise ConfigError(f"{path}: {e.strerror}") from e
        except ValueError as e:  # JSONDecodeError, and an int of too many digits
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
        return cls.from_dict(d)
