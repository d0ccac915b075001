"""Run configuration: flat JSON schema, validation, CLI overrides."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import ModelConfig


@dataclass
class RunConfig(ModelConfig):
    """The model fields (inherited from ModelConfig) plus the dataset,
    optimizer and evaluation fields of one run."""
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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 30
    batch_size: int = 8
    freeze_intervals: bool = False
    # evaluation
    nlq_topk: list = field(default_factory=lambda: [1, 5])
    iou_thresholds: list = field(default_factory=lambda: [0.3, 0.5])
    workers: int = 1

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(ModelConfig)})

    def validate(self):
        problems = []
        if self.fps < 1:
            problems.append("fps must be >= 1")
        if self.duration <= 0 or self.chunk_seconds <= 0:
            problems.append("duration and chunk_seconds must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            problems.append("batch_size and epochs must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))
        super().validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                d = json.load(f)
        except OSError as e:
            raise ConfigError(f"{path}: {e.strerror}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
        return cls.from_dict(d)
