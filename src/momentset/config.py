"""Run configuration: flat JSON schema, validation, CLI overrides."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import ModelConfig


@dataclass
class RunConfig:
    # dataset
    seed: int = 0
    videos: int = 32
    duration: float = 100.0
    fps: int = 6
    chunk_seconds: float = 50.0
    vocab_size: int = 12
    moments_per_video: int = 4
    noise_level: float = 0.1
    # model
    feature_dim: int = 64
    model_dim: int = 64
    conv_kernel: int = 7
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    head_dim: int = 16
    queries: int = 16
    temporal_rows: int = 64
    ffn_hidden: int = 256
    # optimizer / schedule
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 30
    batch_size: int = 8
    freeze_intervals: bool = False
    loss_bias_init: float = -10.0
    # evaluation
    nlq_topk: list = field(default_factory=lambda: [1, 5])
    iou_thresholds: list = field(default_factory=lambda: [0.3, 0.5])
    workers: int = 1

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            feature_dim=self.feature_dim, model_dim=self.model_dim,
            conv_kernel=self.conv_kernel, enc_layers=self.enc_layers,
            dec_layers=self.dec_layers, heads=self.heads,
            head_dim=self.head_dim, queries=self.queries,
            temporal_rows=self.temporal_rows, ffn_hidden=self.ffn_hidden,
            loss_bias_init=self.loss_bias_init)

    def validate(self):
        problems = []
        if self.model_dim % 2 != 0:
            problems.append(f"model_dim must be even, got {self.model_dim}")
        if self.heads * self.head_dim != self.model_dim:
            problems.append(
                f"heads*head_dim ({self.heads}*{self.head_dim}) != model_dim "
                f"({self.model_dim})")
        if self.fps < 1:
            problems.append("fps must be >= 1")
        if self.duration <= 0 or self.chunk_seconds <= 0:
            problems.append("duration and chunk_seconds must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            problems.append("batch_size and epochs must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))
        self.model_config().validate()

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
