"""Trainable network: non-overlap 1D conv tokenizer, temporal injection,
transformer encoder, moment-query decoder, and projection heads.

Pre-norm blocks with GELU FFNs throughout. With zero layers configured the
encoder reduces to token+TE addition and the decoder to the raw queries,
which the tests rely on.

Every stage takes one chunk (T x C frames) or a stack of equal-length
chunks (B x T x C); ``forward_chunks`` stacks chunks by length so a whole
batch runs as one pass over one tape and returns one stacked prediction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import ConfigError, InputTooShortError, ShapeError
from .temporal import TemporalTable
from .tensor import Tensor


@dataclass
class ModelConfig:
    feature_dim: int = 64        # C
    model_dim: int = 64          # d
    conv_kernel: int = 7         # kernel == stride (non-overlap)
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    head_dim: int = 16
    queries: int = 16            # N
    temporal_rows: int = 64      # T0
    ffn_hidden: int = 256
    # SigLIP-style scales: t = 10, bias = -10. A bias of 0 unsaturates the
    # unmatched pairs, useful for hard-negative overfit runs.
    loss_bias_init: float = -10.0

    def validate(self):
        problems = []
        if self.heads * self.head_dim != self.model_dim:
            problems.append(
                f"heads*head_dim ({self.heads}*{self.head_dim}) != model_dim "
                f"({self.model_dim})")
        if self.model_dim % 2 != 0:
            problems.append(f"model_dim must be even, got {self.model_dim}")
        if min(self.feature_dim, self.model_dim, self.heads, self.head_dim,
               self.ffn_hidden, self.conv_kernel) < 1:
            problems.append("feature_dim, model_dim, heads, head_dim, ffn_hidden and "
                            "conv_kernel must be >= 1")
        if min(self.enc_layers, self.dec_layers) < 0:
            problems.append("enc_layers and dec_layers must be >= 0")
        if self.temporal_rows < 2:
            problems.append("temporal_rows must be >= 2")
        if self.queries < 1:
            problems.append("queries must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))

    @classmethod
    def paper_scale(cls) -> "ModelConfig":
        return cls(feature_dim=1024, model_dim=512, conv_kernel=7,
                   enc_layers=6, dec_layers=6, heads=8, head_dim=64,
                   queries=32, temporal_rows=128, ffn_hidden=2048)


@dataclass
class MomentPrediction:
    """The predicted moment set: unit-row visual and start/end TE matrices,
    with a leading B axis when the forward was stacked."""
    visual: Tensor       # [B x] N x C
    te_start: Tensor     # [B x] N x d
    te_end: Tensor       # [B x] N x d


def _init_normal(shape, fan_in, rng):
    """Scaled normal init, or uninitialised storage when ``rng`` is None."""
    if rng is None:
        return np.empty(shape)
    return rng.standard_normal(shape) / math.sqrt(fan_in)


def _linear_shapes(name, fan_in, fan_out):
    yield f"{name}.w", (fan_in, fan_out)
    yield f"{name}.b", (fan_out,)


def _layernorm_shapes(name, dim):
    yield f"{name}.g", (dim,)
    yield f"{name}.b", (dim,)


def param_shapes(config: ModelConfig):
    """Yield every parameter's (name, shape) in the model's order, which is
    also the checkpoint's tensor order and the order of the init draws.

    Lazy, so checking a config against a checkpoint's tensor table stops at
    the first name the table lacks, however many layers the config claims.
    """
    c, d = config, config.model_dim
    yield from _linear_shapes("conv", c.conv_kernel * c.feature_dim, d)
    for i in range(c.enc_layers):
        pre = f"enc.{i}"
        yield from _layernorm_shapes(f"{pre}.ln1", d)
        for w in ("wq", "wk", "wv", "wo"):
            yield from _linear_shapes(f"{pre}.attn.{w}", d, d)
        yield from _layernorm_shapes(f"{pre}.ln2", d)
        yield from _linear_shapes(f"{pre}.ffn.fc1", d, c.ffn_hidden)
        yield from _linear_shapes(f"{pre}.ffn.fc2", c.ffn_hidden, d)
    yield "queries", (c.queries, d)
    for i in range(c.dec_layers):
        pre = f"dec.{i}"
        yield from _layernorm_shapes(f"{pre}.ln1", d)
        for w in ("wq", "wk", "wv", "wo"):
            yield from _linear_shapes(f"{pre}.self.{w}", d, d)
        yield from _layernorm_shapes(f"{pre}.ln2", d)
        for w in ("wq", "wk", "wv", "wo"):
            yield from _linear_shapes(f"{pre}.cross.{w}", d, d)
        yield from _layernorm_shapes(f"{pre}.ln3", d)
        yield from _linear_shapes(f"{pre}.ffn.fc1", d, c.ffn_hidden)
        yield from _linear_shapes(f"{pre}.ffn.fc2", c.ffn_hidden, d)
    yield from _linear_shapes("head.visual.fc1", d, c.ffn_hidden)
    yield from _linear_shapes("head.visual.fc2", c.ffn_hidden, c.feature_dim)
    yield from _linear_shapes("head.temporal.fc1", d, c.ffn_hidden)
    yield from _linear_shapes("head.temporal.fc2", c.ffn_hidden, 2 * d)
    yield "loss.log_t", ()
    yield "loss.b", ()
    yield "temporal.table", (c.temporal_rows, d)


def _init_param(name, shape, config: ModelConfig, rng):
    """A scaled normal draw for the weight matrices and the queries, ones
    for LayerNorm gains, zeros for biases, and the sinusoidal table."""
    if name == "queries":
        return _init_normal(shape, config.model_dim, rng)
    if name.endswith(".w"):
        return _init_normal(shape, shape[0], rng)
    if name.endswith(".g"):
        return np.ones(shape)
    if name == "loss.log_t":
        return np.array(math.log(10.0))
    if name == "loss.b":
        return np.array(float(config.loss_bias_init))
    if name == "temporal.table":
        return TemporalTable.init_sinusoidal(*shape).table.data
    return np.zeros(shape)


def _linear(params, name, x: Tensor) -> Tensor:
    return tt.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def _layernorm(params, name, x: Tensor) -> Tensor:
    return tt.layernorm(x, params[f"{name}.g"], params[f"{name}.b"])


def _ffn(params, name, x: Tensor) -> Tensor:
    return _linear(params, f"{name}.fc2", tt.gelu(_linear(params, f"{name}.fc1", x)))


def _split_heads(x: Tensor, heads: int, order=(1, 0, 2)) -> Tensor:
    """Reshape ... x L x d to ... x L x H x d/H and permute the last three
    axes by ``order``: (1, 0, 2) gives ... x H x L x d/H, and (1, 2, 0)
    gives the transposed keys, ... x H x d/H x L."""
    *lead, length, d = x.data.shape
    n = len(lead)
    h = tt.reshape(x, (*lead, length, heads, d // heads))
    return tt.transpose(h, (*range(n), *(n + i for i in order)))


class MomentSetModel:
    """Owns all learnable tensors and the forward composition.

    With ``rng=None`` the weight matrices and the queries are allocated but
    not drawn, for a model that a checkpoint is about to fill: no random
    numbers are made and those arrays are not written.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        config.validate()
        self.config = config
        self.params = {name: Tensor(_init_param(name, shape, config, rng), requires_grad=True)
                       for name, shape in param_shapes(config)}
        self.temporal = TemporalTable(self.params["temporal.table"])

    # ------------------------------------------------------------------
    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def _attention(self, prefix: str, q_in: Tensor, kv_in: Tensor) -> Tensor:
        p = self.params
        c = self.config
        # all heads as one ... x H x Lq x Lk block
        q = _split_heads(_linear(p, f"{prefix}.wq", q_in), c.heads)
        k_t = _split_heads(_linear(p, f"{prefix}.wk", kv_in), c.heads, (1, 2, 0))
        v = _split_heads(_linear(p, f"{prefix}.wv", kv_in), c.heads)
        inv = 1.0 / math.sqrt(c.head_dim)
        att = tt.softmax(tt.scale(tt.matmul(q, k_t), inv))
        o = tt.matmul(att, v)
        n = o.data.ndim - 3
        o = tt.transpose(o, (*range(n), n + 1, n, n + 2))  # ... x Lq x H x d/H
        return _linear(p, f"{prefix}.wo",
                       tt.reshape(o, (*o.data.shape[:-2], c.model_dim)))

    def tokenize(self, features: np.ndarray) -> Tensor:
        """Non-overlap 1D conv: ... x T frames -> ... x floor(T/kernel) tokens."""
        c = self.config
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != c.feature_dim:
            raise ShapeError(
                f"features are {features.shape[-1]} wide, model feature_dim is "
                f"{c.feature_dim}")
        T = features.shape[-2]
        if T < c.conv_kernel:
            raise InputTooShortError(
                f"{T} frames < conv kernel {c.conv_kernel}")
        n_tok = T // c.conv_kernel
        windows = features[..., : n_tok * c.conv_kernel, :].reshape(
            *features.shape[:-2], n_tok, c.conv_kernel * c.feature_dim)
        return _linear(self.params, "conv", Tensor(windows))

    def encode(self, tokens: Tensor) -> Tensor:
        p = self.params
        x = tokens + self.temporal.interpolate(tokens.data.shape[-2])
        for i in range(self.config.enc_layers):
            pre = f"enc.{i}"
            h = _layernorm(p, f"{pre}.ln1", x)
            x = x + self._attention(f"{pre}.attn", h, h)
            x = x + _ffn(p, f"{pre}.ffn", _layernorm(p, f"{pre}.ln2", x))
        return x

    def decode(self, memory: Tensor) -> Tensor:
        p = self.params
        queries = p["queries"]
        # one copy of the queries per stacked chunk, even with zero layers
        x = queries + Tensor(np.zeros((*memory.data.shape[:-2], *queries.data.shape)))
        for i in range(self.config.dec_layers):
            pre = f"dec.{i}"
            h = _layernorm(p, f"{pre}.ln1", x)
            x = x + self._attention(f"{pre}.self", h, h)
            x = x + self._attention(
                f"{pre}.cross", _layernorm(p, f"{pre}.ln2", x), memory)
            x = x + _ffn(p, f"{pre}.ffn", _layernorm(p, f"{pre}.ln3", x))
        return x

    def project(self, decoded: Tensor) -> MomentPrediction:
        p = self.params
        d = self.config.model_dim
        visual = tt.l2_normalize(_ffn(p, "head.visual", decoded))
        te = _ffn(p, "head.temporal", decoded)
        te_start = tt.l2_normalize(tt.narrow(te, -1, 0, d))
        te_end = tt.l2_normalize(tt.narrow(te, -1, d, d))
        return MomentPrediction(visual, te_start, te_end)

    def forward(self, features: np.ndarray) -> MomentPrediction:
        """T x C frames -> N-row predictions; B x T x C -> B x N rows."""
        return self.project(self.decode(self.encode(self.tokenize(features))))

    def forward_chunks(self, features_list) -> MomentPrediction:
        """One stacked prediction whose row b is chunk b's (B x N x ...).

        Chunks with the same frame count run as one stacked forward. Chunks
        are grouped rather than padded, because each chunk's temporal
        embeddings are interpolated to its own token count. With several
        lengths, the groups' rows are concatenated and put back in input
        order.
        """
        k = self.config.conv_kernel
        groups: dict[int, list[int]] = {}
        for i, features in enumerate(features_list):
            groups.setdefault(len(features), []).append(i)
        stacks = []
        for length, idx in groups.items():
            # stack whole conv windows only, so tokenize's window reshape is a
            # view; a chunk shorter than one window is left for tokenize to reject
            used = length - length % k if length >= k else length
            stacks.append(self.forward(np.stack([features_list[i][:used] for i in idx])))
        if len(stacks) == 1:
            return stacks[0]
        rows = np.argsort(np.concatenate(list(groups.values())))  # chunk -> row
        fields = zip(*((s.visual, s.te_start, s.te_end) for s in stacks))
        return MomentPrediction(*(tt.take(tt.cat(list(f)), rows) for f in fields))
