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
from .errors import ConfigError, ShapeError, describe
from .temporal import TemporalTable
from .tensor import Tensor


# The most parameters a model may have: about 20x paper_scale's 54.2 M,
# and 8.6 GB for each of the parameters and Adam's two moments. A fixed
# cap, not this machine's memory, so a config is valid everywhere or
# nowhere.
MAX_PARAMS = 2 ** 30


@dataclass(frozen=True)
class ModelConfig:
    """The model's fields; validate runs when a config is made."""
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

    def __post_init__(self):
        self.validate()

    def validate(self):
        problems = []
        # a JSON config file or a checkpoint snapshot can set NaN or Infinity
        if not math.isfinite(self.loss_bias_init):
            problems.append("loss_bias_init must be finite")
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
        if not problems and (count := param_count(self)) > MAX_PARAMS:
            problems.append(f"the model's parameter count ({describe(count)}) is "
                            f"above the cap of {MAX_PARAMS}")
        if problems:
            raise ConfigError("; ".join(problems))

    def check_input(self, shape, what: str = "input"):
        """The model's input rule, on the shape of a ``... x T x C`` frame
        array that ``what`` names: C must be feature_dim and T at least one
        conv window (conv_kernel frames). Raises ShapeError."""
        if shape[-1] != self.feature_dim:
            raise ShapeError(f"{what} is {shape[-1]} wide, the model's feature_dim "
                             f"is {self.feature_dim}")
        if shape[-2] < self.conv_kernel:
            raise ShapeError(f"{what} has {shape[-2]} frames, fewer than "
                             f"conv_kernel ({self.conv_kernel})")

    @classmethod
    def paper_scale(cls) -> "ModelConfig":
        return cls(feature_dim=1024, model_dim=512, conv_kernel=7,
                   enc_layers=6, dec_layers=6, heads=8, head_dim=64,
                   queries=32, temporal_rows=128, ffn_hidden=2048)


@dataclass
class MomentPrediction:
    """The predicted moment set: unit-row visual and start/end TE matrices,
    with a leading B axis when the forward was stacked. The TE matrices are
    None when the forward skipped the temporal head (``te=False``)."""
    visual: Tensor              # [B x] N x C
    te_start: Tensor | None     # [B x] N x d
    te_end: Tensor | None       # [B x] N x d


def _init_normal(shape, fan_in, rng):
    """Scaled normal init."""
    w = rng.standard_normal(shape)
    w /= math.sqrt(fan_in)
    return w


def _linear_shapes(name, fan_in, fan_out):
    yield f"{name}.w", (fan_in, fan_out)
    yield f"{name}.b", (fan_out,)


def _layernorm_shapes(name, dim):
    yield f"{name}.g", (dim,)
    yield f"{name}.b", (dim,)


def _ffn_shapes(name, config):
    yield from _linear_shapes(f"{name}.fc1", config.model_dim, config.ffn_hidden)
    yield from _linear_shapes(f"{name}.fc2", config.ffn_hidden, config.model_dim)


def _encoder_layer_shapes(pre, config):
    d = config.model_dim
    yield from _layernorm_shapes(f"{pre}.ln1", d)
    for w in ("wq", "wk", "wv", "wo"):
        yield from _linear_shapes(f"{pre}.attn.{w}", d, d)
    yield from _layernorm_shapes(f"{pre}.ln2", d)
    yield from _ffn_shapes(f"{pre}.ffn", config)


def _decoder_layer_shapes(pre, config):
    d = config.model_dim
    yield from _layernorm_shapes(f"{pre}.ln1", d)
    for w in ("wq", "wk", "wv", "wo"):
        yield from _linear_shapes(f"{pre}.self.{w}", d, d)
    yield from _layernorm_shapes(f"{pre}.ln2", d)
    for w in ("wq", "wk", "wv", "wo"):
        yield from _linear_shapes(f"{pre}.cross.{w}", d, d)
    yield from _layernorm_shapes(f"{pre}.ln3", d)
    yield from _ffn_shapes(f"{pre}.ffn", config)


def _head_shapes(config):
    c, d = config, config.model_dim
    yield from _linear_shapes("head.visual.fc1", d, c.ffn_hidden)
    yield from _linear_shapes("head.visual.fc2", c.ffn_hidden, c.feature_dim)
    yield from _linear_shapes("head.temporal.fc1", d, c.ffn_hidden)
    yield from _linear_shapes("head.temporal.fc2", c.ffn_hidden, 2 * d)
    yield "loss.log_t", ()
    yield "loss.b", ()
    yield "temporal.table", (c.temporal_rows, d)


def _layout_sections(config: ModelConfig):
    """The parameter layout as (repeats, shapes of repeat i) in model
    order: the conv, the encoder layers, the queries, the decoder layers
    and the heads."""
    c, d = config, config.model_dim
    return [
        (1, lambda i: _linear_shapes("conv", c.conv_kernel * c.feature_dim, d)),
        (c.enc_layers, lambda i: _encoder_layer_shapes(f"enc.{i}", c)),
        (1, lambda i: [("queries", (c.queries, d))]),
        (c.dec_layers, lambda i: _decoder_layer_shapes(f"dec.{i}", c)),
        (1, lambda i: _head_shapes(c)),
    ]


def param_shapes(config: ModelConfig):
    """Yield every parameter's (name, shape) in the model's order, which is
    also the checkpoint's payload order and the order of the init draws.

    Lazy, so sizing a checkpoint's snapshot against its file stops at the
    first overrun, however many layers the snapshot claims.
    """
    for repeats, shapes in _layout_sections(config):
        for i in range(repeats):
            yield from shapes(i)


def param_count(config: ModelConfig) -> int:
    """The number of parameter elements that param_shapes lists, counted
    as one layer's size times the layers, so a config that claims 2^64
    layers is counted at once."""
    return sum(repeats * sum(math.prod(shape) for _, shape in shapes(0))
               for repeats, shapes in _layout_sections(config))


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


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A fresh model's arrays by parameter name, drawn in param_shapes order."""
    return {name: _init_param(name, shape, config, rng)
            for name, shape in param_shapes(config)}


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

    ``arrays`` maps each param_shapes name to its float64 array, fresh from
    init_params or read from a checkpoint; the model wraps each one as it
    is, with no copy, and ignores any other key.
    """

    def __init__(self, config: ModelConfig, arrays: dict[str, np.ndarray]):
        self.config = config
        self.params = {name: Tensor(arrays[name], requires_grad=True)
                       for name, _ in param_shapes(config)}
        self.temporal = TemporalTable(self.params["temporal.table"])

    # ------------------------------------------------------------------
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
        c.check_input(features.shape)
        n_tok = features.shape[-2] // c.conv_kernel
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

    def project(self, decoded: Tensor, te: bool = True) -> MomentPrediction:
        """The visual head, and with ``te`` the temporal head; without it the
        prediction's TE matrices are None and that head is not computed."""
        p = self.params
        d = self.config.model_dim
        visual = tt.l2_normalize(_ffn(p, "head.visual", decoded))
        if not te:
            return MomentPrediction(visual, None, None)
        te_out = _ffn(p, "head.temporal", decoded)
        te_start = tt.l2_normalize(tt.narrow(te_out, -1, 0, d))
        te_end = tt.l2_normalize(tt.narrow(te_out, -1, d, d))
        return MomentPrediction(visual, te_start, te_end)

    def forward(self, features: np.ndarray, te: bool = True) -> MomentPrediction:
        """T x C frames -> N-row predictions; B x T x C -> B x N rows.
        ``te=False`` skips the temporal head (see project)."""
        return self.project(self.decode(self.encode(self.tokenize(features))), te)

    def forward_chunks(self, features_list, te: bool = True) -> MomentPrediction:
        """One stacked prediction whose row b is chunk b's (B x N x ...);
        ``te`` is passed on to forward.

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
            # the stacked batch is the one float64 copy of the frames
            stacks.append(self.forward(np.stack([features_list[i][:used] for i in idx],
                                                dtype=np.float64), te))
        if len(stacks) == 1:
            return stacks[0]
        rows = np.argsort(np.concatenate(list(groups.values())))  # chunk -> row
        fields = zip(*((s.visual, s.te_start, s.te_end) for s in stacks))
        return MomentPrediction(*(None if f[0] is None else tt.take(tt.cat(list(f)), rows)
                                  for f in fields))
