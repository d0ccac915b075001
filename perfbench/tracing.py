"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each momentset module
with timing wrappers; ``uninstall`` puts the originals back. Every wrapper
records its call count, its busy (inclusive) time and its self time, which
is busy time minus the time of traced calls made inside it. Calls are
resolved through module and class attributes at call time, so a wrapper
sees calls made from inside the package too.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from momentset import checkpoint, cli, datagen, evaluate, kernels, matching, optim, tensor
from momentset.model import MomentSetModel
from momentset.temporal import TemporalTable

TENSOR_OPS = ("add", "mul", "neg", "scale", "matmul", "sigmoid", "log", "exp",
              "gelu", "tsum", "tmean", "transpose", "reshape", "narrow", "cat",
              "softmax", "layernorm", "l2_normalize")
PER_STEP_OPS = ("matmul", "narrow", "cat", "transpose", "softmax")

# (owner, attribute, layer prefix); the span is named "<prefix>.<attribute>"
SPANS = (
    *((tensor, op, "tensor") for op in TENSOR_OPS),
    (tensor, "backward", "tensor"),
    (optim.Adam, "step", "optim.Adam"),
    (checkpoint, "save_checkpoint", "checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint"),
    *((MomentSetModel, f, "model") for f in ("tokenize", "encode", "decode", "project")),
    *((TemporalTable, f, "temporal")
      for f in ("decode_timestamp", "interpolate", "embed_timestamps")),
    (kernels, "interp_rows", "kernels"),
    (kernels, "interp_rows_grad", "kernels"),
    *((matching, f, "matching") for f in (
        "train_step", "hungarian", "similarity_matrices", "sigmoid_contrastive_loss")),
    *((evaluate, f, "evaluate") for f in (
        "recognition_scores", "rank_queries", "video_map", "nlq_recall")),
    *((cli, f, "cli") for f in ("nlq_video_candidates", "build_model", "load_dataset")),
    *((datagen, f, "datagen") for f in ("generate_video", "store", "load")),
)

# layer functions reported as busy ms; the datagen writers run in set-up only
ROUND_MS = (
    "tensor.backward", "optim.Adam.step",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "model.tokenize", "model.encode", "model.decode", "model.project",
    "temporal.decode_timestamp", "temporal.interpolate", "temporal.embed_timestamps",
    "kernels.interp_rows", "kernels.interp_rows_grad",
    "matching.hungarian", "matching.similarity_matrices",
    "matching.sigmoid_contrastive_loss",
    "evaluate.recognition_scores", "evaluate.rank_queries", "evaluate.video_map",
    "evaluate.nlq_recall",
    "cli.nlq_video_candidates", "cli.build_model", "cli.load_dataset", "datagen.load",
)
SETUP_MS = ("datagen.generate_video", "datagen.store")
ROUND_CALLS = ("temporal.decode_timestamp", "matching.hungarian")


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.step_calls = Counter()    # calls made inside matching.train_step
        self.step_s: list[float] = []  # duration of each train step
        self.tape_nodes: list[int] = []  # tape length when backward starts
        self.decoded: set = set()      # distinct (embedding, duration) decodes
        self._stack: list[list[float]] = []
        self._in_step = 0
        self._saved = []

    def install(self):
        for owner, attr, prefix in SPANS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, f"{prefix}.{attr}"))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        is_step = name == "matching.train_step"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "tensor.backward":
                self.tape_nodes.append(tensor.tape_size())
            elif name == "temporal.decode_timestamp":
                # args: (table, embedding, duration); one embedding is one
                # (chunk, query slot, start-or-end) of a prediction
                self.decoded.add((np.asarray(args[1]).tobytes(), args[2]))
            if self._in_step:
                self.step_calls[name] += 1
            self._in_step += is_step
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self._in_step -= is_step
                self.busy[name] += dt
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if is_step:
                    self.step_s.append(dt)

        return traced

    def metrics(self, rounds: int, setups: int) -> dict[str, float]:
        """Per-layer figures: busy ms and call counts per round (per set-up
        for the dataset writers), and per-step figures over all steps."""
        out: dict[str, float] = {}
        steps = max(self.calls["matching.train_step"], 1)
        out["tensor.tape_nodes_per_step"] = (
            statistics.fmean(self.tape_nodes) if self.tape_nodes else 0.0)
        for op in PER_STEP_OPS:
            out[f"tensor.{op}.calls_per_step"] = self.step_calls[f"tensor.{op}"] / steps
        out["tensor.forward_ops.ms"] = 1e3 * sum(
            self.self_s[f"tensor.{op}"] for op in TENSOR_OPS) / rounds
        for name in ROUND_MS:
            out[f"{name}.ms"] = 1e3 * self.busy[name] / rounds
        for name in SETUP_MS:
            out[f"{name}.ms"] = 1e3 * self.busy[name] / setups
        for name in ROUND_CALLS:
            out[f"{name}.calls"] = self.calls[name] / rounds
        decodes = self.calls["temporal.decode_timestamp"]
        out["temporal.decode_timestamp.distinct_ratio"] = (
            len(self.decoded) / decodes if decodes else 0.0)
        step_ms = [1e3 * s for s in self.step_s] or [0.0]
        out["matching.train_step.ms_p50"] = float(np.percentile(step_ms, 50))
        out["matching.train_step.ms_p90"] = float(np.percentile(step_ms, 90))
        return out
