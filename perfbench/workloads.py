"""The benchmark's workloads: their inputs, set-up, timed rounds and checks.

Every workload runs the whole user pipeline through the package's public
functions: ``cmd_generate`` in set-up, then rounds of ``cmd_train``
(``train_paper`` stops after one epoch and resumes from its checkpoint)
followed by ``cmd_eval --task recognition`` and ``--task nlq`` on videos
held out from training. The workloads differ in input shape, and the shape
decides which layer dominates: see README.md.
"""
from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from momentset import checkpoint, cli, matching
from momentset import tensor as tt
from momentset.config import RunConfig
from momentset.errors import MomentSetError
from momentset.model import ModelConfig

import oracles

SETUP_REPEATS = 7

_LIBC = ctypes.CDLL(None)


def release_free_memory():
    """Hand the allocator's free heap pages back to the OS.

    Called between public calls, outside their timings, so that each call
    starts from the memory state a fresh CLI process would have. Without
    it, what the allocator kept from the train calls decided whether an
    eval call reused it, and train_paper's peak RSS read 3.9 GB or 4.8 GB
    from run to run.
    """
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)


_PAPER_DIMS = {k: v for k, v in dataclasses.asdict(ModelConfig.paper_scale()).items()
               if k != "loss_bias_init"}


@dataclass(frozen=True)
class Workload:
    config: dict              # RunConfig fields other than seed, videos, epochs
    train_videos: int
    eval_videos: int
    epochs: int               # epochs of the first train call
    resume_epochs: int = 0    # epochs of a second train call resumed from the first

    def run_config(self, seed: int, epochs: int | None = None) -> RunConfig:
        return RunConfig(seed=seed, videos=self.train_videos + self.eval_videos,
                         epochs=self.epochs if epochs is None else epochs,
                         workers=1, **self.config)

    @property
    def total_epochs(self) -> int:
        return self.epochs + self.resume_epochs


WORKLOADS = {
    # RunConfig() defaults: 100-s videos in two 50-s chunks, batch 8
    "train_default": Workload({}, train_videos=32, eval_videos=64, epochs=13),
    # paper-width model (ModelConfig.paper_scale() with one encoder and one
    # decoder layer, 17.4 M params) on 300-frame chunks with three
    # narrations each. The full six-and-six depth (54.2 M params) peaks at
    # 3.9 GB RSS and writes 1.3 GB checkpoints, too much for a shared host.
    "train_paper": Workload(
        {**_PAPER_DIMS, "enc_layers": 1, "dec_layers": 1,
         "moments_per_video": 6, "batch_size": 2},
        train_videos=2, eval_videos=4, epochs=1, resume_epochs=1),
    # 600-s videos in twelve chunks, one narration per chunk, 48 concepts
    "eval_longform": Workload(
        {"duration": 600.0, "moments_per_video": 12, "vocab_size": 48},
        train_videos=4, eval_videos=20, epochs=3),
}


class RoundFailed(Exception):
    pass


@dataclass
class Round:
    train_s: float = 0.0
    chunks_trained: int = 0
    recognition_s: float = 0.0
    nlq_s: float = 0.0
    wall_s: float = 0.0
    reports: dict = field(default_factory=dict)


class Bench:
    """One workload at one seed, with its working directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        ids = [f"video{v:04d}" for v in range(self.wl.train_videos + self.wl.eval_videos)]
        self.train_ids = ids[:self.wl.train_videos]
        self.eval_ids = ids[self.wl.train_videos:]

    # -- set-up ---------------------------------------------------------
    def setup(self) -> list[float]:
        """Generate the dataset SETUP_REPEATS times; returns each duration.

        Each repeat first deletes the previous copy, so that dirty pages of
        earlier copies do not pile up and slow the later writes.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.data, ignore_errors=True)
            t0 = time.perf_counter()
            cli.cmd_generate(self.wl.run_config(self.seed), self.data)
            times.append(time.perf_counter() - t0)
            release_free_memory()
        with open(self.data / cli.MANIFEST_NAME) as f:
            self.manifest = json.load(f)
        self.train_chunks = sum(len(self.manifest["videos"][v]["chunks"])
                                for v in self.train_ids)
        return times

    # -- one timed round ------------------------------------------------
    def _op(self, fn, *args, **kwargs):
        """Run one public call, counting it; a failure ends the round."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (MomentSetError, OSError) as e:
            self.failed += 1
            self.failures.append(f"{fn.__name__}: {e}")
            raise RoundFailed from e

    def run_round(self, out: Path) -> Round:
        wl, r = self.wl, Round()
        ckpt = out / cli.CHECKPOINT_NAME
        calls = [(wl.epochs, None)]
        if wl.resume_epochs:
            calls.append((wl.total_epochs, ckpt))
        t_round = time.perf_counter()
        done = 0
        for epochs, resume in calls:
            t0 = time.perf_counter()
            self._op(cli.cmd_train, wl.run_config(self.seed, epochs), self.data, out,
                     resume_from=resume, video_ids=self.train_ids)
            r.train_s += time.perf_counter() - t0
            release_free_memory()
            r.chunks_trained += (epochs - done) * self.train_chunks
            done = epochs
        cfg = wl.run_config(self.seed, wl.total_epochs)
        for task in ("recognition", "nlq"):
            t0 = time.perf_counter()
            r.reports[task] = self._op(cli.cmd_eval, cfg, self.data, out, task,
                                       checkpoint_path=ckpt, video_ids=self.eval_ids)
            setattr(r, f"{task}_s", time.perf_counter() - t0)
            release_free_memory()
        r.wall_s = time.perf_counter() - t_round
        return r

    # -- end-to-end figures ---------------------------------------------
    def end_to_end(self, setup_times: list[float], rounds: list[Round], out: Path,
                   peak_rss_mb: float) -> dict[str, float]:
        steps = self.steps_per_epoch()
        losses = oracles.read_losses(out / cli.TRAIN_LOG_NAME)
        return {
            "setup_s": statistics.median(setup_times),
            "train_chunks_per_s": statistics.median(
                r.chunks_trained / r.train_s for r in rounds),
            "last_epoch_loss": statistics.fmean(losses[-steps:]),
            "checkpoint_mb": (out / cli.CHECKPOINT_NAME).stat().st_size / 1e6,
            "peak_rss_mb": peak_rss_mb,
            "recognition_videos_per_s": statistics.median(
                len(self.eval_ids) / r.recognition_s for r in rounds),
            "nlq_queries_per_s": statistics.median(
                r.reports["nlq"]["queries"] / r.nlq_s for r in rounds),
        }

    def steps_per_epoch(self) -> int:
        return math.ceil(self.train_chunks / self.wl.run_config(self.seed).batch_size)

    # -- correctness ----------------------------------------------------
    def check(self, r: Round, out: Path) -> list[str]:
        """Checks on the last round's outputs, against computations made here."""
        wl, cfg = self.wl, self.wl.run_config(self.seed, self.wl.total_epochs)
        steps = self.steps_per_epoch()
        problems = oracles.check_losses(
            oracles.read_losses(out / cli.TRAIN_LOG_NAME), steps, wl.total_epochs)

        data = checkpoint.load_checkpoint(out / cli.CHECKPOINT_NAME)
        if (data.epochs_done, data.step) != (wl.total_epochs, wl.total_epochs * steps):
            problems.append(f"checkpoint at epoch {data.epochs_done} step {data.step}, "
                            f"expected {wl.total_epochs} and {wl.total_epochs * steps}")
        model = cli.build_model(cfg)
        for name, p in model.params.items():
            p.data = data.tensors[name]
        del data
        _, vocab, videos = cli.load_dataset(self.data)
        problems += self._check_matching(model, vocab, videos)

        meta = self.manifest["videos"]
        eval_ids = sorted(self.eval_ids)
        narrations, durations = [], []
        for vid in eval_ids:
            narrations += meta[vid]["narrations"]
            durations += [meta[vid]["duration"]] * len(meta[vid]["narrations"])
        problems += oracles.check_nlq(
            out / "nlq_outcomes.csv", r.reports["nlq"], narrations, durations,
            cfg.chunk_seconds, cfg.temporal_rows)

        # per-class video score: mean over chunks of the mean cosine between
        # the predicted visual embeddings and the class vector
        scores = np.zeros((len(eval_ids), vocab.size))
        labels = np.zeros((len(eval_ids), vocab.size), dtype=bool)
        with tt.no_grad():
            for row, vid in enumerate(eval_ids):
                scores[row] = np.mean([model.forward(c.features).visual.data.dot(
                    vocab.vectors.T).mean(axis=0) for c in videos[vid]], axis=0)
                labels[row, meta[vid]["labels"]] = True
        problems += oracles.check_recognition(r.reports["recognition"], scores, labels)
        return problems

    def _check_matching(self, model, vocab, videos) -> list[str]:
        """Hungarian cost on the final model's cost matrices is scipy's optimum."""
        rng = np.random.default_rng([self.seed, 99])
        problems = []
        with tt.no_grad():
            for vid in self.train_ids:
                for chunk in videos[vid]:
                    samples = matching.sample_chunk_intervals(chunk, rng)
                    pred = model.forward(chunk.features)
                    gt = matching.chunk_ground_truth(model, vocab, chunk, samples)
                    cost = matching.build_cost(matching.similarity_matrices(pred, gt))
                    problems += oracles.check_assignment(cost, matching.hungarian(cost))
        return problems[:10]

    def quality(self, r: Round) -> dict[str, float]:
        return {"recognition_map": r.reports["recognition"]["map"],
                "nlq_recall1_iou0.3": r.reports["nlq"]["recall"]["1"]["0.3"]}
