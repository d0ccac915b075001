"""Command-line entry points: generate / train / eval."""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import logging
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import datagen, evaluate, fileio, matching
from .config import RunConfig, is_finite_number, is_number
from .errors import ConfigError, DataFileError, MomentSetError, describe, listing
from .model import MomentSetModel, init_params
from .optim import Adam
from .temporal import TemporalTable

MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocab.npz"
CHECKPOINT_NAME = "checkpoint.malc"
TRAIN_LOG_NAME = "train_log.csv"

# The most float64 values that generate makes in one array: the vocabulary
# (vocab_size x feature_dim) or one video's frames (frames x feature_dim),
# 8.6 GB. A fixed cap, as model.MAX_PARAMS is, so a config generates on
# every machine or none.
MAX_GENERATE_VALUES = 2 ** 30

# The Ego4D NLQ protocol (Grauman et al., CVPR 2022): recall@{1, 5} at
# temporal IoU {0.3, 0.5}.
NLQ_TOPK = (1, 5)
IOU_THRESHOLDS = (0.3, 0.5)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def _make_out_dir(out_dir: Path) -> None:
    """Create ``out_dir`` and its parents. Raises ConfigError when it cannot
    be created (say, a regular file has its name)."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output directory {out_dir}: {e.strerror}") from e


@contextlib.contextmanager
def _writing(path: Path):
    """Raise DataFileError naming ``path`` for an OSError in the block (its
    name taken by a directory, say), so that a log that cannot be written
    is one ``error: io:`` line, as a whole file is (fileio.replace_file)."""
    try:
        yield
    except OSError as e:
        raise DataFileError(f"{path}: cannot write ({e})") from e


def _video_id(v: int) -> str:
    return f"video{v:04d}"


def _store_video(record: datagen.VideoRecord, chunk_seconds: float,
                 bounds: np.ndarray, root: Path) -> dict:
    """Write a video's chunks, its frames cut at ``bounds``
    (datagen.chunk_bounds), under ``root``; returns its manifest entry."""
    paths = []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        rel = f"chunks/{record.video_id}_{k:03d}.maln"
        datagen.store(record.features[lo:hi], root / rel)
        paths.append(rel)
    return {
        "duration": record.duration,
        "fps": record.fps,
        "chunk_seconds": chunk_seconds,
        "chunks": paths,
        "labels": sorted({n.concept_id for n in record.narrations}),
        "narrations": [{"concept_id": n.concept_id, "t": n.t, "a": n.a, "b": n.b}
                       for n in record.narrations],
    }


def cmd_generate(config: RunConfig, out_dir: Path, force: bool = False) -> Path:
    """Write a dataset into ``out_dir``, one video at a time (``workers``
    at a time on a thread pool).

    Every refusal comes before any file exists: a non-empty ``out_dir``
    without ``force``, a vocabulary or one video's frames of more than
    MAX_GENERATE_VALUES values, a vocabulary or moments that do not fit,
    and chunks (datagen.chunk_bounds) that fail the config's model
    (ModelConfig.check_input). Then ``out_dir`` is made, and the
    vocabulary, each video's chunks as they are made, and the manifest
    are written straight into it. Once the manifest is written, every
    ``chunks/*.maln`` it does not list (left by an earlier dataset that
    ``force`` overwrote) is removed. On any error ``out_dir`` is removed if
    this call made it.
    """
    out_dir = Path(out_dir)
    try:
        fresh = not out_dir.exists()
        if not force and not fresh and any(out_dir.iterdir()):
            raise ConfigError(f"output directory {out_dir} is not empty (use --force)")
    except OSError as e:
        raise ConfigError(f"output directory {out_dir}: {e.strerror}") from e

    frames = datagen.frame_count(config.duration, config.fps)
    for what, size in (("the vocabulary", config.vocab_size * config.feature_dim),
                       ("a video's frames", frames * config.feature_dim)):
        if size > MAX_GENERATE_VALUES:
            raise ConfigError(f"{what} would hold {describe(size)} values, above "
                              f"the cap of {MAX_GENERATE_VALUES}")
    rng = np.random.default_rng([config.seed, 0])
    vocab = datagen.ConceptVocabulary.generate(
        config.vocab_size, config.feature_dim, rng)
    datagen.check_moments_fit(config.moments_per_video, config.duration, config.fps)
    # every video is cut at the same bounds
    bounds = datagen.chunk_bounds(config.duration, config.fps, config.chunk_seconds)
    for k, frames in enumerate(np.diff(bounds)):
        config.check_input((frames, config.feature_dim), f"chunk {_video_id(0)}_c{k}")

    def make(v: int) -> datagen.VideoRecord:
        return datagen.generate_video(
            vocab, config.moments_per_video, config.duration, config.fps,
            config.noise_level, rng_seed=[config.seed, 1, v], video_id=_video_id(v))

    _make_out_dir(out_dir / "chunks")
    try:
        vocab.save(out_dir / VOCAB_NAME)
        manifest = {"version": 1, "vocab": VOCAB_NAME,
                    "config": config.to_dict(), "videos": {}}
        # at most ``window`` videos are held at once; no thread starts at 1
        window = max(config.workers, 1)
        with ThreadPoolExecutor(max_workers=window) as pool:
            run = pool.map if window > 1 else map
            for v0 in range(0, config.videos, window):
                for record in run(make, range(v0, min(v0 + window, config.videos))):
                    manifest["videos"][record.video_id] = _store_video(
                        record, config.chunk_seconds, bounds, out_dir)
        manifest_path = out_dir / MANIFEST_NAME
        with fileio.replace_file(manifest_path, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        # a forced generate over an older dataset drops the chunks it does not list
        listed = {rel for entry in manifest["videos"].values() for rel in entry["chunks"]}
        for path in (out_dir / "chunks").glob("*.maln"):
            if f"chunks/{path.name}" not in listed:
                path.unlink()
    except BaseException:
        if fresh:
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    return manifest_path


# what load_dataset and eval read of each manifest video entry, and the fps
# that generate writes there
_VIDEO_FIELDS = {
    "duration": is_finite_number,
    "fps": is_number,
    "chunk_seconds": lambda v: is_finite_number(v) and v > 0,
    "chunks": lambda v: isinstance(v, list) and v != [] and all(
        isinstance(c, str) for c in v),
    "labels": lambda v: isinstance(v, list),
    "narrations": lambda v: isinstance(v, list) and all(
        isinstance(n, dict) and "concept_id" in n
        and all(is_number(n.get(k)) for k in ("t", "a", "b")) for n in v),
}


def _check_manifest(manifest, path: Path):
    """Raise DataFileError naming ``path`` unless the manifest has the
    keys and value types that the dataset readers index, the chunk count
    that datagen.chunk_bounds cuts, and narration times that interval
    sampling can take: every t, a and b finite, and each t in [0, duration],
    in its interval [a, b] and no earlier than the one before it."""
    if not (isinstance(manifest, dict) and isinstance(manifest.get("vocab"), str)
            and isinstance(manifest.get("videos"), dict)):
        raise DataFileError(
            f"{path}: a manifest needs a 'vocab' file name and a 'videos' object")
    for vid, meta in manifest["videos"].items():
        if not isinstance(meta, dict):
            raise DataFileError(f"{path}: video {describe(vid)} is not an object")
        bad = [k for k, ok in _VIDEO_FIELDS.items() if k not in meta or not ok(meta[k])]
        if bad:
            raise DataFileError(
                f"{path}: video {describe(vid)} has missing or mistyped {', '.join(bad)}")
        # compared as a float, so a huge ratio is refused and never overflows
        if len(meta["chunks"]) != np.ceil(meta["duration"] / meta["chunk_seconds"]):
            raise DataFileError(f"{path}: video {describe(vid)} lists {len(meta['chunks'])} "
                                f"chunks, not ceil(duration / chunk_seconds)")
        times = [n["t"] for n in meta["narrations"]]
        if not (all(is_finite_number(n[k]) for n in meta["narrations"] for k in "tab")
                and all(0.0 <= t <= meta["duration"] for t in times)
                and all(n["a"] <= n["t"] <= n["b"] for n in meta["narrations"])
                and all(s <= t for s, t in zip(times, times[1:]))):
            raise DataFileError(
                f"{path}: video {describe(vid)} narration times must be finite, with each "
                f"t in [0, {describe(meta['duration'])}] and in its interval [a, b], "
                f"and the t in non-decreasing order")


def load_dataset(data_dir: Path, video_ids: list[str] | None = None):
    """Returns (manifest, vocab, {video_id: [datagen.StoredChunk]}) for
    ``video_ids`` in that order, or for every manifest video.

    The whole manifest is checked, and each selected chunk file's header
    and size, but no frame is read: a chunk's ``features`` reads its file
    when it is used. Each chunk takes its narrations from its video's
    manifest entry (datagen.chunk_narrations). Raises ConfigError for a
    video id the manifest lacks, and DataFileError naming the file for a
    manifest without the expected keys, types and narration times, a
    concept id outside the vocab, or a chunk whose feature width is not
    the vocab's; a chunk file with a bad header or size raises what
    datagen.read_shape raises."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except OSError as e:
        raise ConfigError(
            f"{data_dir} is not a dataset directory ({e.strerror})") from e
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise DataFileError(f"{manifest_path}: unreadable manifest ({e})") from e
    _check_manifest(manifest, manifest_path)
    if video_ids is None:
        video_ids = list(manifest["videos"])
    unknown = [v for v in video_ids if v not in manifest["videos"]]
    if unknown:
        raise ConfigError(f"video ids {unknown} are not in {manifest_path}")
    vocab = datagen.ConceptVocabulary.load(data_dir / manifest["vocab"])
    for meta in manifest["videos"].values():
        bad = [c for c in meta["labels"] + [n["concept_id"] for n in meta["narrations"]]
               if isinstance(c, bool) or not (isinstance(c, int) and 0 <= c < vocab.size)]
        if bad:
            raise DataFileError(f"{manifest_path}: concept ids "
                                f"{listing([describe(c) for c in bad])} outside the "
                                f"vocabulary of {vocab.size}")
    videos: dict[str, list[datagen.StoredChunk]] = {}
    for vid in video_ids:
        meta = manifest["videos"][vid]
        cut = meta["duration"], meta["chunk_seconds"], len(meta["chunks"])
        narrations = datagen.chunk_narrations(
            [datagen.Narration(n["concept_id"], n["t"], n["a"], n["b"])
             for n in meta["narrations"]], *cut)
        lengths = datagen.chunk_lengths(*cut)
        chunks = []
        for k, rel in enumerate(meta["chunks"]):
            shape = datagen.read_shape(data_dir / rel)
            if shape[1] != vocab.dim:
                raise DataFileError(f"{data_dir / rel}: feature width {shape[1]}, "
                                    f"vocabulary width {vocab.dim}")
            chunks.append(datagen.StoredChunk(
                data_dir / rel, f"{vid}_c{k}", lengths[k], shape, narrations[k]))
        videos[vid] = chunks
    return manifest, vocab, videos


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def build_model(config: RunConfig) -> MomentSetModel:
    return MomentSetModel(config, init_params(config, np.random.default_rng([config.seed, 2])))


def _row_step(line: bytes, path: Path) -> int:
    """The step that a train log row opens with."""
    try:
        return int(line.split(b",", 1)[0])
    except ValueError as e:
        raise DataFileError(f"{path}: a row that opens with no step number") from e


def cut_train_log(path: Path, step: int):
    """Keep the header and the rows of the steps up to ``step``, the
    checkpoint's, so a resume drops the rows that a stopped run logged
    after its last save. A log whose rows all come after ``step`` was
    begun by a resume from that checkpoint or a later one, so only its
    header is kept. Otherwise raises DataFileError naming the log unless
    its complete rows reach ``step``: a resume would append after a gap.
    The cut copy is written beside the log and renamed into place."""
    kept = []  # the header, then the rows
    later = False  # whether a complete row after ``step`` ended the cut
    with fileio.open_read(path, "train log") as f:
        for line in f:
            # a row cut off mid-write has no newline
            if kept and (not line.endswith(b"\n") or _row_step(line, path) > step):
                later = line.endswith(b"\n")
                break
            kept.append(line)
    # with no row kept, a complete row after ``step`` must have ended the cut
    if _row_step(kept[-1], path) != step if len(kept) > 1 else not later:
        raise DataFileError(f"{path}: its complete rows stop short of the "
                            f"checkpoint's step {step}")
    with fileio.replace_file(path) as f:
        f.writelines(kept)


def cmd_train(config: RunConfig, data_dir: Path, out_dir: Path,
              resume_from: Path | None = None,
              video_ids: list[str] | None = None) -> Path:
    """Train on the selected videos' chunks that have narrations; each
    batch's interval samples are drawn here, and train_step runs them,
    reading the batch's frames. Every chunk trained is checked against
    the model (ModelConfig.check_input, on its header shape) before
    ``out_dir`` is made; a chunk without narrations is not forwarded, so
    it is not checked. The log is flushed before each checkpoint save."""
    out_dir = Path(out_dir)
    _, vocab, videos = load_dataset(data_dir, video_ids)
    chunks = [c for cs in videos.values() for c in cs if c.narrations]
    if not chunks:
        raise ConfigError(f"nothing to train: no chunk of the videos selected "
                          f"from {data_dir} has a narration")
    max_narr = max(len(c.narrations) for c in chunks)
    if max_narr > config.queries:
        raise ConfigError(
            f"a chunk has {max_narr} narrations but the model only has "
            f"{config.queries} queries")

    if resume_from is None:
        model = build_model(config)
        optimizer = Adam(model.params, lr=config.lr)
        start_epoch = 0
    else:
        data = ckpt.load_checkpoint(resume_from)
        model, optimizer = ckpt.restore(data, config)
        start_epoch = data.epochs_done
        if start_epoch >= config.epochs:
            raise ConfigError(f"nothing to train: {resume_from} already holds "
                              f"{start_epoch} of the run's {config.epochs} epochs")
    for c in chunks:
        config.check_input(c.shape, f"chunk {c.video_id}")
    # --out is made only once the dataset and the checkpoint are accepted
    _make_out_dir(out_dir)
    log_path = out_dir / TRAIN_LOG_NAME
    if resume_from is not None and log_path.exists():
        cut_train_log(log_path, data.step)

    rng_fix = np.random.default_rng([config.seed, 4])
    frozen = ([matching.sample_chunk_intervals(c, rng_fix) for c in chunks]
              if config.freeze_intervals else None)

    ckpt_path = out_dir / CHECKPOINT_NAME
    mode = "a" if resume_from is not None and log_path.exists() else "w"
    # a chunk that cannot be opened and a failed save raise typed errors of
    # their own, so an OSError here is the log's
    with _writing(log_path), open(log_path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(["step", "loss", "matched_sim_mean",
                             "unmatched_sim_mean", "t", "b"])
        for epoch in range(start_epoch, config.epochs):
            rng = np.random.default_rng([config.seed, 3, epoch])
            order = rng.permutation(len(chunks))
            for b0 in range(0, len(chunks), config.batch_size):
                idx = order[b0:b0 + config.batch_size]
                batch = [chunks[i] for i in idx]
                samples = ([frozen[i] for i in idx] if frozen is not None else
                           [matching.sample_chunk_intervals(c, rng) for c in batch])
                stats = matching.train_step(model, vocab, batch, samples, optimizer)
                # a row's step is the optimizer's, so a resume continues
                # from the checkpoint's step, on any dataset
                writer.writerow([optimizer.step_count, f"{stats.loss:.10g}",
                                 f"{stats.matched_sim_mean:.10g}",
                                 f"{stats.unmatched_sim_mean:.10g}",
                                 f"{stats.temperature:.10g}",
                                 f"{stats.bias:.10g}"])
            # the log on disk covers every step that the checkpoint holds
            f.flush()
            ckpt.save_checkpoint(ckpt_path, config, model, optimizer, epoch + 1)
    return ckpt_path


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _video_predictions(model: MomentSetModel, videos, batch_size: int, te: bool):
    """Yield (video_id, chunks, (visual, te_start, te_end)) for each video in
    sorted id order.

    Whole videos share one stacked forward until it holds at least
    ``batch_size`` chunks or the videos run out; a video is never split.
    A video's arrays are its rows of the stack, row k chunk k. With ``te``
    False the forward skips the temporal head and the TE arrays are None.
    """
    vids = sorted(videos)
    start = 0
    while start < len(vids):
        stop, rows = start, 0
        while stop < len(vids) and rows < batch_size:
            rows += len(videos[vids[stop]])
            stop += 1
        group = vids[start:stop]
        pred = model.forward_chunks([c.features for vid in group for c in videos[vid]], te)
        row = 0
        for vid in group:
            chunks = videos[vid]
            yield vid, chunks, tuple(None if f is None else f.data[row:row + len(chunks)]
                                     for f in (pred.visual, pred.te_start, pred.te_end))
            row += len(chunks)
        start = stop


def eval_recognition(config: RunConfig, model: MomentSetModel, vocab,
                     manifest, videos) -> dict:
    """Video-level mAP of the mean class cosine of every visual embedding;
    the score reads no TE, so the forward stops at the visual head."""
    scores = np.zeros((len(videos), vocab.size))
    labels = np.zeros((len(videos), vocab.size), dtype=bool)
    for r, (vid, _, (visual, _, _)) in enumerate(
            _video_predictions(model, videos, config.batch_size, te=False)):
        scores[r] = evaluate.recognition_scores(visual, vocab.vectors).mean(axis=0)
        labels[r, manifest["videos"][vid]["labels"]] = True
    return {"task": "recognition",
            "map": evaluate.video_map(scores, labels),
            "videos": len(videos),
            "config": config.to_dict()}


def decode_video_spans(table: TemporalTable, te_start: np.ndarray, te_end: np.ndarray,
                       durations, chunk_seconds: float) -> np.ndarray:
    """Every query slot's (start, end) on the global timeline; (B*N) x 2.

    ``te_start`` and ``te_end`` are a video's stacked B x N x d TE arrays,
    row k chunk k of ``durations[k]`` seconds. All start and end embeddings
    are decoded in one call, re-based by their chunk's offset and swapped
    where start > end. Rows are chunk-major, then slot order, matching the
    flattened visual rows.
    """
    b, n = te_start.shape[:2]
    t = table.decode_timestamps(np.concatenate([te_start, te_end], axis=1),
                                np.reshape(durations, (b, 1)))
    spans = np.sort(t.reshape(b, 2, n).transpose(0, 2, 1), axis=-1)
    return ((np.arange(b) * chunk_seconds)[:, None, None] + spans).reshape(-1, 2)


def nlq_video_candidates(visual: np.ndarray, spans: np.ndarray, query_vec: np.ndarray,
                         k: int | None = None) -> list[tuple[float, float, float]]:
    """The top ``k`` (score, start, end) candidates for one query, global
    timeline; all of them when ``k`` is None.

    ``visual`` and ``spans`` hold every query slot of a video's chunks,
    chunk-major (see decode_video_spans). Candidates are sorted by
    similarity, descending; ties keep chunk order, then slot order.
    """
    order, sims = evaluate.rank_queries(visual, query_vec)
    order = order[:k]
    return [(score, s, e) for score, (s, e)
            in zip(sims[order].tolist(), spans[order].tolist())]


def eval_nlq(config: RunConfig, model: MomentSetModel, vocab,
             manifest, videos, outcomes_path: Path | None = None) -> dict:
    rows = []
    gt_intervals = []
    predictions = []
    for vid, chunks, (visual, te_start, te_end) in _video_predictions(
            model, videos, config.batch_size, te=True):
        meta = manifest["videos"][vid]
        visual = visual.reshape(-1, visual.shape[-1])
        spans = decode_video_spans(model.temporal, te_start, te_end,
                                   [c.duration for c in chunks], meta["chunk_seconds"])
        for n in meta["narrations"]:
            # the outcome row and the recall read only the top max(NLQ_TOPK)
            cands = nlq_video_candidates(
                visual, spans, vocab.vectors[n["concept_id"]], max(NLQ_TOPK))
            intervals = [(s, e) for _, s, e in cands]
            gt = (n["a"], n["b"])
            gt_intervals.append(gt)
            predictions.append(intervals)
            row = {"video_id": vid, "concept_id": n["concept_id"],
                   "gt_start": gt[0], "gt_end": gt[1],
                   "top1_start": intervals[0][0], "top1_end": intervals[0][1]}
            for k in NLQ_TOPK:
                best = max((evaluate.temporal_iou(p, gt) for p in intervals[:k]),
                           default=0.0)
                row[f"best_iou_top{k}"] = best
            rows.append(row)
    recall = {}
    for k in NLQ_TOPK:
        recall[str(k)] = {}
        for iou in IOU_THRESHOLDS:
            recall[str(k)][str(iou)] = evaluate.nlq_recall(
                gt_intervals, predictions, k, iou)
    if outcomes_path is not None:
        with fileio.replace_file(outcomes_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return {"task": "nlq", "recall": recall, "queries": len(rows),
            "config": config.to_dict()}


def cmd_eval(config: RunConfig, data_dir: Path, out_dir: Path, task: str,
             checkpoint_path: Path, video_ids: list[str] | None = None) -> dict:
    """Evaluate the model in ``checkpoint_path`` zero-shot on ``task``.

    The model and the model fields of the report's config come from the
    checkpoint's snapshot (checkpoint.load_model); those of ``config`` are
    ignored, so the scores depend only on the checkpoint and the dataset.
    Raises ConfigError, before the checkpoint is read, when the selected
    videos have no label (recognition) or no narration (nlq) to score.
    ``out_dir`` is made only once the dataset and the checkpoint are read
    and every chunk of the selected videos passes the checkpoint model's
    ModelConfig.check_input, on its header shape; a video's frames are
    read when its forward runs (_video_predictions).
    """
    if task not in ("recognition", "nlq"):
        raise ConfigError(f"unknown eval task '{task}'")
    out_dir = Path(out_dir)
    manifest, vocab, videos = load_dataset(data_dir, video_ids)
    key = "labels" if task == "recognition" else "narrations"
    if not any(manifest["videos"][vid][key] for vid in videos):
        raise ConfigError(f"nothing to evaluate: the selected videos have no {key}")
    config, model = ckpt.load_model(checkpoint_path, config)
    for c in itertools.chain.from_iterable(videos.values()):
        config.check_input(c.shape, f"chunk {c.video_id}")
    _make_out_dir(out_dir)
    if task == "recognition":
        report = eval_recognition(config, model, vocab, manifest, videos)
    else:
        report = eval_nlq(config, model, vocab, manifest, videos,
                          outcomes_path=out_dir / "nlq_outcomes.csv")
    report_path = out_dir / f"report_{task}.json"
    with fileio.replace_file(report_path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    """The --config file's config, or the defaults, with --seed and
    --workers applied; each config made on the way is checked."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {k: getattr(args, k) for k in ("seed", "workers")
                 if getattr(args, k) is not None}
    return dataclasses.replace(cfg, **overrides)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentset",
        description="Moment-set pre-training on synthetic untrimmed videos")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON run config")
    common.add_argument("--seed", type=int, help="override config seed")
    common.add_argument("--workers", type=int,
                        help="threads for generate (train and eval ignore it)")

    p = sub.add_parser("generate", parents=[common],
                       help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--force", action="store_true",
                   help="write into a non-empty directory")

    p = sub.add_parser("train", parents=[common], help="train the model")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, help="resume from checkpoint")

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True,
                   help="checkpoint to evaluate; its snapshot sets the model fields")
    p.add_argument("--task", choices=["recognition", "nlq"], required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MOMENTSET_LOGLEVEL", "INFO"))
    args = make_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "generate":
            path = cmd_generate(cfg, args.out, force=args.force)
            print(f"wrote {path}")
        elif args.command == "train":
            path = cmd_train(cfg, args.data, args.out, resume_from=args.checkpoint)
            print(f"wrote {path}")
        elif args.command == "eval":
            report = cmd_eval(cfg, args.data, args.out, args.task,
                              checkpoint_path=args.checkpoint)
            print(json.dumps({k: v for k, v in report.items() if k != "config"}))
    except MomentSetError as e:
        print(f"error: {e.category}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
