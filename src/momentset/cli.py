"""Command-line entry points: generate / train / eval."""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import datagen, evaluate, matching
from . import tensor as tt
from .config import RunConfig, is_number
from .errors import ConfigError, FeatureStoreError, MomentSetError, OptimizerError
from .model import MomentPrediction, MomentSetModel
from .optim import Adam
from .temporal import TemporalTable

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
VOCAB_NAME = "vocab.npz"
CHECKPOINT_NAME = "checkpoint.malc"
TRAIN_LOG_NAME = "train_log.csv"

# The Ego4D NLQ protocol (Grauman et al., CVPR 2022): recall@{1, 5} at
# temporal IoU {0.3, 0.5}.
NLQ_TOPK = (1, 5)
IOU_THRESHOLDS = (0.3, 0.5)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def cmd_generate(config: RunConfig, out_dir: Path, force: bool = False) -> Path:
    config.validate()
    out_dir = Path(out_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise ConfigError(f"output directory {out_dir} is not empty (use --force)")
    (out_dir / "chunks").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng([config.seed, 0])
    vocab = datagen.ConceptVocabulary.generate(
        config.vocab_size, config.feature_dim, rng)
    vocab.save(out_dir / VOCAB_NAME)

    def make(v: int) -> datagen.VideoRecord:
        return datagen.generate_video(
            vocab, config.moments_per_video, config.duration, config.fps,
            config.noise_level, rng_seed=[config.seed, 1, v],
            video_id=f"video{v:04d}")

    indices = range(config.videos)
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as ex:
            records = list(ex.map(make, indices))
    else:
        records = [make(v) for v in indices]

    manifest = {"version": 1, "vocab": VOCAB_NAME,
                "config": config.to_dict(), "videos": {}}
    for record in records:
        chunks = datagen.chunk_video(record, config.chunk_seconds)
        paths = []
        for k, chunk in enumerate(chunks):
            rel = f"chunks/{record.video_id}_{k:03d}.maln"
            datagen.store(chunk, out_dir / rel)
            paths.append(rel)
        manifest["videos"][record.video_id] = {
            "duration": record.duration,
            "fps": record.fps,
            "chunk_seconds": config.chunk_seconds,
            "chunks": paths,
            "labels": sorted({n.concept_id for n in record.narrations}),
            "narrations": [
                {"concept_id": n.concept_id, "t": n.t, "a": n.a, "b": n.b}
                for n in record.narrations],
        }
    with open(out_dir / MANIFEST_NAME, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return out_dir / MANIFEST_NAME


def _check_concepts(ids, vocab: datagen.ConceptVocabulary, path: Path):
    bad = [c for c in ids if isinstance(c, bool)
           or not (isinstance(c, int) and 0 <= c < vocab.size)]
    if bad:
        raise FeatureStoreError(
            f"{path}: concept ids {bad} outside the vocabulary of {vocab.size}")


# what load_dataset and eval read of each manifest video entry
_VIDEO_FIELDS = {
    "duration": is_number,
    "fps": is_number,
    "chunk_seconds": is_number,
    "chunks": lambda v: isinstance(v, list) and v != [] and all(
        isinstance(c, str) for c in v),
    "labels": lambda v: isinstance(v, list),
    "narrations": lambda v: isinstance(v, list) and all(
        isinstance(n, dict) and "concept_id" in n
        and is_number(n.get("a")) and is_number(n.get("b")) for n in v),
}


def _check_manifest(manifest, path: Path):
    """Raise FeatureStoreError naming ``path`` unless the manifest has the
    keys and value types that the dataset readers index."""
    if not (isinstance(manifest, dict) and isinstance(manifest.get("vocab"), str)
            and isinstance(manifest.get("videos"), dict)):
        raise FeatureStoreError(
            f"{path}: a manifest needs a 'vocab' file name and a 'videos' object")
    for vid, meta in manifest["videos"].items():
        if not isinstance(meta, dict):
            raise FeatureStoreError(f"{path}: video '{vid}' is not an object")
        bad = [k for k, ok in _VIDEO_FIELDS.items() if k not in meta or not ok(meta[k])]
        if bad:
            raise FeatureStoreError(
                f"{path}: video '{vid}' has missing or mistyped {', '.join(bad)}")


def load_dataset(data_dir: Path, video_ids: list[str] | None = None):
    """Returns (manifest, vocab, {video_id: [chunk records]}) for
    ``video_ids`` in that order, or for every manifest video.

    The whole manifest is checked, but only the selected videos' chunk files
    are read. Raises ConfigError for a video id the manifest lacks, and
    FeatureStoreError naming the file for a manifest without the expected
    keys and types, a concept id outside the vocab, or a chunk whose
    feature width is not the vocab's."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except OSError as e:
        raise ConfigError(
            f"{data_dir} is not a dataset directory ({e.strerror})") from e
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise FeatureStoreError(f"{manifest_path}: unreadable manifest ({e})") from e
    _check_manifest(manifest, manifest_path)
    if video_ids is None:
        video_ids = list(manifest["videos"])
    unknown = [v for v in video_ids if v not in manifest["videos"]]
    if unknown:
        raise ConfigError(f"video ids {unknown} are not in {manifest_path}")
    vocab = datagen.ConceptVocabulary.load(data_dir / manifest["vocab"])
    for meta in manifest["videos"].values():
        _check_concepts(meta["labels"] + [n["concept_id"] for n in meta["narrations"]],
                        vocab, manifest_path)
    videos: dict[str, list[datagen.VideoRecord]] = {}
    for vid in video_ids:
        meta = manifest["videos"][vid]
        cs = meta["chunk_seconds"]
        chunks = []
        for k, rel in enumerate(meta["chunks"]):
            dur = min(cs, meta["duration"] - k * cs)
            chunk = datagen.load(data_dir / rel, f"{vid}_c{k}", dur, meta["fps"])
            if chunk.features.shape[1] != vocab.dim:
                raise FeatureStoreError(
                    f"{data_dir / rel}: feature width {chunk.features.shape[1]}, "
                    f"vocabulary width {vocab.dim}")
            _check_concepts([n.concept_id for n in chunk.narrations], vocab, data_dir / rel)
            chunks.append(chunk)
        videos[vid] = chunks
    return manifest, vocab, videos


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def build_model(config: RunConfig) -> MomentSetModel:
    return MomentSetModel(config.model_config(), np.random.default_rng([config.seed, 2]))


def restore_target(config: RunConfig) -> MomentSetModel:
    """A model for a resumed run's checkpoint to fill: weights allocated, not drawn."""
    return MomentSetModel(config.model_config(), rng=None)


def build_optimizer(config: RunConfig, model: MomentSetModel) -> Adam:
    return Adam(model.params, lr=config.lr)


def cmd_train(config: RunConfig, data_dir: Path, out_dir: Path,
              resume_from: Path | None = None,
              video_ids: list[str] | None = None) -> Path:
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, vocab, videos = load_dataset(data_dir, video_ids)
    chunks = [c for cs in videos.values() for c in cs]
    max_narr = max((len(c.narrations) for c in chunks), default=0)
    if max_narr > config.queries:
        raise ConfigError(
            f"a chunk has {max_narr} narrations but the model only has "
            f"{config.queries} queries")

    model = build_model(config) if resume_from is None else restore_target(config)
    optimizer = build_optimizer(config, model)
    start_epoch = 0
    if resume_from is not None:
        data = ckpt.load_checkpoint(resume_from)
        ckpt.restore(data, config, model, optimizer)
        start_epoch = data.epochs_done

    fixed_samples = None
    if config.freeze_intervals:
        rng_fix = np.random.default_rng([config.seed, 4])
        fixed_samples = {
            c.video_id: matching.sample_chunk_intervals(c, rng_fix)
            for c in chunks if c.narrations}

    log_path = out_dir / TRAIN_LOG_NAME
    ckpt_path = out_dir / CHECKPOINT_NAME
    steps_per_epoch = math.ceil(len(chunks) / config.batch_size)
    step = start_epoch * steps_per_epoch
    mode = "a" if resume_from is not None and log_path.exists() else "w"
    with open(log_path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(["step", "loss", "matched_sim_mean",
                             "unmatched_sim_mean", "t", "b"])
        for epoch in range(start_epoch, config.epochs):
            rng = np.random.default_rng([config.seed, 3, epoch])
            order = rng.permutation(len(chunks))
            for b0 in range(0, len(chunks), config.batch_size):
                batch = [chunks[i] for i in order[b0:b0 + config.batch_size]]
                try:
                    stats = matching.train_step(
                        model, vocab, batch, optimizer, rng,
                        fixed_samples=fixed_samples)
                except OptimizerError:
                    log.error("aborting: non-finite loss/gradient at step %d; "
                              "last-good checkpoint kept at %s", step, ckpt_path)
                    raise
                step += 1
                writer.writerow([step, f"{stats.loss:.10g}",
                                 f"{stats.matched_sim_mean:.10g}",
                                 f"{stats.unmatched_sim_mean:.10g}",
                                 f"{stats.temperature:.10g}",
                                 f"{stats.bias:.10g}"])
            ckpt.save_checkpoint(ckpt_path, config, model, optimizer, epoch + 1)
    return ckpt_path


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _video_prediction_chunks(model, chunks) -> MomentPrediction:
    """The video's chunks as one stacked prediction; row k is chunk k."""
    with tt.no_grad():
        return model.forward_chunks([c.features for c in chunks])


def eval_recognition(config: RunConfig, model: MomentSetModel, vocab,
                     manifest, videos) -> dict:
    vids = sorted(videos)
    scores = np.zeros((len(vids), vocab.size))
    labels = np.zeros((len(vids), vocab.size), dtype=bool)
    for r, vid in enumerate(vids):
        visual = _video_prediction_chunks(model, videos[vid]).visual.data
        scores[r] = evaluate.recognition_scores(visual, vocab.vectors).mean(axis=0)
        labels[r, manifest["videos"][vid]["labels"]] = True
    return {"task": "recognition",
            "map": evaluate.video_map(scores, labels),
            "videos": len(vids),
            "config": config.to_dict()}


def decode_video_spans(table: TemporalTable, pred: MomentPrediction, durations,
                       chunk_seconds: float) -> np.ndarray:
    """Every query slot's (start, end) on the global timeline; (B*N) x 2.

    ``pred`` is a video's stacked B x N prediction, row k chunk k of
    ``durations[k]`` seconds. All start and end embeddings are decoded in
    one call, re-based by their chunk's offset and swapped where
    start > end. Rows are chunk-major, then slot order, matching the
    flattened visual rows.
    """
    b, n = pred.te_start.data.shape[:2]
    t = table.decode_timestamps(
        np.concatenate([pred.te_start.data, pred.te_end.data], axis=1),
        np.reshape(durations, (b, 1)))
    spans = np.sort(t.reshape(b, 2, n).transpose(0, 2, 1), axis=-1)
    return ((np.arange(b) * chunk_seconds)[:, None, None] + spans).reshape(-1, 2)


def nlq_video_candidates(visual: np.ndarray, spans: np.ndarray,
                         query_vec: np.ndarray) -> list[tuple[float, float, float]]:
    """All (score, start, end) candidates for one query, global timeline.

    ``visual`` and ``spans`` hold every query slot of a video's chunks,
    chunk-major (see decode_video_spans). Candidates are sorted by
    similarity, descending; ties keep chunk order, then slot order.
    """
    order, sims = evaluate.rank_queries(visual, query_vec)
    return [(score, s, e) for score, (s, e)
            in zip(sims[order].tolist(), spans[order].tolist())]


def eval_nlq(config: RunConfig, model: MomentSetModel, vocab,
             manifest, videos, outcomes_path: Path | None = None) -> dict:
    rows = []
    gt_intervals = []
    predictions = []
    for vid in sorted(videos):
        meta = manifest["videos"][vid]
        chunks = videos[vid]
        preds = _video_prediction_chunks(model, chunks)
        visual = preds.visual.data.reshape(-1, preds.visual.data.shape[-1])
        spans = decode_video_spans(model.temporal, preds,
                                   [c.duration for c in chunks], meta["chunk_seconds"])
        for n in meta["narrations"]:
            cands = nlq_video_candidates(
                visual, spans, vocab.vectors[n["concept_id"]])
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
        with open(outcomes_path, "w", newline="") as f:
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
    """
    config.validate()
    if task not in ("recognition", "nlq"):
        raise ConfigError(f"unknown eval task '{task}'")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest, vocab, videos = load_dataset(data_dir, video_ids)
    key = "labels" if task == "recognition" else "narrations"
    if not any(manifest["videos"][vid][key] for vid in videos):
        raise ConfigError(f"nothing to evaluate: the selected videos have no {key}")
    config, model = ckpt.load_model(checkpoint_path, config)
    if task == "recognition":
        report = eval_recognition(config, model, vocab, manifest, videos)
    else:
        report = eval_nlq(config, model, vocab, manifest, videos,
                          outcomes_path=out_dir / "nlq_outcomes.csv")
    with open(out_dir / f"report_{task}.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers
    return cfg


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
