"""Zero-shot downstream heads: recognition scoring with video-level mAP and
natural-language-query grounding with recall@K at IoU thresholds.

Everything here is a pure function of frozen model outputs.
"""
from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)


def recognition_scores(visual: np.ndarray, class_vectors: np.ndarray) -> np.ndarray:
    """Per-class score: mean cosine of a prediction's N visual embeddings;
    [B x] N x C rows give [B x] K scores, one row per stacked prediction."""
    return (np.asarray(visual) @ np.asarray(class_vectors).T).mean(axis=-2)


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """AP of one class: mean precision at each positive's rank.

    Videos are ranked by descending score; ties keep original order.
    """
    order = np.argsort(-scores, kind="stable")
    hits = np.asarray(positives, dtype=bool)[order]
    precision = np.cumsum(hits) / np.arange(1, len(order) + 1)
    return float(np.mean(precision[hits]))


def video_map(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean AP over classes with at least one positive video.

    scores: V x K score matrix; labels: V x K boolean multi-label matrix.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels, dtype=bool)
    aps = []
    for k in range(scores.shape[1]):
        if not labels[:, k].any():
            log.warning("class %d has no positive videos, excluded from mAP", k)
            continue
        aps.append(average_precision(scores[:, k], labels[:, k]))
    return float(np.mean(aps))


def rank_queries(visual: np.ndarray, query_vec: np.ndarray):
    """Query slots (rows of the N x C visual matrix) sorted by cosine with
    the language query, descending; ties keep slot order."""
    sims = np.asarray(visual) @ np.asarray(query_vec).reshape(-1)
    order = np.argsort(-sims, kind="stable")
    return order, sims


def temporal_iou(p: tuple[float, float], g: tuple[float, float]) -> float:
    inter = max(0.0, min(p[1], g[1]) - max(p[0], g[0]))
    union = max(p[1], g[1]) - min(p[0], g[0])
    if union <= 0.0:
        return 0.0
    return inter / union


def nlq_recall(gt_intervals: list[tuple[float, float]],
               predictions: list[list[tuple[float, float]]],
               k: int, iou_threshold: float) -> float:
    """Fraction of queries whose top-k predictions contain a hit."""
    hits = 0
    for gt, preds in zip(gt_intervals, predictions):
        if any(temporal_iou(p, gt) >= iou_threshold for p in preds[:k]):
            hits += 1
    return hits / len(gt_intervals)
