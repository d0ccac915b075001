"""Correctness checks the benchmark runs after its timed section.

Each check compares the program's output with a computation written here,
apart from the program, or with a property the method must have. A check
returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

TOL = 1e-9


def temporal_iou(p: tuple[float, float], g: tuple[float, float]) -> float:
    """Length of the overlap of two closed intervals over their hull."""
    lo, hi = sorted(p), sorted(g)
    overlap = min(lo[1], hi[1]) - max(lo[0], hi[0])
    hull = max(lo[1], hi[1]) - min(lo[0], hi[0])
    return overlap / hull if overlap > 0.0 and hull > 0.0 else 0.0


def average_precision(scores, positives) -> float:
    """Mean, over the positives, of the precision at each positive's rank.

    Higher scores rank first; equal scores rank in input order.
    """
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    precisions = []
    for rank, i in enumerate(ranked, start=1):
        if positives[i]:
            precisions.append((len(precisions) + 1) / rank)
    return sum(precisions) / len(precisions)


def mean_average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP averaged over the classes (columns) that have a positive."""
    aps = [average_precision(list(scores[:, k]), list(labels[:, k]))
           for k in range(scores.shape[1]) if labels[:, k].any()]
    return sum(aps) / len(aps)


def recall(best_ious: list[float], threshold: float) -> float:
    """Share of queries whose best IoU reaches the threshold."""
    return sum(iou >= threshold for iou in best_ious) / len(best_ious)


def on_grid(t: float, duration: float, chunk_seconds: float, rows: int) -> bool:
    """True when t is a row of some chunk's temporal table, inside the video.

    Chunk k covers [k*chunk_seconds, k*chunk_seconds + its length]; its
    table rows sit at equal steps of length / (rows - 1) across it.
    """
    if not 0.0 <= t <= duration:
        return False
    for k in range(math.ceil(duration / chunk_seconds)):
        start = k * chunk_seconds
        length = min(chunk_seconds, duration - start)
        r = (t - start) / length * (rows - 1)
        if -TOL <= r <= rows - 1 + TOL and abs(r - round(r)) <= 1e-6:
            return True
    return False


def check_assignment(cost: np.ndarray, assignment: np.ndarray) -> list[str]:
    """The assignment of gt columns to query rows is injective and its cost
    equals scipy's optimum on the same matrix."""
    n, m = cost.shape
    assignment = np.asarray(assignment)
    if assignment.shape != (m,) or len(set(assignment.tolist())) != m \
            or assignment.min() < 0 or assignment.max() >= n:
        return [f"assignment {assignment.tolist()} is not injective into {n} rows"]
    rows, cols = linear_sum_assignment(cost)
    best = cost[rows, cols].sum()
    got = cost[assignment, np.arange(m)].sum()
    if abs(got - best) > TOL * max(1.0, abs(best)):
        return [f"assignment cost {got!r} != optimum {best!r}"]
    return []


def read_losses(log_path: Path) -> list[float]:
    with open(log_path, newline="") as f:
        return [float(row["loss"]) for row in csv.DictReader(f)]


def check_losses(losses: list[float], steps_per_epoch: int, epochs: int) -> list[str]:
    """One logged loss per step, all finite, the last epoch's mean below the
    first epoch's."""
    if len(losses) != steps_per_epoch * epochs:
        return [f"{len(losses)} logged steps, expected {steps_per_epoch * epochs}"]
    if not all(math.isfinite(x) for x in losses):
        return ["non-finite logged loss"]
    first = sum(losses[:steps_per_epoch]) / steps_per_epoch
    last = sum(losses[-steps_per_epoch:]) / steps_per_epoch
    if not last < first:
        return [f"last-epoch loss {last} is not below first-epoch loss {first}"]
    return []


def check_nlq(outcomes_path: Path, report: dict, narrations: list[dict],
              durations: list[float], chunk_seconds: float, rows: int) -> list[str]:
    """Check nlq_outcomes.csv against the manifest and the report.

    ``narrations`` and ``durations`` list, in report order, each query's
    ground-truth narration and the duration of its video.
    """
    with open(outcomes_path, newline="") as f:
        table = list(csv.DictReader(f))
    if not len(table) == report["queries"] == len(narrations):
        return [f"{len(table)} outcome rows, {report['queries']} reported queries, "
                f"{len(narrations)} narrations in the manifest"]
    problems = []
    best: dict[int, list[float]] = {}
    for row, n, duration in zip(table, narrations, durations):
        gt = (float(row["gt_start"]), float(row["gt_end"]))
        top1 = (float(row["top1_start"]), float(row["top1_end"]))
        if gt != (n["a"], n["b"]) or int(row["concept_id"]) != n["concept_id"]:
            problems.append(f"outcome row {row} does not match narration {n}")
        if not top1[0] <= top1[1]:
            problems.append(f"decoded interval {top1} ends before it starts")
        for t in top1:
            if not on_grid(t, duration, chunk_seconds, rows):
                problems.append(f"decoded endpoint {t} is off the temporal grid")
        iou = temporal_iou(top1, gt)
        if abs(iou - float(row["best_iou_top1"])) > TOL:
            problems.append(f"top-1 IoU {row['best_iou_top1']} != {iou}")
        best.setdefault(1, []).append(iou)
        for k in report["recall"]:
            if k != "1":
                best.setdefault(int(k), []).append(float(row[f"best_iou_top{k}"]))
    for k, ious in best.items():
        if any(a < b - TOL for a, b in zip(ious, best[1])):
            problems.append(f"a best IoU in the top {k} is below the top-1 IoU")
        for thr, got in report["recall"][str(k)].items():
            want = recall(ious, float(thr))
            if abs(got - want) > TOL:
                problems.append(f"recall@{k} IoU {thr}: report {got}, recomputed {want}")
    return problems[:10]


def check_recognition(report: dict, scores: np.ndarray, labels: np.ndarray) -> list[str]:
    """The reported mAP equals one recomputed from scores and labels made
    here."""
    if not np.all(np.isfinite(scores)):
        return ["non-finite recognition score"]
    want = mean_average_precision(scores, labels)
    if abs(report["map"] - want) > TOL:
        return [f"reported mAP {report['map']} != recomputed {want}"]
    return []
