"""Tests of the benchmark's own oracles and a smoke run of a shrunken workload.

    python3 -m pytest perfbench -q
"""
import json

import numpy as np
import pytest

import run

run.import_package()

import oracles  # noqa: E402
import workloads  # noqa: E402
from momentset import evaluate  # noqa: E402


def test_temporal_iou_hand_worked():
    assert oracles.temporal_iou((0.0, 2.0), (1.0, 3.0)) == pytest.approx(1 / 3)
    assert oracles.temporal_iou((1.0, 3.0), (0.0, 4.0)) == pytest.approx(0.5)
    assert oracles.temporal_iou((2.0, 1.0), (1.0, 2.0)) == 1.0
    assert oracles.temporal_iou((0.0, 1.0), (1.0, 2.0)) == 0.0   # touching
    assert oracles.temporal_iou((0.0, 1.0), (5.0, 6.0)) == 0.0   # disjoint
    assert oracles.temporal_iou((1.0, 1.0), (0.0, 2.0)) == 0.0   # zero length


def test_average_precision_hand_worked():
    # positives at ranks 1 and 3: (1/1 + 2/3) / 2
    assert oracles.average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(5 / 6)
    # ranked by score, not by position: positives at ranks 2 and 3
    assert oracles.average_precision([0.1, 0.9, 0.5, 0.3], [1, 0, 1, 0]) == pytest.approx(
        (1 / 2 + 2 / 4) / 2)
    assert oracles.average_precision([0.5, 0.5], [0, 1]) == 0.5   # ties keep input order
    assert oracles.average_precision([0.3, 0.2, 0.1], [1, 1, 1]) == 1.0


def test_mean_average_precision_skips_classes_without_positives():
    scores = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.4]])
    labels = np.array([[True, False, False], [False, True, False]])
    assert oracles.mean_average_precision(scores, labels) == 1.0
    labels[:, 0] = [False, True]
    assert oracles.mean_average_precision(scores, labels) == pytest.approx((0.5 + 1.0) / 2)


def test_average_precision_agrees_with_program_on_random_rankings():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.standard_normal(12)
        positives = rng.random(12) < 0.4
        positives[0] = True
        assert oracles.average_precision(list(scores), list(positives)) == pytest.approx(
            evaluate.average_precision(scores, positives), abs=1e-12)


def test_recall_hand_worked():
    ious = [0.2, 0.3, 0.5, 0.7]
    assert oracles.recall(ious, 0.3) == 0.75
    assert oracles.recall(ious, 0.5) == 0.5
    assert oracles.recall(ious, 0.8) == 0.0


def test_on_grid():
    # two 50-s chunks with 64 rows: steps of 50/63 s from each chunk start
    assert oracles.on_grid(0.0, 100.0, 50.0, 64)
    assert oracles.on_grid(50.0 / 63 * 5, 100.0, 50.0, 64)
    assert oracles.on_grid(50.0 + 50.0 / 63 * 62, 100.0, 50.0, 64)
    assert oracles.on_grid(100.0, 100.0, 50.0, 64)
    assert not oracles.on_grid(0.3, 100.0, 50.0, 64)
    assert not oracles.on_grid(100.5, 100.0, 50.0, 64)
    # a short last chunk (20 s) has its own, finer step
    assert oracles.on_grid(100.0 + 20.0 / 63, 120.0, 50.0, 64)
    assert not oracles.on_grid(100.0 + 50.0 / 63, 120.0, 50.0, 64)


def test_check_assignment():
    cost = np.array([[1.0, 5.0], [2.0, 1.0], [9.0, 9.0]])   # optimum 1 + 1
    assert oracles.check_assignment(cost, np.array([0, 1])) == []
    assert oracles.check_assignment(cost, np.array([1, 0]))     # 2 + 5
    assert oracles.check_assignment(cost, np.array([0, 0]))     # not injective
    assert oracles.check_assignment(cost, np.array([0, 3]))     # out of range


def test_check_losses():
    assert oracles.check_losses([3.0, 2.0, 1.0, 0.5], 2, 2) == []
    assert oracles.check_losses([1.0, 1.0, 2.0, 2.0], 2, 2)
    assert oracles.check_losses([3.0, float("nan"), 1.0, 0.5], 2, 2)
    assert oracles.check_losses([3.0, 2.0, 1.0], 2, 2)


TINY = workloads.Workload(
    {"duration": 20.0, "chunk_seconds": 10.0, "moments_per_video": 2,
     "batch_size": 2},
    train_videos=2, eval_videos=2, epochs=2, resume_epochs=1)


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_shrunken_workload(monkeypatch, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    record = run.run_workload("tiny", seed=3, seconds=0.0, trace=trace)
    assert record["problems"] == []
    assert record["correct"]
    # two train calls and two eval calls per round; a traced run has two rounds
    assert (record["attempted"], record["failed"]) == (8 if trace else 4, 0)
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(record["metrics"]) == names
    assert all(np.isfinite(m["value"]) for m in record["metrics"].values())
    if trace:
        metrics = {k: m["value"] for k, m in record["metrics"].items()}
        assert metrics["matching.hungarian.calls"] == 3 * 4   # epochs x train chunks
        assert metrics["tensor.tape_nodes_per_step"] > 0
