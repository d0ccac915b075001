import numpy as np
import pytest

from momentset import cli, evaluate
from momentset.model import MomentPrediction
from momentset.temporal import TemporalTable
from momentset.tensor import Tensor


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def pred_from(visual, te_start=None, te_end=None):
    n, d = visual.shape
    if te_start is None:
        te_start = np.eye(n, d)
    if te_end is None:
        te_end = np.eye(n, d)
    return MomentPrediction(Tensor(visual), Tensor(te_start), Tensor(te_end))


def stack(preds):
    """One stacked B x N prediction whose row k is preds[k]."""
    return MomentPrediction(*(Tensor(np.stack([getattr(p, f).data for p in preds]))
                              for f in ("visual", "te_start", "te_end")))


class TestRecognitionScores:
    def test_perfect_alignment(self):
        rng = np.random.default_rng(0)
        classes = unit_rows(rng, 3, 8)
        scores = evaluate.recognition_scores(np.tile(classes[1], (4, 1)), classes)
        assert scores[1] == pytest.approx(1.0)
        assert abs(scores[0]) < 1.0

    def test_orthogonal_class_scores_zero(self):
        e = np.eye(4)
        scores = evaluate.recognition_scores(e[:2], e[3:4])
        assert scores[0] == pytest.approx(0.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        visual = unit_rows(rng, 5, 6)
        classes = unit_rows(rng, 3, 6)
        scores = evaluate.recognition_scores(visual, classes)
        for c in range(3):
            expect = np.mean([visual[i] @ classes[c] for i in range(5)])
            assert scores[c] == pytest.approx(expect, abs=1e-12)

    def test_stacked_matches_per_chunk_calls(self):
        rng = np.random.default_rng(3)
        visual = unit_rows(rng, 4 * 5, 6).reshape(4, 5, 6)
        classes = unit_rows(rng, 3, 6)
        got = evaluate.recognition_scores(visual, classes)
        assert got.shape == (4, 3)
        for b in range(4):
            assert got[b].tobytes() == evaluate.recognition_scores(
                visual[b], classes).tobytes()

    def test_linear_in_class_vectors(self):
        rng = np.random.default_rng(2)
        visual = unit_rows(rng, 4, 6)
        u, v = rng.standard_normal((2, 6))
        su = evaluate.recognition_scores(visual, u[None])[0]
        sv = evaluate.recognition_scores(visual, v[None])[0]
        suv = evaluate.recognition_scores(visual, (u + v)[None])[0]
        assert suv == pytest.approx(su + sv, abs=1e-10)


def brute_force_ap(scores, positives):
    order = np.argsort(-scores, kind="stable")
    precs, hits = [], 0
    for rank, i in enumerate(order, 1):
        if positives[i]:
            hits += 1
            precs.append(hits / rank)
    return sum(precs) / len(precs)


class TestVideoMap:
    def test_positive_first(self):
        scores = np.array([[0.9], [0.1], [0.2]])
        labels = np.array([[1], [0], [0]])
        assert evaluate.video_map(scores, labels) == 1.0

    def test_positive_second_of_two(self):
        scores = np.array([[0.9], [0.1]])
        labels = np.array([[0], [1]])
        assert evaluate.video_map(scores, labels) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v, k = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            scores = rng.standard_normal((v, k))
            labels = rng.integers(0, 2, (v, k)).astype(bool)
            labels[rng.integers(0, v), :] = True  # every class has a positive
            expect = np.mean([brute_force_ap(scores[:, c], labels[:, c])
                              for c in range(k)])
            assert evaluate.video_map(scores, labels) == pytest.approx(
                expect, abs=1e-12)

    def test_empty_class_excluded_with_warning(self, caplog):
        scores = np.array([[0.9, 0.3], [0.1, 0.2]])
        labels = np.array([[1, 0], [0, 0]])
        with caplog.at_level("WARNING"):
            got = evaluate.video_map(scores, labels)
        assert got == 1.0
        assert any("no positive" in r.getMessage() for r in caplog.records)

    def test_rank_only_dependence(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((6, 3))
        labels = rng.integers(0, 2, (6, 3)).astype(bool)
        labels[0] = True
        a = evaluate.video_map(scores, labels)
        b = evaluate.video_map(np.tanh(scores) * 7 + 2, labels)
        assert a == pytest.approx(b, abs=1e-12)


class TestNlqInfer:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(5)
        visual = unit_rows(rng, 4, 6)
        order, _ = evaluate.rank_queries(visual, visual[2])
        assert order[0] == 2

    def test_ranking_matches_sort(self):
        rng = np.random.default_rng(6)
        visual = unit_rows(rng, 8, 6)
        q = unit_rows(rng, 1, 6)[0]
        order, sims = evaluate.rank_queries(visual, q)
        np.testing.assert_array_equal(order, np.argsort(-sims, kind="stable"))

    def test_decoded_intervals_and_swap(self):
        table = TemporalTable.init_sinusoidal(5, 6)
        rows = table.table.data
        # query 0 decodes to (start row 3, end row 1): must come back swapped
        te_start = np.vstack([rows[3], rows[0]])
        te_end = np.vstack([rows[1], rows[4]])
        visual = np.eye(2, 6)
        pred = pred_from(visual, te_start / np.linalg.norm(te_start, axis=1, keepdims=True),
                         te_end / np.linalg.norm(te_end, axis=1, keepdims=True))
        video = stack([pred])
        spans = cli.decode_video_spans(table, video.te_start.data, video.te_end.data,
                                       [40.0], 40.0)
        cands = cli.nlq_video_candidates(visual, spans, visual[0])
        assert [(s, e) for _, s, e in cands] == [(10.0, 30.0), (0.0, 40.0)]

    def test_candidates_match_per_chunk_loop(self):
        """The batched path keeps the order and spans of decoding every slot
        per query, chunk by chunk, then one stable sort on similarity."""
        rng = np.random.default_rng(9)
        table = TemporalTable.init_sinusoidal(10, 6)
        chunk_seconds, durations = 20.0, [20.0, 20.0, 20.0, 7.5]
        basis = unit_rows(rng, 3, 6)  # few distinct visual rows: tied scores
        preds = [pred_from(basis[rng.integers(0, 3, 5)],
                           rng.standard_normal((5, 6)), rng.standard_normal((5, 6)))
                 for _ in durations]
        visual = np.vstack([p.visual.data for p in preds])
        video = stack(preds)
        spans = cli.decode_video_spans(table, video.te_start.data, video.te_end.data,
                                       durations, chunk_seconds)
        for q in [basis[0], basis[2], unit_rows(rng, 1, 6)[0]]:
            expect = []
            for k, (pred, duration) in enumerate(zip(preds, durations)):
                order, sims = evaluate.rank_queries(pred.visual.data, q)
                for i in order:
                    s = table.decode_timestamp(pred.te_start.data[i], duration)
                    e = table.decode_timestamp(pred.te_end.data[i], duration)
                    if s > e:
                        s, e = e, s
                    expect.append((float(sims[i]), k * chunk_seconds + s,
                                   k * chunk_seconds + e))
            expect.sort(key=lambda c: -c[0])
            got = cli.nlq_video_candidates(visual, spans, q)
            assert len({c[0] for c in got}) < len(got)  # the ties are there
            assert got == expect
            for k in (1, 5, 6, len(got), len(got) + 3):
                assert cli.nlq_video_candidates(visual, spans, q, k) == expect[:k]


class TestIouRecall:
    def test_iou_cases(self):
        assert evaluate.temporal_iou((1, 3), (1, 3)) == 1.0
        assert evaluate.temporal_iou((0, 1), (2, 3)) == 0.0
        assert evaluate.temporal_iou((0, 4), (2, 6)) == pytest.approx(1 / 3)
        assert evaluate.temporal_iou((2.0, 2.0), (2.0, 2.0)) == 0.0

    def test_recall_exact_and_disjoint(self):
        gts = [(0.0, 1.0), (5.0, 6.0)]
        exact = [[(0.0, 1.0)], [(5.0, 6.0)]]
        off = [[(2.0, 3.0)], [(8.0, 9.0)]]
        assert evaluate.nlq_recall(gts, exact, 1, 0.99) == 1.0
        assert evaluate.nlq_recall(gts, off, 1, 0.01) == 0.0

    def test_hand_tally(self):
        gts = [(0.0, 10.0)] * 10
        preds = []
        for i in range(10):
            first = (0.0, 10.0) if i < 3 else (20.0, 30.0)
            second = (1.0, 9.0) if i < 7 else (50.0, 60.0)
            preds.append([first, second])
        # top-1 hits: 3; top-2 hits: queries 0-6
        assert evaluate.nlq_recall(gts, preds, 1, 0.5) == pytest.approx(0.3)
        assert evaluate.nlq_recall(gts, preds, 2, 0.5) == pytest.approx(0.7)

    def test_recall_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            nq = int(rng.integers(1, 8))
            gts = [tuple(sorted(rng.uniform(0, 10, 2))) for _ in range(nq)]
            preds = [[tuple(sorted(rng.uniform(0, 10, 2)))
                      for _ in range(int(rng.integers(1, 6)))]
                     for _ in range(nq)]
            k = int(rng.integers(1, 6))
            thr = float(rng.uniform(0.05, 0.9))
            hits = 0
            for gt, ps in zip(gts, preds):
                ok = False
                for p in ps[:k]:
                    inter = max(0.0, min(p[1], gt[1]) - max(p[0], gt[0]))
                    union = max(p[1], gt[1]) - min(p[0], gt[0])
                    if union > 0 and inter / union >= thr:
                        ok = True
                if ok:
                    hits += 1
            assert evaluate.nlq_recall(gts, preds, k, thr) == pytest.approx(
                hits / nq, abs=1e-12)

    def test_monotonicity_in_k_and_threshold(self):
        rng = np.random.default_rng(8)
        gts = [tuple(sorted(rng.uniform(0, 10, 2))) for _ in range(12)]
        preds = [[tuple(sorted(rng.uniform(0, 10, 2))) for _ in range(5)]
                 for _ in range(12)]
        for thr in (0.1, 0.3, 0.5):
            vals = [evaluate.nlq_recall(gts, preds, k, thr) for k in (1, 2, 5)]
            assert vals == sorted(vals)
        for k in (1, 5):
            vals = [evaluate.nlq_recall(gts, preds, k, t)
                    for t in (0.1, 0.3, 0.5, 0.7)]
            assert vals == sorted(vals, reverse=True)
