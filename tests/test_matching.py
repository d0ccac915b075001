import itertools
import math

import numpy as np
import pytest
from scipy.special import expit

from helpers import finite_diff_check
from momentset import matching
from momentset import tensor as tt
from momentset.datagen import ConceptVocabulary, MomentSample, generate_video
from momentset.errors import CapacityError, ContractError, NumericError
from momentset.matching import GroundTruthSet
from momentset.model import ModelConfig, MomentPrediction, MomentSetModel, init_params
from momentset.tensor import Tensor


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_pred(rng, n=4, c=6, d=8):
    return MomentPrediction(Tensor(unit_rows(rng, n, c)),
                            Tensor(unit_rows(rng, n, d)),
                            Tensor(unit_rows(rng, n, d)))


def random_gt(rng, m=3, c=6, d=8):
    return GroundTruthSet(Tensor(unit_rows(rng, m, c)),
                          Tensor(unit_rows(rng, m, d)),
                          Tensor(unit_rows(rng, m, d)))


@pytest.fixture(autouse=True)
def fresh_tape():
    tt.clear_tape()
    yield
    tt.clear_tape()


class TestSimilarities:
    def test_identical_and_orthogonal(self):
        e = np.eye(3)[:2]
        pred = MomentPrediction(Tensor(e), Tensor(e), Tensor(e))
        gt = GroundTruthSet(Tensor(e[:1]), Tensor(e[:1]), Tensor(e[1:2]))
        s1, s2, s3 = matching.similarity_matrices(pred, gt)
        assert s1.data[0, 0] == 1.0
        assert s1.data[1, 0] == 0.0
        assert s3.data[0, 0] == 0.0

    def test_matches_dot_product_loop(self):
        rng = np.random.default_rng(0)
        pred, gt = random_pred(rng, n=3), random_gt(rng, m=2)
        sims = matching.similarity_matrices(pred, gt)
        mats = [(pred.visual, gt.lang), (pred.te_start, gt.te_start),
                (pred.te_end, gt.te_end)]
        for s, (a, b) in zip(sims, mats):
            for i in range(3):
                for j in range(2):
                    assert s.data[i, j] == pytest.approx(
                        float(a.data[i] @ b.data[j]), abs=1e-12)

    def test_non_unit_rows_rejected(self):
        rng = np.random.default_rng(1)
        pred = random_pred(rng)
        pred.visual.data[0] *= 1.5
        with pytest.raises(ContractError, match="pred.visual"):
            matching.similarity_matrices(pred, random_gt(rng))

    def test_nan_row_rejected(self):
        rng = np.random.default_rng(1)
        gt = random_gt(rng)
        gt.te_start.data[1] = np.nan
        with pytest.raises(ContractError, match="gt.te_start"):
            matching.similarity_matrices(random_pred(rng), gt)


class TestCost:
    def test_all_zero_sims(self):
        sims = [np.zeros((2, 2))] * 3
        np.testing.assert_allclose(matching.build_cost(sims), -0.125, atol=1e-15)

    def test_large_sims_approach_minus_one(self):
        sims = [np.full((1, 1), 50.0)] * 3
        assert matching.build_cost(sims)[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_all_one_sims(self):
        sims = [np.ones((1, 1))] * 3
        got = matching.build_cost(sims)[0, 0]
        assert got == pytest.approx(-expit(1.0) ** 3, abs=1e-12)
        assert got == pytest.approx(-0.3907, abs=5e-4)


def brute_force_assignment(cost):
    """cost is N x M (queries x gt); returns best gt->query map and its cost."""
    n, m = cost.shape
    best, best_assign = math.inf, None
    for perm in itertools.permutations(range(n), m):
        total = sum(cost[perm[j], j] for j in range(m))
        if total < best - 1e-15:
            best, best_assign = total, perm
    return np.array(best_assign), best


class TestHungarian:
    def test_two_by_two_example(self):
        cost = np.array([[-0.9, -0.1], [-0.2, -0.8]])
        assign = matching.hungarian(cost)
        np.testing.assert_array_equal(assign, [0, 1])
        assert cost[assign, [0, 1]].sum() == pytest.approx(-1.7)

    def test_diagonal_dominant_identity(self):
        cost = np.full((4, 4), 0.0)
        np.fill_diagonal(cost, -1.0)
        np.testing.assert_array_equal(matching.hungarian(cost), [0, 1, 2, 3])

    def test_all_equal_ties_lexicographic(self):
        assign = matching.hungarian(np.zeros((4, 3)))
        np.testing.assert_array_equal(assign, [0, 1, 2])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            matching.hungarian(np.zeros((2, 3)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            cost = rng.standard_normal((n, m))
            assign = matching.hungarian(cost)
            assert len(set(assign.tolist())) == m
            _, best = brute_force_assignment(cost)
            got = cost[assign, np.arange(m)].sum()
            assert got == pytest.approx(best, abs=1e-10)


def test_hungarian_rejects_non_finite_cost():
    for bad in (np.nan, np.inf):
        cost = np.zeros((3, 2))
        cost[1, 0] = bad
        with pytest.raises(NumericError):
            matching.hungarian(cost)


class TestLoss:
    def scales(self, t=1.0, b=0.0):
        """(log_t, b) leaves."""
        return (Tensor(np.array(math.log(t)), requires_grad=True),
                Tensor(np.array(b), requires_grad=True))

    def test_zero_similarity_gives_three_ln_two(self):
        sims = [Tensor(np.zeros((1, 1, 1)))] * 3
        loss = matching.sigmoid_contrastive_loss(
            sims, [np.array([0])], *self.scales())
        assert loss.item() == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_two_query_one_gt_hand_sum(self):
        rng = np.random.default_rng(3)
        vals = [rng.standard_normal((2, 1)) for _ in range(3)]
        sims = [Tensor(v[None]) for v in vals]
        t, b = 2.0, -1.0
        loss = matching.sigmoid_contrastive_loss(
            sims, [np.array([1])], *self.scales(t, b))
        expect = 0.0
        for v in vals:
            per = [-math.log(expit(-(t * v[0, 0] + b))),
                   -math.log(expit(t * v[1, 0] + b))]
            expect += sum(per) / 2
        assert loss.item() == pytest.approx(expect, abs=1e-10)

    def test_monotonicity(self):
        def loss_at(s, matched):
            assign = np.array([0]) if matched else np.array([1])
            sims = [Tensor(np.array([[[s], [0.0]]]))] * 3
            return matching.sigmoid_contrastive_loss(
                sims, [assign], *self.scales()).item()

        grid = np.linspace(-0.9, 0.9, 7)
        matched = [loss_at(s, True) for s in grid]
        unmatched = [loss_at(s, False) for s in grid]
        assert all(a > b for a, b in zip(matched, matched[1:]))
        assert all(a < b for a, b in zip(unmatched, unmatched[1:]))

    def test_gradients_reach_scales_and_sims(self):
        rng = np.random.default_rng(4)
        sims = [Tensor(rng.standard_normal((1, 3, 2)), requires_grad=True)
                for _ in range(3)]
        scales = self.scales(5.0, -2.0)
        finite_diff_check(
            lambda: matching.sigmoid_contrastive_loss(
                sims, [np.array([0, 2])], *scales),
            sims + list(scales), rng)


@pytest.fixture(scope="module")
def setup():
    vocab = ConceptVocabulary.generate(5, 6, np.random.default_rng(0))
    chunk = generate_video(vocab, 3, 30.0, 2, 0.1, rng_seed=1)
    config = ModelConfig(feature_dim=6, model_dim=8, conv_kernel=2,
                         enc_layers=1, dec_layers=1, heads=2, head_dim=4,
                         queries=4, temporal_rows=8, ffn_hidden=16)
    model = MomentSetModel(config, init_params(config, np.random.default_rng(2)))
    samples = matching.sample_chunk_intervals(
        chunk, np.random.default_rng(3))
    return model, vocab, chunk, samples


class TestChunkLoss:
    def test_loss_finite_positive(self, setup):
        model, vocab, chunk, samples = setup
        loss, _, (assignment,) = matching.batch_loss(model, vocab, [chunk], [samples])
        assert np.isfinite(loss.item()) and loss.item() > 0
        assert len(set(assignment.tolist())) == len(chunk.narrations)
        tt.clear_tape()

    def test_temperature_gradient_finite_difference(self, setup):
        model, vocab, chunk, samples = setup
        _, _, assignments = matching.batch_loss(model, vocab, [chunk], [samples])
        tt.clear_tape()
        rng = np.random.default_rng(5)
        finite_diff_check(
            lambda: matching.batch_loss(
                model, vocab, [chunk], [samples], assignments)[0],
            [model.params["loss.log_t"], model.params["loss.b"]], rng)


class TestTrainStep:
    def test_overfit_two_hundred_steps_reduces_loss(self):
        from momentset.optim import Adam
        vocab = ConceptVocabulary.generate(5, 6, np.random.default_rng(0))
        chunk = generate_video(vocab, 3, 30.0, 2, 0.1, rng_seed=1)
        config = ModelConfig(feature_dim=6, model_dim=8, conv_kernel=2,
                             enc_layers=1, dec_layers=1, heads=2, head_dim=4,
                             queries=4, temporal_rows=8, ffn_hidden=16,
                             loss_bias_init=0.0)
        model = MomentSetModel(config, init_params(config, np.random.default_rng(2)))
        opt = Adam(model.params, lr=1e-3)
        samples = [matching.sample_chunk_intervals(chunk, np.random.default_rng(3))]
        first = matching.train_step(model, vocab, [chunk], samples, opt).loss
        for _ in range(199):
            stats = matching.train_step(model, vocab, [chunk], samples, opt)
        assert stats.loss < first

    def test_batch_equals_mean_of_chunk_losses(self):
        vocab = ConceptVocabulary.generate(5, 6, np.random.default_rng(0))
        chunks = [generate_video(vocab, 3, duration, 2, 0.1, rng_seed=s,
                                 video_id=f"v{s}")
                  for s, duration in enumerate((30.0, 20.0, 30.0, 24.0))]
        config = ModelConfig(feature_dim=6, model_dim=8, conv_kernel=2,
                             enc_layers=1, dec_layers=1, heads=2, head_dim=4,
                             queries=4, temporal_rows=8, ffn_hidden=16)
        model = MomentSetModel(config, init_params(config, np.random.default_rng(2)))

        # per-chunk reference: samples drawn in chunk order from the same rng
        rng = np.random.default_rng(7)
        total = None
        for chunk in chunks:
            samples = matching.sample_chunk_intervals(chunk, rng)
            loss = matching.batch_loss(model, vocab, [chunk], [samples])[0]
            total = loss if total is None else total + loss
        mean = tt.scale(total, 1.0 / len(chunks))
        tt.backward(mean)
        expect = {k: p.grad.copy() for k, p in model.params.items()}
        tt.clear_tape()

        class RecordGrads:
            def zero_grad(self):
                for p in model.params.values():
                    p.grad = None

            def step(self):
                self.grads = {k: p.grad.copy() for k, p in model.params.items()}

        opt = RecordGrads()
        rng = np.random.default_rng(7)
        samples = [matching.sample_chunk_intervals(c, rng) for c in chunks]
        stats = matching.train_step(model, vocab, chunks, samples, opt)
        assert stats.loss == pytest.approx(mean.item(), rel=1e-12)
        for k, g in expect.items():
            np.testing.assert_allclose(opt.grads[k], g, rtol=1e-9, atol=1e-12)

    def test_failed_step_clears_tape(self):
        from momentset.optim import Adam

        class NanGradAdam(Adam):
            def step(self):
                self.params["loss.b"].grad = np.array(np.nan)
                super().step()

        vocab = ConceptVocabulary.generate(5, 6, np.random.default_rng(0))
        chunk = generate_video(vocab, 3, 30.0, 2, 0.1, rng_seed=1)
        config = ModelConfig(feature_dim=6, model_dim=8, conv_kernel=2,
                             enc_layers=1, dec_layers=1, heads=2, head_dim=4,
                             queries=4, temporal_rows=8, ffn_hidden=16)
        model = MomentSetModel(config, init_params(config, np.random.default_rng(2)))
        samples = [matching.sample_chunk_intervals(chunk, np.random.default_rng(3))]
        with pytest.raises(NumericError):
            matching.train_step(model, vocab, [chunk], samples, NanGradAdam(model.params))
        assert tt.tape_size() == 0
        model.params["queries"].data[:] = np.nan  # NaN cost matrix
        with pytest.raises(NumericError, match="non-finite"):
            matching.train_step(model, vocab, [chunk], samples, Adam(model.params))
        assert tt.tape_size() == 0

    def test_previous_gradients_are_dropped_before_the_forward(self, monkeypatch):
        """While the second of two steps runs its forward, no parameter
        holds the first step's gradient; after it, each holds its own."""
        from momentset.optim import Adam
        vocab = ConceptVocabulary.generate(5, 6, np.random.default_rng(0))
        chunk = generate_video(vocab, 3, 30.0, 2, 0.1, rng_seed=1)
        config = ModelConfig(feature_dim=6, model_dim=8, conv_kernel=2,
                             enc_layers=1, dec_layers=1, heads=2, head_dim=4,
                             queries=4, temporal_rows=8, ffn_hidden=16)
        model = MomentSetModel(config, init_params(config, np.random.default_rng(2)))
        held = []
        forward = model.forward_chunks

        def probe(*args, **kwargs):
            held.append([k for k, p in model.params.items() if p.grad is not None])
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward_chunks", probe)
        opt = Adam(model.params)
        samples = [matching.sample_chunk_intervals(chunk, np.random.default_rng(3))]
        for _ in range(2):
            matching.train_step(model, vocab, [chunk], samples, opt)
        assert held == [[], []]
        assert all(p.grad is not None for p in model.params.values())


class RecordGrads:
    """Optimizer stand-in: keeps the gradients and the tape size at step
    (after backward, which consumes the tape)."""

    def __init__(self, params):
        self.params = params

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.nodes_at_step = tt.tape_size()
        self.grads = {k: p.grad for k, p in self.params.items()}


def record_tape_at_backward(monkeypatch) -> list[int]:
    """Wrap tt.backward so that each call first records the tape's size,
    the nodes the forward left for it."""
    sizes = []
    backward = tt.backward

    def probe(loss):
        sizes.append(tt.tape_size())
        backward(loss)

    monkeypatch.setattr(tt, "backward", probe)
    return sizes


def test_batch_of_mixed_lengths_and_narration_counts_equals_mean_of_chunk_losses():
    """Chunks of three lengths with 1, 2 and 3 narrations, padded to one
    B x 3 block."""
    vocab = ConceptVocabulary.generate(5, 6, np.random.default_rng(0))
    shapes = ((30.0, 1), (20.0, 3), (24.0, 2), (30.0, 3), (20.0, 1))
    chunks = [generate_video(vocab, n, duration, 2, 0.1, rng_seed=s, video_id=f"v{s}")
              for s, (duration, n) in enumerate(shapes)]
    config = ModelConfig(feature_dim=6, model_dim=8, conv_kernel=2,
                         enc_layers=1, dec_layers=1, heads=2, head_dim=4,
                         queries=4, temporal_rows=8, ffn_hidden=16)
    model = MomentSetModel(config, init_params(config, np.random.default_rng(2)))

    rng = np.random.default_rng(7)
    total = None
    for chunk in chunks:
        samples = matching.sample_chunk_intervals(chunk, rng)
        loss = matching.batch_loss(model, vocab, [chunk], [samples])[0]
        total = loss if total is None else total + loss
    mean = tt.scale(total, 1.0 / len(chunks))
    tt.backward(mean)
    expect = {k: p.grad.copy() for k, p in model.params.items()}
    tt.clear_tape()

    opt = RecordGrads(model.params)
    rng = np.random.default_rng(7)
    samples = [matching.sample_chunk_intervals(c, rng) for c in chunks]
    stats = matching.train_step(model, vocab, chunks, samples, opt)
    assert stats.loss == pytest.approx(mean.item(), rel=1e-12)
    for k, g in expect.items():
        np.testing.assert_allclose(opt.grads[k], g, rtol=1e-9, atol=1e-12)


def test_sim_means_are_means_of_chunk_means():
    rng = np.random.default_rng(11)
    sims = [Tensor(rng.standard_normal((2, 3, 3))) for _ in range(3)]
    assignments = [np.array([2, 0, 1]), np.array([1])]
    matched, unmatched = matching._sim_means(sims, assignments)
    per_chunk = []
    for b, a in enumerate(assignments):
        cols = np.arange(len(a))
        hit, miss = [], []
        for s in sims:
            mask = np.zeros((3, len(a)), dtype=bool)
            mask[a, cols] = True
            hit.append(s.data[b, :, :len(a)][mask])
            miss.append(s.data[b, :, :len(a)][~mask])
        per_chunk.append((np.concatenate(hit).mean(), np.concatenate(miss).mean()))
    assert matched == pytest.approx(np.mean([m for m, _ in per_chunk]), rel=1e-14)
    assert unmatched == pytest.approx(np.mean([u for _, u in per_chunk]), rel=1e-14)
    # a chunk whose every pair is matched counts 0.0 for unmatched
    one = [Tensor(np.full((1, 1, 1), 0.5)) for _ in range(3)]
    assert matching._sim_means(one, [np.array([0])]) == (0.5, 0.0)


def test_tape_does_not_grow_with_the_batch(monkeypatch):
    """Default widths, 300-frame chunks with two narrations: one fixed-size
    tape per step, read as backward starts, which leaves it empty; and no
    two parameters' gradients share memory."""
    vocab = ConceptVocabulary.generate(12, 64, np.random.default_rng(0))
    sizes = record_tape_at_backward(monkeypatch)
    nodes = {}
    for batch in (8, 16):
        chunks = [generate_video(vocab, 2, 50.0, 6, 0.1, rng_seed=s, video_id=f"v{s}")
                  for s in range(batch)]
        config = ModelConfig()
        model = MomentSetModel(config, init_params(config, np.random.default_rng(1)))
        opt = RecordGrads(model.params)
        rng = np.random.default_rng(2)
        samples = [matching.sample_chunk_intervals(c, rng) for c in chunks]
        matching.train_step(model, vocab, chunks, samples, opt)
        nodes[batch] = sizes[-1]
        assert opt.nodes_at_step == 0
        grads = [g for g in opt.grads.values()]
        assert all(g is not None and g.flags.c_contiguous for g in grads)
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1:])
    assert 0 < nodes[8] <= 300
    assert nodes[16] == nodes[8]


def test_chunk_ground_truth_is_the_batch_of_one_row(setup):
    """The per-chunk path the benchmark's matching check uses: M x ... sets,
    equal to the batch's rows, and empty for a chunk with no samples."""
    model, vocab, chunk, samples = setup
    with tt.no_grad():
        gt = matching.chunk_ground_truth(model, vocab, chunk, samples)
        batch = matching.batch_ground_truth(model, vocab, [chunk], [samples])
        for one, row in ((gt.lang, batch.lang), (gt.te_start, batch.te_start),
                         (gt.te_end, batch.te_end)):
            assert one.data.shape == row.data.shape[1:]
            assert one.data.tobytes() == row.data[0].tobytes()
        empty = matching.chunk_ground_truth(model, vocab, chunk, [])
        pred = model.forward(chunk.features)
        sims = matching.similarity_matrices(pred, empty)
    assert sims[0].data.shape == (4, 0)
    assert matching.hungarian(matching.build_cost(sims)).size == 0
