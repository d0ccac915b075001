import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import finite_diff_check
from momentset import matching
from momentset import tensor as tt
from momentset.datagen import ConceptVocabulary, generate_video
from momentset.errors import ContractError, NumericError, ShapeError
from momentset.model import ModelConfig, MomentSetModel, init_params
from momentset.optim import Adam
from momentset.tensor import Tensor


@pytest.fixture(autouse=True)
def fresh_tape():
    """Every test here runs inside an open tape, so the tests of what does
    not record (no_grad, a constant input) check it where ops do record."""
    with tt.recording():
        yield


class TestMatmul:
    def test_identity(self):
        out = tt.matmul(Tensor(np.eye(2)), Tensor([[3, 4], [5, 6]]))
        np.testing.assert_array_equal(out.data, [[3, 4], [5, 6]])

    def test_dot_product(self):
        out = tt.matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = tt.matmul(Tensor(a), Tensor(b)).data
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expect[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_equals_per_matrix_products(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((5, 6))
        b = rng.standard_normal((2, 3, 5, 2))
        shared = tt.matmul(Tensor(a), Tensor(w)).data
        batched = tt.matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(shared[i, j], a[i, j] @ w, atol=1e-12)
                np.testing.assert_allclose(batched[i, j], a[i, j] @ b[i, j], atol=1e-12)

    def test_leading_axes_that_do_not_broadcast(self):
        with pytest.raises(ShapeError, match="leading"):
            tt.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(2)
        const = Tensor(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        out = tt.matmul(const, w)
        g_const, g_w = tt._TAPE.get()[-1].backward_fn(np.ones(out.data.shape))
        assert g_const is None
        np.testing.assert_allclose(
            g_w, const.data.reshape(-1, 4).T @ np.ones((6, 5)), atol=1e-12)
        tt.backward(tt.tsum(out))
        assert const.grad is None
        np.testing.assert_allclose(w.grad, g_w, atol=1e-12)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert tt.sigmoid(Tensor(0.0)).item() == 0.5

    def test_add(self):
        np.testing.assert_array_equal(
            tt.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_sigmoid_against_scalar_formula(self):
        for x in [-30.0, -3.0, 0.7, 5.0, 30.0]:
            got = tt.sigmoid(Tensor(x)).item()
            assert 0.0 < got < 1.0
            assert got == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-12)

    def test_sigmoid_extreme_no_overflow(self):
        out = tt.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))

    def test_log_domain_error(self):
        with pytest.raises(NumericError):
            tt.log(Tensor([1.0, 0.0]))

    def test_neg_scale(self):
        np.testing.assert_array_equal(tt.neg(Tensor([1.0, -2.0])).data, [-1.0, 2.0])
        np.testing.assert_array_equal(tt.scale(Tensor([1.0, 2.0]), 3.0).data, [3.0, 6.0])


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            tt.l2_normalize(Tensor([[3.0, 4.0]])).data, [[0.6, 0.8]], atol=1e-12)

    def test_unit_vector_unchanged(self):
        v = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(tt.l2_normalize(Tensor(v)).data, v, atol=1e-15)

    def test_random_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        out = tt.l2_normalize(Tensor(rng.standard_normal((5, 7)))).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_degenerate_row(self):
        with pytest.raises(NumericError):
            tt.l2_normalize(Tensor(np.zeros((1, 4))))

    @pytest.mark.parametrize("row", [[np.inf, 1.0], [np.nan, 1.0], [1e200, 1e200]],
                             ids=["inf", "nan", "squares_overflow"])
    def test_non_finite_norm(self, row):
        x = np.array([[3.0, 4.0], row])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite norm"):
                tt.l2_normalize(Tensor(x))


class TestSoftmaxLayernorm:
    def test_softmax_uniform(self):
        np.testing.assert_allclose(
            tt.softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5))
        a = tt.softmax(Tensor(x)).data
        b = tt.softmax(Tensor(x + 13.7)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = tt.softmax(Tensor(rng.standard_normal((4, 6)))).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_layernorm_moments(self):
        rng = np.random.default_rng(4)
        out = tt.layernorm(Tensor(rng.standard_normal((3, 8)))).data
        assert np.max(np.abs(out.mean(axis=1))) < 1e-9
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-5)


class TestBackward:
    def test_quadratic(self):
        x = Tensor(3.0, requires_grad=True)
        tt.backward(x * x)
        assert x.grad == pytest.approx(6.0)

    def test_sigmoid_derivative_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        tt.backward(tt.sigmoid(x))
        assert x.grad == pytest.approx(0.25)

    def test_non_scalar_loss(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            tt.backward(x * x)

    def test_reused_tensor_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        tt.backward(y)
        assert x.grad == pytest.approx(5.0)

    def test_only_leaves_keep_gradients(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * x
        loss = tt.tsum(h * 3.0)
        tt.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0, 12.0])
        assert h.grad is None and loss.grad is None


class TestFiniteDifferences:
    """Analytic vs central-difference gradients for every op."""

    def _check(self, build, *shapes, seed=0):
        rng = np.random.default_rng(seed)
        params = [Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in shapes]
        finite_diff_check(lambda: build(*params), params, rng)

    def test_matmul(self):
        self._check(lambda a, b: tt.tmean(tt.matmul(a, b)), (3, 4), (4, 2))

    def test_add_mul_broadcast(self):
        self._check(lambda a, b: tt.tmean(a * b + b), (3, 4), (4,))

    def test_sigmoid(self):
        self._check(lambda a: tt.tmean(tt.sigmoid(a)), (2, 5))

    def test_log(self):
        rng = np.random.default_rng(5)
        p = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        finite_diff_check(lambda: tt.tmean(tt.log(p)), [p], rng)

    def test_exp_gelu(self):
        self._check(lambda a: tt.tmean(tt.exp(a) + tt.gelu(a)), (2, 4))

    def test_softmax(self):
        self._check(lambda a: tt.tmean(tt.softmax(a) * tt.softmax(a)), (3, 5))

    def test_layernorm(self):
        self._check(lambda a: tt.tmean(tt.sigmoid(tt.layernorm(a))), (3, 6))

    def test_l2_normalize(self):
        self._check(lambda a: tt.tmean(tt.sigmoid(tt.l2_normalize(a))), (4, 5))

    def test_structural_ops(self):
        def build(a, b):
            joined = tt.cat([a, tt.transpose(b)], axis=0)
            return tt.tmean(tt.narrow(joined, 1, 1, 2) * 1.5)
        self._check(build, (2, 4), (4, 3))

    def test_batched_matmul_shared_weight(self):
        self._check(lambda a, w: tt.tmean(tt.sigmoid(tt.matmul(a, w))),
                    (2, 3, 4), (4, 5))

    def test_batched_matmul_3d_by_3d(self):
        self._check(lambda a, b: tt.tmean(tt.sigmoid(tt.matmul(a, b))),
                    (2, 3, 4), (2, 4, 5))

    def test_batched_matmul_broadcast_leading_axis(self):
        self._check(lambda a, b: tt.tmean(tt.sigmoid(tt.matmul(a, b))),
                    (3, 4), (2, 4, 5))

    def test_transpose_axes(self):
        rng = np.random.default_rng(3)
        probe = Tensor(rng.standard_normal((4, 2, 3)))
        self._check(lambda a: tt.tmean(tt.transpose(a, (2, 0, 1)) * probe),
                    (2, 3, 4))

    def test_sum_axes(self):
        self._check(lambda a: tt.tmean(tt.sigmoid(tt.tsum(a, axis=0))), (3, 4))


def test_forward_activations_finite():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((5, 8)) * 10, requires_grad=True)
    y = tt.softmax(tt.layernorm(tt.gelu(x)))
    assert np.all(np.isfinite(y.data))


def test_gelu_matches_closed_form_bit_for_bit():
    from scipy.special import erf
    x = np.random.default_rng(8).standard_normal((6, 7)) * 3
    phi = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    dydx = phi + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    with tt.no_grad():
        assert tt.gelu(Tensor(x)).data.tobytes() == (x * phi).tobytes()
    a = Tensor(x, requires_grad=True)
    g = np.random.default_rng(9).standard_normal(x.shape)
    tt.backward(tt.tsum(tt.gelu(a) * Tensor(g)))
    np.testing.assert_allclose(a.grad, g * dydx, rtol=1e-15, atol=0)


def test_gelu_gradient_is_the_backward_time_expression_byte_for_byte():
    """The derivative formed in the forward is the expression backward
    formed when it kept x and phi, operation for operation: same bytes,
    also where exp underflows (|x| > 8) and at x = 0."""
    from scipy.special import erf
    rng = np.random.default_rng(10)
    x = rng.standard_normal((7, 9)) * 4
    x[0, :5] = [0.0, -0.0, 8.5, -9.0, 40.0]
    x[1, :3] = [-40.0, 1e-300, 12.0]
    assert np.any(np.abs(x) > 8) and np.any(x == 0)
    g = rng.standard_normal(x.shape)
    phi = erf(x * tt._INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    a = Tensor(x, requires_grad=True)
    tt.backward(tt.tsum(tt.gelu(a) * Tensor(g)))
    expected = g * (phi + x * np.exp(-0.5 * x * x) * tt._INV_SQRT2PI)
    assert a.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("grad_off", ["no_grad", "constant_input"])
def test_gelu_without_a_node_forms_no_derivative(monkeypatch, grad_off):
    """Without a node to keep it, gelu calls no exp: eval's forward costs
    what it did when the derivative was formed in backward."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.exp called")

    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    monkeypatch.setattr(np, "exp", refuse)
    if grad_off == "no_grad":
        with tt.no_grad():
            y = tt.gelu(Tensor(x, requires_grad=True))
    else:
        y = tt.gelu(Tensor(x))
    assert tt.tape_size() == 0 and not y.requires_grad


def _grads_of(build, inputs, upstream):
    """Output data and every input's gradient for ``sum(build() * upstream)``."""
    for t in inputs:
        t.grad = None
    with tt.recording():
        out = build()
        tt.backward(tt.tsum(out * Tensor(upstream)))
    grads = [None if t.grad is None else t.grad.copy() for t in inputs]
    return out.data.copy(), grads


def _assert_same_bits(a, b):
    out_a, grads_a = a
    out_b, grads_b = b
    assert out_a.tobytes() == out_b.tobytes()
    for ga, gb in zip(grads_a, grads_b):
        assert (ga is None) == (gb is None)
        if ga is not None:
            assert ga.shape == gb.shape and ga.tobytes() == gb.tobytes()


class TestFusedOps:
    """``linear`` and the affine ``layernorm`` are one node each, with the
    arithmetic of the ops they replace, bit for bit."""

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_linear_equals_matmul_add_bit_for_bit(self, x_grad):
        """On a 2-D x; a 3-D x gives the output and the x and w gradients of
        its rows folded to 2-D."""
        rng = np.random.default_rng(20)
        rows = Tensor(rng.standard_normal((6, 5)), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        g = rng.standard_normal((6, 4))
        ref = _grads_of(lambda: tt.matmul(rows, w) + b, [rows, w, b], g)
        _assert_same_bits(_grads_of(lambda: tt.linear(rows, w, b), [rows, w, b], g), ref)
        x = Tensor(rows.data.reshape(2, 3, 5), requires_grad=x_grad)
        out, (gx, gw, _) = _grads_of(lambda: tt.linear(x, w, b), [x, w, b],
                                     g.reshape(2, 3, 4))
        _assert_same_bits((out.reshape(6, 4), [None if gx is None else gx.reshape(6, 5), gw]),
                          (ref[0], ref[1][:2]))

    def test_linear_is_one_node(self):
        rng = np.random.default_rng(21)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        tt.linear(Tensor(rng.standard_normal((4, 3))), w, Tensor(np.zeros(2)))
        assert tt.tape_size() == 1

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError, match="linear"):
            tt.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                      Tensor(np.zeros(3)))

    def test_affine_layernorm_equals_composed_bit_for_bit(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 6)) * 2.0, requires_grad=True)
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)
        g = rng.standard_normal((2, 3, 6))
        _assert_same_bits(
            _grads_of(lambda: tt.layernorm(x, gain, bias), [x, gain, bias], g),
            _grads_of(lambda: tt.layernorm(x) * gain + bias, [x, gain, bias], g))
        tt.layernorm(x, gain, bias)
        assert tt.tape_size() == 1

    @pytest.mark.parametrize("shape", [(12, 42, 64), (2, 84, 512), (3, 7), (5, 1000),
                                       (4, 33, 130)])
    def test_layernorm_centres_once_bit_for_bit(self, shape):
        """The node centres its input once and sums the squares itself, which
        is np.var's arithmetic: the bytes of normalising with x.mean and
        x.var, forward and backward."""
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal(shape) * 3.0 + 1.5, requires_grad=True)
        gain = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        bias = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
        g = rng.standard_normal(shape)
        xd = x.data
        inv = 1.0 / np.sqrt(xd.var(axis=-1, keepdims=True) + 1e-6)
        y = (xd - xd.mean(axis=-1, keepdims=True)) * inv
        gy = g * gain.data
        x_grad = inv * (gy - gy.mean(axis=-1, keepdims=True)
                        - y * (gy * y).mean(axis=-1, keepdims=True))
        expect = (y * gain.data + bias.data,
                  [x_grad, tt._unbroadcast(g * y, gain.data.shape),
                   tt._unbroadcast(g, bias.data.shape)])
        _assert_same_bits(
            _grads_of(lambda: tt.layernorm(x, gain, bias), [x, gain, bias], g), expect)

    def test_finite_differences(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        finite_diff_check(lambda: tt.tmean(tt.sigmoid(tt.linear(x, w, b))),
                          [x, w, b], rng)
        gain = Tensor(rng.standard_normal(4), requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        finite_diff_check(
            lambda: tt.tmean(tt.sigmoid(tt.layernorm(x, gain, bias))),
            [x, gain, bias], rng)

    def test_take_rows(self):
        rng = np.random.default_rng(24)
        a = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        np.testing.assert_array_equal(tt.take(a, [2, 0, 1]).data, a.data[[2, 0, 1]])
        probe = Tensor(rng.standard_normal((4, 2, 4)))
        finite_diff_check(lambda: tt.tmean(tt.take(a, [1, 2, 1, 0]) * probe), [a], rng)


class TestGradientHandOver:
    """``backward`` keeps the first gradient array a tensor is handed and
    copies it only when it is read-only, not C-contiguous, or may share
    memory with an array the same node handed to another input."""

    def test_add_of_a_tensor_to_itself(self):
        rng = np.random.default_rng(30)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        g = rng.standard_normal((3, 4))
        tt.backward(tt.tsum(tt.add(x, x) * Tensor(g)))
        assert x.grad.tobytes() == (g + g).tobytes()

    def test_residual_keeps_the_branch_gradient_apart(self):
        # tape: h = gelu(x), u = 2x, y = x + h. The add node hands one
        # gradient to x and to h; scale's += on x.grad runs before gelu's
        # node reads h.grad, so a shared array would corrupt it.
        rng = np.random.default_rng(31)
        xv = rng.standard_normal((3, 4))
        x = Tensor(xv, requires_grad=True)
        g1, g2 = rng.standard_normal((2, 3, 4))
        h = tt.gelu(x)
        u = tt.scale(x, 2.0)
        y = x + h
        tt.backward(tt.tsum(y * Tensor(g1)) + tt.tsum(u * Tensor(g2)))
        from scipy.special import erf
        dgelu = (0.5 * (1.0 + erf(xv / math.sqrt(2.0)))
                 + xv * np.exp(-0.5 * xv * xv) / math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(x.grad, g1 + 2.0 * g2 + g1 * dgelu, rtol=1e-12)

    def test_transposed_first_gradient_ends_c_contiguous(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        g = rng.standard_normal((4, 3))
        tt.backward(tt.tsum(tt.transpose(x) * Tensor(g)))
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, g.T)

    @pytest.mark.parametrize("shape", [(2, 3), (1,)])
    def test_broadcast_gradient_is_copied_to_a_writeable_array(self, shape):
        # tsum hands back a read-only broadcast view; for one element it is
        # also C-contiguous, so only the read-only test copies it
        x = Tensor(np.zeros(shape), requires_grad=True)
        tt.backward(tt.tsum(x) + tt.tsum(x))
        assert x.grad.flags.writeable and x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, np.full(shape, 2.0))

    def test_first_gradient_is_not_copied(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = tt.scale(x, 2.0)
        node = tt._TAPE.get()[-1]
        scale_bwd, handed = node.backward_fn, []

        def spy(g):
            handed.extend(scale_bwd(g))
            return tuple(handed)

        node.backward_fn = spy
        tt.backward(tt.tsum(y * Tensor(rng.standard_normal((3, 4)))))
        assert x.grad is handed[0]


def _default_step_peaks(steps: int) -> list[int]:
    """The tracemalloc peak of each of ``steps`` default-width train steps
    (batch 8, 300-frame chunks, two narrations each) on one model."""
    vocab = ConceptVocabulary.generate(12, 64, np.random.default_rng(0))
    chunks = [generate_video(vocab, 2, 50.0, 6, 0.1, rng_seed=s, video_id=f"v{s}")
              for s in range(8)]
    assert chunks[0].features.shape[0] == 300
    config = ModelConfig()
    model = MomentSetModel(config, init_params(config, np.random.default_rng(1)))
    optimizer = Adam(model.params)
    rng = np.random.default_rng(2)
    samples = [matching.sample_chunk_intervals(c, rng) for c in chunks]
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(steps):
            tracemalloc.reset_peak()
            matching.train_step(model, vocab, chunks, samples, optimizer)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks


class TestLifetimes:
    """The tape keeps what backward formulas read and no op output, and
    backward frees each node as it passes it."""

    def test_unread_intermediate_is_freed_during_the_forward(self):
        # softmax(scale(a @ b)): neither scale's nor softmax's formula reads
        # the product, so it dies with the caller's last reference
        rng = np.random.default_rng(40)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        g = rng.standard_normal((3, 5))
        scores = tt.matmul(a, b)
        alive = weakref.ref(scores.data)
        y = tt.softmax(tt.scale(scores, 0.5))
        del scores
        assert alive() is None
        assert tt.tape_size() == 3
        tt.backward(tt.tsum(y * Tensor(g)))
        yd = y.data
        ds = 0.5 * yd * (g - (g * yd).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(a.grad, ds @ b.data.T, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(b.grad, a.data.T @ ds, rtol=1e-12, atol=1e-15)

    def test_gelu_input_is_freed_during_the_forward(self):
        # gelu's node keeps its derivative, not its input: the linear
        # output (fc1's, in a block) dies with the caller's last reference
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        h = tt.linear(x, w, b)
        alive = weakref.ref(h.data)
        y = tt.gelu(h)
        del h
        assert alive() is None
        assert tt.tape_size() == 2
        tt.backward(tt.tsum(y))
        assert x.grad is not None and w.grad is not None

    def test_backward_consumes_the_tape(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        loss = tt.tsum(tt.sigmoid(x * x))
        assert tt.tape_size() == 3
        tt.backward(loss)
        assert tt.tape_size() == 0
        assert x.grad is not None

    def test_default_train_step_peak(self):
        """A default-width step (batch 8, 300-frame chunks, two narrations
        each) holds only what backward reads: it peaked at 26.1 MB of
        tracemalloc memory when the tape kept every op output until the
        step ended, and at 16.3 MB once only read arrays were kept (see
        the next test for gelu's share)."""
        [peak] = _default_step_peaks(1)
        assert peak < 20e6, f"train step peaked at {peak / 1e6:.1f} MB"

    def test_default_train_step_peak_without_gelu_inputs(self):
        """The same step with gelu's nodes keeping only their derivative:
        13.8 MB, where keeping each gelu's input and phi peaked at 16.3 MB."""
        [peak] = _default_step_peaks(1)
        assert peak < 15e6, f"train step peaked at {peak / 1e6:.2f} MB"

    def test_second_train_step_holds_one_gradient_set(self):
        """At default width (batch 8, 300-frame chunks) the second step
        peaks within 0.5 MB of the first: the first step's gradients
        (2.8 MB) are dropped before the second forward, not held beside it.
        Holding them put the second peak 2.3 MB higher."""
        peaks = _default_step_peaks(2)
        assert abs(peaks[1] - peaks[0]) < 0.5e6, [f"{p / 1e6:.2f} MB" for p in peaks]


class TestRecording:
    """Ops record only inside ``recording()``, on the tape of the context
    that opened it."""

    def test_backward_without_a_tape_is_refused(self):
        """Under no_grad nothing records, so a backward there has nothing to
        sweep: it raises, and the optimizer does not step."""
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam({"p": p})
        with tt.no_grad():
            loss = tt.tsum(p * p)
            with pytest.raises(ContractError, match=r"recording\(\)"):
                tt.backward(loss)
                opt.step()
        assert opt.step_count == 0 and p.grad is None
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_a_forward_on_another_thread_records_nothing(self):
        """A default forward on a second thread, while this thread's tape is
        open, puts no node on it; the backward's gradients are those of a
        single-thread run, byte for byte."""
        vocab = ConceptVocabulary.generate(12, 64, np.random.default_rng(0))
        features = [generate_video(vocab, 2, 50.0, 6, 0.1, rng_seed=s,
                                   video_id=f"v{s}").features for s in range(2)]
        config = ModelConfig()
        model = MomentSetModel(config, init_params(config, np.random.default_rng(1)))

        def gradients(other_thread: bool):
            for p in model.params.values():
                p.grad = None
            with tt.recording():
                pred = model.forward_chunks(features)
                nodes = tt.tape_size()
                if other_thread:
                    other = []
                    thread = threading.Thread(
                        target=lambda: other.append(model.forward_chunks(features)))
                    thread.start()
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                    assert tt.tape_size() == nodes
                    [pred_b] = other
                    assert not any(f.requires_grad
                                   for f in (pred_b.visual, pred_b.te_start, pred_b.te_end))
                rng = np.random.default_rng(2)
                v, ts, te = (tt.tsum(f * Tensor(rng.standard_normal(f.data.shape)))
                             for f in (pred.visual, pred.te_start, pred.te_end))
                tt.backward(v + ts + te)
            # the loss's own parameters are not on the forward's path
            return {k: p.grad.tobytes() for k, p in model.params.items()
                    if not k.startswith("loss.")}

        assert gradients(other_thread=True) == gradients(other_thread=False)
