import numpy as np
import pytest

from momentset import tensor as tt
from momentset.errors import ContractError, NumericError
from momentset.optim import BLOCK, Adam
from momentset.tensor import Tensor


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_first_step_is_bias_corrected_unit_step():
    # g=1, lr=0.1: m_hat = v_hat = 1, so the update is -lr/(1+eps) ~ -0.1
    p = Tensor(np.array(0.0), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array(1.0)
    opt.step()
    assert p.data == pytest.approx(-0.1, rel=1e-6)


def test_converges_on_quadratic():
    p = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        with tt.recording():
            tt.backward(p * p)
        opt.step()
    assert abs(float(p.data)) < 0.05


def test_nan_gradient_halts_with_diagnostics():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"weights": p})
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="weights"):
        opt.step()


def test_nan_in_last_gradient_changes_nothing():
    rng = np.random.default_rng(0)
    params = {k: Tensor(rng.standard_normal(3), requires_grad=True)
              for k in ("a", "b", "c")}
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = rng.standard_normal(3)
    opt.step()
    before = ({k: p.data.copy() for k, p in params.items()},
              {k: m.copy() for k, m in opt.m.items()},
              {k: v.copy() for k, v in opt.v.items()})
    for p in params.values():
        p.grad = rng.standard_normal(3)
    params["c"].grad[1] = np.nan
    with pytest.raises(NumericError, match="'c' at step 2"):
        opt.step()
    assert opt.step_count == 1
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, before[0][k])
        np.testing.assert_array_equal(opt.m[k], before[1][k])
        np.testing.assert_array_equal(opt.v[k], before[2][k])


def test_overflowing_gradient_is_refused_before_any_write():
    """An entry of 1e160 would make its v inf and freeze it for good; its
    square overflows the g . g check, so the step is refused like a NaN.
    An entry of 1e150 squares to a finite 1e300 and is taken."""
    rng = np.random.default_rng(2)
    params = {k: Tensor(rng.standard_normal(4), requires_grad=True) for k in ("a", "b")}
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = rng.standard_normal(4)
    opt.step()
    before = [(p.data.copy(), opt.m[k].copy(), opt.v[k].copy())
              for k, p in params.items()]
    params["b"].grad[2] = 1e160
    with pytest.raises(NumericError, match="'b' at step 2"):
        opt.step()
    assert opt.step_count == 1
    for (k, p), (data, m, v) in zip(params.items(), before):
        assert p.data.tobytes() == data.tobytes()
        assert opt.m[k].tobytes() == m.tobytes() and opt.v[k].tobytes() == v.tobytes()
    params["b"].grad[2] = 1e150
    opt.step()
    assert opt.step_count == 2 and np.all(np.isfinite(opt.v["b"]))


def test_skips_params_without_grad():
    p = Tensor(np.array(1.0), requires_grad=True)
    q = Tensor(np.array(2.0), requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.array(1.0)
    opt.step()
    assert float(q.data) == 2.0


def _reference_step(p, g, m, v, t, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """The unblocked folded update on whole arrays, in the order Adam.step
    keeps: the bias corrections are the two scalars step_size and eps_hat."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    root_bc2 = np.sqrt(1.0 - b2 ** t)
    step_size = lr * root_bc2 / (1.0 - b1 ** t)
    return p - step_size * m / (np.sqrt(v) + eps * root_bc2), m, v


@pytest.mark.parametrize("shape", [(), (1,), (BLOCK,), (BLOCK + 1,), (200, 200)])
def test_blocked_step_matches_reference_bit_for_bit(shape):
    rng = np.random.default_rng(7)
    p = Tensor(rng.standard_normal(shape), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    ref, m, v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    for t in (1, 2, 3):
        p.grad = rng.standard_normal(shape) * 10.0 ** (t - 2)
        opt.step()
        ref, m, v = _reference_step(ref, p.grad, m, v, t)
        assert p.data.tobytes() == ref.tobytes()
        assert opt.m["p"].tobytes() == m.tobytes()
        assert opt.v["p"].tobytes() == v.tobytes()


def test_folded_step_matches_the_textbook_update():
    """400 steps against Kingma & Ba's Algorithm 1 as written, on gradients
    from 1e-14 (where eps dominates the denominator) to 1e1, one scale a
    row, that change size between steps. The parameter is zeroed before
    each step, so the update is exactly ``-p``; the fold only rounds
    differently, and the moments are the same bytes."""
    rng = np.random.default_rng(5)
    shape = (6, 50)
    scales = 10.0 ** np.arange(-14, 3, 3)[:, None]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = Tensor(np.zeros(shape), requires_grad=True)
    opt = Adam({"p": p}, lr=lr)
    m, v = np.zeros(shape), np.zeros(shape)
    for t in range(1, 401):
        p.data[...] = 0.0
        p.grad = rng.standard_normal(shape) * scales * rng.uniform(0.1, 10.0)
        opt.step()
        m = b1 * m + (1.0 - b1) * p.grad
        v = b2 * v + (1.0 - b2) * p.grad * p.grad
        update = lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert opt.m["p"].tobytes() == m.tobytes()
        assert opt.v["p"].tobytes() == v.tobytes()
        np.testing.assert_allclose(-p.data, update, rtol=1e-12, atol=0)


def test_param_without_grad_keeps_value_and_moments():
    rng = np.random.default_rng(1)
    params = {k: Tensor(rng.standard_normal(BLOCK + 5), requires_grad=True)
              for k in ("a", "b")}
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = rng.standard_normal(BLOCK + 5)
    opt.step()
    kept = (params["b"].data.copy(), opt.m["b"].copy(), opt.v["b"].copy())
    params["b"].grad = None
    params["a"].grad = rng.standard_normal(BLOCK + 5)
    opt.step()
    assert params["b"].data.tobytes() == kept[0].tobytes()
    assert opt.m["b"].tobytes() == kept[1].tobytes()
    assert opt.v["b"].tobytes() == kept[2].tobytes()


def test_non_contiguous_param_is_refused_before_any_write():
    a = Tensor(np.ones(4), requires_grad=True)
    b = Tensor(np.ones((3, 2)).T, requires_grad=True)  # a transposed view
    opt = Adam({"a": a, "b": b}, lr=0.1)
    a.grad, b.grad = np.ones(4), np.ones((2, 3))
    with pytest.raises(ContractError, match="'b'"):
        opt.step()
    assert opt.step_count == 0
    np.testing.assert_array_equal(a.data, np.ones(4))
    assert not any(m.any() for m in (*opt.m.values(), *opt.v.values()))


def test_fresh_moments_are_zero_and_unshared():
    params = {"p": Tensor(np.ones(3), requires_grad=True),
              "q": Tensor(np.ones((2, 4)), requires_grad=True),
              "s": Tensor(np.array(2.0), requires_grad=True)}
    opt = Adam(params, lr=0.1)
    moments = []
    for name, p in params.items():
        for m in (opt.m[name], opt.v[name]):
            assert m.shape == p.data.shape and m.dtype == np.float64
            np.testing.assert_array_equal(m, np.zeros(p.data.shape))
            moments.append(m)
    arrays = moments + [p.data for p in params.values()]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
