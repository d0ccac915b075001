import numpy as np
import pytest

from momentset import tensor as tt
from momentset.errors import OptimizerError
from momentset.optim import Adam
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
        loss = p * p
        tt.backward(loss)
        opt.step()
        tt.clear_tape()
    assert abs(float(p.data)) < 0.05


def test_nan_gradient_halts_with_diagnostics():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"weights": p})
    p.grad = np.array([np.nan])
    with pytest.raises(OptimizerError, match="weights"):
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
    with pytest.raises(OptimizerError, match="'c' at step 2"):
        opt.step()
    assert opt.step_count == 1
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, before[0][k])
        np.testing.assert_array_equal(opt.m[k], before[1][k])
        np.testing.assert_array_equal(opt.v[k], before[2][k])


def test_skips_params_without_grad():
    p = Tensor(np.array(1.0), requires_grad=True)
    q = Tensor(np.array(2.0), requires_grad=True)
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.array(1.0)
    opt.step()
    assert float(q.data) == 2.0
