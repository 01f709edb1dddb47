"""Update-rule arithmetic and bookkeeping of the Nesterov optimizer."""

import numpy as np
import pytest

from res3atn.optim import NesterovSGD
from res3atn.tensor import Parameter


def _param(value, name="p", role="other"):
    p = Parameter(np.array(value, dtype=np.float32), name=name, role=role)
    return p


def _set_grad(p, value):
    p.grad = np.array(value, dtype=np.float32)


def test_first_step_applies_lookahead():
    # v = g, update = lr * (g + mu * v) = lr * (1 + mu) * g
    p = _param([1.0])
    opt = NesterovSGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    _set_grad(p, [1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.19], rtol=1e-6)


def test_second_step_compounds_velocity():
    p = _param([1.0])
    opt = NesterovSGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    for _ in range(2):
        _set_grad(p, [1.0])
        opt.step()
    # v1 = 1, v2 = 1.9; updates 0.1*1.9 then 0.1*(1 + 0.9*1.9) = 0.271
    np.testing.assert_allclose(p.data, [1.0 - 0.19 - 0.271], rtol=1e-6)


def test_zero_momentum_reduces_to_sgd():
    p = _param([2.0])
    opt = NesterovSGD([p], lr=0.5, momentum=0.0, weight_decay=0.0)
    _set_grad(p, [3.0])
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 - 1.5], rtol=1e-6)


def test_weight_decay_alone_shrinks_parameters():
    p = _param([4.0])
    opt = NesterovSGD([p], lr=0.01, momentum=0.0, weight_decay=0.001)
    _set_grad(p, [0.0])
    opt.step()
    np.testing.assert_allclose(p.data, [4.0 * (1.0 - 1e-5)], rtol=1e-6)


def test_decay_bn_flag_spares_gamma_and_beta():
    gamma = _param([1.0], name="stem_bn.gamma")
    beta = _param([0.5], name="stem_bn.beta")
    weight = _param([1.0], name="stem_conv.weight")
    opt = NesterovSGD([gamma, beta, weight], lr=0.01, momentum=0.0,
                      weight_decay=0.001, decay_bn=False)
    for p in (gamma, beta, weight):
        _set_grad(p, [0.0])
    opt.step()
    np.testing.assert_allclose(gamma.data, [1.0])
    np.testing.assert_allclose(beta.data, [0.5])
    np.testing.assert_allclose(weight.data, [1.0 - 1e-5], rtol=1e-6)


def test_quadratic_converges_to_minimum():
    p = _param([0.0])
    opt = NesterovSGD([p], lr=0.01, momentum=0.9, weight_decay=0.0)
    for _ in range(2000):
        _set_grad(p, p.data - 3.0)
        opt.step()
    assert abs(float(p.data[0]) - 3.0) < 1e-6


def test_step_clears_gradients():
    p = _param([1.0])
    opt = NesterovSGD([p], lr=0.1)
    _set_grad(p, [1.0])
    opt.step()
    assert p.grad is None


def test_step_without_gradient_is_an_error():
    p = _param([1.0])
    opt = NesterovSGD([p], lr=0.1)
    with pytest.raises(RuntimeError, match="has no gradient"):
        opt.step()


def test_velocities_match_parameter_shapes():
    a = _param(np.zeros((2, 3)), name="a")
    b = _param(np.zeros((4,)), name="b")
    opt = NesterovSGD([a, b])
    assert opt.velocities["a"].shape == (2, 3)
    assert opt.velocities["b"].shape == (4,)
    assert all(not v.any() for v in opt.velocities.values())


def test_parameter_order_does_not_change_updates():
    def run(order):
        a = _param([1.0], name="a")
        b = _param([2.0], name="b")
        params = [a, b] if order == "ab" else [b, a]
        opt = NesterovSGD(params, lr=0.1, momentum=0.9, weight_decay=0.001)
        for _ in range(3):
            _set_grad(a, [0.3])
            _set_grad(b, [-0.7])
            opt.step()
        return a.data.copy(), b.data.copy()

    a1, b1 = run("ab")
    a2, b2 = run("ba")
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)


def test_load_velocities_round_trip():
    p = _param([1.0], name="p")
    opt = NesterovSGD([p], lr=0.1, momentum=0.9)
    _set_grad(p, [1.0])
    opt.step()
    saved = {k: v.copy() for k, v in opt.velocities.items()}

    fresh = NesterovSGD([_param([1.0], name="p")], lr=0.1, momentum=0.9)
    fresh.load_velocities(saved)
    np.testing.assert_array_equal(fresh.velocities["p"], saved["p"])
    with pytest.raises(KeyError, match="unknown parameter"):
        fresh.load_velocities({"ghost": np.zeros(1, dtype=np.float32)})
    with pytest.raises(ValueError, match="shape mismatch"):
        fresh.load_velocities({"p": np.zeros(2, dtype=np.float32)})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(lr=0.0), "lr must be positive"),
        (dict(momentum=1.0), "momentum must lie"),
        (dict(momentum=-0.1), "momentum must lie"),
        (dict(weight_decay=-1e-3), "weight_decay must be >= 0"),
        (dict(lr=float("nan")), "lr must be positive and finite"),
        (dict(lr=float("inf")), "lr must be positive and finite"),
        (dict(momentum=float("nan")), "momentum must lie"),
        (dict(weight_decay=float("nan")), "weight_decay must be >= 0 and finite"),
        (dict(weight_decay=float("inf")), "weight_decay must be >= 0 and finite"),
    ],
)
def test_hyperparameter_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        NesterovSGD([_param([1.0])], **kwargs)


def test_parameter_list_validation():
    with pytest.raises(ValueError, match="at least one parameter"):
        NesterovSGD([])
    p = _param([1.0], name="p")
    with pytest.raises(ValueError, match="duplicate parameter"):
        NesterovSGD([p, p])
    q = _param([2.0], name="p")
    with pytest.raises(ValueError, match="unique names"):
        NesterovSGD([p, q])
