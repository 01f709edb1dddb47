"""Update-rule arithmetic and bookkeeping of the Nesterov optimizer."""

import tracemalloc

import numpy as np
import pytest

from res3atn import ops, optim
from res3atn.network import NetworkSpec, build_res3atn
from res3atn.checkpoint import restore_optimizer
from res3atn.optim import MOMENTUM, WEIGHT_DECAY, NesterovSGD
from res3atn.tensor import Parameter, Tape, Tensor, backward


# a valid lr for the tests that do not depend on it; NesterovSGD has no default
LR = 0.1


def _param(value, name="p"):
    return Parameter(np.array(value, dtype=np.float32), name=name)


def _set_grad(p, value):
    p.grad = np.array(value, dtype=np.float32)


def test_first_step_applies_lookahead():
    # g = 1 + 0.001 * 1, v = g, update = lr * (g + mu * v) = 0.1 * 1.9 * 1.001
    p = _param([1.0])
    opt = NesterovSGD([p], lr=0.1)
    _set_grad(p, [1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.19019], rtol=1e-6)


def test_second_step_compounds_velocity():
    p = _param([1.0])
    opt = NesterovSGD([p], lr=0.1)
    for _ in range(2):
        _set_grad(p, [1.0])
        opt.step()
    # p1 = 0.80981 as above; g2 = 1 + 0.001 * p1 = 1.00080981,
    # v2 = 0.9 * 1.001 + g2 = 1.90170981, update 0.1 * (g2 + 0.9 * v2) = 0.27123486
    np.testing.assert_allclose(p.data, [0.80981 - 0.27123486], rtol=1e-6)


def test_weight_decay_alone_shrinks_parameters():
    # a zero gradient leaves g = 0.001 * p, and v = g: p shrinks by lr * 1.9 * 0.001
    p = _param([4.0])
    opt = NesterovSGD([p], lr=0.01)
    _set_grad(p, [0.0])
    opt.step()
    np.testing.assert_allclose(p.data, [4.0 * (1.0 - 1.9e-5)], rtol=1e-6)


def test_weight_decay_shrinks_batchnorm_gamma_and_beta_too():
    gamma = _param([1.0], name="stem_bn.gamma")
    beta = _param([0.5], name="stem_bn.beta")
    weight = _param([1.0], name="stem_conv.weight")
    opt = NesterovSGD([gamma, beta, weight], lr=0.01)
    for p in (gamma, beta, weight):
        _set_grad(p, [0.0])
    opt.step()
    np.testing.assert_allclose(gamma.data, [1.0 - 1.9e-5], rtol=1e-6)
    np.testing.assert_allclose(beta.data, [0.5 * (1.0 - 1.9e-5)], rtol=1e-6)
    np.testing.assert_allclose(weight.data, [1.0 - 1.9e-5], rtol=1e-6)


def test_lr_assigned_after_construction_takes_effect():
    built, assigned = (_param([4.0, -2.0], name="w"), _param([4.0, -2.0], name="w"))
    opt_built = NesterovSGD([built], lr=0.05)
    opt_assigned = NesterovSGD([assigned], lr=0.1)
    opt_assigned.lr = 0.05
    for _ in range(2):
        for p, opt in ((built, opt_built), (assigned, opt_assigned)):
            _set_grad(p, [0.5, 1.0])
            opt.step()
    assert assigned.data.tobytes() == built.data.tobytes()
    assert opt_assigned.velocities["w"].tobytes() == opt_built.velocities["w"].tobytes()


def test_quadratic_converges_to_minimum():
    # the loss (p - 3)^2 / 2 plus the decay's 0.001 * p^2 / 2 is least at 3 / 1.001
    p = _param([0.0])
    opt = NesterovSGD([p], lr=0.01)
    for _ in range(2000):
        _set_grad(p, p.data - 3.0)
        opt.step()
    assert abs(float(p.data[0]) - 3.0 / 1.001) < 1e-6


def test_step_clears_gradients():
    p = _param([1.0])
    opt = NesterovSGD([p], lr=LR)
    _set_grad(p, [1.0])
    opt.step()
    assert p.grad is None


def test_step_without_gradient_is_an_error():
    p = _param([1.0])
    opt = NesterovSGD([p], lr=LR)
    with pytest.raises(RuntimeError, match="has no gradient"):
        opt.step()


# a desk-sized network: its tape has fan-out (residual adds, attention) and
# parameters whose last reader runs early and late in backward
SMALL_NET = NetworkSpec(num_classes=4, input_frames=8, input_size=16, input_channels=1,
                        channel_scale=32)


def _train_steps(in_backward: bool, steps: int = 2):
    """Two SGD steps on SMALL_NET; the update runs in backward or in step()."""
    net = build_res3atn(SMALL_NET, seed=0)
    opt = NesterovSGD(net.parameters(), lr=LR)
    rng = np.random.default_rng(0)
    for _ in range(steps):
        x = Tensor(rng.normal(size=(2, 1, 8, 16, 16)).astype(np.float32))
        with Tape():
            loss = ops.softmax_cross_entropy(net(x), rng.integers(0, 4, size=2))
        backward(loss, opt.update if in_backward else None)
        opt.step()
    return net, opt


def test_update_in_backward_is_bitwise_the_update_in_step():
    net_b, opt_b = _train_steps(in_backward=True)
    net_s, opt_s = _train_steps(in_backward=False)
    for (name, p), (_, q) in zip(net_b.named_parameters(), net_s.named_parameters()):
        assert p.grad is None and q.grad is None
        assert p.data.tobytes() == q.data.tobytes(), name
        assert opt_b.velocities[name].tobytes() == opt_s.velocities[name].tobytes(), name


def test_no_parameter_holds_a_gradient_after_its_last_reader_has_run():
    net = build_res3atn(SMALL_NET, seed=0)
    opt = NesterovSGD(net.parameters(), lr=LR)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 1, 8, 16, 16)).astype(np.float32))
    with Tape() as tape:
        loss = ops.softmax_cross_entropy(net(x), rng.integers(0, 4, size=2))
    params = {p.cell: p for p in net.parameters()}
    last_reader = {}  # nodes pop from the end, so a cell's last reader has the lowest index
    for i, node in reversed(list(enumerate(tape.nodes))):
        for cell in node.inputs:
            if cell in params:
                last_reader[cell] = i
    assert len(last_reader) == len(params)
    stale = []

    def checking(rule, index):
        def rule_at(g):
            stale.extend(params[c].name for c, last in last_reader.items()
                         if last > index and params[c].grad is not None)
            return rule(g)

        return rule_at

    for i, node in enumerate(tape.nodes):
        node.backward_fn = checking(node.backward_fn, i)
    backward(loss, opt.update)
    assert not stale
    assert all(p.grad is None for p in net.parameters())
    opt.step()  # every parameter was updated in backward; step still ends the step


def _whole_array_update(data, grad, velocity, lr):
    """The update rule on whole arrays, as the module docstring writes it."""
    g = grad + WEIGHT_DECAY * data
    velocity = velocity * MOMENTUM
    velocity += g
    return data - lr * (g + MOMENTUM * velocity), velocity


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_update_allocates_two_chunks_and_is_bitwise_the_whole_array_update(dtype):
    rng = np.random.default_rng(2)
    shape = (5, 2 * optim.CHUNK + 123)  # ten chunks and a part
    p = Parameter(rng.normal(size=shape), name="w", dtype=dtype)
    grads = [rng.normal(size=shape).astype(dtype) for _ in range(2)]
    want_p, want_v = p.data.copy(), np.zeros_like(p.data)
    opt = NesterovSGD([p], lr=LR)
    for grad in grads:
        want_p, want_v = _whole_array_update(want_p, grad, want_v, LR)
        p.grad = grad
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            opt.update(p.cell)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the first update makes the two scratch chunks; one temporary of
        # the parameter's size would be ten chunks
        assert peak < 2.5 * optim.CHUNK * np.dtype(dtype).itemsize
        assert p.grad is None
        assert p.data.tobytes() == want_p.tobytes()
        assert opt.velocities["w"].tobytes() == want_v.tobytes()


def test_f_ordered_restored_velocity_is_updated_bitwise():
    rng = np.random.default_rng(3)
    shape = (3, optim.CHUNK + 7)
    p = Parameter(rng.normal(size=shape), name="w", dtype=np.float32)
    velocity = np.asfortranarray(rng.normal(size=shape).astype(np.float32))
    grad = rng.normal(size=shape).astype(np.float32)
    want_p, want_v = _whole_array_update(p.data, grad, velocity, LR)
    opt = NesterovSGD([p], lr=LR)
    restore_optimizer(opt, {"optim.v.w": velocity})
    assert opt.velocities["w"].flags.c_contiguous
    p.grad = grad
    opt.step()
    assert p.data.tobytes() == want_p.tobytes()
    assert opt.velocities["w"].tobytes() == want_v.tobytes()


def test_velocities_match_parameter_shapes():
    a = _param(np.zeros((2, 3)), name="a")
    b = _param(np.zeros((4,)), name="b")
    opt = NesterovSGD([a, b], lr=LR)
    assert opt.velocities["a"].shape == (2, 3)
    assert opt.velocities["b"].shape == (4,)
    assert all(not v.any() for v in opt.velocities.values())


def test_parameter_order_does_not_change_updates():
    def run(order):
        a = _param([1.0], name="a")
        b = _param([2.0], name="b")
        params = [a, b] if order == "ab" else [b, a]
        opt = NesterovSGD(params, lr=LR)
        for _ in range(3):
            _set_grad(a, [0.3])
            _set_grad(b, [-0.7])
            opt.step()
        return a.data.copy(), b.data.copy()

    a1, b1 = run("ab")
    a2, b2 = run("ba")
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)


@pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
def test_lr_validation(lr):
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        NesterovSGD([_param([1.0])], lr=lr)


def test_parameter_list_validation():
    with pytest.raises(ValueError, match="at least one parameter"):
        NesterovSGD([], lr=LR)
    p = _param([1.0], name="p")
    with pytest.raises(ValueError, match="duplicate parameter"):
        NesterovSGD([p, p], lr=LR)
    q = _param([2.0], name="p")
    with pytest.raises(ValueError, match="unique names"):
        NesterovSGD([p, q], lr=LR)


def test_small_parameters_update_in_step_bitwise_as_parameter_by_parameter():
    # a float32 and a float64 arena group, beside one parameter too large
    # for the arena
    rng = np.random.default_rng(4)
    shapes = {"conv.weight": (4, 3, 3), "bn.gamma": (4,), "bn.beta": (4,),
              "head.weight": (3, 5), "big.weight": (optim.SMALL + 1,)}
    dtypes = {"head.weight": np.float64, "bn.beta": np.float64}
    params = [Parameter(rng.normal(size=shape), name=name,
                        dtype=dtypes.get(name, np.float32))
              for name, shape in shapes.items()]
    want = {p.name: (p.data.copy(), np.zeros_like(p.data)) for p in params}
    opt = NesterovSGD(params, lr=LR)
    for step in range(4):
        for i, p in enumerate(params):
            p.grad = rng.normal(size=p.shape).astype(p.dtype)
            data, velocity = want[p.name]
            want[p.name] = _whole_array_update(data, p.grad, velocity, LR)
            if (i + step) % 2:  # the others are taken by step()
                opt.update(p.cell)
                assert p.grad is None
        opt.step()
        for p in params:
            assert p.grad is None and p.data.dtype == want[p.name][0].dtype
            assert p.data.tobytes() == want[p.name][0].tobytes(), (step, p.name)
            assert opt.velocities[p.name].tobytes() == want[p.name][1].tobytes(), (step, p.name)


def test_a_small_parameter_waits_for_step_and_a_large_one_does_not():
    small = _param(np.ones(optim.SMALL), name="small")
    large = _param(np.ones(optim.SMALL + 1), name="large")
    opt = NesterovSGD([small, large], lr=0.1)
    for p in (small, large):
        p.grad = np.ones(p.shape, dtype=np.float32)
        opt.update(p.cell)
    assert small.grad is None and not (small.data - 1.0).any()
    np.testing.assert_allclose(large.data, 1.0 - 0.19019, rtol=1e-6)  # as in the first step
    opt.step()
    np.testing.assert_allclose(small.data, 1.0 - 0.19019, rtol=1e-6)


def test_rebinding_a_small_parameter_is_an_error_at_step():
    p, q = _param([1.0, 2.0], name="p"), _param([3.0], name="q")
    opt = NesterovSGD([p, q], lr=LR)
    p.data = p.data.copy()  # no longer the optimizer's storage: it would stop training
    for t in (p, q):
        _set_grad(t, np.ones(t.shape))
    with pytest.raises(RuntimeError, match="parameter 'p' was rebound"):
        opt.step()
    assert p.data.tolist() == [1.0, 2.0] and q.data.tolist() == [3.0]
