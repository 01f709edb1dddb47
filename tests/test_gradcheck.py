"""Gradient checker contract: tolerance, determinism, and mutation detection."""

import inspect

import numpy as np
import pytest

from res3atn import ops
from res3atn.checksuite import OPERATOR_CHECKS, mutate_backward, network_check
from res3atn.gradcheck import FD_DTYPE, grad_check
from res3atn.tensor import Tensor


def _linear_closure(rng):
    x = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=2).astype(np.float32), requires_grad=True)
    proj = Tensor(rng.normal(size=(4, 2)).astype(np.float32))

    def fn(x, w, b):
        return ops.sum_all(ops.mul(ops.linear(x, w, b), proj))

    return fn, [x, w, b]


def test_linear_layer_passes_at_spec_tolerance(rng):
    fn, inputs = _linear_closure(rng)
    report = grad_check(fn, inputs, eps=1e-3, tol=1e-3, rng=rng)
    assert report.passed
    assert report.max_rel_error < 1e-3


def test_report_covers_every_input_and_counts_coords(rng):
    fn, inputs = _linear_closure(rng)
    report = grad_check(fn, inputs, max_coords=64, rng=rng)
    total = sum(t.size for t in inputs)
    assert report.coords_checked == min(64, total)
    assert set(report.per_input_max) == {0, 1, 2}
    assert report.worst is not None
    assert report.worst.rel_error == report.max_rel_error


def test_nondeterministic_closure_is_rejected(rng):
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    state = {"calls": 0}

    def fn(x):
        state["calls"] += 1
        return ops.sum_all(ops.add_scalar(x, float(state["calls"])))

    with pytest.raises(RuntimeError, match="not deterministic"):
        grad_check(fn, [x], rng=rng)


def test_nonscalar_closure_is_rejected(rng):
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda x: ops.relu(x), [x], rng=rng)


def test_no_gradient_input_is_rejected(rng):
    x = Tensor(np.ones(3, dtype=np.float32))
    with pytest.raises(ValueError, match="requires gradients"):
        grad_check(lambda x: ops.sum_all(x), [x], rng=rng)


def test_checked_input_that_gets_no_gradient_is_rejected(rng):
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    unused = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(RuntimeError, match="input 1 received no gradient"):
        grad_check(lambda x, unused: ops.sum_all(x), [x, unused], rng=rng)


def test_mutated_conv_backward_is_detected(rng):
    x = Tensor(rng.normal(size=(1, 2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float32) * 0.5, requires_grad=True)
    proj = Tensor(rng.normal(size=(1, 2, 3, 4, 4)).astype(np.float32))

    def fn(x, w):
        return ops.sum_all(ops.mul(ops.conv3d(x, w, stride=1, padding=1), proj))

    clean = grad_check(fn, list([x, w]), rng=np.random.default_rng(1))
    assert clean.passed
    with mutate_backward("conv3d"):
        dirty = grad_check(fn, [x, w], rng=np.random.default_rng(1))
    assert not dirty.passed
    assert dirty.max_rel_error > clean.max_rel_error * 10


def test_relu_checks_pass_away_from_the_kink(rng):
    # coordinates at least 0.1 from zero survive the eps=1e-3 probe interval
    base = rng.uniform(0.1, 1.0, size=12).astype(np.float32)
    base *= rng.choice([-1.0, 1.0], size=12).astype(np.float32)
    x = Tensor(base, requires_grad=True)
    proj = Tensor(rng.normal(size=12).astype(np.float32))
    report = grad_check(lambda x: ops.sum_all(ops.mul(ops.relu(x), proj)), [x], rng=rng)
    assert report.passed


def _relu_kink_closure():
    # two pre-activations sit exactly on relu's kink at zero
    x = Tensor(np.array([0.0, 0.5, -0.7, 0.0, 1.2]), requires_grad=True)
    proj = Tensor(np.array([2.0, -1.5, 3.0, 1.0, -2.5]))
    return (lambda x: ops.sum_all(ops.mul(ops.relu(x), proj))), x


def test_a_kink_at_the_point_is_excluded():
    fn, x = _relu_kink_closure()
    report = grad_check(fn, [x], eps=1e-6, exclude_kinks=True)
    assert report.passed, str(report)
    assert (report.coords_checked, report.coords_excluded) == (3, 2)
    # the central difference there averages the two one-sided slopes
    assert not grad_check(fn, [x], eps=1e-6).passed


def test_a_smooth_loss_keeps_every_coordinate(rng):
    x = Tensor(rng.normal(size=(3, 4)) * 2.0, requires_grad=True)
    proj = Tensor(rng.normal(size=(3, 4)))
    report = grad_check(lambda x: ops.sum_all(ops.mul(ops.sigmoid(x), proj)), [x],
                        eps=1e-6, exclude_kinks=True)
    assert report.passed, str(report)
    assert (report.coords_checked, report.coords_excluded) == (12, 0)


@pytest.mark.parametrize("name", ["relu", "mul"])
def test_kink_exclusion_still_fails_a_doubled_gradient(name):
    fn, x = _relu_kink_closure()
    with mutate_backward(name):
        report = grad_check(fn, [x], eps=1e-6, exclude_kinks=True)
    assert report.coords_checked == 3
    assert not report.passed, str(report)


def test_a_report_that_checks_no_coordinate_fails():
    x = Tensor(np.zeros(4), requires_grad=True)
    report = grad_check(lambda x: ops.sum_all(ops.relu(x)), [x], eps=1e-6, exclude_kinks=True)
    assert (report.coords_checked, report.coords_excluded) == (0, 4)
    assert not report.passed
    assert str(report).startswith("FAIL")


def test_max_coords_below_one_is_rejected():
    fn, x = _relu_kink_closure()
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_coords must be >= 1"):
            grad_check(fn, [x], max_coords=bad)
    with pytest.raises(ValueError, match="max_coords must be >= 1, got 0"):
        network_check(max_coords=0)


def test_perturb_in_place_checks_float64_parameters(rng):
    w = Tensor(rng.normal(size=(2, 3)).astype(np.float64), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)).astype(np.float64))
    proj = Tensor(rng.normal(size=(4, 2)).astype(np.float64))

    def fn(w):
        return ops.sum_all(ops.mul(ops.linear(x, w), proj))

    report = grad_check(fn, [w], rng=rng)
    assert report.passed
    assert report.max_rel_error < 1e-3


def test_the_input_dtype_picks_in_place_or_clone_probing(rng):
    # a float64 input is probed in place: this closure reads w, not its argument
    w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)))
    report = grad_check(lambda _w: ops.sum_all(ops.linear(x, w)), [w], rng=rng)
    assert report.passed and report.max_rel_error < 1e-6

    # float32 inputs are probed through float64 clones and never written
    v = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
    x32 = Tensor(x.data.astype(np.float32))
    original = v.data.copy()
    seen = []

    def fn(arg, xin):
        seen.append((arg is v, arg.dtype))
        return ops.sum_all(ops.linear(xin, arg))

    assert grad_check(fn, [v, x32], rng=rng).passed
    assert {(False, np.dtype(FD_DTYPE))} <= set(seen)
    assert all(is_v for is_v, dtype in seen if dtype != FD_DTYPE)
    assert np.array_equal(v.data, original)


def test_fixed_rng_gives_identical_reports(rng):
    fn, inputs = _linear_closure(rng)
    r1 = grad_check(fn, inputs, rng=np.random.default_rng(7))
    r2 = grad_check(fn, inputs, rng=np.random.default_rng(7))
    assert r1.max_rel_error == r2.max_rel_error
    assert r1.worst.coord == r2.worst.coord


@pytest.mark.parametrize("name", ["maxpool3d", "add", "mul", "add_scalar", "reshape", "sum_all",
                                  "batchnorm3d"])
def test_maxpool_suite_has_no_near_ties_on_any_seed(name):
    # maxpool3d: seed 23 once drew two window values 1.2e-4 apart, closer than
    # the FD step; the rows added after it must pass on every seed as well,
    # and so must batchnorm3d's unit cases, whose ReLU has a kink
    for seed in range(60):
        reports = OPERATOR_CHECKS[name](seed)
        assert all(r.passed for r in reports), (seed, [str(r) for r in reports])


def test_conv3d_cases_cover_the_regather_and_shared_frame_routes():
    routes = []
    for n, cin, _cout, f, h, w, k, s, p, _bias in OPERATOR_CHECKS["conv3d"].args[2]:
        fo, ho, wo = ops._check_window_geometry("conv3d", (f, h, w), (k,) * 3, (s,) * 3, (p,) * 3)
        regather = n * cin * k**3 * fo * ho * wo * 4 > ops.KEEP_COLUMNS_BYTES
        routes.append("regather" if regather else "shared" if cin == 1 and k > 1 else "kept")
    # the last case was appended after the regather case, so the earlier draws stay
    assert routes[-2:] == ["regather", "shared"] and n == 2 and s == 2


def test_every_operator_has_a_check_row():
    public = {name for name, fn in vars(ops).items()
              if inspect.isfunction(fn) and fn.__module__ == ops.__name__
              and not name.startswith("_")}
    assert set(OPERATOR_CHECKS) == public
    assert len(OPERATOR_CHECKS) == 14


@pytest.mark.parametrize("name", sorted(OPERATOR_CHECKS))
def test_mutated_backward_fails_its_own_checks(name):
    original = getattr(ops, name)
    with mutate_backward(name):
        assert getattr(ops, name) is not original
        reports = OPERATOR_CHECKS[name](0)
    assert getattr(ops, name) is original
    assert len(reports) >= 5
    assert not any(r.passed for r in reports), [str(r) for r in reports]
    with pytest.raises(KeyError):
        with mutate_backward(name):
            raise KeyError("inside the block")
    assert getattr(ops, name) is original
    assert all(r.passed for r in OPERATOR_CHECKS[name](0))


@pytest.mark.parametrize("seed", [49, 29001])
def test_network_check_passes_where_a_kink_lies_near_the_point(seed):
    # both seeds failed when kinks were told apart by an eps and an eps/2 probe
    report = network_check(seed=seed)
    assert report.passed, str(report)
    assert report.coords_checked >= 64


@pytest.mark.parametrize("name", ["conv3d", "add_scalar", "maxpool3d", "batchnorm3d"])
def test_network_check_detects_a_mutated_backward(name):
    # add_scalar is reached only through the attention fusion (1 + mask) * trunk,
    # the stem's batchnorm only through maxpool3d's norm, and every other
    # batchnorm, with its ReLU and conv, through batchnorm3d's conv
    with mutate_backward(name):
        report = network_check(seed=0)
    assert not report.passed, str(report)
