"""Tensor, Parameter, and tape semantics."""

import weakref

import numpy as np
import pytest

from res3atn import ops, optim
from res3atn.network import NetworkSpec, build_res3atn
from res3atn.optim import NesterovSGD
from res3atn.tensor import Parameter, Tape, Tensor, active_tape, backward, zero_grads


def test_tensor_coerces_integers_to_float32():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float32
    assert t.data.tolist() == [1.0, 2.0, 3.0]


def test_tensor_preserves_float64():
    t = Tensor(np.zeros(3, dtype=np.float64))
    assert t.dtype == np.float64


def test_tensor_defaults():
    t = Tensor(np.ones((2, 3)))
    assert not t.requires_grad
    assert t.grad is None
    assert t.tape is None
    assert t.shape == (2, 3)
    assert t.ndim == 2
    assert t.size == 6


def test_parameter_requires_grad_and_takes_a_name():
    p = Parameter(np.ones(2), name="w")
    assert p.requires_grad
    assert p.name == "w"


def test_accumulate_grad_sums_and_checks_shape():
    t = Tensor(np.zeros(3), requires_grad=True)
    t.cell.accumulate(np.ones(3))
    t.cell.accumulate(np.ones(3) * 2)
    assert t.grad.tolist() == [3.0, 3.0, 3.0]
    with pytest.raises(ValueError, match="gradient shape"):
        t.cell.accumulate(np.ones(4))


def test_ops_without_tape_are_untracked():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ops.relu(x)
    assert y.tape is None
    with pytest.raises(RuntimeError, match="not produced under an active tape"):
        backward(ops.sum_all(y))


def test_fanout_gradients_accumulate():
    x = Tensor([3.0], requires_grad=True)
    with Tape():
        loss = ops.sum_all(ops.add(x, x))
    backward(loss)
    assert x.grad.tolist() == [2.0]


def test_fanout_through_mul_uses_both_paths():
    x = Tensor([2.0], requires_grad=True)
    with Tape():
        loss = ops.sum_all(ops.mul(x, x))  # d/dx x^2 = 2x
    backward(loss)
    assert x.grad.tolist() == [4.0]


def test_add_gradient_buffers_do_not_alias():
    # both addends of one add must receive independent gradient buffers
    x = Tensor([1.0, 1.0], requires_grad=True)
    y = Tensor([1.0, 1.0], requires_grad=True)
    with Tape():
        s = ops.add(x, y)
        loss = ops.sum_all(ops.add(s, s))
    backward(loss)
    assert x.grad.tolist() == [2.0, 2.0]
    assert y.grad.tolist() == [2.0, 2.0]


def test_tape_is_consumed_by_backward():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(x)
    backward(loss)
    assert tape.consumed
    with pytest.raises(RuntimeError, match="consumed"):
        tape.backward(loss)


def test_backward_frees_each_node_once_its_rule_has_run():
    x = Tensor(np.array([0.5, -1.0, 2.0], dtype=np.float32), requires_grad=True)
    seen = {}

    def first_rule(g):
        # every node recorded after this one has run by now
        seen["dropped_alive"] = dropped() is not None
        seen["kept_grad"] = kept.grad is not None
        return (2.0 * g,)

    with Tape() as tape:
        y = Tensor(2.0 * x.data, requires_grad=True)
        tape.record(y, [x], first_rule)
        mid = ops.relu(y)  # an intermediate the caller lets go of
        dropped = weakref.ref(mid)
        kept = ops.sigmoid(mid)  # an intermediate the caller holds
        loss = ops.sum_all(kept)
        del mid
    backward(loss)
    assert seen == {"dropped_alive": False, "kept_grad": True}
    assert dropped() is None
    assert not tape.nodes
    assert np.array_equal(kept.grad, np.ones(3, dtype=np.float32))
    s = 1.0 / (1.0 + np.exp(-np.maximum(2.0 * x.data, 0)))
    assert np.allclose(x.grad, 2.0 * s * (1.0 - s) * (x.data > 0))


def _record_rule(tape, x, g_loss, rule):
    """y = x through `rule`, then a scalar loss whose rule hands y `g_loss`."""
    y = Tensor(x.data.copy(), requires_grad=True)
    tape.record(y, [x], rule)
    loss = Tensor(np.asarray(y.data.sum(), dtype=np.float32), requires_grad=True)
    tape.record(loss, [y], lambda g: (g_loss,))
    return y, loss


def test_rule_owns_the_gradient_of_a_dropped_output():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    g_loss = np.array([4.0, 5.0], dtype=np.float32)
    handed = []

    def rule(g):
        handed.append(g)
        g *= 3.0
        return (g,)

    with Tape() as tape:
        y, loss = _record_rule(tape, x, g_loss, rule)
        cell = y.cell
        del y
    backward(loss)
    assert handed[0] is g_loss
    assert cell.grad is None
    assert x.grad is g_loss and x.grad.tolist() == [12.0, 15.0]


def test_rule_gets_a_copy_of_the_gradient_of_a_held_output():
    x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    g_loss = np.array([4.0, 5.0], dtype=np.float32)
    handed = []

    def rule(g):
        handed.append(g)
        g *= 3.0
        return (g,)

    with Tape() as tape:
        y, loss = _record_rule(tape, x, g_loss, rule)
    backward(loss)
    assert handed[0] is not g_loss
    assert y.grad is g_loss and y.grad.tolist() == [4.0, 5.0]
    assert x.grad.tolist() == [12.0, 15.0]


def test_consumed_tape_rejects_recording():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = ops.sum_all(x)
        backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            ops.sum_all(x)


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = ops.relu(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)


def test_backward_rejects_foreign_loss():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = ops.sum_all(x)
    with Tape() as other:
        with pytest.raises(RuntimeError, match="not produced under this tape"):
            other.backward(loss)


def test_nested_tapes_record_independently():
    x = Tensor([2.0], requires_grad=True)
    with Tape():
        a = ops.mul(x, x)
        with Tape():
            inner = ops.sum_all(ops.add(a, x))
        backward(inner)
        # the inner tape saw add and sum_all only: d(inner)/dx via those is 1,
        # the mul recorded outside contributes nothing to the inner pass
        assert x.grad.tolist() == [1.0]
        assert a.grad.tolist() == [1.0]
        outer = ops.sum_all(a)
    zero_grads([x, a])
    backward(outer)
    assert x.grad.tolist() == [4.0]


def test_active_tape_tracks_stack():
    assert active_tape() is None
    with Tape() as t1:
        assert active_tape() is t1
        with Tape() as t2:
            assert active_tape() is t2
        assert active_tape() is t1
    assert active_tape() is None


def test_tape_exited_out_of_order_is_rejected():
    outer, inner = Tape(), Tape()
    outer.__enter__()
    inner.__enter__()
    try:
        with pytest.raises(RuntimeError, match="exited out of order"):
            outer.__exit__(None, None, None)
        assert active_tape() is inner
    finally:
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
    assert active_tape() is None


def test_requires_grad_false_input_gets_no_grad():
    x = Tensor([1.0], requires_grad=True)
    c = Tensor([5.0])
    with Tape():
        loss = ops.sum_all(ops.mul(x, c))
    backward(loss)
    assert x.grad.tolist() == [5.0]
    assert c.grad is None


def test_zero_grads():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = ops.sum_all(x)
    backward(loss)
    assert x.grad is not None
    zero_grads([x])
    assert x.grad is None


def test_taped_network_nodes_hold_no_tensor():
    spec = NetworkSpec(num_classes=4, input_frames=8, input_size=16, input_channels=1,
                       channel_scale=64)
    net = build_res3atn(spec, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8, 16, 16)))
    with Tape() as tape:
        logits = net(x)
        loss = ops.softmax_cross_entropy(logits, np.array([0, 1]))
    assert len(tape.nodes) > 100
    for node in tape.nodes:
        held = [node.output, *node.inputs]
        held += [c.cell_contents for c in node.backward_fn.__closure__ or ()]
        assert not any(isinstance(v, Tensor) for v in held)
    # the outputs the caller holds are the only live ones; once it lets go
    # of them, nothing the tape keeps holds any output alive
    alive = [node.tensor() for node in tape.nodes if node.tensor() is not None]
    assert len(alive) == 2 and alive[0] is logits and alive[1] is loss
    del alive, logits, loss
    assert all(node.tensor() is None for node in tape.nodes)


DESK_NET = NetworkSpec(num_classes=4, input_frames=16, input_size=24, input_channels=1,
                       channel_scale=8)


def _desk_param_grads(monkeypatch, hold_outputs: bool) -> dict:
    held = []
    if hold_outputs:
        record = Tape.record

        def holding(tape, output, inputs, backward_fn):
            held.append(output)
            record(tape, output, inputs, backward_fn)

        monkeypatch.setattr(Tape, "record", holding)
    net = build_res3atn(DESK_NET, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(6, 1, 16, 24, 24)).astype(np.float32))
    with Tape():
        loss = ops.softmax_cross_entropy(net(x), rng.integers(0, 4, size=6))
    backward(loss)
    monkeypatch.undo()
    assert len(held) == 132 if hold_outputs else not held  # every node's output
    return {name: p.grad for name, p in net.named_parameters()}


def test_held_intermediates_leave_parameter_gradients_bitwise_equal(monkeypatch):
    handed_off = _desk_param_grads(monkeypatch, hold_outputs=False)
    copied = _desk_param_grads(monkeypatch, hold_outputs=True)
    assert handed_off.keys() == copied.keys()
    for name, g in handed_off.items():
        assert g.tobytes() == copied[name].tobytes(), name


# ---------------------------------------------------------------------------
# on_final: each cell is reported once its last reader has run


def _logged(rule, index, events):
    """rule, which first appends ("rule", index) to events."""

    def logged(g):
        events.append(("rule", index))
        return rule(g)

    return logged


def test_on_final_fires_once_per_cell_after_its_last_reader():
    events = []
    a = Parameter(np.array([1.0, 2.0], dtype=np.float32), name="a")
    b = Parameter(np.array([3.0, -1.0], dtype=np.float32), name="b")
    with Tape() as tape:
        h = ops.mul(a, b)
        loss = ops.sum_all(ops.add(ops.relu(h), a))
        del h
    readers = {}  # cell -> indices of the nodes that read it
    for i, node in enumerate(tape.nodes):
        for cell in node.inputs:
            if cell is not None:
                readers.setdefault(cell, set()).add(i)
        node.backward_fn = _logged(node.backward_fn, i, events)
    backward(loss, lambda cell: events.append(("final", cell)))
    finals = [e[1] for e in events if e[0] == "final"]
    assert len(finals) == len(set(finals)) == len(readers)
    assert set(finals) == set(readers)
    for cell, indices in readers.items():
        at = events.index(("final", cell))
        ran = {e[1] for e in events[:at] if e[0] == "rule"}
        assert indices <= ran  # every reader ran before the call
    assert {a.cell, b.cell} <= set(finals)


def test_on_final_hands_a_fanned_out_parameter_its_full_gradient_once():
    p = Parameter(np.array([0.5, -2.0, 3.0], dtype=np.float32), name="p")
    x = Tensor(np.array([2.0, 1.0, -1.0], dtype=np.float32))

    def run(on_final=None):
        p.grad = None
        with Tape():
            loss = ops.sum_all(ops.add(ops.mul(p, x), ops.relu(p)))  # two readers of p
        backward(loss, on_final)
        return p.grad

    want = run()
    calls = []
    run(lambda cell: calls.append(cell.grad.copy()) if cell is p.cell else None)
    assert len(calls) == 1
    assert calls[0].tobytes() == want.tobytes()
    assert want.tolist() == [3.0, 1.0, 0.0]


def test_on_final_counts_down_a_reader_whose_output_got_no_gradient():
    big = Parameter(np.ones(optim.SMALL + 1, dtype=np.float32), name="big")
    p = Parameter(np.array([1.0, 2.0], dtype=np.float32), name="p")
    unused = Parameter(np.array([4.0], dtype=np.float32), name="unused")
    opt = NesterovSGD([big, p, unused], lr=0.1)
    finals = []
    with Tape():
        ops.relu(unused)  # recorded, but the loss does not read it
        loss = ops.add(ops.sum_all(big), ops.sum_all(p))
    backward(loss, lambda cell: (finals.append(cell), opt.update(cell)))
    assert unused.cell in finals and unused.grad is None
    # updated during backward: g = 1 + 0.001 * 1, v = g, lr * (g + mu * v) = 0.1 * 1.9 * g
    assert big.grad is None
    np.testing.assert_allclose(big.data, 1.0 - 0.19019, rtol=1e-6)
    assert p.grad is None  # taken into the optimizer's arena; step() applies it
    assert p.data.tolist() == [1.0, 2.0]
    with pytest.raises(RuntimeError, match="parameter 'unused' has no gradient"):
        opt.step()
    assert p.data.tolist() == [1.0, 2.0]  # a step that raises updates no small parameter
    for q in (big, p, unused):
        q.grad = np.ones(q.shape, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.19019, 2.0 - 0.19038], rtol=1e-6)
