"""Residual bottleneck and attention block behavior."""

import numpy as np
import pytest

from res3atn import ops
from res3atn.blocks import AttentionBlock, MaskBranch, ResidualBlock, residual_fusion
from res3atn.gradcheck import grad_check
from res3atn.tensor import Tape, Tensor


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# residual blocks


def test_identity_shortcut_has_no_projection():
    block = ResidualBlock(8, 4, 8, mid_stride=1, rng=_rng())
    assert block.identity_shortcut
    assert not hasattr(block, "proj")


@pytest.mark.parametrize("geometry", [
    (4, 2, 8, 1),   # channel change
    (8, 4, 8, 2),   # stride change
])
def test_projection_shortcut_when_shapes_differ(geometry):
    block = ResidualBlock(*geometry, rng=_rng())
    assert not block.identity_shortcut
    assert hasattr(block, "proj")


def test_strided_block_halves_every_extent():
    block = ResidualBlock(4, 2, 8, mid_stride=2, rng=_rng())
    out = block(Tensor(_rng(1).standard_normal((2, 4, 5, 9, 9)).astype(np.float32)))
    assert out.shape == (2, 8, 3, 5, 5)


def test_identity_block_preserves_shape():
    block = ResidualBlock(6, 3, 6, rng=_rng())
    out = block(Tensor(_rng(1).standard_normal((2, 6, 4, 5, 5)).astype(np.float32)))
    assert out.shape == (2, 6, 4, 5, 5)


def test_residual_block_rejects_bad_geometry():
    with pytest.raises(ValueError, match="in_channels must be >= 1"):
        ResidualBlock(0, 2, 4, rng=_rng())
    with pytest.raises(ValueError, match="bottleneck_channels must be >= 1"):
        ResidualBlock(2, 0, 4, rng=_rng())
    with pytest.raises(ValueError, match="out_channels must be >= 1"):
        ResidualBlock(2, 2, 0, rng=_rng())
    with pytest.raises(ValueError, match="mid_stride must be >= 1"):
        ResidualBlock(2, 2, 4, mid_stride=0, rng=_rng())


def test_residual_block_gradients_match_finite_differences():
    block = ResidualBlock(4, 2, 8, mid_stride=2, rng=_rng(3))
    block.astype(np.float64)
    block.train()
    rng = _rng(4)
    x = Tensor(rng.standard_normal((2, 4, 4, 6, 6)))
    proj = rng.standard_normal((2, 8, 2, 3, 3))

    def fn(*_params):
        return ops.sum_all(ops.mul(block(x), Tensor(proj)))

    report = grad_check(
        fn,
        block.parameters(),
        eps=1e-4,
        tol=1e-3,
        max_coords=256,
        exclude_kinks=True,
    )
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# mask branch geometry


@pytest.mark.parametrize("block", [MaskBranch, AttentionBlock])
def test_mask_geometry_is_checked_by_each_constructor(block):
    with pytest.raises(ValueError, match="^channels must be >= 1"):
        block(0, 1, 0, rng=_rng())
    with pytest.raises(ValueError, match="depth must be >= 0"):
        block(4, -1, 0, rng=_rng())
    with pytest.raises(ValueError, match="skip_count must lie"):
        block(4, 1, 2, rng=_rng())
    with pytest.raises(ValueError, match="skip_count must lie"):
        block(4, 1, -1, rng=_rng())


def test_mask_branch_rejects_too_small_extents():
    mask = MaskBranch(4, 2, 0, rng=_rng())
    x = Tensor(np.zeros((2, 4, 2, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="depth 2 needs every extent >= 4; frame extent is 2"):
        mask(x)


def test_mask_branch_scale_chain(monkeypatch):
    """Encoder pools halve, decoder upsamples retrace the same shapes."""
    pools, ups = [], []
    real_pool = ops.maxpool3d
    real_up = ops.trilinear_upsample

    def spy_pool(x, kernel, **kw):
        out = real_pool(x, kernel, **kw)
        pools.append(out.shape[2:])
        return out

    def spy_up(x, target):
        ups.append(tuple(target))
        return real_up(x, target)

    monkeypatch.setattr(ops, "maxpool3d", spy_pool)
    monkeypatch.setattr(ops, "trilinear_upsample", spy_up)

    mask = MaskBranch(8, 3, 3, rng=_rng(5))
    mask.train()
    x = Tensor(_rng(6).standard_normal((1, 8, 8, 16, 16)).astype(np.float32))
    out = mask(x)

    assert pools == [(4, 8, 8), (2, 4, 4), (1, 2, 2)]
    assert ups == [(2, 4, 4), (4, 8, 8), (8, 16, 16)]
    assert out.shape == x.shape
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


@pytest.mark.parametrize("skip_count, expected_adds", [(0, 0), (1, 1), (2, 2)])
def test_skip_count_sets_junction_additions(monkeypatch, skip_count, expected_adds):
    added = []
    real_add = ops.add

    def spy_add(a, b):
        added.append(a.shape)
        return real_add(a, b)

    mask = MaskBranch(4, 2, skip_count, rng=_rng(7))
    mask.train()
    monkeypatch.setattr(ops, "add", spy_add)
    x = Tensor(_rng(8).standard_normal((1, 4, 4, 8, 8)).astype(np.float32))
    mask(x)
    # residual blocks also call add; junction skips add at decoder scales
    block_adds = 2 * 2  # encoder + decoder blocks, one shortcut add each
    assert len(added) == block_adds + expected_adds


# ---------------------------------------------------------------------------
# fusion


def _tiny_attention(seed=9):
    att = AttentionBlock(4, 1, 1, rng=_rng(seed))
    att.train()
    x = Tensor(_rng(seed + 1).standard_normal((2, 4, 2, 4, 4)).astype(np.float32))
    return att, x


def _constant_mask(value, like):
    return Tensor(np.full(like.shape, value, dtype=like.dtype))


def test_forward_is_trunk_mask_fusion_then_out_block():
    att, x = _tiny_attention(7)
    pieces, _ = _tiny_attention(7)
    expected = pieces.out_block(residual_fusion(pieces.mask(x), pieces.trunk(x)))
    assert np.array_equal(att(x).data, expected.data)


def test_zero_mask_residual_fusion_passes_trunk_through():
    att, x = _tiny_attention()
    t = att.trunk(x)
    assert np.array_equal(residual_fusion(_constant_mask(0.0, t), t).data, t.data)


def test_learned_mask_stays_strictly_inside_unit_interval():
    att, x = _tiny_attention(11)
    cap = {}
    att(x, capture=cap)
    m = cap["mask"].data
    assert m.shape == cap["trunk"].shape
    assert np.all(m > 0.0) and np.all(m < 1.0)


def test_residual_fusion_gradient_scales_by_one_plus_mask():
    att, x = _tiny_attention(13)
    cap = {}
    with Tape() as tape:
        out = att(x, capture=cap)
        loss = ops.sum_all(out)
        tape.backward(loss)
    assert np.array_equal(cap["trunk"].grad, (1.0 + cap["mask"].data) * cap["fused"].grad)


def test_minus_one_mask_silences_trunk_parameters():
    def trunk_grads(value):
        att, x = _tiny_attention(17)
        with Tape() as tape:
            t = att.trunk(x)
            out = att.out_block(residual_fusion(_constant_mask(value, t), t))
            tape.backward(ops.sum_all(out))
        return [p.grad for p in att.trunk.parameters()]

    grads = trunk_grads(-1.0)
    assert grads
    for g in grads:
        assert g is not None and not g.any()

    # control: any other constant mask lets gradient reach the trunk
    assert any(g is not None and g.any() for g in trunk_grads(-0.5))


def test_fusion_sends_gradient_into_both_branches():
    att, x = _tiny_attention(19)
    with Tape() as tape:
        tape.backward(ops.sum_all(att(x)))
    for branch in (att.trunk, att.mask):
        assert any(p.grad is not None and p.grad.any() for p in branch.parameters())
