"""Network assembly: spec validation, stage geometry, and variant builds."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from res3atn import ops
from res3atn.checkpoint import network_state
from res3atn.modules import Conv3d
from res3atn.network import NetworkSpec, build_res3atn, stage_trace
from res3atn.optim import NesterovSGD
from res3atn.tensor import Tape, Tensor, backward

FULL_SPEC = NetworkSpec(num_classes=10)

DESK_SPEC = NetworkSpec(
    num_classes=4,
    input_frames=16,
    input_size=24,
    input_channels=1,
    channel_scale=8,
)


def test_spec_validation_messages():
    with pytest.raises(ValueError, match="num_classes must be >= 2"):
        NetworkSpec(num_classes=1)
    with pytest.raises(ValueError, match="multiple of 8"):
        NetworkSpec(num_classes=4, input_frames=12)
    with pytest.raises(ValueError, match="even extent >= 16"):
        NetworkSpec(num_classes=4, input_size=15)
    with pytest.raises(ValueError, match="input_channels must be 1 or 3"):
        NetworkSpec(num_classes=4, input_channels=2)
    with pytest.raises(ValueError, match="attention_sites"):
        NetworkSpec(num_classes=4, attention_sites=(1, 4))
    with pytest.raises(ValueError, match="channel_scale must be >= 1"):
        NetworkSpec(num_classes=4, channel_scale=0)


def test_sites_are_sorted_and_deduplicated():
    spec = NetworkSpec(num_classes=4, attention_sites=(3, 1, 3))
    assert spec.attention_sites == (1, 3)


def test_full_scale_stage_trace_is_frozen():
    assert stage_trace(FULL_SPEC) == [
        ("input", (1, 3, 32, 112, 112)),
        ("stem_conv", (1, 64, 32, 112, 112)),
        ("stem_pool", (1, 64, 16, 56, 56)),
        ("stage1", (1, 128, 8, 28, 28)),
        ("attention1", (1, 128, 8, 28, 28)),
        ("stage2", (1, 256, 4, 14, 14)),
        ("attention2", (1, 256, 4, 14, 14)),
        ("stage3", (1, 512, 2, 7, 7)),
        ("attention3", (1, 512, 2, 7, 7)),
        ("stage4", (1, 1028, 1, 4, 4)),
        ("stage5", (1, 1028, 1, 4, 4)),
        ("stage6", (1, 1028, 1, 4, 4)),
        ("stage7", (1, 2048, 1, 4, 4)),
        ("avgpool", (1, 2048, 1, 1, 1)),
        ("fc1", (1, 512)),
        ("logits", (1, 10)),
    ]


def test_trace_drops_rows_for_disabled_sites():
    spec = NetworkSpec(num_classes=10, attention_sites=(2,))
    names = [name for name, _ in stage_trace(spec)]
    assert "attention2" in names
    assert "attention1" not in names and "attention3" not in names


def _mask_geometry(spec):
    """site -> (effective mask depth, effective skip count)."""
    return {s: spec.site_spec(s)[1:] for s in spec.attention_sites}


def test_full_scale_mask_geometry():
    # skip counts clamp to the effective depth at each site
    assert _mask_geometry(NetworkSpec(num_classes=10)) == {1: (3, 3), 2: (2, 2), 3: (1, 0)}


def test_desk_scale_mask_geometry_clamps_depth():
    assert _mask_geometry(DESK_SPEC) == {1: (2, 2), 2: (1, 1), 3: (0, 0)}
    net = build_res3atn(DESK_SPEC)
    for site in (1, 2, 3):
        att = getattr(net, f"attention{site}")
        channels, depth, skip_count = DESK_SPEC.site_spec(site)
        assert (att.mask.depth, att.mask.skip_count) == (depth, skip_count)
        assert att.mask.head_conv2.weight.shape[:2] == (channels, channels)


def test_site_input_extents_are_the_stage_outputs():
    full = NetworkSpec(num_classes=10)
    assert [full.site_input_extents(s) for s in (1, 2, 3)] == [(8, 28, 28), (4, 14, 14), (2, 7, 7)]
    assert [DESK_SPEC.site_input_extents(s) for s in (1, 2, 3)] == [(4, 6, 6), (2, 3, 3), (1, 2, 2)]


@pytest.mark.parametrize("frames", [8, 16, 32])
def test_supported_frame_counts_build_and_run(frames):
    spec = NetworkSpec(
        num_classes=4,
        input_frames=frames,
        input_size=16,
        input_channels=1,
        channel_scale=64,
    )
    net = build_res3atn(spec)
    net.train()
    x = Tensor(np.random.default_rng(0).standard_normal(
        (2, 1, frames, 16, 16)).astype(np.float32))
    assert net(x).shape == (2, 4)


def test_forward_matches_trace_shapes():
    net = build_res3atn(DESK_SPEC)
    net.train()
    x = Tensor(np.random.default_rng(1).standard_normal(
        (2, 1, 16, 24, 24)).astype(np.float32))
    logits = net(x)
    assert logits.shape == (2, 4)
    expected = {name: shape for name, shape in stage_trace(DESK_SPEC)}
    assert logits.shape == (2,) + expected["logits"][1:]


def test_attention_masks_echo_stage_shapes():
    net = build_res3atn(DESK_SPEC)
    net.train()
    x = Tensor(np.random.default_rng(2).standard_normal(
        (2, 1, 16, 24, 24)).astype(np.float32))
    masks = net.attention_masks(x)
    assert sorted(masks) == [1, 2, 3]
    traced = {name: shape for name, shape in stage_trace(DESK_SPEC)}
    for site, mask in masks.items():
        assert mask.shape == (2,) + traced[f"stage{site}"][1:]
        assert np.all(mask.data > 0.0) and np.all(mask.data < 1.0)


def test_attention_masks_stop_after_the_deepest_site():
    spec = NetworkSpec(num_classes=4, input_frames=16, input_size=24, input_channels=1,
                       attention_sites=(1,), channel_scale=8)
    net = build_res3atn(spec)
    net.train()
    ran = []
    for k in range(1, 8):
        stage = getattr(net, f"stage{k}")
        stage.forward = (lambda h, k=k, fwd=stage.forward: ran.append(k) or fwd(h))
    x = Tensor(np.random.default_rng(3).standard_normal(
        (2, 1, 16, 24, 24)).astype(np.float32))
    masks = net.attention_masks(x)
    assert sorted(masks) == [1]
    assert ran == [1]
    net(x)
    assert ran == [1, 1, 2, 3, 4, 5, 6, 7]


def test_no_attention_variant_has_no_attention_parameters():
    spec = NetworkSpec(
        num_classes=4, input_frames=16, input_size=24,
        input_channels=1, attention_sites=(), channel_scale=8,
    )
    net = build_res3atn(spec)
    assert not any(n.startswith("attention") for n, _ in net.named_parameters())
    with pytest.raises(ValueError, match="no attention sites"):
        net.attention_masks(Tensor(np.zeros((1, 1, 16, 24, 24), dtype=np.float32)))


def test_parameter_count_grows_with_each_added_site():
    counts = []
    for sites in [(), (1,), (1, 2), (1, 2, 3)]:
        spec = NetworkSpec(
            num_classes=4, input_frames=16, input_size=24,
            input_channels=1, attention_sites=sites, channel_scale=8,
        )
        counts.append(build_res3atn(spec).parameter_count())
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_input_contract_is_enforced():
    net = build_res3atn(DESK_SPEC)
    bad = Tensor(np.zeros((2, 1, 16, 24, 20), dtype=np.float32))
    with pytest.raises(ValueError, match="does not match the network's"):
        net(bad)


def test_seeded_builds_are_reproducible():
    a = build_res3atn(DESK_SPEC, seed=7)
    b = build_res3atn(DESK_SPEC, seed=7)
    c = build_res3atn(DESK_SPEC, seed=8)
    names = [n for n, _ in a.named_parameters()]
    assert names == [n for n, _ in b.named_parameters()]
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert any(
        not np.array_equal(pa.data, pc.data)
        for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters())
    )


# ---------------------------------------------------------------------------
# stamped names, and the module a non-finite value names


def _attribute(module, path):
    """The module that a dotted attribute path reaches from `module`."""
    for part in path.split(".") if path else ():
        module = module[int(part)] if part.isdigit() else getattr(module, part)
    return module


@pytest.mark.parametrize("spec", [
    DESK_SPEC, NetworkSpec(num_classes=8), replace(DESK_SPEC, attention_sites=()),
], ids=["desk", "full", "no-sites"])
def test_every_module_and_parameter_is_stamped_with_its_attribute_path(spec):
    net = build_res3atn(spec)
    params = dict(net.named_parameters())
    assert all(p.name == name for name, p in params.items())
    modules = list(net.modules())
    assert net.path == "" and len({m.path for m in modules}) == len(modules)
    for module in modules:
        assert _attribute(net, module.path) is module
    entries = set(network_state(net)) - set(dict(net.named_buffers()))
    assert set(NesterovSGD(net.parameters(), lr=0.1).velocities) == entries == set(params)


def _desk_input():
    return Tensor(np.random.default_rng(5).standard_normal((2, 1, 16, 24, 24)).astype(np.float32))


@pytest.mark.parametrize("name, op", [
    ("attention1.mask.encoder.0.conv2.weight", "conv3d"),
    ("stage2.bn2.gamma", "batchnorm3d"),
    ("stem_conv.weight", "conv3d"),
    ("fc2.weight", "linear"),
])
def test_a_non_finite_value_names_the_innermost_module(name, op):
    net = build_res3atn(DESK_SPEC)
    dict(net.named_parameters())[name].data.reshape(-1)[0] = np.nan
    where = re.escape(name.rsplit(".", 1)[0])
    with pytest.raises(ops.NonFiniteError, match=rf"^{op} produced non-finite values in {where}$"):
        net(_desk_input())


def test_a_non_finite_value_from_an_op_at_the_root_names_no_module():
    net = build_res3atn(DESK_SPEC)
    net.stage7.forward = lambda h: Tensor(np.full((2, 256, 1, 2, 2), np.inf, dtype=np.float32))
    with pytest.raises(ops.NonFiniteError, match=r"^avgpool3d_adaptive produced non-finite values$"):
        net(_desk_input())


def test_an_unstamped_module_keeps_the_operator_only_message():
    conv = Conv3d(1, 2, 3, padding=1, rng=np.random.default_rng(0))
    assert conv.path == "" and conv.weight.name == ""
    conv.weight.data[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ops.NonFiniteError, match=r"^conv3d produced non-finite values$"):
        conv(_desk_input())


def test_every_desk_conv_at_batch_6_keeps_its_columns(monkeypatch):
    """Desk training stays bitwise stable while no conv takes the regather
    route, whose weight gradient is summed run by run."""
    columns = []
    conv3d = ops.conv3d

    def measured(x, weight, *args, **kwargs):
        out = conv3d(x, weight, *args, **kwargs)
        columns.append(out.size // weight.shape[0] * weight.data[0].size * x.data.itemsize)
        return out

    def regather(*args):
        raise AssertionError("a desk conv took the regather route")

    monkeypatch.setattr(ops, "conv3d", measured)
    monkeypatch.setattr(ops, "_conv_runs", regather)
    net = build_res3atn(DESK_SPEC, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(6, 1, 16, 24, 24)).astype(np.float32))
    with Tape():
        loss = ops.softmax_cross_entropy(net(x), np.arange(6) % 4)
    backward(loss)
    assert len(columns) > 50 and max(columns) <= ops.KEEP_COLUMNS_BYTES


def test_full_geometry_training_step_stays_under_its_traced_memory_peak():
    """One taped paper-geometry step at batch 1, as training runs it: forward,
    backward with each parameter updated as its gradient is final, then
    opt.step. Its tracemalloc peak does not depend on the allocator, so a
    memory regression shows here as well as in a benchmark run."""
    net = build_res3atn(NetworkSpec(num_classes=8), seed=0)
    opt = NesterovSGD(net.parameters(), lr=0.01)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 112, 112)).astype(np.float32))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with Tape():
            loss = ops.softmax_cross_entropy(net(x), np.array([3]))
        backward(loss, opt.update)
        opt.step()
        peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()
    # 295.7 MiB above the parameters, velocities and clip: the tape after
    # the forward, then the stem conv output sharing its storage with its
    # gradient; a second full-size stem array would add 98 MiB
    assert peak < 310.0


_STEP_FAULTS = """
import resource
import numpy as np
from res3atn import ops
from res3atn.network import NetworkSpec, build_res3atn
from res3atn.optim import NesterovSGD
from res3atn.tensor import Tape, Tensor, backward

spec = NetworkSpec(num_classes=4, input_frames=16, input_size=24, input_channels=1,
                   channel_scale=8)
net = build_res3atn(spec, seed=0)
opt = NesterovSGD(net.parameters(), lr=0.01)
rng = np.random.default_rng(0)
faults = []
for _ in range(13):
    x = Tensor(rng.normal(size=(6, 1, 16, 24, 24)).astype(np.float32))
    y = rng.integers(0, 4, size=6)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with Tape():
        loss = ops.softmax_cross_entropy(net(x), y)
    backward(loss, opt.update)
    opt.step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(int(np.median(faults[3:13])))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's heap and ru_minflt")
def test_desk_steps_do_not_fault_their_heap_back_in():
    """A taped DESK_NET step at batch 6 in a fresh interpreter, as training
    runs it. glibc trims a free top of heap of twice the largest mapped
    array freed so far (here the stem's 5.7 MiB weight-gradient columns) and
    the next step faults it back in: 2,229 minor faults a step once the 3-D
    stem columns were kept on the tape. Steps 3-12 leave out the first
    steps' one-time faults."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _STEP_FAULTS], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 100
