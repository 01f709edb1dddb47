"""End-to-end command-line checks through real subprocesses."""

import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from res3atn import checksuite, cli
from res3atn.checkpoint import load_state, save_state
from res3atn.data import AugmentConfig, save_clip, synth_dataset
from res3atn.gradcheck import GradCheckReport
from res3atn.network import NetworkSpec
from res3atn.training import RunConfig, config_schema

SYNTH = (
    "--synthetic", "--classes", "4", "--train-per-class", "2",
    "--eval-per-class", "1", "--extent", "32", "--source-frames", "8",
)
TINY = (
    "--epochs", "1", "--batch-size", "2", "--channel-scale", "64",
    "--input-size", "16", "--frames", "8", "--sites", "1", "--seed", "0",
)
# ablate sets the attention sites of each variant and rejects --sites
TINY_ABLATE = TINY[:-4] + TINY[-2:]


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.setdefault("OMP_NUM_THREADS", "2")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "res3atn", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    proc = run_cli("train", *SYNTH, *TINY, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out, proc


def test_train_reports_and_writes_artifacts(train_run):
    out, proc = train_run
    assert "best eval top1" in proc.stdout
    for name in ("metrics.jsonl", "last.r3ck", "best.r3ck", "summary.txt"):
        assert (out / name).exists()


def test_eval_reproduces_the_logged_final_metrics(train_run):
    out, _ = train_run
    final = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
    assert final["split"] == "eval"
    proc = run_cli("eval", "--checkpoint", str(out / "last.r3ck"), *SYNTH)
    assert proc.returncode == 0, proc.stderr
    expected = (
        f"loss {final['loss']:.4f} top1 {final['top1']:.2f} top5 {final['top5']:.2f}"
    )
    assert proc.stdout.strip() == expected


def test_eval_topk_outside_its_choices_is_exit_2(train_run):
    out, _ = train_run
    proc = run_cli("eval", "--checkpoint", str(out / "last.r3ck"), "--topk", "3", *SYNTH)
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("r3atn: error: argument --topk: invalid choice: 3")
    assert proc.stdout == ""


def test_eval_missing_checkpoint_is_exit_3(tmp_path):
    proc = run_cli("eval", "--checkpoint", str(tmp_path / "none.r3ck"), *SYNTH)
    assert proc.returncode == 3
    assert proc.stderr.startswith("r3atn: error:")
    assert "checkpoint not found" in proc.stderr


def test_eval_non_finite_value_is_exit_4(train_run, tmp_path):
    out, _ = train_run
    state = load_state(out / "last.r3ck")
    state["stem_conv.weight"] = np.full_like(state["stem_conv.weight"], np.nan)
    bad = tmp_path / "nan.r3ck"
    save_state(bad, state)
    proc = run_cli("eval", "--checkpoint", str(bad), *SYNTH)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "r3atn: error: conv3d produced non-finite values\n"


def test_masks_export_from_checkpoint(train_run, tmp_path):
    out, _ = train_run
    clip = synth_dataset(4, 1, frames=8, extent=32, channels=3)[0]
    clip_path = tmp_path / "probe.r3clip"
    save_clip(clip_path, clip)
    mask_dir = tmp_path / "masks"
    proc = run_cli(
        "masks", "--checkpoint", str(out / "last.r3ck"),
        "--clip", str(clip_path), "--out", str(mask_dir),
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 mask images" in proc.stdout
    assert sorted(p.name for p in mask_dir.iterdir()) == [
        "site1_frame0.pgm", "site1_frame1.pgm",
    ]


def test_gradcheck_subset_is_deterministic():
    a = run_cli("gradcheck", "--ops", "relu,linear", "--no-network")
    b = run_cli("gradcheck", "--ops", "relu,linear", "--no-network")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == ["relu", "linear"]
    assert all("pass" in ln for ln in lines)


def test_gradcheck_unknown_op_is_exit_2():
    proc = run_cli("gradcheck", "--ops", "conv9d", "--no-network")
    assert proc.returncode == 2
    assert "unknown operator names" in proc.stderr


def test_gradcheck_detects_a_mutated_backward():
    proc = run_cli(
        "gradcheck", "--ops", "conv3d", "--no-network", "--mutate", "conv3d"
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_gradcheck_mutates_any_suite_op():
    proc = run_cli("gradcheck", "--ops", "sigmoid,relu", "--no-network", "--mutate", "sigmoid")
    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    assert [ln.split()[-1] for ln in lines] == ["FAIL", "pass"]


def test_gradcheck_network_geometry_defaults_live_in_network_check(monkeypatch):
    signature = inspect.signature(checksuite.network_check)
    defaults = {name: p.default for name, p in signature.parameters.items()}
    seen = []

    def fake_network_check(**kwargs):
        bound = signature.bind(**kwargs)
        bound.apply_defaults()
        seen.append(dict(bound.arguments))
        return GradCheckReport(0.0, 1.0, 1)

    monkeypatch.setattr(checksuite, "operator_suite", lambda seed, only: {})
    monkeypatch.setattr(checksuite, "network_check", fake_network_check)
    assert cli.main(["gradcheck"]) == 0
    assert cli.main(["gradcheck", "--size", "16"]) == 0
    assert cli.main(["gradcheck", "--scale", "8", "--frames", "16", "--coords", "5"]) == 0
    assert seen == [
        defaults,
        {**defaults, "size": 16},
        {**defaults, "channel_scale": 8, "frames": 16, "max_coords": 5},
    ]


@pytest.mark.parametrize("coords", ["0", "-3"])
def test_gradcheck_that_checks_no_coordinate_is_exit_2(coords):
    proc = run_cli("gradcheck", "--ops", "relu", "--coords", coords)
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert err_lines == [f"r3atn: error: max_coords must be >= 1, got {coords}"]
    assert "network" not in proc.stdout


def test_gradcheck_unknown_mutation_is_exit_2():
    proc = run_cli("gradcheck", "--ops", "relu", "--no-network", "--mutate", "conv9d")
    assert proc.returncode == 2
    assert "argument --mutate: invalid choice: 'conv9d'" in proc.stderr
    assert proc.stdout == ""


def test_ablate_rejects_sites(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli("ablate", *SYNTH, *TINY, "--grid", "custom",
                   "--sites-grid", "none", "--out", str(out))
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("r3atn: error: ablate: --sites is not accepted")
    assert not out.exists()


def test_ablate_custom_grid(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli(
        "ablate", *SYNTH, *TINY_ABLATE, "--grid", "custom",
        "--sites-grid", "none;1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "ablation.txt").exists()
    assert "(none)" in proc.stdout
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["sites"] for r in rows] == [[], [1]]


def test_ablate_unparsable_grid_subset_is_exit_2(tmp_path):
    proc = run_cli("ablate", *SYNTH, *TINY_ABLATE, "--grid", "custom",
                   "--sites-grid", "1;x", "--out", str(tmp_path / "ablation"))
    assert proc.returncode == 2
    assert "comma-separated site numbers" in proc.stderr


def test_ablate_invalid_last_subset_trains_no_variant(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli("ablate", *SYNTH, *TINY_ABLATE, "--grid", "custom",
                   "--sites-grid", "1;4", "--out", str(out))
    assert proc.returncode == 2
    assert "attention_sites must be a subset" in proc.stderr
    assert list(out.glob("sites_*")) == []


def test_ablate_sites_grid_requires_custom_grid(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli("ablate", *SYNTH, *TINY_ABLATE, "--sites-grid", "none;1", "--out", str(out))
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert err_lines == ["r3atn: error: --sites-grid requires --grid custom"]
    assert not out.exists()


@pytest.mark.parametrize("lr", ["-1", "nan"])
def test_train_rejects_a_bad_lr_before_writing(tmp_path, lr):
    out = tmp_path / "out"
    proc = run_cli("train", *SYNTH, *TINY, "--lr", lr, "--out", str(out))
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert err_lines == [f"r3atn: error: lr must be positive and finite, got {float(lr)}"]
    assert not out.exists()


def test_ablate_custom_grid_requires_subsets():
    proc = run_cli("ablate", *SYNTH, *TINY_ABLATE, "--grid", "custom")
    assert proc.returncode == 2
    assert "custom grid requires --sites-grid" in proc.stderr


def test_unknown_config_key_is_exit_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[network]\nwingspan = 3\n")
    proc = run_cli("train", *SYNTH, *TINY, "--config", str(bad),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "unknown config key network.wingspan" in proc.stderr


def test_config_file_values_reach_the_run(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepochs = 0\n\n[network]\nchannel_scale = 64\n")
    out = tmp_path / "out"
    proc = run_cli(
        "train", *SYNTH, "--input-size", "16", "--frames", "8",
        "--sites", "1", "--batch-size", "2", "--config", str(ini),
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    records = (out / "metrics.jsonl").read_text().splitlines()
    assert len(records) == 1 and json.loads(records[0])["split"] == "eval"


EVERY_KEY_INI = """
[network]
num_classes = 5
input_frames = 16
input_size = 24
input_channels = 1
attention_sites = 2,3
channel_scale = 8

[augment]
crop = 24
elastic_sigma = 1.5
elastic_alpha = 0.5
frames_out = 16

[optimizer]
lr = 0.05
momentum = 0.8
weight_decay = 0.0005
decay_bn = off

[run]
epochs = 7
batch_size = 3
seed = 11
"""


def test_every_config_key_reaches_the_run_config(tmp_path):
    ini = tmp_path / "every.ini"
    ini.write_text(EVERY_KEY_INI)
    args = cli._build_parser().parse_args(["train", "--synthetic", "--config", str(ini)])
    config = cli._assemble_config(args, num_classes_hint=4)
    expected = {
        "network": {"num_classes": 5, "input_frames": 16, "input_size": 24,
                    "input_channels": 1, "attention_sites": (2, 3), "channel_scale": 8},
        "augment": {"crop": 24, "elastic_sigma": 1.5, "elastic_alpha": 0.5, "frames_out": 16},
        "optimizer": {"lr": 0.05, "momentum": 0.8, "weight_decay": 0.0005, "decay_bn": False},
        "run": {"batch_size": 3, "epochs": 7, "seed": 11},
    }
    assert config.to_dict() == expected
    # the file covers the whole schema, and every value differs from its default
    assert {s: list(v) for s, v in expected.items()} == {
        s: list(v) for s, v in config_schema().items()
    }
    defaults = {f.name: f.default for cls in (NetworkSpec, AugmentConfig, RunConfig)
                for f in fields(cls)}
    for values in expected.values():
        for key, value in values.items():
            assert value != defaults[key], key
    assert RunConfig.from_dict(config.to_dict()) == config
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_unset_keys_take_the_dataclass_defaults():
    args = cli._build_parser().parse_args(["train", "--synthetic", "--input-size", "24"])
    config = cli._assemble_config(args, num_classes_hint=4)
    assert config == RunConfig(
        network=NetworkSpec(num_classes=4, input_size=24),
        augment=AugmentConfig(crop=24),
    )


def test_readme_ini_table_lists_the_config_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```\n(\[network\].*?)```", readme, re.S).group(1)
    block = re.sub(r"\([^)]*\)", "", block)  # drop the attention_sites example
    table = {
        section: [key.strip() for key in keys.split(",")]
        for section, keys in re.findall(r"\[(\w+)\]([^\[]*)", block)
    }
    assert table == {section: list(keys) for section, keys in config_schema().items()}


def test_elastic_kernel_wider_than_the_crop_is_exit_2(tmp_path):
    ini = tmp_path / "wide.ini"
    ini.write_text("[augment]\nelastic_sigma = 2.5\n")
    out = tmp_path / "out"
    proc = run_cli("train", *SYNTH, *TINY, "--config", str(ini), "--out", str(out))
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("r3atn: error: elastic_sigma 2.5")
    assert not out.exists()


def test_bad_sites_value_is_exit_2(tmp_path):
    proc = run_cli("train", *SYNTH, *TINY[:-4], "--sites", "1,x",
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "comma-separated site numbers" in proc.stderr


def test_thread_cap_validation_and_smoke():
    bad = run_cli("gradcheck", "--ops", "relu", "--no-network",
                  env_extra={"R3ATN_THREADS": "many"})
    assert bad.returncode == 2
    assert "must be an integer" in bad.stderr

    ok = run_cli("gradcheck", "--ops", "relu", "--no-network",
                 env_extra={"R3ATN_THREADS": "1"})
    assert ok.returncode == 0, ok.stderr


def test_errors_use_the_single_line_prefix():
    proc = run_cli("train")  # neither --data nor --synthetic
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("r3atn: error: ")
