"""End-to-end command-line checks through real subprocesses."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from res3atn.checkpoint import load_state, save_state
from res3atn.data import save_clip, synth_dataset

SYNTH = (
    "--synthetic", "--classes", "4", "--train-per-class", "2",
    "--eval-per-class", "1", "--extent", "32", "--source-frames", "8",
)
TINY = (
    "--epochs", "1", "--batch-size", "2", "--channel-scale", "64",
    "--input-size", "16", "--frames", "8", "--sites", "1", "--seed", "0",
)


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


def test_ablate_custom_grid(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli(
        "ablate", *SYNTH, *TINY, "--grid", "custom",
        "--sites-grid", "none;1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "ablation.txt").exists()
    assert "(none)" in proc.stdout
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["sites"] for r in rows] == [[], [1]]


def test_ablate_custom_grid_requires_subsets():
    proc = run_cli("ablate", *SYNTH, *TINY, "--grid", "custom")
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
