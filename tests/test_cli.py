"""End-to-end command-line checks through real subprocesses."""

import inspect
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from res3atn import checksuite, cli, training
from res3atn.checkpoint import CheckpointFormatError, load_state, save_state
from res3atn.data import AugmentConfig, LabeledClip, save_clip, save_dataset, synth_dataset
from res3atn.gradcheck import GradCheckReport
from res3atn.network import NetworkSpec
from res3atn.ops import NonFiniteError
from res3atn.training import RunConfig, config_schema, format_ablation_table

# eval takes the class count from the checkpoint and makes no train split
EVAL_SYNTH = ("--synthetic", "--eval-per-class", "1", "--extent", "32", "--source-frames", "8")
SYNTH = (*EVAL_SYNTH, "--classes", "4", "--train-per-class", "2")
TINY = (
    "--epochs", "1", "--batch-size", "2", "--channel-scale", "64",
    "--input-size", "16", "--frames", "8", "--sites", "1", "--seed", "0",
)
# ablate sets the attention sites of each variant and rejects --sites
TINY_ABLATE = TINY[:-4] + TINY[-2:]


def run_cli(*args):
    env = os.environ.copy()
    env.setdefault("OMP_NUM_THREADS", "2")
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
    proc = run_cli("eval", "--checkpoint", str(out / "last.r3ck"), *EVAL_SYNTH)
    assert proc.returncode == 0, proc.stderr
    expected = (
        f"loss {final['loss']:.4f} top1 {final['top1']:.2f} top5 {final['top5']:.2f}"
    )
    assert proc.stdout.strip() == expected


def test_eval_takes_the_synthetic_class_count_from_the_checkpoint(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("train", *EVAL_SYNTH, "--classes", "8", "--train-per-class", "1",
                   *TINY[2:], "--epochs", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    final = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
    proc = run_cli("eval", "--checkpoint", str(out / "last.r3ck"), *EVAL_SYNTH)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        f"loss {final['loss']:.4f} top1 {final['top1']:.2f} top5 {final['top5']:.2f}"
    )


@pytest.mark.parametrize("argv", [
    ("eval", "--checkpoint", "x", "--topk", "5"),
    ("eval", "--checkpoint", "x", "--classes", "8"),
    ("eval", "--checkpoint", "x", "--train-per-class", "5"),
    ("ablate", "--grid", "paper"),
    ("ablate", "--verbose"),
], ids=["eval-topk", "eval-classes", "eval-train-per-class", "ablate-grid", "ablate-verbose"])
def test_removed_flags_are_usage_errors(argv, capsys):
    assert cli.main(list(argv)) == 2
    unknown = " ".join(argv[3:] if argv[0] == "eval" else argv[1:])
    assert capsys.readouterr().err == f"r3atn: error: unrecognized arguments: {unknown}\n"


def test_eval_missing_checkpoint_is_exit_3(tmp_path):
    proc = run_cli("eval", "--checkpoint", str(tmp_path / "none.r3ck"), *EVAL_SYNTH)
    assert proc.returncode == 3
    assert proc.stderr.startswith("r3atn: error:")
    assert "checkpoint not found" in proc.stderr


def test_eval_non_finite_value_is_exit_4(train_run, tmp_path):
    out, _ = train_run
    state = load_state(out / "last.r3ck")
    state["stem_conv.weight"] = np.full_like(state["stem_conv.weight"], np.nan)
    bad = tmp_path / "nan.r3ck"
    save_state(bad, state)
    proc = run_cli("eval", "--checkpoint", str(bad), *EVAL_SYNTH)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "r3atn: error: conv3d produced non-finite values\n"


def _crc_valid(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.mark.parametrize("fault", ["entry name", "config not UTF-8", "config not JSON",
                                   "config a JSON list", "config unknown key", "epoch NaN",
                                   "epoch infinite"])
def test_masks_undecodable_checkpoint_is_exit_3(fault, tmp_path):
    bad = tmp_path / "bad.r3ck"
    if fault == "entry name":
        save_state(bad, {"entry": np.ones(2, dtype=np.float32)})
        bad.write_bytes(_crc_valid(bad.read_bytes()[:-4].replace(b"entry", b"\xffntry")))
    elif fault.startswith("epoch"):
        epoch = np.nan if fault == "epoch NaN" else np.inf
        save_state(bad, {"meta.epoch": np.array([epoch], dtype=np.float32)})
    else:
        config = {"config not UTF-8": b"\xff\xfe", "config not JSON": b'{"run": ',
                  "config a JSON list": b"[]",
                  "config unknown key": b'{"network": {"wingspan": 3}}'}[fault]
        save_state(bad, {"meta.run_config_json": np.frombuffer(config, np.uint8).astype(np.float32)})
    proc = run_cli("masks", "--checkpoint", str(bad), "--clip", str(tmp_path / "none.r3clip"),
                   "--out", str(tmp_path / "masks"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"r3atn: error: {bad}: ")
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""


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


def _gradcheck_rows(stdout: str) -> dict:
    """Row name -> verdict ("pass" or "FAIL"), in the order the rows printed."""
    return dict(ln.split()[::3] for ln in stdout.strip().splitlines())


def test_gradcheck_suite_is_deterministic():
    a = run_cli("gradcheck", "--no-network")
    b = run_cli("gradcheck", "--no-network")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    rows = _gradcheck_rows(a.stdout)
    assert list(rows) == list(checksuite.OPERATOR_CHECKS)
    assert set(rows.values()) == {"pass"}


def test_gradcheck_help_lists_only_its_three_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gradcheck", "--help"])
    assert exit_info.value.code == 0
    flags = re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)
    assert sorted(set(flags)) == ["--help", "--mutate", "--no-network", "--seed"]


@pytest.mark.parametrize("flag", ["--ops", "--scale", "--frames", "--size", "--coords"])
def test_gradcheck_removed_flags_are_usage_errors(flag, capsys):
    assert cli.main(["gradcheck", flag, "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"r3atn: error: unrecognized arguments: {flag} 4\n"
    assert captured.out == ""


# the rows a doubled rule fails. sum_all is the one operator the reduced
# network never calls. Every other row but softmax_cross_entropy's projects
# its op's output to a scalar through sum_all, so those rows fail with it.
@pytest.mark.parametrize("name, failing", [
    ("conv3d", {"conv3d"}),
    ("sigmoid", {"sigmoid"}),
    ("sum_all", set(checksuite.OPERATOR_CHECKS) - {"softmax_cross_entropy"}),
], ids=["conv3d", "sigmoid", "sum_all"])
def test_gradcheck_detects_a_mutated_backward(name, failing):
    proc = run_cli("gradcheck", "--no-network", "--mutate", name)
    assert proc.returncode == 1, proc.stderr
    rows = _gradcheck_rows(proc.stdout)
    assert list(rows) == list(checksuite.OPERATOR_CHECKS)
    assert rows[name] == "FAIL"
    assert {op for op, verdict in rows.items() if verdict != "pass"} == failing


def test_gradcheck_network_check_runs_under_the_mutation():
    proc = run_cli("gradcheck", "--mutate", "conv3d")
    assert proc.returncode == 1, proc.stderr
    rows = _gradcheck_rows(proc.stdout)
    assert list(rows) == [*checksuite.OPERATOR_CHECKS, "network"]
    assert [op for op, verdict in rows.items() if verdict != "pass"] == ["conv3d", "network"]


def test_gradcheck_sum_all_mutation_fails_though_the_network_check_passes():
    # the reduced network never calls sum_all, so its own row is what fails
    proc = run_cli("gradcheck", "--mutate", "sum_all")
    assert proc.returncode == 1, proc.stderr
    rows = _gradcheck_rows(proc.stdout)
    assert list(rows) == [*checksuite.OPERATOR_CHECKS, "network"]
    assert rows["sum_all"] == "FAIL"
    assert rows["network"] == "pass"


def test_gradcheck_calls_network_check_with_seed_alone(monkeypatch):
    calls = []

    def fake_network_check(*args, **kwargs):
        calls.append((args, kwargs))
        return GradCheckReport(0.0, 1.0, 1)

    monkeypatch.setattr(checksuite, "operator_suite", lambda seed: {})
    monkeypatch.setattr(checksuite, "network_check", fake_network_check)
    assert cli.main(["gradcheck"]) == 0
    assert cli.main(["gradcheck", "--seed", "3"]) == 0
    assert cli.main(["gradcheck", "--no-network"]) == 0
    assert calls == [((), {"seed": 0}), ((), {"seed": 3})]


def test_gradcheck_rejects_a_negative_seed_before_the_suite_runs():
    proc = run_cli("gradcheck", "--seed", "-1")
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert err_lines == ["r3atn: error: seed must be >= 0"]
    assert proc.stdout == ""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_gradcheck_into_a_closed_pipe_is_quiet_exit_141(unbuffered):
    # unbuffered, the first row's print meets the closed pipe; buffered, the
    # flush after the command does, and the interpreter's exit flush must not
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "res3atn", "gradcheck", "--no-network"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()  # before the child writes anything
        err = proc.stderr.read()
        assert proc.wait(timeout=600) == 141
    assert err == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["gradcheck", "train"])
def test_help_into_a_closed_pipe_is_quiet_exit_141(command, unbuffered):
    # argparse prints the help and exits; unbuffered, its write meets the
    # closed pipe, and buffered, the flush on that exit does, not the
    # interpreter's exit flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "res3atn", command, "--help"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()  # before the child writes anything
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_gradcheck_unknown_mutation_is_exit_2():
    proc = run_cli("gradcheck", "--no-network", "--mutate", "conv9d")
    assert proc.returncode == 2
    assert "argument --mutate: invalid choice: 'conv9d'" in proc.stderr
    assert proc.stdout == ""


def test_ablate_rejects_sites(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli("ablate", *SYNTH, *TINY, "--sites-grid", "none", "--out", str(out))
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("r3atn: error: ablate: --sites is not accepted")
    assert not out.exists()


def test_ablate_custom_grid(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli(
        "ablate", *SYNTH, *TINY_ABLATE, "--sites-grid", "none;1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "ablation.txt").exists()
    assert "(none)" in proc.stdout
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["sites"] for r in rows] == [[], [1]]


def test_ablate_logs_each_variant_and_prints_its_table_once(tmp_path):
    proc = run_cli("ablate", *SYNTH, *TINY_ABLATE, "--sites-grid", "none;1",
                   "--out", str(tmp_path / "ablation"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count(format_ablation_table([]).splitlines()[0]) == 1
    assert sum(ln.startswith("== attention sites") for ln in lines) == 2
    assert sum(" train " in ln for ln in lines) == 2  # one epoch per variant


def test_ablate_unparsable_grid_subset_is_exit_2(tmp_path):
    proc = run_cli("ablate", *SYNTH, *TINY_ABLATE, "--sites-grid", "1;x",
                   "--out", str(tmp_path / "ablation"))
    assert proc.returncode == 2
    assert "comma-separated site numbers" in proc.stderr


def test_ablate_invalid_last_subset_trains_no_variant(tmp_path):
    out = tmp_path / "ablation"
    proc = run_cli("ablate", *SYNTH, *TINY_ABLATE, "--sites-grid", "1;4", "--out", str(out))
    assert proc.returncode == 2
    assert "attention_sites must be a subset" in proc.stderr
    assert list(out.glob("sites_*")) == []


@pytest.mark.parametrize("lr", ["-1", "nan"])
def test_train_rejects_a_bad_lr_before_writing(tmp_path, lr):
    out = tmp_path / "out"
    proc = run_cli("train", *SYNTH, *TINY, "--lr", lr, "--out", str(out))
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert err_lines == [f"r3atn: error: lr must be positive and finite, got {float(lr)}"]
    assert not out.exists()


def test_train_rejects_a_negative_seed_before_writing(tmp_path):
    out = tmp_path / "out"
    proc = run_cli("train", *SYNTH, *TINY[:-2], "--seed", "-1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "r3atn: error: seed must be >= 0\n"
    assert not out.exists()


def test_interrupt_is_one_error_line_and_exit_130(tmp_path, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "train", interrupted)
    assert cli.main(["train", *SYNTH, *TINY, "--out", str(tmp_path / "out")]) == 130
    captured = capsys.readouterr()
    assert captured.err == "r3atn: error: interrupted\n" and captured.out == ""


def test_unknown_config_key_is_exit_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[network]\nwingspan = 3\n")
    proc = run_cli("train", *SYNTH, *TINY, "--config", str(bad),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "unknown config key network.wingspan" in proc.stderr


def test_unknown_config_section_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[surprise]\n")  # no keys: the section alone is the error
    out = tmp_path / "out"
    assert cli.main(["train", *SYNTH, *TINY, "--config", str(bad), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "r3atn: error: unknown config sections: ['surprise']\n"
    assert not out.exists()


def _bad_config_run(tmp_path, capsys, text):
    """Train with the config `text`; returns the exit code and the stderr lines."""
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    code = cli.main(["train", *SYNTH, *TINY, "--config", str(ini), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err.splitlines()


def test_config_values_are_literal_so_a_percent_sign_is_a_bad_value(tmp_path, capsys):
    code, err_lines = _bad_config_run(tmp_path, capsys, "[optimizer]\nlr = 5%\n")
    assert code == 2
    assert err_lines == [
        "r3atn: error: bad value for optimizer.lr: could not convert string to float: '5%'"]


@pytest.mark.parametrize("other", ["", "[run]\nseed = 1\n", "[network]\nchannel_scale = 64\n"])
def test_default_section_keys_are_rejected(tmp_path, capsys, other):
    code, err_lines = _bad_config_run(tmp_path, capsys, "[DEFAULT]\nepochs = 3\n" + other)
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("r3atn: error: ") and "[DEFAULT]" in err_lines[0]


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
frames_out = 16

[optimizer]
lr = 0.05

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
        "augment": {"crop": 24, "frames_out": 16},
        "optimizer": {"lr": 0.05},
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


def test_unset_synthetic_flags_take_synth_dataset_defaults():
    parser = cli._build_parser()
    config = RunConfig(network=NetworkSpec(num_classes=4, input_channels=1),
                       augment=AugmentConfig(), seed=7)
    run = {"channels": 1, "seed": 7}
    args = parser.parse_args(["eval", "--checkpoint", "x", "--synthetic"])
    assert cli._synth_options(args, config) == run
    args = parser.parse_args(["train", "--synthetic", "--extent", "32", "--noise", "0.5",
                              "--source-frames", "8"])
    assert cli._synth_options(args, config) == {
        "frames": 8, "extent": 32, "noise_level": 0.5, **run}
    keywords = inspect.signature(synth_dataset).parameters
    assert set(cli._synth_options(args, config)) <= set(keywords)


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


@pytest.mark.parametrize("section, key, raw", [
    ("optimizer", "decay_bn", "true"),
    ("augment", "elastic_sigma", "2.0"),
    ("augment", "elastic_alpha", "1.5"),
    ("optimizer", "momentum", "0.9"),
    ("optimizer", "weight_decay", "0.001"),
])
def test_a_retired_key_in_a_config_file_is_exit_2(section, key, raw, tmp_path, capsys):
    # an INI value is text, so even the fixed value's spelling is rejected
    ini = tmp_path / "retired.ini"
    ini.write_text(f"[{section}]\n{key} = {raw}\n")
    out = tmp_path / "out"
    assert cli.main(["train", *SYNTH, *TINY, "--config", str(ini), "--out", str(out)]) == 2
    assert _one_error_line(capsys).startswith(
        f"r3atn: error: config key {section}.{key} is retired; it may only hold ")
    assert not out.exists()


def test_bad_sites_value_is_exit_2(tmp_path):
    proc = run_cli("train", *SYNTH, *TINY[:-4], "--sites", "1,x",
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "comma-separated site numbers" in proc.stderr


def test_errors_use_the_single_line_prefix():
    proc = run_cli("train")  # neither --data nor --synthetic
    assert proc.returncode == 2
    err_lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("r3atn: error: ")


@pytest.mark.parametrize("error, code", [
    (CheckpointFormatError("bad checkpoint"), 3),  # a ValueError, so it must match first
    (ValueError("bad value"), 2),
    (NonFiniteError("conv3d produced non-finite values"), 4),
    (RuntimeError("training aborted"), 1),
    (FileNotFoundError("no such file"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_follows_the_error_type(error, code, tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(training, "train", failing)
    assert cli.main(["train", *SYNTH, *TINY, "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert captured.err == f"r3atn: error: {error}\n" and captured.out == ""


def test_an_unmapped_error_type_keeps_its_traceback(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(training, "train", failing)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["train", *SYNTH, *TINY, "--out", str(tmp_path / "out")])


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("r3atn: error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("flags, message", [
    (("--extent", "8"), "extent must be >= 16, got 8"),
    (("--batch-size", "9"), "train split (8 clips) smaller than one batch of 9"),
], ids=["extent-8", "batch-above-split"])
def test_bad_synthetic_data_is_exit_2_before_writing(flags, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", *SYNTH, *TINY, *flags, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"r3atn: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [("train", TINY), ("ablate", TINY_ABLATE)])
def test_synthetic_class_count_other_than_4_or_8_is_exit_2_before_writing(
        command, flags, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([command, *SYNTH, *flags, "--classes", "5", "--out", str(out)]) == 2
    assert _one_error_line(capsys) == (
        "r3atn: error: synthetic datasets support 4 or 8 classes, got 5\n")
    assert not out.exists()


def test_default_geometry_synthetic_train_is_exit_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", "--synthetic", "--out", str(out)]) == 2
    assert "at scale 0.5 is smaller than the 112 crop" in _one_error_line(capsys)
    assert not out.exists()


def test_data_clips_with_one_channel_are_exit_2_before_writing(tmp_path, capsys):
    # the CLI has no channels flag, so the network keeps its 3 input channels
    for split, stream in (("train", 0), ("eval", 1)):
        clips = synth_dataset(4, 2, frames=8, extent=32, channels=1, stream=stream)
        save_dataset(tmp_path / "data" / split, clips, [f"class{i}" for i in range(4)])
    out = tmp_path / "out"
    assert cli.main(["train", "--data", str(tmp_path / "data"), *TINY, "--out", str(out)]) == 2
    assert "has 1 channels, network expects 3" in _one_error_line(capsys)
    assert not out.exists()


DESK = ("--synthetic", "--classes", "4", "--train-per-class", "1", "--eval-per-class", "1",
        "--extent", "48", "--source-frames", "16", "--channel-scale", "64",
        "--input-size", "24", "--frames", "16", "--epochs", "1")


def test_desk_batch_one_is_exit_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", *DESK, "--batch-size", "1", "--out", str(out)]) == 2
    assert _one_error_line(capsys) == (
        "r3atn: error: batch_size 1 leaves stage7's train-mode batchnorm 1 sample "
        "per channel; it needs at least 2\n")
    assert not out.exists()


def test_desk_ablate_batch_one_is_exit_2_before_making_its_out_dir(tmp_path, capsys):
    out = tmp_path / "ablation"
    assert cli.main(["ablate", *DESK, "--batch-size", "1", "--out", str(out)]) == 2
    assert "leaves stage7's train-mode batchnorm 1 sample" in _one_error_line(capsys)
    assert not out.exists()


def test_desk_batch_two_trains(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["train", *DESK, "--batch-size", "2", "--out", str(out)]) == 0
    assert (out / "summary.txt").exists()


def _rewritten(checkpoint_path, tmp_path, config):
    """A copy of a checkpoint whose embedded run config is `config` (None: no config)."""
    state = load_state(checkpoint_path)
    raw = b"" if config is None else json.dumps(config).encode()
    state["meta.run_config_json"] = np.frombuffer(raw, np.uint8).astype(np.float32)
    path = tmp_path / "rewritten.r3ck"
    save_state(path, state)
    return path


def test_checkpoint_of_another_architecture_is_exit_3(train_run, tmp_path, capsys):
    out, _ = train_run
    config = json.loads(bytes(load_state(out / "last.r3ck")["meta.run_config_json"]
                              .astype(np.uint8)))
    config["network"]["attention_sites"] = [1, 2]
    bad = _rewritten(out / "last.r3ck", tmp_path, config)
    assert cli.main(["eval", "--checkpoint", str(bad), *EVAL_SYNTH]) == 3
    assert _one_error_line(capsys).startswith(
        f"r3atn: error: {bad}: checkpoint does not match network: missing [")


def test_checkpoint_with_retired_keys_loads_only_at_their_fixed_values(
        train_run, tmp_path, capsys):
    out, _ = train_run
    config = json.loads(bytes(load_state(out / "last.r3ck")["meta.run_config_json"]
                              .astype(np.uint8)))
    clip_path = tmp_path / "probe.r3clip"
    save_clip(clip_path, synth_dataset(4, 1, frames=8, extent=16, channels=3)[0])
    # the two keys as checkpoints stored them before they were retired, and
    # then the three retired before those, as even older checkpoints hold all five
    config["optimizer"].update(momentum=0.9, weight_decay=0.001)
    for older in ({}, {"decay_bn": True}):
        config["optimizer"].update(older)
        if older:
            config["augment"].update(elastic_sigma=2.0, elastic_alpha=1.0)
        old = _rewritten(out / "last.r3ck", tmp_path, config)
        assert cli.main(["eval", "--checkpoint", str(old), *EVAL_SYNTH]) == 0
        argv = ["masks", "--checkpoint", str(old), "--clip", str(clip_path),
                "--out", str(tmp_path / "masks")]
        assert cli.main(argv) == 0
    capsys.readouterr()
    for key, value, fixed in (("decay_bn", False, "true"), ("momentum", 0.0, "0.9"),
                              ("weight_decay", 0.0005, "0.001")):
        stored = {**config, "optimizer": {**config["optimizer"], key: value}}
        bad = _rewritten(out / "last.r3ck", tmp_path, stored)
        assert cli.main(["eval", "--checkpoint", str(bad), *EVAL_SYNTH]) == 3
        assert _one_error_line(capsys) == (
            f"r3atn: error: {bad}: config key optimizer.{key} is retired; it may only hold "
            f"its fixed value {fixed}, got {value!r}\n")


def test_checkpoint_with_a_value_of_the_wrong_type_is_exit_3(train_run, tmp_path, capsys):
    out, _ = train_run
    config = json.loads(bytes(load_state(out / "last.r3ck")["meta.run_config_json"]
                              .astype(np.uint8)))
    config["run"]["batch_size"] = 2.5
    bad = _rewritten(out / "last.r3ck", tmp_path, config)
    assert cli.main(["eval", "--checkpoint", str(bad), *EVAL_SYNTH]) == 3
    assert _one_error_line(capsys) == (
        f"r3atn: error: {bad}: config key run.batch_size must be an integer, got 2.5\n")


def test_checkpoint_without_a_run_config_is_exit_3(train_run, tmp_path, capsys):
    out, _ = train_run
    bad = _rewritten(out / "last.r3ck", tmp_path, None)
    assert cli.main(["eval", "--checkpoint", str(bad), *EVAL_SYNTH]) == 3
    assert _one_error_line(capsys) == (
        f"r3atn: error: {bad}: checkpoint has no embedded run config\n")


def test_eval_data_with_labels_beyond_the_checkpoint_classes_is_exit_3(
        train_run, tmp_path, capsys):
    out, _ = train_run
    clips = synth_dataset(8, 1, frames=8, extent=32, channels=3)[:5]
    save_dataset(tmp_path / "data", clips, [f"class{i}" for i in range(8)])
    argv = ["eval", "--checkpoint", str(out / "last.r3ck"), "--data", str(tmp_path / "data")]
    assert cli.main(argv) == 3
    assert _one_error_line(capsys) == (
        "r3atn: error: data labels [4] exceed the checkpoint's 4 classes\n")


def test_eval_data_without_class_directories_is_exit_2(train_run, tmp_path, capsys):
    out, _ = train_run
    argv = ["eval", "--checkpoint", str(out / "last.r3ck"), "--data", str(tmp_path)]
    assert cli.main(argv) == 2
    assert _one_error_line(capsys) == f"r3atn: error: {tmp_path}: no class directories found\n"


def test_masks_with_a_clip_below_the_crop_is_exit_2(train_run, tmp_path, capsys):
    out, _ = train_run
    clip = synth_dataset(4, 1, frames=8, extent=16, channels=3)[0]
    clip_path = tmp_path / "small.r3clip"
    save_clip(clip_path, LabeledClip(clip.frames[:, :12, :12], clip.label))
    argv = ["masks", "--checkpoint", str(out / "last.r3ck"), "--clip", str(clip_path),
            "--out", str(tmp_path / "masks")]
    assert cli.main(argv) == 2
    assert _one_error_line(capsys).startswith(
        "r3atn: error: clip 'small': extent 12x12 at scale 1 is smaller than the 16 crop")
    assert not (tmp_path / "masks").exists()


def test_masks_without_attention_sites_is_exit_2(tmp_path, capsys):
    run = tmp_path / "run"
    argv = ["train", *SYNTH, *TINY[:-4], "--sites", "none", "--epochs", "0", "--out", str(run)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    clip_path = tmp_path / "probe.r3clip"
    save_clip(clip_path, synth_dataset(4, 1, frames=8, extent=32, channels=3)[0])
    argv = ["masks", "--checkpoint", str(run / "last.r3ck"), "--clip", str(clip_path),
            "--out", str(tmp_path / "masks")]
    assert cli.main(argv) == 2
    assert _one_error_line(capsys) == "r3atn: error: network has no attention sites enabled\n"
