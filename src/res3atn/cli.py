"""Command-line interface: train, eval, gradcheck, ablate, masks.

Every failure prints a single `r3atn: error: ...` line on stderr, and its
exit code follows the error's type (_EXIT_CODES): 3 a CheckpointFormatError,
2 any other ValueError (a configuration, usage or data problem), 4 a
FloatingPointError (a non-finite value produced by an operator outside
training), 1 a RuntimeError or OSError, 130 an interrupt (Ctrl-C). A closed
stdout is no failure: the CLI prints nothing and exits 141. The CLI's own
checks raise ValueError or CheckpointFormatError. gradcheck always runs all
14 operator rows, and exits 1 when any check reads FAIL.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import checkpoint, checksuite, data, network, training


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors instead of usage dumps
        raise ValueError(message)

    def _print_message(self, message, file=None):  # argparse's own swallows a write's OSError
        if message:
            (file or sys.stderr).write(message)


# ---------------------------------------------------------------------------
# config file handling

def _parse_sites(raw: str) -> tuple:
    raw = raw.strip().lower()
    if raw in ("", "none"):
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated site numbers, got {raw!r}")


# parser of a config value, by the type of the dataclass field that holds it
_PARSERS = {int: int, float: float, tuple[int, ...]: _parse_sites}

# train/ablate config flags: flag -> (section, key, type, help). argparse
# applies int and float; --sites is parsed with the other values, in
# _assemble_config, so a bad subset is reported as "expected ... site numbers".
_CONFIG_FLAGS = {
    "--epochs": ("run", "epochs", int, None),
    "--batch-size": ("run", "batch_size", int, None),
    "--seed": ("run", "seed", int, None),
    "--lr": ("optimizer", "lr", float, None),
    "--sites": ("network", "attention_sites", _parse_sites, "attention sites, e.g. 1,2,3 or none"),
    "--channel-scale": ("network", "channel_scale", int, None),
    "--input-size": ("network", "input_size", int, None),
    "--frames": ("network", "input_frames", int, "network input frames"),
}


def _load_config_file(path) -> dict:
    schema = training.config_schema()
    cp = configparser.ConfigParser(interpolation=None)  # values are literal: "5%" stays "5%"
    try:
        loaded = cp.read([path])
    except configparser.Error as exc:
        raise ValueError(f"cannot parse config {path}: {exc}")
    if not loaded:
        raise ValueError(f"config file not found: {path}")
    if cp.defaults():
        raise ValueError(f"config keys under [DEFAULT] are not accepted: {sorted(cp.defaults())}")
    out: dict = {}
    for section in cp.sections():
        values = out[section] = {}
        for key, raw in cp.items(section):
            # a key the schema lacks stays a string, for RunConfig.from_dict to reject
            parse = _PARSERS.get(schema.get(section, {}).get(key), str)
            try:
                values[key] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {section}.{key}: {exc}")
    return out


def _assemble_config(args, num_classes_hint: int | None):
    """RunConfig from the values the user set; the dataclasses supply the rest."""
    cfg = _load_config_file(args.config) if args.config else {}
    for flag, (section, key, parse, _help) in _CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            cfg.setdefault(section, {})[key] = parse(value)
    spec = cfg.setdefault("network", {})
    if "num_classes" not in spec:
        if num_classes_hint is None:
            raise ValueError("num_classes is not set and cannot be inferred")
        spec["num_classes"] = num_classes_hint
    return training.RunConfig.from_dict(cfg)


# ---------------------------------------------------------------------------
# data sources

# synthetic-clip flags: argparse dest -> synth_dataset keyword. An unset
# flag leaves synth_dataset's own default in force.
_SYNTH_FLAGS = {"source_frames": "frames", "extent": "extent", "noise": "noise_level"}


def _synth_options(args, config) -> dict:
    """synth_dataset keywords: the flags the user set, plus the run's channels and seed."""
    options = {key: getattr(args, dest) for dest, key in _SYNTH_FLAGS.items()
               if hasattr(args, dest)}
    return {**options, "channels": config.network.input_channels, "seed": config.seed}


def _num_classes_hint(args) -> int | None:
    if args.synthetic:
        return args.classes
    if args.data:
        return len(data.scan_classes(Path(args.data) / "train"))
    return None


def _load_splits(args, config):
    if args.synthetic:
        return data.synthetic_splits(args.classes, args.train_per_class, args.eval_per_class,
                                     **_synth_options(args, config))
    if not args.data:
        raise ValueError("provide --data DIR or --synthetic")
    root = Path(args.data)
    return data.load_clip_dir(root / "train"), data.load_clip_dir(root / "eval")


# ---------------------------------------------------------------------------
# commands

def _cmd_train(args) -> int:
    config = _assemble_config(args, _num_classes_hint(args))
    train_clips, eval_clips = _load_splits(args, config)
    out_dir = Path(args.out)
    summary = training.train(config, train_clips, eval_clips, out_dir, log=print)
    print(f"best eval top1 {summary['best_eval_top1']:.2f} "
          f"(epoch {summary['best_epoch']})")
    print(f"checkpoints: {summary['last_checkpoint']}, {summary['best_checkpoint']}")
    return 0


def _load_checkpointed_network(path):
    """The network, run config and epoch a checkpoint holds; each fault in it is exit 3."""
    try:
        state = checkpoint.load_state(path)  # its format errors name the path
    except FileNotFoundError:
        raise checkpoint.CheckpointFormatError(f"checkpoint not found: {path}")
    try:
        epoch, config_dict = checkpoint.checkpoint_meta(state)
        if config_dict is None:
            raise ValueError("checkpoint has no embedded run config")
        config = training.RunConfig.from_dict(config_dict)
        net = network.build_res3atn(config.network, seed=config.seed)
        checkpoint.restore_network(net, state)
    except ValueError as exc:
        raise checkpoint.CheckpointFormatError(f"{path}: {exc}")
    return net, config, epoch


def _cmd_eval(args) -> int:
    net, config, epoch = _load_checkpointed_network(args.checkpoint)
    if args.synthetic:  # the eval split train made, for the checkpoint's classes
        clips = data.synth_dataset(config.network.num_classes, args.eval_per_class,
                                   stream=data.EVAL_STREAM, **_synth_options(args, config))
    elif args.data:
        clips = data.load_clip_dir(Path(args.data))
    else:
        raise ValueError("provide --data DIR or --synthetic")
    bad = sorted({c.label for c in clips} - set(range(config.network.num_classes)))
    if bad:
        raise checkpoint.CheckpointFormatError(
            f"data labels {bad} exceed the checkpoint's {config.network.num_classes} classes")
    rec = training.evaluate(net, clips, config.augment, config.batch_size, epoch=epoch)
    print(f"loss {rec.loss:.4f} top1 {rec.top1:.2f} top5 {rec.top5:.2f}")
    return 0


def _cmd_gradcheck(args) -> int:
    """Every operator row, then the network check unless --no-network; exit 1 on a FAIL."""
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    guard = checksuite.mutate_backward(args.mutate) if args.mutate else nullcontext()
    failed = False
    with guard:
        for name, reports in checksuite.operator_suite(seed=args.seed).items():
            worst = max(r.max_rel_error for r in reports)
            ok = all(r.passed for r in reports)
            failed = failed or not ok
            print(f"{name:<24s} max_rel {worst:.3e}  {'pass' if ok else 'FAIL'}")
        if args.network:
            rep = checksuite.network_check(seed=args.seed)
            failed = failed or not rep.passed
            print(f"{'network':<24s} max_rel {rep.max_rel_error:.3e}  "
                  f"{'pass' if rep.passed else 'FAIL'}")
    return 1 if failed else 0


def _parse_grid(args) -> list[tuple]:
    """The --sites-grid subsets, or the paper's grid when it is unset."""
    if args.sites_grid is None:
        return [tuple(s) for s in training.PAPER_GRID]
    return [_parse_sites(chunk) for chunk in args.sites_grid.split(";")]


def _cmd_ablate(args) -> int:
    if args.sites is not None:
        raise ValueError("ablate: --sites is not accepted; each grid variant sets the "
                         "attention sites (see --sites-grid)")
    grid = _parse_grid(args)
    config = _assemble_config(args, _num_classes_hint(args))
    training.ablation_variants(config, grid)  # a bad subset fails before any clip is made
    train_clips, eval_clips = _load_splits(args, config)
    rows = training.ablation_run(config, grid, train_clips, eval_clips, Path(args.out),
                                 log=print)
    print(training.format_ablation_table(rows))
    print(f"table written to {Path(args.out) / 'ablation.txt'}")
    return 0


def _cmd_masks(args) -> int:
    net, _config, _epoch = _load_checkpointed_network(args.checkpoint)
    clip = data.load_clip(args.clip)
    paths = training.export_attention_masks(net, clip, Path(args.out))
    print(f"wrote {len(paths)} mask images to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    """The synthetic-clip flags eval shares with train; see _SYNTH_FLAGS."""
    p.add_argument("--synthetic", action="store_true",
                   help="generate the synthetic motion dataset in-process")
    p.add_argument("--eval-per-class", type=int, default=20)
    unset = argparse.SUPPRESS
    p.add_argument("--extent", type=int, default=unset,
                   help="square source resolution of synthetic clips")
    p.add_argument("--noise", type=float, default=unset)
    p.add_argument("--source-frames", type=int, default=unset)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI file with network/augment/optimizer/run")
    p.add_argument("--data", help="root with train/ and eval/ class trees")
    for flag, (_section, _key, parse, help_text) in _CONFIG_FLAGS.items():
        p.add_argument(flag, type=None if parse is _parse_sites else parse, help=help_text)
    _add_synth_flags(p)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--train-per-class", type=int, default=50)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="r3atn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network")
    _add_train_flags(p)
    p.add_argument("--out", default="runs/train", help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="class tree of .r3clip files")
    _add_synth_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutate", metavar="OP", choices=tuple(checksuite.OPERATOR_CHECKS),
                   help="corrupt a suite operator's backward rule to prove the "
                        "checks detect it")
    p.add_argument("--no-network", dest="network", action="store_false",
                   help="skip the reduced-network parameter check")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train attention-site variants")
    _add_train_flags(p)
    p.add_argument("--sites-grid",
                   help="semicolon-separated subsets, e.g. 'none;1;1,2'; "
                        "unset runs the paper's grid")
    p.add_argument("--out", default="runs/ablation")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("masks", help="export attention masks as PGM images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--clip", required=True, help="a .r3clip file")
    p.add_argument("--out", default="runs/masks")
    p.set_defaults(func=_cmd_masks)

    return parser


# exit code by error type; the first match wins, so CheckpointFormatError, a
# ValueError, comes before ValueError. Any other type is a bug and keeps its
# traceback.
_EXIT_CODES = {
    checkpoint.CheckpointFormatError: 3,
    ValueError: 2,
    FloatingPointError: 4,  # ops.NonFiniteError
    RuntimeError: 1,
    OSError: 1,
}


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        finally:  # argparse exits after --help: a closed reader shows here, not at exit
            sys.stdout.flush()
        code = args.func(args)
        sys.stdout.flush()  # a closed reader then shows here, not at the interpreter's exit
        return code
    except KeyboardInterrupt:  # the commands remove their own partial files
        print("r3atn: error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # stdout's reader has gone: quiet, 128 + SIGPIPE as a shell shows
        # stdout still holds the unwritten lines; on devnull the exit-time flush cannot fail
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except tuple(_EXIT_CODES) as exc:
        print(f"r3atn: error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
