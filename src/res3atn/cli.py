"""Command-line interface: train, eval, gradcheck, ablate, masks.

Only standard-library modules are imported at module scope; numpy-backed
code loads lazily inside each command so the R3ATN_THREADS cap (applied to
the BLAS thread-count environment variables) takes effect first. Every
failure prints a single `r3atn: error: ...` line on stderr; exit code 2
marks configuration/usage problems, 3 marks checkpoint problems, 4 a
non-finite value produced by an operator outside training, 1 anything else.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors instead of usage dumps
        raise CliError(message, 2)


def _apply_thread_env() -> None:
    raw = os.environ.get("R3ATN_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        raise CliError(f"R3ATN_THREADS must be an integer, got {raw!r}", 2)
    if n < 0:
        raise CliError(f"R3ATN_THREADS must be >= 0, got {n}", 2)
    if n == 0:
        return  # auto: leave library defaults alone
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


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


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# parser of a config value, by the type of the dataclass field that holds it
_PARSERS = {int: int, float: float, bool: _parse_bool, tuple[int, ...]: _parse_sites}

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
    from .training import config_schema

    schema = config_schema()
    cp = configparser.ConfigParser()
    try:
        loaded = cp.read([path])
    except configparser.Error as exc:
        raise CliError(f"cannot parse config {path}: {exc}", 2)
    if not loaded:
        raise CliError(f"config file not found: {path}", 2)
    out: dict = {}
    for section in cp.sections():
        if section not in schema:
            raise CliError(f"unknown config section [{section}]", 2)
        for key, raw in cp.items(section):
            if key not in schema[section]:
                raise CliError(f"unknown config key {section}.{key}", 2)
            try:
                out.setdefault(section, {})[key] = _PARSERS[schema[section][key]](raw)
            except ValueError as exc:
                raise CliError(f"bad value for {section}.{key}: {exc}", 2)
    return out


def _assemble_config(args, num_classes_hint: int | None):
    """RunConfig from the values the user set; the dataclasses supply the rest."""
    from .training import RunConfig

    cfg = _load_config_file(args.config) if args.config else {}
    for flag, (section, key, parse, _help) in _CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            try:
                cfg.setdefault(section, {})[key] = parse(value)
            except ValueError as exc:
                raise CliError(str(exc), 2)
    network = cfg.setdefault("network", {})
    if "num_classes" not in network:
        if num_classes_hint is None:
            raise CliError("num_classes is not set and cannot be inferred", 2)
        network["num_classes"] = num_classes_hint
    try:
        return RunConfig.from_dict(cfg)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc), 2)


# ---------------------------------------------------------------------------
# data sources

def _synthetic_splits_from_args(args, channels: int, seed: int):
    from .data import synthetic_splits

    return synthetic_splits(
        args.classes,
        args.train_per_class,
        args.eval_per_class,
        frames=args.source_frames,
        extent=args.extent,
        noise_level=args.noise,
        channels=channels,
        seed=seed,
    )


def _num_classes_hint(args) -> int | None:
    if getattr(args, "synthetic", False):
        return args.classes
    if getattr(args, "data", None):
        from .data import scan_classes

        return len(scan_classes(Path(args.data) / "train"))
    return None


def _load_splits(args, config):
    from .data import load_clip_dir

    if args.synthetic:
        return _synthetic_splits_from_args(
            args, config.network.input_channels, config.seed
        )
    if not args.data:
        raise CliError("provide --data DIR or --synthetic", 2)
    root = Path(args.data)
    return load_clip_dir(root / "train"), load_clip_dir(root / "eval")


# ---------------------------------------------------------------------------
# commands

def _cmd_train(args) -> int:
    from .training import train

    config = _assemble_config(args, _num_classes_hint(args))
    train_clips, eval_clips = _load_splits(args, config)
    out_dir = Path(args.out)
    summary = train(config, train_clips, eval_clips, out_dir, log=print)
    print(f"best eval top1 {summary['best_eval_top1']:.2f} "
          f"(epoch {summary['best_epoch']})")
    print(f"checkpoints: {summary['last_checkpoint']}, {summary['best_checkpoint']}")
    return 0


def _load_checkpointed_network(path):
    from .checkpoint import (CheckpointFormatError, checkpoint_meta, load_state,
                             restore_network)
    from .network import build_res3atn
    from .training import RunConfig

    try:
        state = load_state(path)
    except FileNotFoundError:
        raise CliError(f"checkpoint not found: {path}", 3)
    except CheckpointFormatError as exc:
        raise CliError(str(exc), 3)
    epoch, config_dict = checkpoint_meta(state)
    if config_dict is None:
        raise CliError(f"{path}: checkpoint has no embedded run config", 3)
    try:
        config = RunConfig.from_dict(config_dict)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: embedded config invalid: {exc}", 3)
    net = build_res3atn(config.network, seed=config.seed)
    try:
        restore_network(net, state)
    except ValueError as exc:
        raise CliError(str(exc), 3)
    return net, config, epoch


def _cmd_eval(args) -> int:
    from .data import load_clip_dir
    from .training import evaluate

    net, config, epoch = _load_checkpointed_network(args.checkpoint)
    if args.synthetic:
        clips = _synthetic_splits_from_args(
            args, config.network.input_channels, config.seed
        )[1]
    elif args.data:
        clips = load_clip_dir(Path(args.data))
    else:
        raise CliError("provide --data DIR or --synthetic", 2)
    bad = sorted({c.label for c in clips} - set(range(config.network.num_classes)))
    if bad:
        raise CliError(
            f"data labels {bad} exceed the checkpoint's "
            f"{config.network.num_classes} classes", 3)
    rec = evaluate(net, clips, config.augment, config.batch_size, epoch=epoch)
    if args.topk == 1:
        print(f"loss {rec.loss:.4f} top1 {rec.top1:.2f}")
    else:
        print(f"loss {rec.loss:.4f} top1 {rec.top1:.2f} top5 {rec.top5:.2f}")
    return 0


def _cmd_gradcheck(args) -> int:
    from contextlib import nullcontext

    from .checksuite import OPERATOR_CHECKS, mutate_backward, network_check, operator_suite

    only = args.ops.split(",") if args.ops else None
    if args.mutate and args.mutate not in OPERATOR_CHECKS:
        raise CliError(f"argument --mutate: invalid choice: {args.mutate!r} "
                       f"(choose from {', '.join(map(repr, OPERATOR_CHECKS))})", 2)
    guard = mutate_backward(args.mutate) if args.mutate else nullcontext()
    failed = False
    with guard:
        try:
            results = operator_suite(seed=args.seed, only=only)
        except ValueError as exc:
            raise CliError(str(exc), 2)
        for name, reports in results.items():
            worst = max(r.max_rel_error for r in reports)
            ok = all(r.passed for r in reports)
            failed = failed or not ok
            print(f"{name:<24s} max_rel {worst:.3e}  {'pass' if ok else 'FAIL'}")
        if args.network:
            geometry = {key: value for key, value in vars(args).items()
                        if key in ("channel_scale", "frames", "size", "max_coords")}
            try:
                rep = network_check(seed=args.seed, **geometry)
            except ValueError as exc:
                raise CliError(str(exc), 2)
            failed = failed or not rep.passed
            print(f"{'network':<24s} max_rel {rep.max_rel_error:.3e}  "
                  f"{'pass' if rep.passed else 'FAIL'}")
    return 1 if failed else 0


def _parse_grid(args) -> list[tuple]:
    from .training import PAPER_GRID

    if args.grid == "paper":
        if args.sites_grid is not None:
            raise CliError("--sites-grid requires --grid custom", 2)
        return [tuple(s) for s in PAPER_GRID]
    if not args.sites_grid:
        raise CliError("custom grid requires --sites-grid", 2)
    try:
        return [_parse_sites(chunk) for chunk in args.sites_grid.split(";")]
    except ValueError as exc:
        raise CliError(str(exc), 2)


def _cmd_ablate(args) -> int:
    from .training import ablation_run, ablation_variants, format_ablation_table

    if args.sites is not None:
        raise CliError("ablate: --sites is not accepted; each grid variant sets the "
                       "attention sites (see --grid and --sites-grid)", 2)
    grid = _parse_grid(args)
    config = _assemble_config(args, _num_classes_hint(args))
    try:
        ablation_variants(config, grid)  # a bad subset is a usage error, found before training
    except ValueError as exc:
        raise CliError(str(exc), 2)
    train_clips, eval_clips = _load_splits(args, config)
    rows = ablation_run(config, grid, train_clips, eval_clips, Path(args.out),
                        log=print if args.verbose else None)
    print(format_ablation_table(rows))
    print(f"table written to {Path(args.out) / 'ablation.txt'}")
    return 0


def _cmd_masks(args) -> int:
    from .data import load_clip
    from .training import export_attention_masks

    net, _config, _epoch = _load_checkpointed_network(args.checkpoint)
    clip = load_clip(args.clip)
    paths = export_attention_masks(net, clip, Path(args.out))
    print(f"wrote {len(paths)} mask images to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--synthetic", action="store_true",
                   help="generate the synthetic motion dataset in-process")
    p.add_argument("--classes", type=int, default=4, choices=(4, 8))
    p.add_argument("--train-per-class", type=int, default=50)
    p.add_argument("--eval-per-class", type=int, default=20)
    p.add_argument("--extent", type=int, default=48,
                   help="square source resolution of synthetic clips")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--source-frames", type=int, default=16)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI file with network/augment/optimizer/run")
    p.add_argument("--data", help="root with train/ and eval/ class trees")
    for flag, (_section, _key, parse, help_text) in _CONFIG_FLAGS.items():
        p.add_argument(flag, type=None if parse is _parse_sites else parse, help=help_text)
    _add_synth_flags(p)


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
    p.add_argument("--topk", type=int, choices=(1, 5), default=5)
    _add_synth_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ops", help="comma-separated operator subset")
    p.add_argument("--mutate", metavar="OP",
                   help="corrupt a suite operator's backward rule to prove the "
                        "checks detect it")
    p.add_argument("--no-network", dest="network", action="store_false",
                   help="skip the reduced-network parameter check")
    # an unset geometry flag leaves network_check's own default in force
    unset = argparse.SUPPRESS
    p.add_argument("--scale", dest="channel_scale", metavar="SCALE", type=int,
                   default=unset, help="network channel divisor")
    p.add_argument("--frames", type=int, default=unset)
    p.add_argument("--size", type=int, default=unset)
    p.add_argument("--coords", dest="max_coords", metavar="COORDS", type=int, default=unset)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train attention-site variants")
    _add_train_flags(p)
    p.add_argument("--grid", choices=("paper", "custom"), default="paper")
    p.add_argument("--sites-grid",
                   help="semicolon-separated subsets for --grid custom, "
                        "e.g. 'none;1;1,2'")
    p.add_argument("--out", default="runs/ablation")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("masks", help="export attention masks as PGM images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--clip", required=True, help="a .r3clip file")
    p.add_argument("--out", default="runs/masks")
    p.set_defaults(func=_cmd_masks)

    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_env()
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"r3atn: error: {exc}", file=sys.stderr)
        return exc.code
    except FloatingPointError as exc:  # ops.NonFiniteError
        print(f"r3atn: error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"r3atn: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
