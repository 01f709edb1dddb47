"""Run one benchmark workload against the res3atn sources of this checkout.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 30 --trace 0

Workloads: desk-train and full-train, which BENCHMARK.json lists, and
gradcheck (see README.md for why it is not listed). Inputs are made from
--seed; units of work repeat until --seconds have passed, and every unit
checks its outputs. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it print the
environment and a readable table.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Single-threaded BLAS: on a shared 2-CPU machine a second BLAS thread made
# desk steps slower and their spread wider.
BLAS_THREADS = 1
SETUP_REPEATS = 3


def pin_blas_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(workload, tally, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        **workload.metrics(tally),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def tail(latencies_ms: list) -> tuple[str, float] | None:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    import numpy as np

    for q in (99, 95, 90):
        if len(latencies_ms) * (100 - q) / 100 >= 10:
            return f"p{q}", float(np.percentile(latencies_ms, q))
    return None


def print_table(workload, tally, metrics: dict) -> None:
    """Every end-to-end metric by name and unit, plus the latency tail and failures."""
    rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    n = len(tally.latencies_ms)
    spread = tail(tally.latencies_ms)
    if spread:
        rows.append((f"{workload.latency}_{spread[0]}", spread[1], "ms"))
    rows.append((f"{workload.latency}_samples", n, "count"))
    rows.append(("failed_frac", tally.failed / max(tally.attempted, 1),
                 f"({tally.failed} of {tally.attempted})"))
    for name, value, unit in rows:
        print(f"{name:<24s} {value:14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "res3atn" / "__init__.py").is_file():
        print(f"perfbench: no res3atn sources under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(src))

    import numpy as np

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    reference = workloads.load_reference()

    setups, synths = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs, synth_s = workload.setup(args.seed)
        setups.append(time.perf_counter() - start)
        synths.append(synth_s)
    setup_s = import_s + workloads.median(setups)

    env = environment(np)
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if not args.trace:
            tally = workloads.run_units(
                workload, inputs, args.seed, args.seconds, workdir, reference
            )
            metrics = end_to_end(workload, tally, setup_s)
            print_table(workload, tally, metrics)
        else:
            metrics, tally = traced_run(workload, inputs, args, workdir, reference,
                                        setup_s, workloads.median(synths))
    for message in tally.errors:
        print(f"FAILED {message}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(workload, inputs, args, workdir, reference, setup_s, synth_s):
    """Half the time untraced, half traced; per-layer metrics plus tracing overhead."""
    import tracing
    import workloads

    half = args.seconds / 2
    plain = workloads.run_units(workload, inputs, args.seed, half, workdir / "plain", reference)
    plain_metrics = end_to_end(workload, plain, setup_s)

    tracer = tracing.Tracer()
    with ExitStack() as stack:
        start = time.perf_counter()
        tracer.install(stack)
        install_s = time.perf_counter() - start
        traced = workloads.run_units(workload, inputs, args.seed, half, workdir / "traced",
                                     reference)
    traced_metrics = end_to_end(workload, traced, setup_s + install_s)
    passes = len(traced.passes) * getattr(workload, "epochs", 1)
    # a layer the workload never runs (sum_all, the suites in training) has no row
    layers = {k: v for k, v in tracer.layer_metrics(passes).items() if v}
    tape_nodes, tape_mib = workloads.probe_tape(workload, inputs, args.seed)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")

    metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
    metrics["tensor.tape_nodes"] = (float(tape_nodes), "count")
    metrics["tensor.tape_live_mib"] = (tape_mib, "MiB")
    metrics["data.synth_s"] = (synth_s, "s")
    for name, (value, unit) in traced_metrics.items():
        metrics[f"trace.overhead.{name}"] = (value - plain_metrics[name][0], unit)

    width = max(len(n) for n in metrics)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:<{width}s} {value:14.4f} {unit}")
    tally = workloads.Tally(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        errors=plain.errors + traced.errors,
    )
    return metrics, tally


if __name__ == "__main__":
    sys.exit(main())
