"""Run every workload on several seeds and record medians and quartile spreads.

    python3 perfbench/baseline.py 0 10 > perfbench/baseline.json

Each (workload, seed) pair is one `run.py --trace 0` process with the
BENCHMARK.json run length, run one after another. For each end-to-end
metric it records the ten values, their median, and the spread: the
distance between the first and third quartiles as a share of the median.
Progress goes to stderr. It stops at the first run whose outputs fail.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import ROOT


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(first, last):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            out.setdefault("environment", json.loads(lines[1].split(" ", 1)[1]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "spread": (q3 - q1) / med, "values": vals}
        out["workloads"][workload] = summary
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
