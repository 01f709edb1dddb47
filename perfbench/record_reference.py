"""Record the reference outputs the training workloads are checked against.

    python3 perfbench/record_reference.py desk-train 0 20
    python3 perfbench/record_reference.py full-train 0 20

Runs the workload's training unit once for each seed in [first, last) and
adds its final train loss and eval top-1 to perfbench/reference.json. It
also stores the standard deviation of each checked value across all
recorded seeds; the output check scales its tolerances from that spread
(see workloads.check_training).
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, ROOT, pin_blas_threads

pin_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

from res3atn import training  # noqa: E402

import workloads  # noqa: E402

CHECKED = {"desk-train": ("loss", "top1"), "full-train": ("loss",)}


def record(name: str, first: int, last: int, seeds: dict) -> dict:
    """Add rows for seeds [first, last) to ``seeds``; returns the workload's entry."""
    workload = workloads.WORKLOADS[name]
    for seed in range(first, last):
        (train_clips, eval_clips), _ = workload.setup(seed)
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            training.train(workload.config(seed), train_clips, eval_clips, tmp)
            records = training.read_metrics(Path(tmp) / "metrics.jsonl")
        final_train = [r for r in records if r.split == "train"][-1]
        final_eval = [r for r in records if r.split == "eval"][-1]
        seeds[str(seed)] = {"loss": final_train.loss, "top1": final_eval.top1}
        print(name, seed, seeds[str(seed)], flush=True)
    spread = {
        key: statistics.pstdev(row[key] for row in seeds.values()) for key in CHECKED[name]
    }
    return {"epochs": workload.epochs, "spread": spread, "seeds": seeds}


def main() -> None:
    name, first, last = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text()) if path.exists() else {}
    seeds = reference.get(name, {}).get("seeds", {})
    reference[name] = record(name, first, last, seeds)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
