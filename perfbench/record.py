"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/record.py --runs 10 --out perfbench/BENCH_0.json --trace

Each run is ``run.py`` in its own process, one after another.  For each
end-to-end metric the record holds the ten values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (interquartile distance
as a share of the median), next to the bound from ``BENCHMARK.json``.  With
``--trace`` it adds one traced run per workload for the per-layer metrics.
The record names the Python version, core count and commit it was taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_id() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "bound": bound,
        "values": values,
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the record as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    record = {
        "commit": commit_id(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, False) for seed in record["seeds"]]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            entry["end_to_end"][metric] = summarize(values, bound)
            s = entry["end_to_end"][metric]
            flag = "" if metric == "setup_s" or s["spread"] <= bound / 3 else "  <-- spread above bound/3"
            print(f"  {metric:<18} median {s['median']:>12.4f}  spread {s['spread']:.4f} (bound {bound}){flag}")
        if args.trace:
            traced = run_once(workload, record["seeds"][0], args.seconds, True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
