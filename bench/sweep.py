"""Run every workload over several seeds and summarise each end-to-end metric.

    python3 bench/sweep.py --seeds 10 --out sweep.json [--workload lift ...] [--traced]

Each run is a fresh `bench/run.py` process with its own seed (0, 1, ...).
The summary gives, per workload and metric, the median and the spread: the
distance between the first and third quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json. --traced adds one
--trace 1 run per workload on seed 0. bench/baseline.json is such a sweep:

    python3 bench/sweep.py --seeds 10 --traced --out bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return {"seed": seed, "elapsed_s": time.perf_counter() - start,
            "env": json.loads(lines[-2])["env"], **json.loads(lines[-1])}


def commit() -> str | None:
    """The checked-out commit, when the benchmark runs inside a git work tree."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"program_commit": commit(), "env": None,
               "note": f"one run per seed 0-{args.seeds - 1} and workload with --trace 0"
                       + (", plus one --trace 1 run on seed 0" if args.traced else "")
                       + "; spread is (q3 - q1) / median of the runs; runs hold each"
                       " run's result line as printed",
               "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in range(args.seeds):
            runs.append(one_run(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed} ({runs[-1]['elapsed_s']:.0f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        table = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            table[metric] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound, "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"  {metric:26s} median {table[metric]['median']:12.5g} "
                  f"spread {table[metric]['spread']:.3f} (bound {bound})", flush=True)
        summary["workloads"][name] = {"metrics": table, "runs": runs}
        summary["env"] = runs[0].pop("env")
        for r in runs[1:]:
            r.pop("env")
    if args.traced:
        summary["traced"] = {}
        for name in names:
            run = one_run(name, 0, spec["run_seconds"], 1)
            run.pop("env")
            summary["traced"][name] = run
            print(f"{name} traced: correct={run['correct']}", flush=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
