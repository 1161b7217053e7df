"""Run the benchmark over several seeds per workload and record a baseline.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_0.json

For each workload: ``--runs`` untraced runs with seeds 1..runs, then one
traced run with seed 1. Per end-to-end metric it records every value, the
median, the quartiles and the spread (quartile distance over median), and
flags a spread above a third of the metric's bound in BENCHMARK.json. The
machine facts go in with the numbers.
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

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo", encoding="utf-8")
                if ln.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = [ln.strip() for ln in lines[:-1]]
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in range(1, args.runs + 1)]
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "steady": name == "setup_s" or spread <= bound / 3,
                "values": values,
            }
            print(f"{workload:13s} {name:16s} median {statistics.median(values):.6g} "
                  f"spread {spread:.3f} (bound {bound})", flush=True)
        traced = run(workload, 1, spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "seeds": list(range(1, args.runs + 1)),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "summary_seed1": runs[0]["summary"],
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
