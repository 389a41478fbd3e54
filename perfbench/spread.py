"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads ingest wide --seeds 1 2 3 4 5 [--out FILE]

Runs the benchmark once per workload and seed, one run at a time, with the
command and run length from BENCHMARK.json. For each metric it prints the
median of the runs and the spread: the distance between the first and the
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> tuple[dict, float]:
    """The run's result line and its wall time, set-up included."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results, walls = [], []
        for seed in args.seeds:
            result, wall = run_once(bench, workload, seed)
            results.append(result)
            walls.append(wall)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} ({wall:.1f} s): {values}", flush=True)
        bad = [r for r in results if not r["correct"] or r["failed"]]
        summary[workload] = {
            "seeds": args.seeds,
            "failed_runs": len(bad),
            "run_wall_s": walls,
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r in results])
                for name in bounds
            },
        }
        print(f"{workload}: {len(results)} runs, {len(bad)} with failures", flush=True)
        for name, s in summary[workload]["metrics"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:24s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
