"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 0-9 --out bench/baseline.json

For each workload this makes one untraced run per seed and one traced run (on
the first seed), then records per end-to-end metric the median, the
quartiles and the spread (interquartile range over median) of the per-run
values, and per per-layer metric the traced value. The summary also carries
the environment the runs were made in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text(encoding="utf-8"))
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": values}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="'a-b' or a comma list")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = benchmark["run_seconds"]

    summary: dict = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in runs[-1]["metrics"].items()}, flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: summarise([r["metrics"][m["name"]]["value"]
                                                 for r in runs])
                           for m in benchmark["end_to_end"]},
        }
        summary["environment"] = runs[-1]["record"]["environment"]
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = traced["record"]["metrics"]
        entry["failed"] += traced["failed"]
        entry["attempted"] += traced["attempted"]
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {stats['median']:.4f} "
                  f"spread {stats['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
