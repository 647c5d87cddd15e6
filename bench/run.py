"""cdil benchmark: time one workload from the outside and check its outputs.

    python3 bench/run.py --workload finetune-grid --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program under test is the checkout's
`src/cdil`. `--trace 0` measures the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced run. Every metric is printed by name
with its unit and sample count, and the last line of standard output is one
JSON object: `{"correct", "attempted", "failed", "metrics"}`. The full result,
with the environment it was measured in, is also written under
`.perfbench/results/`, and the spans of a traced run beside it.

The workload's process is started by this script with BLAS capped at one
thread and `CDIL_THREADS` set to the CPU count, so load never exceeds one
thread per CPU. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = 1


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["CDIL_THREADS"] = str(threads)
    return env


def start_worker(args: argparse.Namespace, work: Path, env: dict[str, str],
                 extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; returns it and its set-up time."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--work", str(work)] + (["--tiny"] if args.tiny else []) + extra
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        line = proc.stdout.readline()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc)
        raise RuntimeError(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker to end (killing it past the timeout); returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "cdil").glob("*.py")))


def time_setups(args: argparse.Namespace, work: Path, env: dict[str, str],
                count: int) -> list[float]:
    """Set-up times of `count` workload processes that stop once set up."""
    setups = []
    for _ in range(count):
        proc, elapsed = start_worker(args, work, env, ["--setup-only"])
        finish(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        setups.append(elapsed)
    return setups


def measure(args: argparse.Namespace, work: Path, out_dir: Path, nproc: int) -> dict:
    """Run the workload process. Untraced, the extra set-up starts are split
    before and after it, so that their median samples the whole run."""
    env = child_env(nproc)
    setups: list[float] = []
    extra: list[str] = []
    if args.trace:
        extra = ["--trace-out", str(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")]
    else:
        setups += time_setups(args, work, env, SETUP_REPEATS // 2)
    proc, elapsed = start_worker(args, work, env, extra)
    setups.append(elapsed)
    out = finish(proc)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setups += time_setups(args, work, env, SETUP_REPEATS - 1 - SETUP_REPEATS // 2)
    result["setups_s"] = setups
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, str, int]]:
    det = result["passes"]["deterministic"]
    pooled = result["passes"]["pooled"]
    return {
        "wall_s": (statistics.median(det), "s", len(det)),
        "wall_s.pooled": (statistics.median(pooled), "s", len(pooled)),
        "setup_s": (statistics.median(result["setups_s"]), "s", len(result["setups_s"])),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="run at a tiny size (smoke test only; not comparable)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cdil" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cdil sources under {ROOT / 'src'}\n")
        return 2

    nproc = len(os.sched_getaffinity(0))
    scratch = ROOT / ".perfbench"
    work = scratch / "work" / args.workload
    out_dir = scratch / "results"
    shutil.rmtree(work, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work, out_dir, nproc)
    except (RuntimeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
    else:
        metrics = end_to_end(result)
    attempted, failed = result["attempted"], result["failed"]
    environment = {
        "commit": git_commit(), "src_cdil_lines": src_lines(), "nproc": nproc,
        "blas_threads": BLAS_THREADS, "trial_threads": nproc, **result["versions"]}

    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in environment.items()))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n}")
    print(f"  {'failed_ratio':28s} {failed / attempted:14.6g} {'ratio':6s} "
          f"n={attempted} commands")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "environment": environment,
              "failed_ratio": failed / attempted, "problems": result["problems"],
              "warmup_s": result["warmup_s"], "passes": result.get("passes"),
              "setups_s": result["setups_s"],
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in metrics.items()}}
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
