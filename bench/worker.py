"""One workload process: import `cdil`, write the workload's inputs, run passes.

`run.py` starts this file and times it from the outside. On standard output it
prints `READY` once `cdil` is imported and the inputs are on disk; unless
`--setup-only` is given it then runs its passes and prints one JSON line with
their wall times, the command tally and the correctness problems found.

Every command of every pass is checked: it must exit 0, its outcome must equal
the pinned outcome of the seed commit, and it must equal the outcome the first
(deterministic) pass gave, so pooled passes must reproduce deterministic ones.

Both modes first warm up with one deterministic and one pooled pass on the
workload's tiny instance, written beside the inputs after set-up: this pays
the one-time costs (lazy imports, first calls, the thread pool's first use)
without a full-size pass, and its commands are checked like any other. A
workload without a pooled mode (`ingest-wide`) runs deterministic passes only.

Untraced (`--trace 0`): deterministic and pooled passes then alternate, at
least one of each, while one more round fits in `--seconds`. Without a pooled
mode the deterministic passes stand for the pooled ones too.

Traced (`--trace 1`): set-up runs traced; then untraced and traced
deterministic passes alternate, at least one of each, while one more round
fits in `--seconds`, and on a workload with a pooled mode a traced pooled pass
ends the run.
Per-layer metrics are medians over the traced deterministic passes. The spans
are written to `--trace-out`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from cdil import cli  # noqa: E402  (needs the checkout's src on the path)

import spans  # noqa: E402
import workloads  # noqa: E402


class Runner:
    """Runs passes of one workload instance and tallies every command."""

    def __init__(self, workload, work: Path, instance: int, pinned: dict):
        self.workload = workload
        self.work = work
        self.instance = instance
        self.pinned = pinned
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, pooled: bool) -> float:
        """Run one pass; returns the summed wall time of its commands."""
        wall = 0.0
        for key, argv in self.workload.commands(self.work, self.instance, pooled):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crashing command is a failed command
                traceback.print_exc()
                code = "an exception"
            wall += time.perf_counter() - start
            self.attempted += 1
            problem = self._check(key, code)
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{' '.join(argv[:1])} {key} "
                                     f"({'pooled' if pooled else 'deterministic'}): "
                                     f"{problem}")
        return wall

    def _check(self, key: str, code) -> str | None:
        if code != 0:
            return f"exited with {code}"
        got = self.workload.outcome(self.work, key)
        problem = workloads.mismatch(self.pinned.get(key), got)
        if problem is not None:
            return problem
        first = self.reference.setdefault(key, got)
        if got != first:
            return "differs from the first deterministic pass"
        return None


def rounds(seconds: float):
    """Yield once per round of passes, at least once, and stop before a round
    as long as the last one would end past `seconds`."""
    start = time.perf_counter()
    last = 0.0
    while True:
        began = time.perf_counter()
        yield
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    instance = workloads.instance_of(args.seed)
    work = Path(args.work)
    tracer = spans.Tracer() if args.trace_out else None

    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
    workload.setup(cli, work, instance, args.tiny)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    pins = workloads.load_pins()[args.workload]
    modes = (False, True) if workload.has_pooled_mode else (False,)
    warm = Runner(workload, work / "warmup", instance, pins["tiny"][str(instance)])
    workload.setup(cli, warm.work, instance, tiny=True)
    warmup = sum(warm.run_pass(pooled) for pooled in modes)
    runner = Runner(workload, work, instance,
                    pins["tiny" if args.tiny else "full"][str(instance)])
    result: dict = {}

    if tracer is None:
        passes: dict[bool, list[float]] = {pooled: [] for pooled in modes}
        for _ in rounds(args.seconds):
            for pooled in modes:
                passes[pooled].append(runner.run_pass(pooled))
        result["passes"] = {"deterministic": passes[False],
                            "pooled": passes[modes[-1]]}
    else:
        untraced, traced, phases = [], [], []
        for _ in rounds(args.seconds):
            untraced.append(runner.run_pass(pooled=False))
            phases.append(f"pass{len(phases)}")
            tracer.phase = phases[-1]
            tracer.install()
            traced.append(runner.run_pass(pooled=False))
            tracer.uninstall()
        pooled_wall = None
        if workload.has_pooled_mode:
            tracer.phase = "pooled"
            tracer.install()
            pooled_wall = runner.run_pass(pooled=True)
            tracer.uninstall()
        tracer.write(Path(args.trace_out))
        result["layers"] = spans.layer_metrics(
            tracer, "setup", phases, "pooled", traced_walls=traced,
            untraced_walls=untraced, pooled_wall=pooled_wall,
            workers=int(os.environ.get("CDIL_THREADS", "1")))

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update(
        warmup_s=warmup,
        attempted=warm.attempted + runner.attempted,
        failed=warm.failed + runner.failed,
        problems=warm.problems + runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"},
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
