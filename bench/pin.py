"""Pin the outcome of every workload instance, from the current commit, into
pins.json.

    python3 bench/pin.py

The benchmark counts every command whose outcome differs from its pin as
failed. Re-pin only with a change that is meant to alter the outputs, and
give the reason in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil

import workloads
from worker import ROOT, cli


def pin_instance(workload, work, instance: int, tiny: bool) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    workload.setup(cli, work, instance, tiny)
    outcomes = {}
    for key, argv in workload.commands(work, instance, pooled=False):
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"cdil {' '.join(argv)} exited with {code}")
        outcomes[key] = workload.outcome(work, key)
    return outcomes


def main() -> int:
    pins: dict = {}
    work = ROOT / ".perfbench" / "pin"
    try:
        for name in sorted(workloads.WORKLOADS):
            for size in ("tiny", "full"):
                table = pins.setdefault(name, {}).setdefault(size, {})
                for instance in range(workloads.INSTANCES):
                    table[str(instance)] = pin_instance(
                        workloads.WORKLOADS[name], work, instance, size == "tiny")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
