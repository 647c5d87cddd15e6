"""The benchmark's workloads: inputs made from the seed, the `cdil` commands of
one pass, and the pinned outputs every command is checked against.

A workload seed selects one of `INSTANCES` input instances (seed mod
INSTANCES). Each instance's outputs were pinned from the seed commit into
`pins.json` by `pin.py`, so every command of every pass is checked exactly,
whatever seed the benchmark is given.

Every pass goes through `cdil.cli.main`, the way a user drives the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

INSTANCES = 16
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# Ā and Ã are means of exact integer ratios; a changed summation order may
# move them in the last bits without any count changing.
ACCURACY_ATOL = 1e-12


class GridWorkload:
    """`cdil run` of one learner, k=5, under SLCV and then ILCV, on a stream
    written once during set-up: `SynthSpec` defaults with 20 samples per class
    per session (4 sessions, 460 samples, d=64, 9 classes). The criterion-11
    stream (100 per class) makes a pass of 4-12 s, too few passes for a steady
    median in one run on a small shared host."""

    protocols = ("slcv", "ilcv")
    # `cdil run` has a pooled mode: the trial thread pool.
    has_pooled_mode = True

    def __init__(self, name: str, learner: str, why: str):
        self.name = name
        self.learner = learner
        self.why = why

    def spec(self, tiny: bool) -> dict:
        if tiny:
            return {"samples_per_class_per_session": 20, "feature_dim": 8}
        return {"samples_per_class_per_session": 20}

    def setup(self, cli, work: Path, instance: int, tiny: bool) -> None:
        work.mkdir(parents=True, exist_ok=True)
        _write_json(work / "spec.json", self.spec(tiny))
        _write_json(work / "config.json", {
            "k": 5, "seed": instance, "data": {"manifest": "stream/manifest.json"}})
        _run_checked(cli, ["synth", "--spec", str(work / "spec.json"),
                           "--seed", str(instance), "--out", str(work / "stream")])

    def commands(self, work: Path, instance: int,
                 pooled: bool) -> list[tuple[str, list[str]]]:
        out = []
        for protocol in self.protocols:
            argv = ["run", "--config", str(work / "config.json"), "--learner", self.learner,
                    "--protocol", protocol, "--out", str(work / "out" / protocol)]
            if not pooled:
                argv.append("--deterministic")
            out.append((protocol, argv))
        return out

    def outcome(self, work: Path, key: str) -> dict:
        """Per-trial counts and Ā/Ã of one command's report.json.

        The raw report is not compared: it echoes the absolute manifest path
        and the `deterministic` flag, which differ between directories and modes.
        """
        with open(work / "out" / key / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        trials = sorted(report["trials"], key=lambda t: t["trial_index"])
        return {
            "trial_index": [t["trial_index"] for t in trials],
            "correct": [t["correct"] for t in trials],
            "total": [t["total"] for t in trials],
            "mean_average": report["mean_average"],
            "mean_final": report["mean_final"],
        }


class IngestWorkload:
    """`cdil synth` of a wide stream, then `cdil split` under SLCV and ILCV.
    Set-up only writes the two small JSON inputs; nothing trains."""

    name = "ingest-wide"
    why = ("rng normals, CSV writing and CSV reading on a wide stream; learners and "
           "rch never run, so learner changes must not move it")
    protocols = ("slcv", "ilcv")
    # synth and split have no pooled mode: both modes would run the same commands.
    has_pooled_mode = False

    def spec(self, instance: int, tiny: bool) -> dict:
        rng = random.Random(instance)
        classes = [f"c{i:02d}" for i in range(16)]
        label_sets = [sorted(rng.sample(classes, 8)) for _ in range(8)]
        if tiny:
            return {"session_label_sets": label_sets, "feature_dim": 16,
                    "samples_per_class_per_session": 20, "subjects_per_session": 10}
        return {"session_label_sets": label_sets, "feature_dim": 256,
                "samples_per_class_per_session": 25, "subjects_per_session": 40}

    def setup(self, cli, work: Path, instance: int, tiny: bool) -> None:
        work.mkdir(parents=True, exist_ok=True)
        _write_json(work / "spec.json", self.spec(instance, tiny))
        _write_json(work / "config.json", {
            "k": 5, "seed": instance, "data": {"manifest": "stream/manifest.json"}})

    def commands(self, work: Path, instance: int,
                 pooled: bool) -> list[tuple[str, list[str]]]:
        out = [("stream", ["synth", "--spec", str(work / "spec.json"),
                           "--seed", str(instance), "--out", str(work / "stream")])]
        for protocol in self.protocols:
            out.append((protocol, ["split", "--config", str(work / "config.json"),
                                   "--protocol", protocol,
                                   "--out", str(work / f"folds_{protocol}.csv")]))
        return out

    def outcome(self, work: Path, key: str) -> dict:
        if key == "stream":
            stream = work / "stream"
            files = ["manifest.json"] + sorted(
                p.name for p in stream.glob("session_*.csv"))
            return {"sha256": _digest([stream / f for f in files])}
        return {"sha256": _digest([work / f"folds_{key}.csv"])}


WORKLOADS = {w.name: w for w in (
    GridWorkload("finetune-grid", "finetune",
                 "the finetune SGD step loop: loss and gradients, a head remap per step "
                 "and per-epoch shuffles; no prototype statistics"),
    GridWorkload("prototype-grid", "prototype",
                 "per-sample prototype statistics, the per-trial projection draw and "
                 "ridge solves; no SGD steps and almost no remaps"),
    IngestWorkload(),
)}


def instance_of(seed: int) -> int:
    return seed % INSTANCES


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mismatch(expected: dict | None, got: dict) -> str | None:
    """Why `got` differs from the pinned `expected`, or None when it matches."""
    if expected is None:
        return "no pinned outcome for this instance"
    for key, want in expected.items():
        have = got.get(key)
        if key in ("mean_average", "mean_final"):
            if have is None or abs(have - want) > ACCURACY_ATOL:
                return f"{key} is {have!r}, pinned {want!r}"
        elif have != want:
            return f"{key} is {have!r}, pinned {want!r}"
    return None


def _run_checked(cli, argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cdil {' '.join(argv)} exited with {code}")


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8"))
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()
