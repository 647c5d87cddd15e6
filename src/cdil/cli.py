"""Command-line surface: run, synth, split, report.

`run` reads a JSON config file; flags override individual fields. The config
mirrors ExperimentConfig:

    {
      "protocol": "slcv",
      "k": 5,
      "seed": 7,
      "learner": {"variant": "prototype", "ridge_lambda": 1.0},
      "data": {"synthetic": { ...SynthSpec fields... }},
      "out": "results/run1",
      "deterministic": false
    }

`data` holds either `"synthetic"` (a SynthSpec object) or `"manifest"` (a
path, resolved relative to the config file). Every run is sequential and
bit-reproducible; `--deterministic` is accepted and only recorded in the
report's config echo.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .core import DataLoadError
from .learners import LearnerConfig
from .pipeline import ExperimentConfig, build_sequence, partition_sequence, run_experiment
from .interface import (format_report_table, json_object, read_json, reaggregate_trials,
                        write_report, write_stream)
from .synth import SynthSpec, generate_stream


def _learner_config_from(data: dict) -> tuple[str, LearnerConfig]:
    data = dict(data)
    variant = data.pop("variant", "finetune")
    allowed = {f.name for f in dataclass_fields(LearnerConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise DataLoadError(f"unknown learner option(s): {sorted(unknown)}",
                            field="learner")
    return variant, LearnerConfig(**data)


def config_from_file(path: str | Path, overrides: argparse.Namespace | None = None
                     ) -> ExperimentConfig:
    path = Path(path)
    data = json_object(read_json(path), path)
    variant, learner_cfg = _learner_config_from(
        json_object(data.get("learner", {}), path, "learner"))
    data_section = json_object(data.get("data", {}), path, "data")
    synth = None
    manifest = None
    if "synthetic" in data_section:
        synth = SynthSpec.from_dict(
            json_object(data_section["synthetic"], path, "data.synthetic"))
    if "manifest" in data_section:
        if not isinstance(data_section["manifest"], str):
            raise DataLoadError("must be a path string", path=path, field="data.manifest")
        manifest = (path.parent / data_section["manifest"]).resolve()
    if data.get("out") is not None and not isinstance(data["out"], str):
        raise DataLoadError("must be a path string", path=path, field="out")
    cfg_kwargs = dict(
        protocol=data.get("protocol", "slcv"),
        k=data.get("k", 5),
        learner=variant,
        learner_config=learner_cfg,
        seed=data.get("seed", 0),
        synth=synth,
        manifest=manifest,
        out=data.get("out"),
        deterministic=data.get("deterministic", False),
    )
    if overrides is not None:
        if getattr(overrides, "protocol", None):
            cfg_kwargs["protocol"] = overrides.protocol
        if getattr(overrides, "k", None) is not None:
            cfg_kwargs["k"] = overrides.k
        if getattr(overrides, "learner", None):
            cfg_kwargs["learner"] = overrides.learner
        if getattr(overrides, "seed", None) is not None:
            cfg_kwargs["seed"] = overrides.seed
        if getattr(overrides, "out", None):
            cfg_kwargs["out"] = overrides.out
        if getattr(overrides, "deterministic", False):
            cfg_kwargs["deterministic"] = True
    return ExperimentConfig(**cfg_kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config, overrides=args)
    report = run_experiment(cfg)
    sys.stderr.write(format_report_table(report))
    if cfg.out is not None:
        sys.stderr.write(f"report written to {Path(cfg.out) / 'report.json'}\n")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec_data = json_object(read_json(args.spec), args.spec) if args.spec else {}
    if args.seed is not None:
        spec_data["seed"] = args.seed
    spec = SynthSpec.from_dict(spec_data)
    seq = generate_stream(spec)
    manifest_path = write_stream(seq, args.out)
    sys.stderr.write(
        f"wrote {seq.n} sessions, {sum(s.size for s in seq.sessions)} samples "
        f"to {manifest_path}\n")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config, overrides=args)
    seq = build_sequence(cfg)
    assignments = partition_sequence(seq, cfg.k, cfg.seed, cfg.protocol)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session", "sample_id", "subject_id", "fold"])
        for session, assignment in zip(seq.sessions, assignments):
            for sample_id, subject_id, fold in zip(session.sample_ids, session.subject_ids,
                                                   assignment.folds.tolist()):
                writer.writerow([session.session_index, sample_id, subject_id, fold])
    sys.stderr.write(f"fold assignments written to {out_path}\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = reaggregate_trials(args.run_dir)
    sys.stdout.write(format_report_table(report))
    if args.out:
        write_report(report, args.out)
        sys.stderr.write(f"re-aggregated report written to {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdil",
        description="Composite class-domain incremental learning benchmark engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--protocol", choices=["slcv", "ilcv"])
    run.add_argument("--k", type=int)
    run.add_argument("--learner", choices=["finetune", "prototype"])
    run.add_argument("--seed", type=int)
    run.add_argument("--deterministic", action="store_true")
    run.add_argument("--out")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic stream as manifest+CSV")
    synth.add_argument("--spec", help="JSON file of generator fields (defaults if omitted)")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_synth)

    split = sub.add_parser("split", help="emit fold assignments as CSV")
    split.add_argument("--config", required=True)
    split.add_argument("--protocol", choices=["slcv", "ilcv"])
    split.add_argument("--k", type=int)
    split.add_argument("--seed", type=int)
    split.add_argument("--out", required=True)
    split.set_defaults(func=_cmd_split)

    report = sub.add_parser("report", help="re-aggregate per-trial JSONs from a run directory")
    report.add_argument("--in", dest="run_dir", required=True)
    report.add_argument("--out")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataLoadError, ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
