"""Command-line surface: run, synth, split, report.

`run` reads a JSON config file; flags override individual fields. Every key but
`data` is optional, with the defaults of ExperimentConfig, LearnerConfig and SynthSpec:

    {
      "protocol": "slcv",
      "k": 5,
      "seed": 7,
      "learner": {"variant": "prototype", "ridge_lambda": 1.0},
      "data": {"synthetic": { ...SynthSpec fields... }},
      "out": "results/run1",
      "deterministic": false
    }

`learner` holds `variant` and any LearnerConfig field. `data` holds either
`"synthetic"` (SynthSpec fields) or `"manifest"` (a path, resolved relative to
the config file). An unknown key at any level exits 2 naming the file, field
and key; a wrongly typed value, a non-boolean `deterministic` included, exits 2
naming the file and the field. The file must be valid before flags override it.
Every run is sequential and bit-reproducible; `--deterministic` only sets the
echoed flag.

`split` deals folds from the sample ids, subject ids and labels alone: it checks
every record of a manifest's feature files but parses no feature value, so a
value that is not finite or not a float stops `run` and not `split`.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .core import ConfigurationError, DataLoadError
from .learners import VARIANTS, LearnerConfig
from .pipeline import ExperimentConfig, build_sequence, partition_sequence, run_experiment
from .interface import (format_report_table, json_object, known, read_checked, read_json,
                        reaggregate_trials, replace_file, write_report, write_stream)
from .splitters import MODES
from .synth import SynthSpec, generate_stream

CONFIG_KEYS = ("protocol", "k", "seed", "learner", "data", "out", "deterministic")


def config_from_file(path: str | Path, **overrides) -> ExperimentConfig:
    """The ExperimentConfig a JSON config file describes, each of whose fields
    must be valid; then each keyword override that is not None replaces the
    field of that name. A bad field value in the file names the file."""
    path = Path(path)
    top = dict(known(read_json(path), CONFIG_KEYS, path))
    learner = dict(json_object(top.pop("learner", {}), path, "learner"))
    if "variant" in learner:
        top["learner"] = learner.pop("variant")
        if top["learner"] not in VARIANTS:
            raise DataLoadError(f"must be one of {VARIANTS}, got {top['learner']!r}",
                                path=path, field="learner.variant")
    source = known(top.pop("data", {}), ("synthetic", "manifest"), path, "data")
    if "manifest" in source:
        if not isinstance(source["manifest"], str):
            raise DataLoadError("must be a path string", path=path, field="data.manifest")
        top["manifest"] = (path.parent / source["manifest"]).resolve()
    if top.get("out") is not None and not isinstance(top["out"], str):
        raise DataLoadError("must be a path string", path=path, field="out")
    if "synthetic" in source:
        top["synth"] = read_checked(SynthSpec, source["synthetic"], path, "data.synthetic")
    top["learner_config"] = read_checked(LearnerConfig, learner, path, "learner")
    cfg = read_checked(ExperimentConfig, top, path)
    return replace(cfg, **{name: value for name, value in overrides.items() if value is not None})


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config, protocol=args.protocol, k=args.k, learner=args.learner,
                           seed=args.seed, out=args.out,
                           deterministic=args.deterministic or None)
    report = run_experiment(cfg)
    sys.stderr.write(format_report_table(report))
    if cfg.out is not None:
        sys.stderr.write(f"report written to {Path(cfg.out) / 'report.json'}\n")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = read_checked(SynthSpec, read_json(args.spec), args.spec) if args.spec else SynthSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    seq = generate_stream(spec)
    manifest_path = write_stream(seq, args.out)
    sys.stderr.write(
        f"wrote {seq.n} sessions, {sum(s.size for s in seq.sessions)} samples "
        f"to {manifest_path}\n")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    cfg = config_from_file(args.config, protocol=args.protocol, k=args.k, seed=args.seed)
    seq = build_sequence(cfg, values=False)  # folds depend on ids and labels alone
    partitions = partition_sequence(seq, cfg.k, cfg.seed, cfg.protocol)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with replace_file(out_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["session", "sample_id", "subject_id", "fold"])
        for session, folds in zip(seq.sessions, partitions):
            for sample_id, subject_id, fold in zip(session.sample_ids, session.subject_ids,
                                                   folds.tolist()):
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
    run.add_argument("--protocol", choices=MODES)
    run.add_argument("--k", type=int)
    run.add_argument("--learner", choices=VARIANTS)
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
    split.add_argument("--protocol", choices=MODES)
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
        if args.out == "":
            raise ConfigurationError("must name a path, got ''", "--out")
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:  # such as an output path that is a file where a directory goes
        # a failed rename names its target second
        path = exc.filename2 if exc.filename2 is not None else exc.filename
        sys.stderr.write(f"error: {path}: {exc.strerror}\n" if path is not None
                         else f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
