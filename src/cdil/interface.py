"""Data ingestion and results emission.

Interchange formats, chosen to be bit-exactly documentable:

* Manifest — a JSON object whose keys are the fields of `Manifest`: `name`,
  `feature_dim`, optional `shared_subjects` (default false), and an ordered
  `sessions` list of objects whose keys are the fields of `SessionEntry`:
  `name`, `label_names`, `features_path`, optional `year` and
  `min_samples_per_class`. Both dataclasses check their own fields, so an
  unknown, missing or wrongly typed key fails naming the file and field.
  Session order is the incremental order; `features_path` is resolved
  relative to the manifest file.

* Feature file — UTF-8 CSV with header `sample_id,subject_id,label,f0,...,
  f{d-1}`. A feature value is an ASCII float literal as `float` reads it:
  `.` decimal separator, no thousands or `_` separators, no non-ASCII digit
  or space. Floats are written with `repr`, so a write/load round-trip
  reproduces values exactly. The records are checked in file order and the
  first fault is worded, naming the file, line and field. A line with no
  `"`, NUL or bare CR, as `write_stream` writes every line, is split at its
  commas, and a strict `csv.reader` reads the rest from any other line on, so
  an unclosed quote or text after a closing quote is refused. Each file
  is read once; one `np.loadtxt` call parses the value texts of its rows. A
  load with `values=False` (`cdil split`) checks every record and the syntax
  of its value text but parses no value, so it refuses no non-finite value
  and no value that only `float` refuses.

* Report — `report.json` (full-precision machine output plus the config
  echo), `report.txt` (a one-row human table: per-session means, average
  and final accuracy in percent to two decimals), and `trials/trial_N.json`
  per trial for re-aggregation. Both JSON records are read back as manifests
  are, through `ExperimentReport` and `TrialResult`, whose checks name the
  file and field; the keys `to_dict` derives from the fields are skipped.

Unless `shared_subjects` is true, raw subject ids are namespaced per session
(`s{t}:{raw}`): sessions come from distinct datasets, so identical raw ids
in different sessions are different people by default.
"""

from __future__ import annotations

import csv
import errno
import json
import logging
import os
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain, compress
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import (ConfigurationError, DataLoadError, LabelRegistry, ProtocolError, SessionDataset,
                   SessionSequence, check_bool, check_int, check_list, check_names, check_str)
from .metrics import ExperimentReport, TrialResult, aggregate

logger = logging.getLogger(__name__)

FEATURE_HEADER_FIXED = ("sample_id", "subject_id", "label")


@dataclass(frozen=True)
class SessionEntry:
    name: str
    label_names: tuple[str, ...]
    features_path: str
    year: int | None = None
    min_samples_per_class: int = 0

    def __post_init__(self):
        check_str("name", self.name)
        object.__setattr__(self, "label_names", check_names("label_names", self.label_names))
        check_str("features_path", self.features_path)
        if self.year is not None:
            check_int("year", self.year)
        check_int("min_samples_per_class", self.min_samples_per_class, 0)


@dataclass(frozen=True)
class Manifest:
    name: str
    feature_dim: int
    sessions: tuple[SessionEntry, ...]
    shared_subjects: bool = False

    def __post_init__(self):
        check_str("name", self.name)
        check_int("feature_dim", self.feature_dim, 1)
        object.__setattr__(self, "sessions", check_list("sessions", self.sessions, 1))
        check_bool("shared_subjects", self.shared_subjects)

    def registry(self) -> LabelRegistry:
        """Label registry in first-appearance order across the session list."""
        return LabelRegistry(name for entry in self.sessions for name in entry.label_names)


def read_json(path: str | Path):
    """Parse a JSON file; a missing file or bad JSON raises DataLoadError naming
    the file (and the line, for bad JSON)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataLoadError("file not found", path=path) from None
    except json.JSONDecodeError as exc:
        raise DataLoadError(f"not valid JSON: {exc}", path=path, line=exc.lineno) from None
    except UnicodeDecodeError as exc:  # `read` decodes the whole file: `start` is its offset
        raise DataLoadError(f"not valid UTF-8: {exc.reason}", path=path,
                            line=exc.object.count(b"\n", 0, exc.start) + 1) from None
    except OSError as exc:
        raise DataLoadError(f"cannot be read: {exc.strerror or exc}", path=path) from None


def json_object(value, path: str | Path, field: str | None = None) -> dict:
    """`value` if it is a JSON object, else a DataLoadError naming the file and field."""
    if not isinstance(value, dict):
        raise DataLoadError("must be a JSON object", path=path, field=field)
    return value


def known(data, allowed, path: str | Path, field: str | None = None) -> dict:
    """`data` if it is a JSON object whose keys all name a field of the dataclass
    `allowed` (or, for a tuple, one of its names) and that holds every field
    without a default, else a DataLoadError naming the file, the field and the key."""
    names = allowed if isinstance(allowed, tuple) else [f.name for f in fields(allowed)]
    unknown = sorted(set(json_object(data, path, field)) - set(names))
    if unknown:
        raise DataLoadError(f"unknown key(s) {unknown}", path=path, field=field)
    for f in () if isinstance(allowed, tuple) else fields(allowed):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise DataLoadError("missing required field", path=path,
                                field=f"{field}.{f.name}" if field else f.name)
    return data


def read_checked(cls, data, path: str | Path, field: str | None = None):
    """The dataclass `cls` built from the JSON object `data` found at `field` of
    the file `path`; a bad field raises DataLoadError naming the file and the
    field, as `<field>.<name>`."""
    try:
        return cls(**known(data, cls, path, field))
    except ConfigurationError as exc:
        raise DataLoadError(exc.reason, path=path,
                            field=f"{field}.{exc.field}" if field else exc.field) from None
    except ProtocolError as exc:  # a fault across fields, such as invalid counts
        raise DataLoadError(str(exc), path=path, field=field) from None


def load_manifest(path: str | Path) -> Manifest:
    """Read and check a manifest; each `features_path` is resolved relative to
    the manifest and must name a readable file."""
    path = Path(path)
    # `sessions` holds the raw JSON entries until each is read below
    manifest = read_checked(Manifest, read_json(path), path)
    entries: list[SessionEntry] = []
    for i, raw in enumerate(manifest.sessions, start=1):
        where = f"sessions[{i}]"
        entry = read_checked(SessionEntry, raw, path, where)
        if entry.name in {e.name for e in entries}:
            raise DataLoadError(f"duplicate session name {entry.name!r}", path=path,
                                field=f"{where}.name")
        features_path = (path.parent / entry.features_path).resolve()
        if not features_path.is_file():
            raise DataLoadError(f"feature file {features_path} is not readable",
                                path=path, field=f"{where}.features_path")
        entries.append(replace(entry, features_path=str(features_path)))
    return replace(manifest, sessions=tuple(entries))


def load_session_features(entry: SessionEntry, registry: LabelRegistry,
                          feature_dim: int, session_index: int,
                          shared_subjects: bool = False, values: bool = True) -> SessionDataset:
    """Parse one session's feature CSV into a SessionDataset.

    Classes with fewer than `entry.min_samples_per_class` samples are dropped
    from both the samples and the session's label set, with a logged notice.
    With `values` false, every record is checked as ever but no value is parsed,
    and the dataset's features are an (n, 0) matrix.
    """
    path = Path(entry.features_path)
    ids, features = _read_features(path, entry, feature_dim, values)
    if not shared_subjects:
        ids = [(sample_id, f"s{session_index}:{subject_id}", name)
               for sample_id, subject_id, name in ids]

    counts = Counter(name for _, _, name in ids)
    kept_names = [name for name in entry.label_names
                  if counts.get(name, 0) >= entry.min_samples_per_class]
    dropped = [name for name in entry.label_names if name not in kept_names]
    for name in dropped:
        logger.warning("session %s: class %r dropped (%d samples < min %d)",
                       entry.name, name, counts.get(name, 0),
                       entry.min_samples_per_class)
    kept = set(kept_names)
    keep = [name in kept for _, _, name in ids]
    if not any(keep):
        raise DataLoadError("no samples remain after the minimum-count filter", path=path)
    sample_ids, subject_ids, names = zip(*compress(ids, keep))
    return SessionDataset.build(session_index, features[keep],
                                [registry.index_of(name) for name in names],
                                sample_ids, subject_ids,
                                label_set={registry.index_of(name) for name in kept_names})


def _records(fh, path: Path):
    """(first line, fields, field count) of each CSV record in the open feature
    file `fh`. A line with no `"`, NUL or bare CR is split at its first three
    commas, leaving its values one text; `csv.reader` reads from any other line on."""
    for line_no, line in enumerate(fh, start=1):  # a bare CR ends a line too
        if '"' in line or "\0" in line or line.endswith("\r"):
            reader = csv.reader(chain([line], fh), strict=True)
            at = line_no  # the first line of the record read next
            try:
                for fields in reader:
                    yield at, fields, len(fields)
                    at = line_no + reader.line_num
            except csv.Error as exc:
                raise DataLoadError(f"malformed CSV record: {exc}", path=path, line=at) from None
            return
        line = line.rstrip("\r\n")
        yield line_no, line.split(",", 3), line.count(",") + 1 if line else 0


def _read_features(path: Path, entry: SessionEntry, feature_dim: int, values: bool):
    """The (ids, features) of a feature file, read once: only a UTF-8 fault rereads
    the bytes, to count lines. The records are checked in file order up to the first
    fault; a DataLoadError names the file, line and field of a value `float` refuses
    before it, else of the fault, else of the first non-finite row. With `values`
    false no value is parsed, and the features have no columns."""
    columns = feature_dim + 3
    ids: list[tuple[str, str, str]] = []  # (sample id, subject id, label name) per row
    texts: list[str] = []  # the comma-separated values of each row
    lines: list[int] = []  # the first line of each row
    fault = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = _records(fh, path)
            _, header, count = next(records, (1, None, 0))
            if header is None:
                raise DataLoadError("empty feature file", path=path, line=1)
            if count != columns or ",".join(header) != ",".join(
                    [*FEATURE_HEADER_FIXED, *(f"f{i}" for i in range(feature_dim))]):
                raise DataLoadError(
                    "header does not match the documented format" if count == columns else
                    f"header has {count} columns, expected {columns} for feature_dim "
                    f"{feature_dim}", path=path, line=1, field="header")
            seen_ids: set[str] = set()
            for line_no, fields, count in records:
                if count != columns:
                    raise DataLoadError(f"expected {columns} columns, got {count}",
                                        path=path, line=line_no)
                sample_id, subject_id, label_name = fields[:3]
                if sample_id in seen_ids:
                    raise DataLoadError(f"duplicate sample_id {sample_id!r}",
                                        path=path, line=line_no, field="sample_id")
                seen_ids.add(sample_id)
                if label_name not in entry.label_names:
                    raise DataLoadError(
                        f"label {label_name!r} is not declared for session {entry.name!r}",
                        path=path, line=line_no, field="label")
                # `float` reads 1_0 and ١; `np.loadtxt` reads 0x1c-0x1f as spaces,
                # skips a blank text and splits a quoted `,`, which `float` refuses;
                # a blank value is refused here, so a load that parses none refuses it
                text = ",".join(fields[3:])
                if (not text.isascii() or text.count(",") != columns - 4
                        or any(char in text for char in "_\x1c\x1d\x1e\x1f")
                        or ",," in "".join(f",{text},".split())):
                    raise DataLoadError("non-numeric feature value",
                                        path=path, line=line_no, field="features")
                ids.append((sample_id, subject_id, label_name))
                texts.append(text)
                lines.append(line_no)
    except DataLoadError as exc:
        fault = exc
    except UnicodeDecodeError as exc:
        raw = path.read_bytes()  # exc.start counts from the decoder's chunk, not the file
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        fault = DataLoadError(f"not valid UTF-8: {exc.reason}", path=path,
                              line=raw.count(b"\n", 0, exc.start) + 1)
    features = (_values(texts, lines, feature_dim, path) if values and texts
                else np.empty((len(texts), 0)))
    if fault is not None:
        raise fault
    if not ids:
        raise DataLoadError("feature file has no data rows", path=path, line=2)
    non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(non_finite):
        raise DataLoadError("non-finite feature value",
                            path=path, line=lines[non_finite[0]], field="features")
    return ids, features


def _values(texts: list[str], lines: list[int], dim: int, path: Path) -> np.ndarray:
    """The checked rows' values, parsed from their texts by one `np.loadtxt` call or,
    where it refuses one, by `float` row by row, so that a refused value names its line."""
    with suppress(ValueError):
        return np.loadtxt(texts, delimiter=",", comments=None, quotechar=None, ndmin=2)
    values = np.empty((len(texts), dim))
    for row, text, line_no in zip(values, texts, lines):
        try:
            row[:] = list(map(float, text.split(",")))
        except ValueError:
            raise DataLoadError("non-numeric feature value",
                                path=path, line=line_no, field="features") from None
    return values


def load_sequence(manifest: Manifest | str | Path, values: bool = True) -> SessionSequence:
    """The manifest's sessions in order; with `values` false, no feature value is
    parsed and the sequence has no feature columns (`feature_dim` 0)."""
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    registry = manifest.registry()
    sessions = [
        load_session_features(entry, registry, manifest.feature_dim, t,
                              manifest.shared_subjects, values)
        for t, entry in enumerate(manifest.sessions, start=1)
    ]
    return SessionSequence.build(sessions, registry, manifest.feature_dim if values else 0)


# below _MIN_POOL_VALUES feature values, in a new process, a 4-session stream is written
# faster in-process than by the pool, which takes about 15 ms to import and start (median
# of 9 processes, 2-CPU x86: 73 600 values took 45 ms both ways, 88 320 took 52 ms
# in-process and 49 ms by the pool, 29 440 took 17 ms and 28 ms)
_MIN_POOL_VALUES = 80_000
_STREAM: tuple = ()  # (sequence, its sessions, output directory) in a pool worker


def write_stream(seq: SessionSequence, out_dir: str | Path) -> Path:
    """Write a sequence as manifest + per-session CSVs; returns the manifest path.

    Subject ids are emitted as-is and the manifest sets `shared_subjects`, so
    loading reproduces the sequence exactly. Every file is written whole or
    not at all. A stale manifest.json is removed first and the new one is
    written last, so a write cut short leaves no manifest to load. From
    _MIN_POOL_VALUES feature values on, the session CSVs are written by forked
    worker processes, one per CPU and at most one per session, with the bytes
    one process writes; a worker's OSError is raised here, naming its file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    sessions = list(seq.sessions)  # after the unlink: producing them may fail
    workers = min(_cpus(), len(sessions))
    if workers > 1 and sum(session.features.size for session in sessions) >= _MIN_POOL_VALUES:
        import multiprocessing  # here, so that no other command pays for the import

        # fork, not spawn: workers share the stream through the initializer, so nothing
        # is pickled but a session's index and its manifest entry. cdil starts no thread:
        # the only other threads are OpenBLAS's, and a worker makes no BLAS call
        with multiprocessing.get_context("fork").Pool(
                workers, _share, (seq, sessions, out_dir)) as pool:
            session_entries = pool.map(_write_shared, range(len(sessions)), chunksize=1)
    else:
        session_entries = [_write_session(seq, session, out_dir) for session in sessions]
    with replace_file(manifest_path) as fh:
        json.dump({
            "name": "synthetic",
            "feature_dim": seq.feature_dim,
            "shared_subjects": True,
            "sessions": session_entries,
        }, fh, indent=2)
        fh.write("\n")
    return manifest_path


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(*stream) -> None:
    global _STREAM
    _STREAM = stream


def _write_shared(index: int) -> dict:
    seq, sessions, out_dir = _STREAM
    return _write_session(seq, sessions[index], out_dir)


def _write_session(seq: SessionSequence, session: SessionDataset, out_dir: Path) -> dict:
    """Write one session's CSV into `out_dir`; returns its manifest entry."""
    # the text of one CSV record, terminator included: only the ids may need
    # quoting, as a float's `repr` holds no `,`, `"` or line break
    record = csv.writer(SimpleNamespace(write=str)).writerow
    csv_name = f"session_{session.session_index}.csv"
    with replace_file(out_dir / csv_name) as fh:
        fh.write(record(list(FEATURE_HEADER_FIXED) + [f"f{i}" for i in range(seq.feature_dim)]))
        for sample_id, subject_id, label, row in zip(
                session.sample_ids, session.subject_ids, session.labels.tolist(),
                session.features):
            ids = record([sample_id, subject_id, seq.registry.name_of(label)])
            fh.write(f"{ids[:-2]},{','.join(map(repr, row.tolist()))}\r\n")
    # class-index order preserves the registry's first-appearance order
    # across a write -> load round trip
    return {"name": f"session_{session.session_index}",
            "label_names": [seq.registry.name_of(c) for c in sorted(session.label_set)],
            "features_path": csv_name}


def format_report_table(report: ExperimentReport) -> str:
    """Human table: per-session mean accuracies, then Ā and Ã, in percent."""
    n = report.n_sessions
    learner = report.config.get("learner", {}).get("variant", "learner")
    protocol = report.config.get("protocol", "?")
    headers = ["Method"] + [f"Session {i}" for i in range(1, n + 1)] + ["Ā", "Ã"]
    values = ([f"{learner}/{protocol}"]
              + [f"{100 * a:.2f}" for a in report.mean_per_session]
              + [f"{100 * report.mean_average:.2f}", f"{100 * report.mean_final:.2f}"])
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    header_line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    value_line = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return header_line + "\n" + value_line + "\n"


@contextmanager
def replace_file(path: Path):
    """A UTF-8 text handle on a temporary file beside `path`, renamed into place
    when the block ends without an exception, so `path` never holds a partial
    write. Line ends are written as given."""
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        with open(temporary, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def _write_json(path: Path, record: dict) -> None:
    with replace_file(path) as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def check_report_dir(out_dir: str | Path) -> None:
    """Raise the NotADirectoryError, naming `out_dir`/trials, that `write_report`
    would meet making it where a file stands; create nothing."""
    trials_dir = Path(out_dir) / "trials"
    existing = next(path for path in (trials_dir, *trials_dir.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(trials_dir))


def write_report(report: ExperimentReport, out_dir: str | Path) -> Path:
    """Emit per-trial JSONs, report.txt and report.json; returns the JSON path.

    Every file is written whole or not at all. A stale report.json is removed
    first and the new one is written last, so a run cut short leaves no
    report.json, and `cdil report` refuses its directory. Stale trial files,
    such as those of an earlier run with a larger k, are removed too.
    """
    out_dir = Path(out_dir)
    trials_dir = out_dir / "trials"
    trials_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.unlink(missing_ok=True)
    for stale in trials_dir.glob("trial_*.json"):
        stale.unlink()
    for trial in report.trials:
        _write_json(trials_dir / f"trial_{trial.trial_index}.json", trial.to_dict())
    with replace_file(out_dir / "report.txt") as fh:
        fh.write(format_report_table(report))
    _write_json(report_path, report.to_dict())
    return report_path


def _read_record(cls, data, path: Path, field: str | None = None):
    """`read_checked`, skipping the keys `cls.to_dict` derives from the fields."""
    if isinstance(data, dict):
        data = {key: value for key, value in data.items() if key not in cls.DERIVED}
    return read_checked(cls, data, path, field)


def load_report(path: str | Path) -> ExperimentReport:
    # `trials` holds the raw JSON entries until each is read below
    report = _read_record(ExperimentReport, read_json(path), path)
    return replace(report, trials=tuple(_read_record(TrialResult, raw, path, f"trials[{i}]")
                                        for i, raw in enumerate(report.trials, start=1)))


def reaggregate_trials(run_dir: str | Path) -> ExperimentReport:
    """Rebuild an aggregate report from `trials/trial_*.json` under `run_dir`.

    The trial files must hold exactly trial indices 1..k, with k from the
    config echo in `report.json`: a partial fold average is never reported.
    """
    run_dir = Path(run_dir)
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise ProtocolError(f"{report_path} not found; it records the fold count k")
    recorded = load_report(report_path)
    k = recorded.config.get("k", recorded.k)
    trials_dir = run_dir / "trials"
    trials = [_read_record(TrialResult, read_json(p), p)
              for p in sorted(trials_dir.glob("trial_*.json"))]
    indices = sorted(t.trial_index for t in trials)
    if len(indices) != k or indices != list(range(1, k + 1)):
        raise ProtocolError(f"{trials_dir}: expected trial files 1..{k}, found {indices}")
    return aggregate(trials, config=recorded.config, expect_k=k)
