import csv
import hashlib
import json
import multiprocessing
import os
import random
import re
import shutil
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdil import interface
from cdil.cli import CONFIG_KEYS, config_from_file, main as cli_main
from cdil.core import DataLoadError, ProtocolError
from cdil.interface import (Manifest, SessionEntry, format_report_table, load_manifest,
                            load_report, load_sequence, reaggregate_trials, write_report,
                            write_stream)
from cdil.learners import LearnerConfig
from cdil.metrics import TrialResult, aggregate
from cdil.synth import SynthSpec, generate_stream


def write_feature_csv(path, dim, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "subject_id", "label"] + [f"f{i}" for i in range(dim)])
        for row in rows:
            writer.writerow(row)


def write_manifest(path, sessions, dim=2, shared_subjects=False, name="toy"):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": name, "feature_dim": dim,
                   "shared_subjects": shared_subjects, "sessions": sessions}, fh)


@pytest.fixture()
def toy_dataset(tmp_path):
    write_feature_csv(tmp_path / "s1.csv", 2, [
        ["a1", "p1", "calm", "0.5", "1.5"],
        ["a2", "p1", "tense", "-1.0", "2.0"],
        ["a3", "p2", "calm", "0.25", "0.125"],
    ])
    write_feature_csv(tmp_path / "s2.csv", 2, [
        ["b1", "p1", "tense", "3.0", "4.0"],
        ["b2", "p3", "alert", "5.0", "6.0"],
    ])
    manifest_path = tmp_path / "manifest.json"
    write_manifest(manifest_path, [
        {"name": "first", "year": 2014, "label_names": ["calm", "tense"],
         "features_path": "s1.csv"},
        {"name": "second", "label_names": ["tense", "alert"], "features_path": "s2.csv"},
    ])
    return manifest_path


class TestLoadManifest:
    def test_registry_in_first_appearance_order(self, toy_dataset):
        manifest = load_manifest(toy_dataset)
        assert manifest.registry().names == ("calm", "tense", "alert")
        assert manifest.feature_dim == 2
        assert manifest.sessions[0].year == 2014
        assert manifest.sessions[1].year is None

    def test_default_stream_manifest_registry_size(self, tmp_path):
        seq = generate_stream(SynthSpec(seed=4, samples_per_class_per_session=2,
                                        subjects_per_session=7))
        manifest = load_manifest(write_stream(seq, tmp_path / "stream"))
        assert len(manifest.registry()) == 9
        loaded = load_sequence(manifest)
        assert [len(loaded.cumulative_label_space(t)) for t in range(1, 5)] == [5, 7, 9, 9]

    def test_single_session_manifest_valid(self, tmp_path):
        write_feature_csv(tmp_path / "only.csv", 1, [["x", "p", "solo", "1.0"]])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "only", "label_names": ["solo"],
                               "features_path": "only.csv"}], dim=1)
        assert load_manifest(path).sessions[0].name == "only"

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(path, [{"label_names": ["a"], "features_path": "x.csv"}])
        with pytest.raises(DataLoadError, match="sessions\\[1\\].name"):
            load_manifest(path)

    def test_duplicate_session_names_rejected(self, tmp_path):
        write_feature_csv(tmp_path / "s.csv", 2, [["x", "p", "a", "1", "2"]])
        path = tmp_path / "m.json"
        write_manifest(path, [
            {"name": "dup", "label_names": ["a"], "features_path": "s.csv"},
            {"name": "dup", "label_names": ["a"], "features_path": "s.csv"},
        ])
        with pytest.raises(DataLoadError, match="duplicate session name"):
            load_manifest(path)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_shared_subjects_must_be_a_boolean(self, tmp_path, value):
        write_feature_csv(tmp_path / "s.csv", 2, [["x", "p", "a", "1", "2"]])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"], "features_path": "s.csv"}],
                       shared_subjects=value)
        with pytest.raises(DataLoadError, match=r"m\.json: field 'shared_subjects'"):
            load_manifest(path)

    @pytest.mark.parametrize("value", [["x"], 3, None])
    def test_session_name_must_be_a_string(self, tmp_path, value):
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": value, "label_names": ["a"], "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match=r"m\.json: field 'sessions\[1\]\.name'"):
            load_manifest(path)

    @pytest.mark.parametrize("field,edit", [
        ("sessions[1]", lambda m: m.update(sessions=[3])),
        ("sessions[1].features_path", lambda m: m["sessions"][0].update(features_path=3)),
        ("sessions[1].year", lambda m: m["sessions"][0].update(year="nineteen")),
        ("sessions[1].label_names", lambda m: m["sessions"][0].update(label_names=[1, 2])),
        ("name", lambda m: m.update(name=["x"])),
        ("feature_dim", lambda m: m.update(feature_dim=True)),
    ])
    def test_wrongly_typed_field_named(self, toy_dataset, field, edit):
        manifest = json.loads(toy_dataset.read_text(encoding="utf-8"))
        edit(manifest)
        toy_dataset.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DataLoadError) as raised:
            load_sequence(toy_dataset)
        assert str(raised.value).startswith(f"{toy_dataset}: field '{field}': must be")

    @pytest.mark.parametrize("where,reason,edit", [
        ("", "unknown key(s) ['shared_subject']",
         lambda m: m.update(shared_subject=False)),
        ("field 'sessions[1]': ", "unknown key(s) ['min_sample_per_class']",
         lambda m: m["sessions"][0].update(min_sample_per_class=99)),
        ("field 'sessions[2]': ", "unknown key(s) ['yaer']",
         lambda m: m["sessions"][1].update(yaer=2015)),
        ("field 'feature_dim': ", "missing required field", lambda m: m.pop("feature_dim")),
    ])
    def test_unknown_or_missing_key_named(self, toy_dataset, where, reason, edit):
        manifest = json.loads(toy_dataset.read_text(encoding="utf-8"))
        edit(manifest)
        toy_dataset.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DataLoadError) as raised:
            load_sequence(toy_dataset)
        assert str(raised.value) == f"{toy_dataset}: {where}{reason}"

    def test_readme_lists_exactly_the_manifest_and_session_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        manifest_part = readme.split("* manifest keys:", 1)[1].split("* session keys:", 1)[0]
        session_part = readme.split("* session keys:", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"`(\w+)`", manifest_part)) == {f.name for f in fields(Manifest)}
        assert set(re.findall(r"`(\w+)`", session_part)) == {f.name for f in fields(SessionEntry)}

    def test_unreadable_feature_path_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "x", "label_names": ["a"],
                               "features_path": "missing.csv"}])
        with pytest.raises(DataLoadError, match="features_path"):
            load_manifest(path)


def json_kind(value):
    return type(value).__name__  # bool, int, float, str, list, dict or NoneType


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def written_stream(tmp_path_factory):
    seq = generate_stream(SynthSpec(session_label_sets=(("a", "b"), ("b", "c")),
                                    feature_dim=3, samples_per_class_per_session=3,
                                    subjects_per_session=3, seed=8))
    return write_stream(seq, tmp_path_factory.mktemp("fuzz") / "stream")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_manifest_loads_or_names_the_manifest(written_stream, data):
    """A manifest from `write_stream`, with the optional session fields added, in
    which one top-level field, one session entry or one session field holds a
    value of another JSON type: loading succeeds or raises DataLoadError
    naming the manifest, and nothing else."""
    manifest = json.loads(written_stream.read_text(encoding="utf-8"))
    for entry in manifest["sessions"]:
        entry.update(year=2014, min_samples_per_class=0)
    targets = [(manifest, key) for key in manifest]
    targets += [(manifest["sessions"], i) for i in range(len(manifest["sessions"]))]
    targets += [(entry, key) for entry in manifest["sessions"] for key in entry]
    owner, key = data.draw(st.sampled_from(targets))
    original = json_kind(owner[key])
    owner[key] = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != original))
    path = written_stream.with_name("fuzzed.json")
    path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        load_sequence(path)
    except DataLoadError as exc:
        assert str(exc).startswith(f"{path}: ")


MUTATIONS = ("truncate", "extend", "insert", "blank", "replace", "drop", "duplicate")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_feature_csv_loads_or_names_the_csv(written_stream, data):
    """A feature CSV from `write_stream` with one line (the header or a row)
    truncated or extended; a `"`, a NUL or a non-UTF-8 byte inserted; blanked;
    or one column renamed, replaced with text or `nan`, dropped or duplicated:
    loading succeeds or raises DataLoadError naming the CSV, and nothing else."""
    manifest = json.loads(written_stream.read_text(encoding="utf-8"))
    entry = data.draw(st.sampled_from(manifest["sessions"]))
    lines = (written_stream.parent / entry["features_path"]).read_bytes().split(b"\r\n")
    i = data.draw(st.integers(0, len(lines) - 2))  # the last item follows the final newline
    cells = lines[i].split(b",")
    j = data.draw(st.integers(0, len(cells) - 1))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    if mutation == "truncate":
        cells = cells[:j]
    elif mutation == "extend":
        cells.append(b"1.0")
    elif mutation == "insert":
        byte = data.draw(st.sampled_from([b'"', b"\x00", b"\xe9"]))
        k = data.draw(st.integers(0, len(cells[j])))
        cells[j] = cells[j][:k] + byte + cells[j][k:]
    elif mutation == "blank":
        cells = []
    elif mutation == "replace":
        cells[j] = data.draw(st.sampled_from([b"renamed", b"text", b"nan"]))
    elif mutation == "drop":
        del cells[j]
    else:
        cells.insert(j, cells[j])
    lines[i] = b",".join(cells)
    csv_path = written_stream.with_name("mutated.csv")
    csv_path.write_bytes(b"\r\n".join(lines))
    entry["features_path"] = csv_path.name
    path = written_stream.with_name("mutated.json")
    path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        load_sequence(path)
    except DataLoadError as exc:
        assert str(exc).startswith(f"{csv_path.resolve()}: ")


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    trials = [TrialResult(trial_index=i, correct=(3 + i, 40), total=(10, 50)) for i in (1, 2, 3)]
    report = aggregate(trials, config={"protocol": "slcv", "k": 3,
                                       "learner": {"variant": "prototype"}})
    return write_report(report, tmp_path_factory.mktemp("fuzz") / "run").parent


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_report_loads_or_names_the_file(written_run, data):
    """report.json or a trial file from `write_report`, in which one key, one
    `trials` entry or one key of such an entry holds a value of another JSON
    type: re-aggregation succeeds or raises DataLoadError naming that file, and
    nothing else. A `config` that is not an object never loads."""
    names = ["report.json"] + [f"trials/trial_{t}.json" for t in (1, 2, 3)]
    path = written_run / data.draw(st.sampled_from(names))
    original = path.read_text(encoding="utf-8")
    record = json.loads(original)
    entries = record.get("trials", [])
    targets = [(record, key) for key in record] + [(entries, i) for i in range(len(entries))]
    targets += [(entry, key) for entry in entries for key in entry]
    owner, key = data.draw(st.sampled_from(targets))
    kind = json_kind(owner[key])
    owner[key] = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != kind))
    path.write_text(json.dumps(record), encoding="utf-8")
    try:
        reaggregate_trials(written_run)
    except DataLoadError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert not (owner is record and key == "config")
    finally:
        path.write_text(original, encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(config=JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
def test_a_report_config_that_is_not_an_object_never_loads(written_run, config):
    """`dict()` would read `[]` or `[["k", 3]]` as a config: no such value loads."""
    path = written_run / "report.json"
    original = path.read_text(encoding="utf-8")
    path.write_text(json.dumps({**json.loads(original), "config": config}), encoding="utf-8")
    try:
        with pytest.raises(DataLoadError, match=re.escape(f"{path}: field 'config': ")):
            reaggregate_trials(written_run)
    finally:
        path.write_text(original, encoding="utf-8")


@pytest.mark.parametrize("learner", [[], None, "prototype"])
def test_report_refuses_a_config_learner_that_is_not_an_object(tmp_path, capsys, learner):
    trials = [TrialResult(trial_index=i, correct=(3 + i, 40), total=(10, 50)) for i in (1, 2)]
    path = write_report(aggregate(trials, config={"k": 2, "learner": {"variant": "prototype"}}),
                        tmp_path / "run")
    record = json.loads(path.read_text(encoding="utf-8"))
    record["config"]["learner"] = learner
    path.write_text(json.dumps(record), encoding="utf-8")
    assert cli_main(["report", "--in", str(path.parent)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: field 'config.learner': "
                                       f"must be a JSON object, got {learner!r}\n")


@pytest.fixture(scope="module")
def default_stream_dir(tmp_path_factory):
    """`cdil synth` of the default spec: session 1's CSV is about 250 kB."""
    out = tmp_path_factory.mktemp("default") / "stream"
    assert cli_main(["synth", "--seed", "1", "--out", str(out)]) == 0
    return out


def split_with_damaged_line(tmp_path, stream_dir, line, damage):
    """`cdil split` over a copy of `stream_dir` whose session_1.csv has
    `damage(line bytes)` in place of line number `line`; returns the exit code."""
    stream = shutil.copytree(stream_dir, tmp_path / "stream")
    csv_path = stream / "session_1.csv"
    lines = csv_path.read_bytes().split(b"\n")
    lines[line - 1] = damage(lines[line - 1])
    csv_path.write_bytes(b"\n".join(lines))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"manifest": "stream/manifest.json"}}),
                      encoding="utf-8")
    return cli_main(["split", "--config", str(config), "--out", str(tmp_path / "f.csv")])


def test_stray_quote_exits_2_naming_the_csv_and_line(tmp_path, capsys, default_stream_dir):
    # the quote opens a field that runs past the csv module's field size limit,
    # about a hundred lines on; the record it opened starts on line 3
    code = split_with_damaged_line(tmp_path, default_stream_dir, 3,
                                   lambda line: b'"' + line)
    assert code == 2
    err = capsys.readouterr().err
    csv_path = (tmp_path / "stream" / "session_1.csv").resolve()
    assert f"error: {csv_path}: line 3: malformed CSV record: field larger than" in err


def test_non_utf8_byte_exits_2_naming_the_csv_and_line(tmp_path, capsys, default_stream_dir):
    # line 150 lies far beyond the text decoder's first chunk
    code = split_with_damaged_line(tmp_path, default_stream_dir, 150,
                                   lambda line: line.replace(b"s1-", b"s1-\xe9", 1))
    assert code == 2
    csv_path = (tmp_path / "stream" / "session_1.csv").resolve()
    assert f"error: {csv_path}: line 150: not valid UTF-8" in capsys.readouterr().err


SPLIT_SPEC = {"session_label_sets": [["a", "b", "c"], ["b", "c", "d"]], "feature_dim": 4,
              "samples_per_class_per_session": 10, "subjects_per_session": 6, "seed": 3}


@pytest.fixture(scope="module")
def split_inputs(tmp_path_factory):
    """Two manifests for `cdil split`: a written synth stream ("stream"), and a copy
    of its manifest ("filtered") with `shared_subjects` false whose session 2 keeps
    four rows of class `d`, which its `min_samples_per_class` of 5 drops."""
    root = tmp_path_factory.mktemp("split")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPLIT_SPEC), encoding="utf-8")
    assert cli_main(["synth", "--spec", str(spec), "--out", str(root / "stream")]) == 0
    manifest = json.loads((root / "stream" / "manifest.json").read_text(encoding="utf-8"))
    lines = (root / "stream" / "session_2.csv").read_bytes().split(b"\r\n")
    d_rows = [i for i, line in enumerate(lines) if line.split(b",")[2:3] == [b"d"]]
    (root / "filtered").mkdir()
    (root / "filtered" / "session_2.csv").write_bytes(
        b"\r\n".join(line for i, line in enumerate(lines) if i not in d_rows[4:]))
    manifest["shared_subjects"] = False
    manifest["sessions"][0]["features_path"] = "../stream/session_1.csv"
    manifest["sessions"][1]["min_samples_per_class"] = 5
    (root / "filtered" / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    session = load_sequence(root / "filtered" / "manifest.json").session(2)
    assert session.size == 20 and len(session.label_set) == 2
    return {"stream": root / "stream" / "manifest.json",
            "filtered": root / "filtered" / "manifest.json"}


def cdil_on(tmp_path, command, manifest, protocol="slcv"):
    """`cdil <command>` (split or run) of a k = 3, seed 9 prototype config over
    `manifest`; returns the exit code and, for a split that exits 0, its folds CSV."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 3, "seed": 9, "learner": {"variant": "prototype"},
                                  "data": {"manifest": str(manifest)}}), encoding="utf-8")
    out = tmp_path / "folds.csv"
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(config), "--protocol", protocol]
    code = cli_main(argv + (["--out", str(out)] if command == "split" else []))
    return code, out.read_bytes() if code == 0 and command == "split" else None


# SHA-256 of `cdil split`'s folds CSV, pinned from the reader that parsed every value
FOLDS_SHA256 = {
    ("stream", "slcv"):
        "649a8d23c95f3e482bfa086a7bb00d6ae8760862f62091913317f56f148cff6c",
    ("stream", "ilcv"):
        "b8e475de385488220c1bb432f5e7a1b350172726f0efb6e377df633f240d19cb",
    ("filtered", "slcv"):
        "05c3e0a02a0ab54746dced62b89ef4c2e830a3e977472cd5cedd29a8553ba2ef",
    ("filtered", "ilcv"):
        "4ced16936c3c8cbbeecd0a402e4ef51342e4d6f794be2155fc8fb537892e912d",
}


@pytest.mark.parametrize("source, protocol", sorted(FOLDS_SHA256))
def test_split_folds_bytes_are_pinned(tmp_path, split_inputs, source, protocol):
    code, folds = cdil_on(tmp_path, "split", split_inputs[source], protocol)
    assert code == 0
    assert hashlib.sha256(folds).hexdigest() == FOLDS_SHA256[source, protocol]


def set_value(text):
    return lambda cells: cells[:3] + [text] + cells[4:]


# (damage to the cells of line 5 of session_1.csv, whether `cdil split` still
# refuses the file, the end of the error line both commands give where they refuse,
# or None where only the file and line are pinned)
DAMAGES = {
    "nan": (set_value(b"nan"), False, "field 'features': non-finite feature value"),
    "inf": (set_value(b"inf"), False, "field 'features': non-finite feature value"),
    "1e999": (set_value(b"1e999"), False, "field 'features': non-finite feature value"),
    "abc": (set_value(b"abc"), False, "field 'features': non-numeric feature value"),
    "1_0": (set_value(b"1_0"), True, "field 'features': non-numeric feature value"),
    "blank value": (set_value(b""), True, "field 'features': non-numeric feature value"),
    "whitespace value": (set_value(b" "), True, "field 'features': non-numeric feature value"),
    "blank last value": (lambda cells: cells[:-1] + [b"\t"], True,
                         "field 'features': non-numeric feature value"),
    "extra column": (lambda cells: cells + [b"1.0"], True, "expected 7 columns, got 8"),
    # the quote opens a field that runs to the end of the file
    "stray quote": (lambda cells: [b'"' + cells[0]] + cells[1:], True,
                    "malformed CSV record: unexpected end of data"),
    "text after a closing quote": (lambda cells: [b'"' + cells[0] + b'"x'] + cells[1:], True,
                                   "malformed CSV record: ',' expected after '\"'"),
    "non-utf8 byte": (lambda cells: [cells[0] + b"\xe9"] + cells[1:], True,
                      "not valid UTF-8: invalid continuation byte"),
    "duplicate sample_id": (lambda cells: [b"s1-0002"] + cells[1:], True,  # line 4's
                            "field 'sample_id': duplicate sample_id 's1-0002'"),
    "undeclared label": (lambda cells: cells[:2] + [b"zzz"] + cells[3:], True,
                         "field 'label': label 'zzz' is not declared for session 'session_1'"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_each_command_refuses_what_it_reads(tmp_path, capsys, split_inputs, damage):
    """`cdil split` checks every record's ids, labels and value text but parses no
    value, so a value only `float` or the finiteness check refuses leaves its folds
    as the clean file's; `cdil run` refuses it naming the file, line and field."""
    edit, split_refuses, reason = DAMAGES[damage]
    clean = cdil_on(tmp_path, "split", split_inputs["stream"])
    stream = shutil.copytree(split_inputs["stream"].parent, tmp_path / "stream")
    csv_path = stream / "session_1.csv"
    lines = csv_path.read_bytes().split(b"\r\n")
    lines[4] = b",".join(edit(lines[4].split(b",")))
    csv_path.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    where = f"error: {csv_path.resolve()}: line 5: "
    assert cdil_on(tmp_path, "run", stream / "manifest.json") == (2, None)
    run_error = capsys.readouterr().err.splitlines()[-1]
    assert run_error == where + reason
    split = cdil_on(tmp_path, "split", stream / "manifest.json")
    err = capsys.readouterr().err
    if split_refuses:
        assert split == (2, None)
        assert err.splitlines()[-1] == run_error
    else:
        assert split == clean and clean[0] == 0
        assert "error" not in err


def test_split_parses_no_feature_value(tmp_path, capsys, monkeypatch, split_inputs):
    def refuse(*args, **kwargs):
        raise RuntimeError("a feature value was parsed")

    monkeypatch.setattr(interface, "_values", refuse)
    monkeypatch.setattr(interface.np, "loadtxt", refuse)
    for protocol in ("slcv", "ilcv"):
        code, folds = cdil_on(tmp_path, "split", split_inputs["stream"], protocol)
        assert code == 0
        assert hashlib.sha256(folds).hexdigest() == FOLDS_SHA256["stream", protocol]
    capsys.readouterr()
    assert cdil_on(tmp_path, "run", split_inputs["stream"]) == (2, None)
    assert capsys.readouterr().err.endswith("error: a feature value was parsed\n")


class TestLoadSessionFeatures:
    def test_dimension_mismatch_names_the_file(self, tmp_path):
        write_feature_csv(tmp_path / "bad.csv", 3, [["x", "p", "a", "1", "2", "3"]])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "bad", "label_names": ["a"],
                               "features_path": "bad.csv"}], dim=2)
        manifest = load_manifest(path)
        with pytest.raises(DataLoadError, match="header"):
            load_sequence(manifest)

    def test_min_samples_filter_drops_small_class(self, tmp_path, caplog):
        rows = ([[f"c{i}", f"p{i % 3}", "common", "1.0", "2.0"] for i in range(12)]
                + [[f"r{i}", "p9", "rare", "0.0", "0.0"] for i in range(9)])
        write_feature_csv(tmp_path / "s.csv", 2, rows)
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["common", "rare"],
                               "features_path": "s.csv", "min_samples_per_class": 10}])
        manifest = load_manifest(path)
        seq = load_sequence(manifest)
        session = seq.session(1)
        assert {seq.registry.name_of(c) for c in session.label_set} == {"common"}
        assert session.size == 12

    def test_min_zero_drops_nothing(self, tmp_path):
        rows = [["x1", "p", "a", "1.0", "2.0"], ["x2", "p", "b", "3.0", "4.0"]]
        write_feature_csv(tmp_path / "s.csv", 2, rows)
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a", "b"],
                               "features_path": "s.csv", "min_samples_per_class": 0}])
        session = load_sequence(load_manifest(path)).session(1)
        assert session.size == 2
        assert len(session.label_set) == 2

    def test_loader_errors_carry_line_numbers(self, tmp_path):
        write_feature_csv(tmp_path / "s.csv", 2, [
            ["x1", "p", "a", "1.0", "2.0"],
            ["x2", "p", "a", "oops", "2.0"],
        ])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match="line 3"):
            load_sequence(load_manifest(path))

    def test_row_errors_name_the_physical_line(self, tmp_path):
        # a quoted sample id holding a newline makes record 1 span lines 2 and 3
        write_feature_csv(tmp_path / "s.csv", 2, [
            ["x\n1", "p", "a", "1.0", "2.0"],
            ["x2", "p", "a", "oops", "2.0"],
        ])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match=r"s\.csv: line 4: field 'features'"):
            load_sequence(load_manifest(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected_with_line(self, tmp_path, value):
        write_feature_csv(tmp_path / "s.csv", 2, [
            ["x1", "p", "a", "1.0", "2.0"],
            ["x2", "p", "a", "1.0", value],
        ])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match=r"s\.csv: line 3: field 'features'"):
            load_sequence(load_manifest(path))

    @pytest.mark.parametrize("value", ["1_000", "١", "２.5"])
    def test_feature_value_outside_ascii_syntax_rejected(self, tmp_path, value):
        # `float` reads these as 1000.0, 1.0 and 2.5
        write_feature_csv(tmp_path / "s.csv", 2, [
            ["x1", "p", "a", "1.0", "2.0"],
            ["x2", "p", "a", value, "2.0"],
        ])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match=r"s\.csv: line 3: field 'features': "
                                                 r"non-numeric feature value"):
            load_sequence(load_manifest(path))

    def test_non_finite_feature_names_the_physical_line(self, tmp_path):
        # a quoted sample id holding a newline makes record 1 span lines 2 and 3
        write_feature_csv(tmp_path / "s.csv", 2, [
            ["a\nb", "p", "a", "1.0", "2.0"],
            ["x2", "p", "a", "1.0", "nan"],
        ])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match=r"s\.csv: line 4: field 'features'"):
            load_sequence(load_manifest(path))

    @pytest.mark.parametrize("value", ["two", 2.5, -1, True, None])
    def test_bad_min_samples_per_class_names_the_field(self, tmp_path, value):
        write_feature_csv(tmp_path / "s.csv", 2, [["x1", "p", "a", "1.0", "2.0"]])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv", "min_samples_per_class": value}])
        with pytest.raises(DataLoadError, match=r"sessions\[1\]\.min_samples_per_class"):
            load_manifest(path)

    def test_unknown_label_rejected_with_line(self, tmp_path):
        write_feature_csv(tmp_path / "s.csv", 2, [["x1", "p", "undeclared", "1", "2"]])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match="line 2.*label"):
            load_sequence(load_manifest(path))

    def test_duplicate_sample_id_rejected(self, tmp_path):
        write_feature_csv(tmp_path / "s.csv", 2, [
            ["x1", "p", "a", "1", "2"], ["x1", "p", "a", "3", "4"]])
        path = tmp_path / "m.json"
        write_manifest(path, [{"name": "s", "label_names": ["a"],
                               "features_path": "s.csv"}])
        with pytest.raises(DataLoadError, match="duplicate sample_id"):
            load_sequence(load_manifest(path))

    def test_subject_namespacing_default_on(self, toy_dataset):
        seq = load_sequence(toy_dataset)
        assert seq.session(1).subject_ids == ("s1:p1", "s1:p1", "s1:p2")
        assert seq.session(2).subject_ids == ("s2:p1", "s2:p3")

    def test_columns_hold_the_csv_rows(self, toy_dataset):
        session = load_sequence(toy_dataset).session(1)
        assert session.sample_ids == ("a1", "a2", "a3")
        assert session.labels.tolist() == [0, 1, 0]
        assert np.array_equal(session.features, [[0.5, 1.5], [-1.0, 2.0], [0.25, 0.125]])

    def test_a_load_without_values_keeps_every_column_but_the_features(self, toy_dataset):
        full, bare = load_sequence(toy_dataset), load_sequence(toy_dataset, values=False)
        assert bare.feature_dim == 0 and bare.registry.names == full.registry.names
        for got, expected in zip(bare.sessions, full.sessions, strict=True):
            assert got.features.shape == (expected.size, 0)
            assert (got.sample_ids, got.subject_ids, got.label_set) == (
                expected.sample_ids, expected.subject_ids, expected.label_set)
            assert got.labels.tolist() == expected.labels.tolist()


class TestStreamRoundTrip:
    @pytest.mark.parametrize("label_sets", [
        (("a", "b"), ("b", "c")),
        (("zebra", "apple"), ("apple", "mid", "aardvark")),  # non-alphabetical order
    ])
    def test_write_then_load_is_exact(self, tmp_path, label_sets):
        seq = generate_stream(SynthSpec(
            session_label_sets=label_sets, feature_dim=5,
            samples_per_class_per_session=6, subjects_per_session=4, seed=31))
        loaded = load_sequence(write_stream(seq, tmp_path / "stream"))
        assert loaded.feature_dim == seq.feature_dim
        assert loaded.n == seq.n
        assert loaded.registry.names == seq.registry.names
        for orig, back in zip(seq.sessions, loaded.sessions):
            assert back.label_set == orig.label_set
            assert back.subjects == orig.subjects
            assert back.sample_ids == orig.sample_ids
            assert back.subject_ids == orig.subject_ids
            assert np.array_equal(back.labels, orig.labels)
            assert np.array_equal(back.features, orig.features)

    def test_interrupted_rewrite_leaves_no_manifest(self, tmp_path):
        # a second stream cut short after its first session must not leave the
        # first stream's manifest over a mix of both streams' sessions
        def spec(seed):
            return SynthSpec(session_label_sets=(("a", "b"), ("b", "c")), feature_dim=3,
                             samples_per_class_per_session=4, subjects_per_session=2,
                             seed=seed)

        out = tmp_path / "stream"
        manifest = write_stream(generate_stream(spec(1)), out)
        second = generate_stream(spec(2))

        def interrupted():
            yield second.session(1)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_stream(SimpleNamespace(sessions=interrupted(), registry=second.registry,
                                         feature_dim=second.feature_dim), out)
        with pytest.raises(DataLoadError, match="manifest.json: file not found"):
            load_sequence(manifest)
        assert not list(out.glob("*.tmp"))


POOL_SPEC = SynthSpec(session_label_sets=(("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")),
                      feature_dim=6, samples_per_class_per_session=5, subjects_per_session=3,
                      seed=12)


def stream_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture
def fork_contexts(monkeypatch):
    """The start methods `write_stream` asks `multiprocessing` for, in call order."""
    methods, get_context = [], multiprocessing.get_context

    def spy(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return methods


class TestPooledWrite:
    """From `_MIN_POOL_VALUES` values on, `write_stream` writes its session CSVs
    in forked workers, one per CPU and at most one per session."""

    @pytest.mark.parametrize("floor", [0, 10**9], ids=["pool", "in-process"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_bytes_do_not_depend_on_the_workers(self, tmp_path, monkeypatch, fork_contexts,
                                                    floor, cpus):
        seq = generate_stream(POOL_SPEC)
        write_stream(seq, tmp_path / "one")
        expected = stream_bytes(tmp_path / "one")
        assert not fork_contexts
        monkeypatch.setattr(interface, "_MIN_POOL_VALUES", floor)
        monkeypatch.setattr(interface, "_cpus", lambda: cpus)
        write_stream(seq, tmp_path / "stream")
        assert stream_bytes(tmp_path / "stream") == expected
        assert fork_contexts == (["fork"] if floor == 0 and cpus > 1 else [])
        assert not multiprocessing.active_children()

    def test_the_floor_is_counted_in_feature_values(self, tmp_path, monkeypatch, fork_contexts):
        seq = generate_stream(POOL_SPEC)
        values = sum(session.features.size for session in seq.sessions)
        monkeypatch.setattr(interface, "_cpus", lambda: 2)
        for floor, forks in ((values + 1, []), (values, ["fork"])):
            monkeypatch.setattr(interface, "_MIN_POOL_VALUES", floor)
            fork_contexts.clear()
            write_stream(seq, tmp_path / "stream")
            assert fork_contexts == forks

    @pytest.mark.parametrize("floor", [0, 10**9], ids=["pool", "in-process"])
    def test_a_session_path_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys,
                                                                  monkeypatch, floor):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"session_label_sets": POOL_SPEC.session_label_sets,
                                    "feature_dim": 6}), encoding="utf-8")
        out = tmp_path / "stream"
        assert cli_main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        (out / "session_2.csv").unlink()
        (out / "session_2.csv").mkdir()
        monkeypatch.setattr(interface, "_MIN_POOL_VALUES", floor)
        monkeypatch.setattr(interface, "_cpus", lambda: 2)
        capsys.readouterr()
        assert cli_main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out / 'session_2.csv'}: Is a directory\n"
        assert not (out / "manifest.json").exists()
        assert not list(out.glob("*.tmp"))
        assert not multiprocessing.active_children()


class TestReports:
    def make_report(self):
        trials = [TrialResult(trial_index=i, correct=(3 + i, 40), total=(10, 50))
                  for i in (1, 2, 3)]
        return aggregate(trials, config={"protocol": "slcv",
                                         "learner": {"variant": "prototype"}})

    def test_json_round_trip_is_exact(self, tmp_path):
        report = self.make_report()
        path = write_report(report, tmp_path / "run")
        assert load_report(path) == report

    def test_human_table_columns(self, tmp_path):
        seq_report = aggregate([TrialResult(1, (1, 2, 3, 4), (10, 10, 10, 10))],
                               config={"protocol": "ilcv",
                                       "learner": {"variant": "finetune"}})
        table = format_report_table(seq_report)
        for column in ("Session 1", "Session 2", "Session 3", "Session 4", "Ā", "Ã"):
            assert column in table
        assert "10.00" in table and "40.00" in table  # percent, two decimals

    def test_reaggregation_from_trial_files(self, tmp_path):
        report = self.make_report()
        write_report(report, tmp_path / "run")
        again = reaggregate_trials(tmp_path / "run")
        assert again.mean_per_session == report.mean_per_session
        assert again.mean_final == report.mean_final
        assert again.trials == report.trials

    def test_a_large_recorded_k_fails_without_listing_its_indices(self, tmp_path):
        """A hand-edited `config.k` far above the trial files fails in memory that
        does not grow with it."""
        report_path = write_report(self.make_report(), tmp_path / "run")
        record = json.loads(report_path.read_text(encoding="utf-8"))
        record["config"]["k"] = 10**6
        report_path.write_text(json.dumps(record), encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError) as caught:
                reaggregate_trials(tmp_path / "run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == (f"{tmp_path / 'run' / 'trials'}: expected trial files "
                                     "1..1000000, found [1, 2, 3]")
        assert peak < 2**22

    def test_failed_write_leaves_no_report_json(self, tmp_path, monkeypatch):
        # the third rename (after trials 1 and 2) fails, as if the run were cut
        # short; a report.json from an earlier run must not survive either
        report = self.make_report()
        write_report(report, tmp_path / "run")
        renames = []
        real_replace = os.replace

        def failing_replace(src, dst):
            renames.append(dst)
            if len(renames) == 3:
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_report(report, tmp_path / "run")
        assert [p.name for p in renames] == ["trial_1.json", "trial_2.json", "trial_3.json"]
        assert not (tmp_path / "run" / "report.json").exists()
        assert not list((tmp_path / "run").rglob("*.tmp"))
        with pytest.raises(ProtocolError, match="report.json not found"):
            reaggregate_trials(tmp_path / "run")


class TestCli:
    def run_config(self, tmp_path, **extra):
        config = {
            "protocol": "ilcv",
            "k": 3,
            "seed": 5,
            "learner": {"variant": "prototype"},
            "data": {"synthetic": {
                "session_label_sets": [["a", "b"], ["b", "c"]],
                "feature_dim": 6, "samples_per_class_per_session": 8,
                "subjects_per_session": 4, "seed": 5}},
            "out": str(tmp_path / "out"),
        }
        config.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_run_writes_report(self, tmp_path):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--deterministic"]) == 0
        report = load_report(tmp_path / "out" / "report.json")
        assert report.k == 3
        assert (tmp_path / "out" / "report.txt").is_file()
        assert len(list((tmp_path / "out" / "trials").glob("trial_*.json"))) == 3

    def test_flag_overrides_config(self, tmp_path):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--learner", "finetune",
                         "--deterministic"]) == 0
        report = load_report(tmp_path / "out" / "report.json")
        assert report.config["learner"]["variant"] == "finetune"

    def test_synth_then_run_from_manifest(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "session_label_sets": [["a", "b"], ["b", "c"]],
            "feature_dim": 4, "samples_per_class_per_session": 8,
            "subjects_per_session": 4, "seed": 2}), encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec_path),
                         "--out", str(tmp_path / "data")]) == 0
        config = {
            "protocol": "slcv", "k": 2, "seed": 1,
            "learner": {"variant": "prototype"},
            "data": {"manifest": "data/manifest.json"},
            "out": str(tmp_path / "out2"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["run", "--config", str(config_path), "--deterministic"]) == 0
        assert (tmp_path / "out2" / "report.json").is_file()

    def test_split_emits_fold_csv(self, tmp_path):
        config = self.run_config(tmp_path)
        out_csv = tmp_path / "folds.csv"
        assert cli_main(["split", "--config", str(config), "--out", str(out_csv)]) == 0
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["session", "sample_id", "subject_id", "fold"]
        assert len(rows) == 1 + 16 + 16  # header + both sessions
        assert {r[3] for r in rows[1:]} <= {"1", "2", "3"}

    def test_report_reaggregates(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--deterministic"]) == 0
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 0
        assert "Session 1" in capsys.readouterr().out

    def test_deterministic_flag_is_only_echoed(self, tmp_path):
        config = self.run_config(tmp_path)
        outs = {}
        for flag in ([], ["--deterministic"]):
            out = tmp_path / ("det" if flag else "plain")
            assert cli_main(["run", "--config", str(config), "--out", str(out)] + flag) == 0
            outs[bool(flag)] = out
        for trial in (1, 2, 3):
            name = f"trials/trial_{trial}.json"
            assert (outs[False] / name).read_bytes() == (outs[True] / name).read_bytes()
        plain = (outs[False] / "report.json").read_text(encoding="utf-8")
        det = (outs[True] / "report.json").read_text(encoding="utf-8")
        assert plain != det
        assert plain.replace('"deterministic": false', '"deterministic": true') == det

    def test_unknown_synthetic_key_exits_2(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        data["data"]["synthetic"]["colour"] = "blue"
        config.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["run", "--config", str(config)]) == 2
        assert "colour" in capsys.readouterr().err

    def test_report_rejects_a_partial_run(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        (tmp_path / "out" / "trials" / "trial_2.json").unlink()
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        assert "expected trial files 1..3, found [1, 3]" in capsys.readouterr().err

    def test_report_names_a_trial_file_missing_a_field(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        trial = tmp_path / "out" / "trials" / "trial_2.json"
        data = json.loads(trial.read_text(encoding="utf-8"))
        del data["correct"]
        trial.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        assert "trial_2.json: field 'correct'" in capsys.readouterr().err

    @pytest.mark.parametrize("correct", [[3.9, 1], ["3", 1], [True, True], "3781"])
    def test_report_rejects_a_count_that_is_not_an_integer(self, tmp_path, capsys, correct):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        trial = tmp_path / "out" / "trials" / "trial_2.json"
        data = json.loads(trial.read_text(encoding="utf-8"))
        data["correct"] = correct
        trial.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        assert f"error: {trial}: field 'correct" in capsys.readouterr().err

    def test_report_rejects_empty_count_vectors(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        for trial in (tmp_path / "out" / "trials").glob("trial_*.json"):
            data = json.loads(trial.read_text(encoding="utf-8"))
            data["correct"] = data["total"] = []
            trial.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        first = tmp_path / "out" / "trials" / "trial_1.json"
        assert f"error: {first}: field 'correct': must be a list" in capsys.readouterr().err

    def test_split_exits_2_on_a_manifest_key_typo(self, tmp_path, capsys, toy_dataset):
        manifest = json.loads(toy_dataset.read_text(encoding="utf-8"))
        manifest["sessions"][0]["min_sample_per_class"] = 99
        toy_dataset.write_text(json.dumps(manifest), encoding="utf-8")
        config = self.run_config(tmp_path, k=2, data={"manifest": toy_dataset.name})
        assert cli_main(["split", "--config", str(config), "--out", str(tmp_path / "f.csv")]) == 2
        assert (f"error: {toy_dataset}: field 'sessions[1]': "
                f"unknown key(s) ['min_sample_per_class']" in capsys.readouterr().err)
        assert not (tmp_path / "f.csv").exists()

    def test_report_names_an_unparsable_trial_file_and_line(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        trial = tmp_path / "out" / "trials" / "trial_3.json"
        trial.write_text('{\n  "trial_index": 3,\n  "correct": [1, \n', encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        assert "trial_3.json: line 4: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["report.json", "trials/trial_2.json"])
    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_report_names_a_file_that_is_not_an_object(self, tmp_path, capsys, name, text):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        path = tmp_path / "out" / name
        path.write_text(text + "\n", encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        assert f"error: {path}: must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("name,edit,error", [
        ("report.json", lambda d: d.update(colour=1), "unknown key(s) ['colour']"),
        ("report.json", lambda d: d["trials"][1].update(colour=1),
         "field 'trials[2]': unknown key(s) ['colour']"),
        ("report.json", lambda d: d.update(trials=[1]), "field 'trials[1]': must be a JSON object"),
        ("trials/trial_2.json", lambda d: d.update(colour=1), "unknown key(s) ['colour']"),
        ("trials/trial_2.json", lambda d: d.update(correct=[99, 1]), "invalid counts (99, "),
    ], ids=["report-key", "trials-entry-key", "trials-entry-int", "trial-key", "trial-counts"])
    def test_report_names_the_file_and_field_of_a_bad_record(self, tmp_path, capsys,
                                                              name, edit, error):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        path = tmp_path / "out" / name
        data = json.loads(path.read_text(encoding="utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {error}" in err
        assert "malformed record" not in err

    def test_a_config_path_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path)]) == 2
        assert f"error: {tmp_path}: cannot be read" in capsys.readouterr().err

    def test_a_trial_file_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        trial = tmp_path / "out" / "trials" / "trial_1.json"
        trial.unlink()
        trial.mkdir()
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        assert f"error: {trial}: cannot be read" in capsys.readouterr().err

    def test_a_report_json_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        report = tmp_path / "out" / "report.json"
        report.unlink()
        report.mkdir()
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {report}: cannot be read" in err
        assert "not found" not in err

    def test_a_config_that_is_not_utf8_exits_2_naming_the_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{\n  "protocol": "ilcv",\n  "out": "r\xe9sultats"\n}\n')
        assert cli_main(["run", "--config", str(config)]) == 2
        assert f"error: {config}: line 3: not valid UTF-8" in capsys.readouterr().err

    def test_rerun_with_a_smaller_k_removes_stale_trial_files(self, tmp_path):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--k", "3"]) == 0
        assert cli_main(["run", "--config", str(config), "--k", "2"]) == 0
        trials = sorted(p.name for p in (tmp_path / "out" / "trials").iterdir())
        assert trials == ["trial_1.json", "trial_2.json"]
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 0

    def test_overflowing_feature_exits_2_without_a_report(self, tmp_path, capsys):
        # 1e200 is finite, but its square overflows the prototype's ridge system
        spec = SynthSpec(session_label_sets=(("a", "b"), ("b", "c")), feature_dim=4,
                         samples_per_class_per_session=8, subjects_per_session=4, seed=2)
        write_stream(generate_stream(spec), tmp_path / "data")
        csv_path = tmp_path / "data" / "session_1.csv"
        lines = csv_path.read_bytes().split(b"\r\n")
        cells = lines[1].split(b",")
        cells[3] = b"1e200"
        lines[1] = b",".join(cells)
        csv_path.write_bytes(b"\r\n".join(lines))
        config = self.run_config(tmp_path, data={"manifest": "data/manifest.json"})
        with np.errstate(all="ignore"):
            assert cli_main(["run", "--config", str(config)]) == 2
        assert "ridge system has a non-finite entry" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_run_out_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        config = self.run_config(tmp_path, out=str(out))
        assert cli_main(["run", "--config", str(config)]) == 2
        assert f"error: {out / 'trials'}: " in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == ""
        assert not list(tmp_path.rglob("report.json"))

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_run_out_that_is_a_file_is_refused_before_any_trial_trains(
            self, tmp_path, capsys, monkeypatch, source):
        import cdil.pipeline
        calls = []
        monkeypatch.setattr(cdil.pipeline, "_run_trials", lambda *args: calls.append(args))
        out = tmp_path / "nested" / "taken"
        out.parent.mkdir()
        out.write_text("", encoding="utf-8")
        if source == "flag":
            argv = ["--config", str(self.run_config(tmp_path)), "--out", str(out)]
        else:
            argv = ["--config", str(self.run_config(tmp_path, out=str(out)))]
        assert cli_main(["run", *argv]) == 2
        assert f"error: {out / 'trials'}: " in capsys.readouterr().err
        assert calls == []
        assert out.read_text(encoding="utf-8") == ""

    def test_synth_out_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"samples_per_class_per_session": 4}), encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert f"error: {out}: " in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == ""

    def test_split_out_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        config = self.run_config(tmp_path)
        assert cli_main(["split", "--config", str(config), "--out", str(out)]) == 2
        assert f"error: {out}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
        assert not list(out.iterdir())

    def test_report_out_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out"), "--out", str(out)]) == 2
        assert f"error: {out / 'trials'}: " in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("command", ["run", "synth", "split", "report"])
    def test_an_empty_out_flag_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # Path("") is the working directory, where nothing may be written
        monkeypatch.chdir(tmp_path)
        config = self.run_config(tmp_path)
        source = {"run": ["--config", str(config)], "synth": [],
                  "split": ["--config", str(config)], "report": ["--in", str(tmp_path)]}
        assert cli_main([command, *source[command], "--out", ""]) == 2
        assert "error: --out must name a path, got ''" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_an_empty_out_in_the_config_exits_2_naming_the_field(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = self.run_config(tmp_path, out="")
        assert cli_main(["run", "--config", str(config)]) == 2
        assert f"error: {config}: field 'out': must name a path" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("field,value", [
        ("config.k", "3"), ("config.k", 2.9), ("config.k", True),
        ("mean_final", "0.5"), ("std_average", None), ("mean_per_session[2]", True),
        ("config", []), ("config", [["k", 3]]), ("config", "x"),
    ])
    def test_report_rejects_a_wrongly_typed_report_field(self, tmp_path, capsys, field, value):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        report = tmp_path / "out" / "report.json"
        data = json.loads(report.read_text(encoding="utf-8"))
        if field == "config.k":
            data["config"]["k"] = value
        elif field == "mean_per_session[2]":  # the second mean: fields count from 1
            data["mean_per_session"][1] = value
        else:
            data[field] = value
        report.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["report", "--in", str(tmp_path / "out")]) == 2
        assert f"error: {report}: field '{field}': must be" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("learner", "learning_rate", "fast"),
        ("synthetic", "noise_sigma", -1.0),
        (None, "k", 1),
        (None, "protocol", "loso"),
    ])
    def test_wrongly_typed_value_names_the_config_file(self, tmp_path, capsys,
                                                       section, key, value):
        config = self.run_config(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        target = {"learner": data["learner"], "synthetic": data["data"]["synthetic"],
                  None: data}[section]
        target[key] = value
        config.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["run", "--config", str(config)]) == 2
        field = {"learner": "learner.", "synthetic": "data.synthetic.", None: ""}[section] + key
        assert f"error: {config}: field '{field}': must be" in capsys.readouterr().err

    def test_bad_flag_value_does_not_blame_the_config_file(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--k", "1"]) == 2
        assert "error: k must be an integer >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("learner", "learning_rate", "fast"),
        ("learner", "batch_size", 2.5),
        ("synthetic", "feature_dim", "64"),
        (None, "k", "5"),
        (None, "k", True),
        (None, "seed", 1.5),
        (None, "deterministic", "yes"),
        ("synthetic", "session_label_sets", [[1, 2], [2, 3]]),
    ])
    def test_wrongly_typed_value_exits_2_naming_the_field(self, tmp_path, capsys,
                                                          section, key, value):
        config = self.run_config(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        target = {"learner": data["learner"], "synthetic": data["data"]["synthetic"],
                  None: data}[section]
        target[key] = value
        config.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["run", "--config", str(config)]) == 2
        field = {"learner": "learner.", "synthetic": "data.synthetic.", None: ""}[section] + key
        assert f"field '{field}': must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,field", [
        (None, [1], None),
        ("learner", "prototype", "learner"),
        ("data", "x", "data"),
        ("data", {"synthetic": [1]}, "data.synthetic"),
        ("data", {"manifest": 3}, "data.manifest"),
        ("out", 3, "out"),
    ])
    def test_wrongly_shaped_config_exits_2_naming_file_and_field(self, tmp_path, capsys,
                                                                 key, value, field):
        config = self.run_config(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        if key is None:
            data = value
        else:
            data[key] = value
        config.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["run", "--config", str(config)]) == 2
        where = f"{config}: field '{field}'" if field else str(config)
        assert f"error: {where}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["x", 3, ["finetune"]])
    def test_bad_learner_variant_exits_2_naming_learner_variant(self, tmp_path, capsys,
                                                                variant):
        config = self.run_config(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        data["learner"]["variant"] = variant
        config.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["run", "--config", str(config)]) == 2
        assert (f"error: {config}: field 'learner.variant': must be one of "
                f"('finetune', 'prototype'), got {variant!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("field,key", [
        (None, "protcol"),
        (None, "threads"),
        ("data", "manifset"),
        ("learner", "ridge_lamda"),
        ("data.synthetic", "noise_sigmaa"),
    ])
    def test_unknown_key_exits_2_naming_file_field_and_key(self, tmp_path, capsys,
                                                             field, key):
        config = self.run_config(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        target = data
        for name in field.split(".") if field else ():
            target = target[name]
        target[key] = 2
        config.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["run", "--config", str(config)]) == 2
        where = f"{config}: field '{field}'" if field else str(config)
        assert f"error: {where}: unknown key(s) ['{key}']" in capsys.readouterr().err

    def test_synth_spec_unknown_key_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"feature_dimm": 4}), encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
        assert (f"error: {spec_path}: unknown key(s) ['feature_dimm']"
                in capsys.readouterr().err)
        assert not (tmp_path / "d").exists()

    def test_synth_spec_bad_value_exits_2_naming_the_file_and_field(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"noise_sigma": -1.0}), encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
        assert (f"error: {spec_path}: field 'noise_sigma': must be a finite number >= 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "d").exists()

    def test_too_few_subjects_exit_2_naming_the_file_and_field(self, tmp_path, capsys):
        # a session's classes each need a subject: the spec fails as it is
        # read, naming the field, not later as the stream is generated
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"subjects_per_session": 3}), encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
        assert (f"error: {spec_path}: field 'subjects_per_session': must be an integer >= 7, "
                f"got 3" in capsys.readouterr().err)
        assert not (tmp_path / "d").exists()
        config = self.run_config(tmp_path)
        data = json.loads(config.read_text(encoding="utf-8"))
        data["data"]["synthetic"]["subjects_per_session"] = 1
        config.write_text(json.dumps(data), encoding="utf-8")
        assert cli_main(["run", "--config", str(config)]) == 2
        assert (f"error: {config}: field 'data.synthetic.subjects_per_session': must be an "
                f"integer >= 2, got 1" in capsys.readouterr().err)

    @pytest.mark.parametrize("learner", ["finetune", "prototype"])
    @pytest.mark.parametrize("protocol", ["slcv", "ilcv"])
    def test_config_echo_reruns_to_the_same_bytes(self, tmp_path, learner, protocol):
        """A run's report.json `config`, written back out as a config file, runs
        to byte-identical trial files and report."""
        config = self.run_config(tmp_path, protocol=protocol, learner={
            "variant": learner, "epochs_first": 3, "epochs_later": 1})
        assert cli_main(["run", "--config", str(config)]) == 0
        first, again = tmp_path / "out", tmp_path / "again"
        echo = json.loads((first / "report.json").read_text(encoding="utf-8"))["config"]
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps({**echo, "out": str(again)}), encoding="utf-8")
        assert cli_main(["run", "--config", str(echo_path)]) == 0
        for name in ["report.json", "report.txt"] + [f"trials/trial_{t}.json" for t in (1, 2, 3)]:
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_readme_quick_start_config_loads(self, tmp_path):
        """The README's quick-start config loads, and the README names every config key."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("cat > config.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
        path = tmp_path / "config.json"
        path.write_text(block, encoding="utf-8")
        cfg = config_from_file(path)
        assert (cfg.protocol, cfg.k, cfg.seed, cfg.learner) == ("slcv", 5, 7, "prototype")
        assert cfg.manifest == (tmp_path / "data" / "stream" / "manifest.json").resolve()
        assert cfg.out == "results/run1"
        for name in CONFIG_KEYS + tuple(f.name for f in fields(LearnerConfig) + fields(SynthSpec)):
            assert f"`{name}`" in readme

    def test_synth_spec_must_be_an_object(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[1]", encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
        assert f"error: {spec_path}: must be a JSON object" in capsys.readouterr().err

    def test_bad_config_reports_error(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_prototype_results_and_folds_do_not_depend_on_row_order(self, tmp_path):
        """A grid stream (stream seed 3, 20 samples per class per session) with the
        data rows of each session CSV permuted: the prototype's report.json and the
        `cdil split` folds, as a set of lines, stay the same under both protocols."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"samples_per_class_per_session": 20}), encoding="utf-8")
        assert cli_main(["synth", "--spec", str(spec), "--seed", "3",
                         "--out", str(tmp_path / "stream")]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 5, "seed": 4, "learner": {"variant": "prototype"},
                                      "data": {"manifest": "stream/manifest.json"}}),
                          encoding="utf-8")

        def outputs():
            got = {}
            for protocol in ("slcv", "ilcv"):
                out, folds = tmp_path / "out", tmp_path / "folds.csv"
                assert cli_main(["run", "--config", str(config), "--protocol", protocol,
                                 "--deterministic", "--out", str(out)]) == 0
                assert cli_main(["split", "--config", str(config), "--protocol", protocol,
                                 "--out", str(folds)]) == 0
                got[protocol] = ((out / "report.json").read_bytes(),
                                 sorted(folds.read_text(encoding="utf-8").splitlines()))
                shutil.rmtree(out)
            return got

        before = outputs()
        for t, path in enumerate(sorted((tmp_path / "stream").glob("session_*.csv"))):
            header, *rows = path.read_bytes().splitlines(keepends=True)
            permuted = rows.copy()
            random.Random(t).shuffle(permuted)
            assert permuted != rows
            path.write_bytes(b"".join([header, *permuted]))
        assert outputs() == before
