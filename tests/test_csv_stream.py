"""The feature CSV's bulk write and load against the record-at-a-time code they
replaced, kept here as the reference: `write_stream` must write the same bytes,
and `load_session_features` must return the same arrays or raise the same
DataLoadError, on written streams and on streams damaged line by line."""

import csv
import io
import json
import logging
import os
import tracemalloc
from array import array
from collections import Counter
from itertools import chain, compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdil.interface
from cdil.core import DataLoadError, LabelRegistry, SessionDataset, SessionSequence
from cdil.interface import (FEATURE_HEADER_FIXED, SessionEntry, load_sequence,
                            load_session_features, write_stream)
from cdil.synth import SynthSpec, generate_stream

logger = logging.getLogger("reference")


def reference_load_session_features(entry, registry, feature_dim, session_index,
                                    shared_subjects=False):
    """`load_session_features` as it read every file one CSV record at a time."""
    path = Path(entry.features_path)
    expected_header = list(FEATURE_HEADER_FIXED) + [f"f{i}" for i in range(feature_dim)]
    declared = set(entry.label_names)
    ids = []
    values = array("d")
    lines = []
    line_no = 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # strict: an unclosed quote or text after a closing quote is refused
            reader = csv.reader(fh, strict=True)
            header = next(reader, None)
            if header is None:
                raise DataLoadError("empty feature file", path=path, line=1)
            if header != expected_header:
                if len(header) != len(expected_header):
                    raise DataLoadError(
                        f"header has {len(header)} columns, expected {len(expected_header)} "
                        f"for feature_dim {feature_dim}", path=path, line=1, field="header")
                raise DataLoadError("header does not match the documented format",
                                    path=path, line=1, field="header")
            seen_ids = set()
            line_no = reader.line_num + 1
            for row in reader:
                if len(row) != len(expected_header):
                    raise DataLoadError(
                        f"expected {len(expected_header)} columns, got {len(row)}",
                        path=path, line=line_no)
                sample_id, subject_id, label_name = row[0], row[1], row[2]
                if sample_id in seen_ids:
                    raise DataLoadError(f"duplicate sample_id {sample_id!r}",
                                        path=path, line=line_no, field="sample_id")
                seen_ids.add(sample_id)
                if label_name not in declared:
                    raise DataLoadError(
                        f"label {label_name!r} is not declared for session {entry.name!r}",
                        path=path, line=line_no, field="label")
                try:
                    values.extend(map(float, row[3:]))
                except ValueError:
                    raise DataLoadError("non-numeric feature value",
                                        path=path, line=line_no, field="features") from None
                if not shared_subjects:
                    subject_id = f"s{session_index}:{subject_id}"
                ids.append((sample_id, subject_id, label_name))
                lines.append(line_no)
                line_no = reader.line_num + 1
    except csv.Error as exc:
        raise DataLoadError(f"malformed CSV record: {exc}", path=path, line=line_no) from None
    except UnicodeDecodeError as exc:
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise DataLoadError(f"not valid UTF-8: {exc.reason}", path=path,
                            line=raw.count(b"\n", 0, exc.start) + 1) from None

    if not ids:
        raise DataLoadError("feature file has no data rows", path=path, line=2)
    features = np.frombuffer(values, dtype=np.float64).reshape(len(ids), feature_dim)
    non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(non_finite):
        raise DataLoadError("non-finite feature value",
                            path=path, line=lines[non_finite[0]], field="features")

    counts = Counter(name for _, _, name in ids)
    kept_names = [name for name in entry.label_names
                  if counts.get(name, 0) >= entry.min_samples_per_class]
    for name in entry.label_names:
        if name not in kept_names:
            logger.warning("session %s: class %r dropped", entry.name, name)
    kept = set(kept_names)
    keep = [name in kept for _, _, name in ids]
    if not any(keep):
        raise DataLoadError("no samples remain after the minimum-count filter", path=path)
    sample_ids, subject_ids, names = zip(*compress(ids, keep))
    return SessionDataset.build(session_index, features[keep],
                                [registry.index_of(name) for name in names],
                                sample_ids, subject_ids,
                                label_set={registry.index_of(name) for name in kept_names})


def reference_write_stream(seq, out_dir, name="synthetic"):
    """`write_stream` as it wrote every record through `csv.writer`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    session_entries = []
    for session in seq.sessions:
        t = session.session_index
        csv_name = f"session_{t}.csv"
        with open(out_dir / csv_name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(FEATURE_HEADER_FIXED)
                            + [f"f{i}" for i in range(seq.feature_dim)])
            for sample_id, subject_id, label, row in zip(
                    session.sample_ids, session.subject_ids, session.labels.tolist(),
                    session.features):
                writer.writerow([sample_id, subject_id, seq.registry.name_of(label)]
                                + list(map(repr, row.tolist())))
        label_names = [seq.registry.name_of(c) for c in sorted(session.label_set)]
        session_entries.append({"name": f"session_{t}", "label_names": label_names,
                                "features_path": csv_name})
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"name": name, "feature_dim": seq.feature_dim, "shared_subjects": True,
                   "sessions": session_entries}, fh, indent=2)
        fh.write("\n")
    return manifest_path


# ids and label names holding every character the CSV writer must quote
SPECIAL = [",", '"', "\n", "\r", " ", "\t", "é", "字", "١", "_", "#"]
ID_TEXT = st.text(st.sampled_from(SPECIAL + ["a", "b", "1"])
                  | st.characters(codec="utf-8", exclude_characters="\0"), max_size=6)
LABEL_NAMES = ("calm", "a,b", 'say "hi"', " lead", "x\ny", "naïve")
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sequences(draw):
    """A SessionSequence of one to three sessions with drawn ids, labels and values."""
    dim = draw(st.integers(1, 4))
    registry = LabelRegistry(LABEL_NAMES)
    sessions = []
    for t in range(1, draw(st.integers(1, 3)) + 1):
        sample_ids = draw(st.lists(ID_TEXT, min_size=1, max_size=5, unique=True))
        n = len(sample_ids)
        subject_ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n))
        labels = draw(st.lists(st.integers(0, len(LABEL_NAMES) - 1), min_size=n, max_size=n))
        features = draw(st.lists(st.lists(FLOATS, min_size=dim, max_size=dim),
                                 min_size=n, max_size=n))
        sessions.append(SessionDataset.build(t, features, labels, sample_ids, subject_ids))
    return SessionSequence.build(sessions, registry, dim)


@settings(max_examples=150, deadline=None)
@given(seq=sequences())
def test_write_stream_bytes_equal_the_reference_and_round_trip(tmp_path_factory, seq):
    out = tmp_path_factory.mktemp("write")
    manifest = write_stream(seq, out / "new")
    reference_write_stream(seq, out / "reference")
    for path in sorted((out / "reference").iterdir()):
        assert (out / "new" / path.name).read_bytes() == path.read_bytes(), path.name
    loaded = load_sequence(manifest)
    for orig, back in zip(seq.sessions, loaded.sessions, strict=True):
        assert back.sample_ids == orig.sample_ids
        assert back.subject_ids == orig.subject_ids
        assert [loaded.registry.name_of(c) for c in back.labels.tolist()] == \
            [seq.registry.name_of(c) for c in orig.labels.tolist()]
        assert back.features.tobytes() == orig.features.tobytes()


def test_written_stream_takes_the_bulk_path(tmp_path, monkeypatch):
    """Every line `write_stream` writes is plain, with no `"`, NUL or bare CR,
    so the loader splits each at its commas and never starts the CSV reader."""
    seq = generate_stream(SynthSpec(feature_dim=7, samples_per_class_per_session=4,
                                    subjects_per_session=8, seed=5))
    manifest = write_stream(seq, tmp_path / "stream")

    def csv_reader(*args, **kwargs):
        raise AssertionError("the CSV reader read a file write_stream wrote")

    monkeypatch.setattr(cdil.interface.csv, "reader", csv_reader)
    loaded = load_sequence(manifest)
    for orig, back in zip(seq.sessions, loaded.sessions, strict=True):
        assert back.sample_ids == orig.sample_ids
        assert back.features.tobytes() == orig.features.tobytes()


# feature values as the file may hold them: exact, non-finite, out of range,
# padded, malformed, or outside the ASCII float syntax `float` would still read
VALUES = ["0.5", "-0.0", "1e5", "+.5", "5.", "inf", "-inf", "nan", "NaN", "1e400", "-1e400",
          "1e-400", " 1.5", "2.5 ", "\t3", "4\x0b", "\x0c5", "", "abc", "0x10", "#1", "1,5",
          '"1"', "1\n", "1.0\r", "1_000", "١", "２.5", "\xa01.0", "\x1c1.0", "1.0\x1f"]
DAMAGES = ("value", "id", "duplicate", "label", "extra", "missing", "trailing", "comment",
           "header", "quote all", "line ending", "blank line", "no final line ending",
           "insert", "bad byte", "no rows")
INSERTS = ['"', "\0", "\r", "\n", "\r\n", ",", "#", " "]
LABELS = ("a", "b")  # declared for the session; "c" is registered but not declared


def damaged_feature_file(data, dim):
    """The bytes of a feature file with drawn rows and up to two damages: a
    record mutated, quoted in full, ended with another line ending or followed
    by a blank line; the final line ending left out; a character or a
    non-UTF-8 byte inserted anywhere; or no rows at all."""
    header = list(FEATURE_HEADER_FIXED) + [f"f{i}" for i in range(dim)]
    rows = [[f"x{i}", data.draw(st.sampled_from(["p", "q", "é"])),
             data.draw(st.sampled_from(LABELS))]
            + [repr(data.draw(FLOATS)) for _ in range(dim)]
            for i in range(data.draw(st.integers(1, 5)))]
    damages = data.draw(st.lists(st.sampled_from(DAMAGES), max_size=2))
    if "no rows" in damages:
        rows = []
    records = [header] + rows
    ending = data.draw(st.sampled_from(["\r\n", "\n"]))
    endings, quoting, after = [ending] * len(records), [csv.QUOTE_MINIMAL] * len(records), \
        [""] * len(records)
    for damage in damages:
        i = 0 if damage == "header" or not rows else data.draw(st.integers(1, len(rows)))
        record = records[i]
        if damage in ("value", "header") and len(record) > 3:  # a value field is left
            record[data.draw(st.integers(3, len(record) - 1))] = \
                data.draw(st.sampled_from(VALUES + ["f0", "f9", "x"]))
        elif damage == "id":
            record[data.draw(st.integers(0, 1))] = data.draw(ID_TEXT)
        elif damage == "duplicate" and len(rows) > 1:
            record[0] = rows[0][0] if i > 1 else rows[-1][0]
        elif damage == "label":
            record[2] = data.draw(st.sampled_from(["c", "undeclared", "a ", "A"]))
        elif damage == "extra":
            record.append("1.0")
        elif damage == "missing":
            record.pop()
        elif damage == "trailing":
            record.append("")
        elif damage == "comment":
            record[0] = "#" + record[0]
        elif damage == "quote all":
            quoting[i] = csv.QUOTE_ALL
        elif damage == "line ending":
            endings[i] = data.draw(st.sampled_from(["\r\n", "\n", "\r"]))
        elif damage == "blank line":
            after[i] = data.draw(st.sampled_from(["\r\n", "\n", "  \r\n"]))
    text = "".join(record_text(record, q, e) + blank
                   for record, q, e, blank in zip(records, quoting, endings, after))
    if "no final line ending" in damages:
        text = text.rstrip("\r\n")
    if "insert" in damages:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(INSERTS)) + text[at:]
    raw = text.encode("utf-8")
    if "bad byte" in damages:
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + raw[at:]
    return raw


def record_text(record, quoting, ending):
    buffer = io.StringIO()
    csv.writer(buffer, quoting=quoting, lineterminator=ending).writerow(record)
    return buffer.getvalue()


def holds_value_outside_ascii_syntax(raw):
    """Whether the CSV reader finds a feature value with a non-ASCII character
    or a `_` before any malformed record: `float` reads some of these, the
    loader rejects them all. A byte that is not UTF-8 is not counted."""
    reader = csv.reader(io.StringIO(raw.decode("utf-8", errors="replace"), newline=""))
    next(reader, None)
    try:
        return any("_" in v or not v.replace("\ufffd", "").isascii()
                   for record in reader for v in record[3:])
    except csv.Error:
        return False


def outcome(load, entry, registry, dim, session_index, shared_subjects):
    try:
        ds = load(entry, registry, dim, session_index, shared_subjects)
    except DataLoadError as exc:
        return ("error", str(exc), exc.line, exc.field)
    return ("loaded", ds.features.shape, ds.features.tobytes(), ds.sample_ids,
            ds.subject_ids, ds.labels.tolist(), ds.label_set)


def assert_loads_as_the_reference(path, raw, dim, session_index=1, shared_subjects=False,
                                  min_samples_per_class=0):
    """The loader returns what the reference returns, bit for bit, or raises the
    same DataLoadError text, line and field. The one difference: a file holding
    a feature value outside the ASCII float syntax never loads, and where the
    reference read that value with `float`, the loader rejects it as non-numeric."""
    path.write_bytes(raw)
    entry = SessionEntry(name="s", label_names=LABELS, features_path=str(path),
                         min_samples_per_class=min_samples_per_class)
    args = (entry, LabelRegistry(("c",) + LABELS), dim, session_index, shared_subjects)
    got = outcome(load_session_features, *args)
    expected = outcome(reference_load_session_features, *args)
    if holds_value_outside_ascii_syntax(raw):
        assert got[0] == "error", got
        if got != expected:
            assert got[3] == "features" and got[1].endswith("non-numeric feature value"), got
    else:
        assert got == expected


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_damaged_files_load_as_the_reference(tmp_path_factory, data):
    dim = data.draw(st.integers(1, 3))
    assert_loads_as_the_reference(tmp_path_factory.mktemp("load") / "s.csv",
                                  damaged_feature_file(data, dim), dim,
                                  data.draw(st.integers(1, 3)), data.draw(st.booleans()),
                                  data.draw(st.integers(0, 2)))


ROWS = [["sample_id", "subject_id", "label", "f0", "f1"], ["x0", "p", "a", "0.5", "-1.25"],
        ["x1", "q", "b", "1e-3", "2.0"], ["x2", "é", "a", "3.0", "4.5"]]


def with_row(i, row):
    return [row if j == i else list(r) for j, r in enumerate(ROWS)]


def csv_bytes(records, ending="\r\n", quoting=csv.QUOTE_MINIMAL):
    return "".join(record_text(r, quoting, ending) for r in records).encode("utf-8")


CLEAN = csv_bytes(ROWS)
ONE_DAMAGE = {
    **{f"value {value!r}": csv_bytes(with_row(2, ["x1", "q", "b", value, "2.0"]))
       for value in VALUES},
    **{f"row {row!r}": csv_bytes(with_row(2, row)) for row in (
        ["x1", "q", "c", "1", "2"], ["x1", "q", "undeclared", "1", "2"],
        ["x0", "q", "b", "1", "2"], ["x1", "q", "b", "1", "2", "3"], ["x1", "q", "b", "1"],
        ["x1", "q", "b", "1", "2", ""], ["#x1", "q", "b", "1", "2"],
        ["x,1", "q", "b", "1", "2"], ["x\n1", 'q"', "b", "1", "2"],
        ["x\x1c1", "q", "b", "1", "2"], ["x1", "q\x00", "b", "1", "2"])},
    **{f"header {header!r}": csv_bytes(with_row(0, header)) for header in (
        ["sample_id", "subject_id", "label", "f0"], ["sample_id", "subject", "label", "f0", "f1"],
        ["sample_id", "subject_id", "label", "f0", " f1"],
        ["sample_id", "subject_id", "label", "f0", "f1 "],
        ["sample_id,subject_id", "label", "f0", "f1"])},
    "quoted header field": CLEAN.replace(b"f1\r\n", b'"f1"\r\n', 1),
    "lf endings": csv_bytes(ROWS, "\n"),
    "bare cr endings": csv_bytes(ROWS, "\r"),
    "every field quoted": csv_bytes(ROWS, quoting=csv.QUOTE_ALL),
    "header only": csv_bytes(ROWS[:1]),
    "no final line ending": CLEAN[:-2],
    "cr as final line ending": CLEAN[:-1],
    "blank last line": CLEAN + b"\r\n",
    "spaces on the last line": CLEAN + b"  \n",
    "blank line between rows": CLEAN.replace(b"\r\nx1", b"\r\n\r\nx1"),
    "one lf ending": CLEAN.replace(b"\r\nx1", b"\nx1"),
    "one bare cr ending": CLEAN.replace(b"\r\nx1", b"\rx1"),
    "one quoted id": CLEAN.replace(b"x1,", b'"x1",'),
    "stray quote": CLEAN.replace(b"x1,", b'x"1,'),
    "bad byte in an id": CLEAN.replace(b"x1,", b"x\xff1,"),
    "bad byte in a value": CLEAN.replace(b"1e-3", b"1\xe9"),
    "empty file": b"",
    "byte order mark": b"\xef\xbb\xbf" + CLEAN,
}


@pytest.mark.parametrize("raw", ONE_DAMAGE.values(), ids=ONE_DAMAGE.keys())
def test_each_damage_loads_as_the_reference(tmp_path, raw):
    assert_loads_as_the_reference(tmp_path / "s.csv", raw, 2)


@pytest.mark.parametrize("raw", [CLEAN.replace(b"x1,", b'"x1",'), CLEAN.replace(b"q,", b"q\0,"),
                                 CLEAN.replace(b"2.0\r\n", b"2.0\r")],
                         ids=["quote", "nul", "bare cr"])
def test_the_csv_reader_starts_at_the_first_line_that_is_not_plain(tmp_path, monkeypatch, raw):
    """The lines before the first one with a `"`, NUL or bare CR are split at
    their commas; `csv.reader` is handed that line first each time it starts."""
    reader, first_lines = csv.reader, []

    def spy(lines, *args, **kwargs):
        lines = iter(lines)
        first = next(lines)
        first_lines.append(first)
        return reader(chain([first], lines), *args, **kwargs)

    path = tmp_path / "s.csv"
    path.write_bytes(raw)
    entry = SessionEntry(name="s", label_names=LABELS, features_path=str(path))
    monkeypatch.setattr(cdil.interface.csv, "reader", spy)
    load_session_features(entry, LabelRegistry(("c",) + LABELS), 2, 1)
    monkeypatch.undo()
    assert first_lines
    assert {line[:3] for line in first_lines} == {raw.split(b"\n")[2][:3].decode("utf-8")}
    assert_loads_as_the_reference(path, raw, 2)


ROWS_1 = [row[:4] for row in ROWS]  # one feature column


def with_values(rows, values):
    return [rows[0]] + [row[:3] + list(value) for row, value in zip(rows[1:], values)]


# value texts where `np.loadtxt` and `float` may disagree: an empty text, which
# `np.loadtxt` skips, a quoted `,`, at which it splits, and a quoted line end or NUL
ONE_PASS = {
    "one empty value": (csv_bytes(with_values(ROWS_1, [["0.5"], [""], ["3.0"]])), 1),
    "every value empty": (csv_bytes(with_values(ROWS_1, [[""]] * 3)), 1),
    "a quoted comma on every row": (csv_bytes(with_values(ROWS_1, [["1,5"]] * 3)), 1),
    "a quoted comma on every row, two columns":
        (csv_bytes(with_values(ROWS, [["1,5", "2"]] * 3)), 2),
    "every value ending in lf": (csv_bytes(with_values(ROWS_1, [["1\n"], ["2\n"], ["3\n"]])), 1),
    "every value ending in cr": (csv_bytes(with_values(ROWS_1, [["1\r"], ["2\r"], ["3\r"]])), 1),
    "every value a line end": (csv_bytes(with_values(ROWS_1, [["\n"], ["\r"], ["\r\n"]])), 1),
    "a quoted value holding nul":
        (csv_bytes(with_row(2, ["x1", "q", "b", "1\x005", "2.0"]), quoting=csv.QUOTE_ALL), 2),
    "every field quoted, one column": (csv_bytes(ROWS_1, quoting=csv.QUOTE_ALL), 1),
}


@pytest.mark.parametrize("raw, dim", ONE_PASS.values(), ids=ONE_PASS.keys())
def test_value_texts_load_as_the_reference(tmp_path, raw, dim):
    assert_loads_as_the_reference(tmp_path / "s.csv", raw, dim)


def test_a_file_replaced_after_it_is_opened_loads_as_opened(tmp_path, monkeypatch):
    """The ids, labels and values of a load come from the one file opened, as
    `write_stream` may `os.replace` the path while a load is reading it."""
    path, replacement = tmp_path / "s.csv", tmp_path / "replacement.csv"
    path.write_bytes(CLEAN)
    replacement.write_bytes(csv_bytes(with_values(ROWS, [["9.0", "9.0"]] * 3)))
    entry = SessionEntry(name="s", label_names=LABELS, features_path=str(path))
    load_args = (entry, LabelRegistry(("c",) + LABELS), 2, 1, False)
    expected = outcome(load_session_features, *load_args)
    opened = []

    def open_then_replace(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        opened.append(file)
        if replacement.exists():
            os.replace(replacement, file)
        return fh

    monkeypatch.setattr(cdil.interface, "open", open_then_replace, raising=False)
    assert outcome(load_session_features, *load_args) == expected
    assert opened == [path]
    assert b"9.0" in path.read_bytes()


def test_a_short_header_fails_before_the_expected_header_is_built(tmp_path):
    """A `feature_dim` far above the header's column count fails in memory that
    does not grow with it."""
    path = tmp_path / "s.csv"
    path.write_bytes(csv_bytes(ROWS_1))
    entry = SessionEntry(name="s", label_names=LABELS, features_path=str(path))
    tracemalloc.start()
    try:
        with pytest.raises(DataLoadError) as caught:
            load_session_features(entry, LabelRegistry(LABELS), 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (f"{path}: line 1: field 'header': header has 4 columns, "
                                 "expected 1000003 for feature_dim 1000000")
    assert peak < 2**22
