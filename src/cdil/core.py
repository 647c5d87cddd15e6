"""Domain types shared by every other module: sessions, label registry, errors.

A benchmark run sees an ordered stream of session datasets. Each session
carries its own label set; the label space the model must cover at session t
is the union of all label sets seen so far. Class indices are global and
assigned by first appearance in session order, so the space only ever grows.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """Invalid configuration (fold counts, label sets, spec fields). `field`
    names the offending field, if any; the text is "<field> <reason>"."""

    def __init__(self, reason: str, field: str | None = None):
        self.reason = reason
        self.field = field
        super().__init__(reason if field is None else f"{field} {reason}")


class ProtocolError(RuntimeError):
    """The evaluation protocol's preconditions were violated at runtime."""


class NumericalError(RuntimeError):
    """A numeric step produced non-finite or out-of-tolerance results."""


class DataLoadError(ValueError):
    """A manifest or feature file failed to load; names file/line/field."""

    def __init__(self, message: str, *, path=None, line: int | None = None,
                 field: str | None = None):
        self.path = path
        self.line = line
        self.field = field
        where = (None if path is None else str(path), None if line is None else f"line {line}",
                 None if field is None else f"field '{field}'")
        prefix = ": ".join(w for w in where if w is not None)
        super().__init__(f"{prefix}: {message}" if prefix else message)


def check_int(name: str, value, minimum: int | None = None) -> None:
    """Reject a value that is not an integer (a bool or a float included) or
    lies below `minimum`, naming the field."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigurationError(f"must be an integer{bound}, got {value!r}", name)


def check_real(name: str, value, minimum: float | None = None, strict: bool = False) -> None:
    """Like check_int, for a finite real number; `strict` excludes `minimum` itself."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
            or (minimum is not None and (value <= minimum if strict else value < minimum))):
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
        raise ConfigurationError(f"must be a finite number{bound}, got {value!r}", name)


def check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigurationError(f"must be true or false, got {value!r}", name)


def check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ConfigurationError(f"must be one of {choices}, got {value!r}", name)


def check_str(name: str, value) -> None:
    if not isinstance(value, str):
        raise ConfigurationError(f"must be a string, got {value!r}", name)


def check_list(name: str, value, minimum: int = 0) -> tuple:
    """`value` as a tuple if it is a list of at least `minimum` entries, else rejected."""
    if not isinstance(value, (list, tuple)) or len(value) < minimum:
        bound = f" of length >= {minimum}" if minimum else ""
        raise ConfigurationError(f"must be a list{bound}, got {value!r}", name)
    return tuple(value)


def check_names(name: str, value, minimum: int = 1) -> tuple[str, ...]:
    """`value` as a tuple if it is a list of at least `minimum` distinct strings."""
    names = check_list(name, value, minimum)
    if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
        raise ConfigurationError(f"must be a list of distinct strings, got {value!r}", name)
    return names


class LabelRegistry:
    """Class names mapped to contiguous 0-based indices, in first-appearance
    order; fixed at construction, where a repeated name keeps its first index."""

    def __init__(self, names: Iterable[str] = ()):
        self.names: tuple[str, ...] = tuple(dict.fromkeys(names))
        self._index = {name: index for index, name in enumerate(self.names)}

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown class name {name!r}") from None

    def name_of(self, index: int) -> str:
        if not 0 <= index < len(self.names):
            raise IndexError(f"class index {index} out of range 0..{len(self.names) - 1}")
        return self.names[index]

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True, eq=False)
class SessionDataset:
    """One session as columns: row i is (sample_ids[i], subject_ids[i],
    labels[i], features[i]). The arrays are read-only; the ids stay Python
    strings, so no id is truncated or compared as a fixed-width array entry."""

    session_index: int
    features: np.ndarray
    labels: np.ndarray
    sample_ids: tuple[str, ...]
    subject_ids: tuple[str, ...]
    label_set: frozenset[int]
    subjects: frozenset[str]

    @classmethod
    def build(cls, session_index: int, features, labels, sample_ids: Sequence[str],
              subject_ids: Sequence[str],
              label_set: AbstractSet[int] | None = None) -> "SessionDataset":
        """Validate and construct; `label_set` defaults to the realized labels.

        A declared label_set may be a superset of the realized labels (a class
        can legitimately end up with zero samples after filtering), never a
        subset.
        """
        features = np.array(features, dtype=np.float64)
        labels = np.array(labels, dtype=np.int64)
        sample_ids, subject_ids = tuple(sample_ids), tuple(subject_ids)
        n = len(sample_ids)
        if n < 1:
            raise ConfigurationError(f"session {session_index} has no samples")
        check_int("session_index", session_index, 1)
        if features.ndim != 2 or {len(features), len(subject_ids)} != {n} or labels.shape != (n,):
            raise ConfigurationError(f"session {session_index}: columns disagree in length")
        realized = frozenset(labels.tolist())
        if label_set is None:
            label_set = realized
        elif not realized <= frozenset(label_set):
            extra = sorted(realized - frozenset(label_set))
            raise ConfigurationError(
                f"session {session_index}: sample labels {extra} not in declared label set")
        if len(set(sample_ids)) != n:
            duplicate = next(sid for sid, count in Counter(sample_ids).items() if count > 1)
            raise ConfigurationError(
                f"session {session_index}: duplicate sample_id {duplicate!r}")
        features.flags.writeable = labels.flags.writeable = False
        return cls(session_index=session_index, features=features, labels=labels,
                   sample_ids=sample_ids, subject_ids=subject_ids,
                   label_set=frozenset(label_set), subjects=frozenset(subject_ids))

    @property
    def size(self) -> int:
        return len(self.sample_ids)


@dataclass(frozen=True, eq=False)
class SessionSequence:
    """The ordered session stream plus the global label registry."""

    sessions: tuple[SessionDataset, ...]
    registry: LabelRegistry
    feature_dim: int

    @classmethod
    def build(cls, sessions: Sequence[SessionDataset], registry: LabelRegistry,
              feature_dim: int) -> "SessionSequence":
        if not sessions:
            raise ConfigurationError("a sequence needs at least one session")
        for expected, session in enumerate(sessions, start=1):
            if session.session_index != expected:
                raise ConfigurationError(
                    f"session indices must run 1..n in order; "
                    f"position {expected} holds index {session.session_index}")
            if session.features.shape[1] != feature_dim:
                raise ValueError(
                    f"session {expected} has feature dimension "
                    f"{session.features.shape[1]}, expected {feature_dim}")
            unregistered = sorted(c for c in session.label_set if not 0 <= c < len(registry))
            if unregistered:
                raise ConfigurationError(
                    f"session {expected} carries unregistered labels {unregistered}")
        return cls(sessions=tuple(sessions), registry=registry, feature_dim=feature_dim)

    @property
    def n(self) -> int:
        return len(self.sessions)

    def _check_session_index(self, t: int) -> None:
        if not 1 <= t <= self.n:
            raise IndexError(f"session index {t} out of range 1..{self.n}")

    def session(self, t: int) -> SessionDataset:
        self._check_session_index(t)
        return self.sessions[t - 1]

    def cumulative_label_space(self, t: int) -> frozenset[int]:
        """Union of the label sets of sessions 1..t."""
        self._check_session_index(t)
        space: frozenset[int] = frozenset()
        for session in self.sessions[:t]:
            space |= session.label_set
        return space
