"""Remappable classification head: per-session head rows summed per class.

Every session contributes an independent block of head rows, one weight row
per class present in that session. Prediction remaps the rows into a single
matrix by summing, per class, the rows of all sessions that contain the
class, then applies a softmax over the dot products with the feature vector.
A class that recurs in several sessions therefore keeps one preserved row
per session, and the sum is its effective classifier.

Heads carry no bias term; callers that want one append a constant-1 feature
instead, which keeps the per-class summation semantics uniform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Mapping

import numpy as np

from .core import ConfigurationError, LabelRegistry
from .rng import Xoshiro256StarStar


@dataclass(frozen=True)
class InitSpec:
    """How new head rows are initialized: exact zeros or small Gaussian."""

    kind: str = "zeros"  # "zeros" | "gaussian"
    std: float = 0.01

    def __post_init__(self):
        if self.kind not in ("zeros", "gaussian"):
            raise ConfigurationError(f"unknown head init {self.kind!r}")
        if not (math.isfinite(self.std) and self.std > 0):
            raise ConfigurationError("head init std must be finite and positive")


class RCHState:
    """All head rows of one learner in one (R, d) array, with cached remapping.

    Session t's rows form one contiguous block, in sorted class order;
    `_row_class` names the class of every row and `_row_pos` its class's
    position in `class_order`. Rows are written only through
    `set_rows` / `add_to_rows`, which invalidate the cached remapped matrix.
    One RCHState belongs to exactly one trial.
    """

    def __init__(self, feature_dim: int):
        if feature_dim < 1:
            raise ConfigurationError(f"feature dimension must be >= 1, got {feature_dim}")
        self.feature_dim = feature_dim
        self._rows = np.zeros((0, feature_dim))
        self._row_class = np.zeros(0, dtype=np.int64)
        self._row_pos = self._row_class
        self._order: tuple[int, ...] = ()
        self._bounds = [0]  # session t owns rows _bounds[t-1]:_bounds[t]
        self._remapped: np.ndarray | None = None

    @property
    def n_sessions(self) -> int:
        return len(self._bounds) - 1

    @property
    def known_classes(self) -> frozenset[int]:
        return frozenset(self._order)

    @property
    def class_sessions(self) -> dict[int, tuple[int, ...]]:
        sessions: dict[int, tuple[int, ...]] = {}
        for t in range(1, self.n_sessions + 1):
            for c in self._row_class[self._block(t)].tolist():
                sessions[c] = sessions.get(c, ()) + (t,)
        return sessions

    @property
    def class_order(self) -> tuple[int, ...]:
        """Known classes sorted by index; the row order of `remap`."""
        return self._order

    def add_session(self, label_set: AbstractSet[int], init: InitSpec = InitSpec(),
                    rng: Xoshiro256StarStar | None = None) -> int:
        """Append the next session's rows, one per class in `label_set`; returns
        the new session's index."""
        if not label_set:
            raise ConfigurationError("a session's label set must be non-empty")
        classes = sorted(label_set)
        if init.kind == "gaussian":
            if rng is None:
                raise ConfigurationError("gaussian head init needs an rng")
            rows = np.array([rng.normals(self.feature_dim) * init.std for _ in classes])
        else:
            rows = np.zeros((len(classes), self.feature_dim))
        self._rows = np.vstack([self._rows, rows])
        self._row_class = np.concatenate([self._row_class, classes])
        order, self._row_pos = np.unique(self._row_class, return_inverse=True)
        self._order = tuple(order.tolist())
        self._bounds.append(len(self._row_class))
        self._remapped = None
        return self.n_sessions

    def _block(self, t: int) -> slice:
        if not 1 <= t <= self.n_sessions:
            raise IndexError(f"session index {t} out of range 1..{self.n_sessions}")
        return slice(self._bounds[t - 1], self._bounds[t])

    def session_rows(self, t: int) -> dict[int, np.ndarray]:
        """A copy of session t's rows, keyed by class in sorted order."""
        block = self._block(t)
        return dict(zip(self._row_class[block].tolist(), self._rows[block].copy()))

    def set_rows(self, t: int, updates: Mapping[int, np.ndarray]) -> None:
        """Overwrite rows of session t; every key must be one of its classes."""
        block = self._block(t)
        index = {c: i for i, c in enumerate(self._row_class[block].tolist(), block.start)}
        self._remapped = None
        for c, row in updates.items():
            if c not in index:
                raise KeyError(f"class {c} has no row in session {t}")
            row = np.asarray(row, dtype=np.float64)
            if row.shape != (self.feature_dim,):
                raise ValueError(f"row for class {c} has shape {row.shape}, "
                                 f"expected ({self.feature_dim},)")
            self._rows[index[c]] = row

    def add_to_rows(self, t: int, deltas: np.ndarray) -> None:
        """Add an (n_t, d) array to session t's rows, in class order (gradient steps)."""
        block = self._block(t)
        deltas = np.asarray(deltas, dtype=np.float64)
        expected = (block.stop - block.start, self.feature_dim)
        if deltas.shape != expected:
            raise ValueError(f"deltas for session {t} have shape {deltas.shape}, "
                             f"expected {expected}")
        self._rows[block] += deltas
        self._remapped = None

    def remap(self) -> np.ndarray:
        """Remapped weight matrix, read-only: row i is the summed row of
        class_order[i].

        Summation runs in session order starting from zeros, so appending an
        all-zero session leaves existing rows bitwise unchanged.
        """
        if self.n_sessions == 0:
            raise ConfigurationError("remap needs at least one session")
        if self._remapped is None:
            matrix = np.zeros((len(self._order), self.feature_dim))
            np.add.at(matrix, self._row_pos, self._rows)  # unbuffered: rows added in order
            matrix.flags.writeable = False
            self._remapped = matrix
        return self._remapped

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.feature_dim,):
            raise ValueError(f"feature vector has shape {x.shape}, "
                             f"expected ({self.feature_dim},)")
        return self.remap() @ x

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities aligned with `class_order`."""
        return _softmax(self.logits(x))

    def predict(self, x: np.ndarray) -> int:
        """Most probable class index; ties break toward the lowest index."""
        return self.class_order[int(np.argmax(self.logits(x)))]

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        """Predicted class index per row of `features` (shape (N, d))."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise ValueError(f"feature matrix has shape {features.shape}, "
                             f"expected (N, {self.feature_dim})")
        scores = features @ self.remap().T
        order = np.asarray(self.class_order)
        return order[np.argmax(scores, axis=1)]

    def to_csv(self, path: str | Path, registry: LabelRegistry | None = None) -> None:
        """Dump all head rows as `session,class,w0..w{d-1}` for inspection/resume."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["session", "class"] + [f"w{i}" for i in range(self.feature_dim)])
            for t in range(1, self.n_sessions + 1):
                for c, row in self.session_rows(t).items():
                    name = registry.name_of(c) if registry is not None else str(c)
                    writer.writerow([t, name] + [repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path: str | Path, feature_dim: int,
                 registry: LabelRegistry | None = None) -> "RCHState":
        rows_by_session: dict[int, dict[int, np.ndarray]] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)  # header
            for row in reader:
                t = int(row[0])
                c = registry.index_of(row[1]) if registry is not None else int(row[1])
                rows_by_session.setdefault(t, {})[c] = np.array(
                    [float(v) for v in row[2:]])
        state = cls(feature_dim)
        for t in sorted(rows_by_session):
            rows = rows_by_session[t]
            state.add_session(frozenset(rows))
            state.set_rows(t, rows)
        return state


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / np.sum(exp)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for a (N, C) logit matrix."""
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=1, keepdims=True)
