"""Remappable classification head: per-session head rows summed per class.

Every session contributes an independent block of head rows, one weight row
per class present in that session. Prediction remaps the rows into a single
matrix by summing, per class, the rows of all sessions that contain the
class, and takes the argmax of the dot products with the feature vector,
which is the argmax of their softmax. A class that recurs in several
sessions therefore keeps one preserved row per session, and the sum is its
effective classifier.

Both sums, of sessions 1..n (`remap`) and of the frozen sessions 1..n-1
(`frozen`), are computed on each call, per class in session order starting
from zeros. A finetune step adds the newest block to `frozen` last, which is
the same order, so its remap is the same bit for bit.

Heads carry no bias term; callers that want one append a constant-1 feature
instead, which keeps the per-class summation semantics uniform.
"""

from __future__ import annotations

from typing import AbstractSet

import numpy as np

from .core import ConfigurationError, check_int


class RCHState:
    """All head rows of one learner in one (R, d) array.

    Session t's rows form one contiguous (n_t, d) block, in sorted class
    order; `_row_class` names the class of every row and `_row_pos` its
    class's position in `class_order`. One RCHState belongs to exactly one
    trial.
    """

    def __init__(self, feature_dim: int):
        check_int("feature_dim", feature_dim, 1)
        self.feature_dim = feature_dim
        self._rows = np.zeros((0, feature_dim))
        self._row_class = np.zeros(0, dtype=np.int64)
        self._row_pos = self._row_class
        self._order: tuple[int, ...] = ()
        self._bounds = [0]  # session t owns rows _bounds[t-1]:_bounds[t]

    @property
    def n_sessions(self) -> int:
        return len(self._bounds) - 1

    @property
    def known_classes(self) -> frozenset[int]:
        return frozenset(self._order)

    @property
    def class_order(self) -> tuple[int, ...]:
        """Known classes sorted by index; the row order of `remap`."""
        return self._order

    def add_session(self, label_set: AbstractSet[int], rows: np.ndarray | None = None) -> int:
        """Append the next session's block, one row per class of `label_set` in
        sorted order: `rows` of shape (n_t, d), or zeros. Returns the new
        session's index."""
        if not label_set:
            raise ConfigurationError("a session's label set must be non-empty")
        classes = sorted(label_set)
        rows = (np.zeros((len(classes), self.feature_dim)) if rows is None
                else self._checked(rows, len(classes), f"session {self.n_sessions + 1}"))
        self._rows = np.vstack([self._rows, rows])
        self._row_class = np.concatenate([self._row_class, classes])
        order, self._row_pos = np.unique(self._row_class, return_inverse=True)
        self._order = tuple(order.tolist())
        self._bounds.append(len(self._row_class))
        return self.n_sessions

    def _block(self, t: int) -> slice:
        if not 1 <= t <= self.n_sessions:
            raise IndexError(f"session index {t} out of range 1..{self.n_sessions}")
        return slice(self._bounds[t - 1], self._bounds[t])

    def _checked(self, rows: np.ndarray, n_rows: int, what: str) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        expected = (n_rows, self.feature_dim)
        if rows.shape != expected:
            raise ValueError(f"rows for {what} have shape {rows.shape}, expected {expected}")
        return rows

    def rows(self, t: int) -> np.ndarray:
        """A copy of session t's (n_t, d) block, one row per class in sorted order."""
        return self._rows[self._block(t)].copy()

    def set_rows(self, t: int, rows: np.ndarray) -> None:
        """Overwrite session t's rows with an (n_t, d) array, in class order."""
        block = self._block(t)
        self._rows[block] = self._checked(rows, block.stop - block.start, f"session {t}")

    def add_to_rows(self, t: int, deltas: np.ndarray) -> None:
        """Add an (n_t, d) array to session t's rows, in class order (gradient steps)."""
        block = self._block(t)
        self._rows[block] += self._checked(deltas, block.stop - block.start, f"session {t}")

    def remap(self) -> np.ndarray:
        """A new read-only remapped weight matrix: row i is the summed row of
        class_order[i].

        Summation runs in session order starting from zeros, so appending an
        all-zero session leaves existing rows bitwise unchanged.
        """
        return self._summed(len(self._row_class))

    def frozen(self) -> np.ndarray:
        """A new read-only remapped sum of sessions 1..n-1, in the order of `remap`."""
        return self._summed(self._bounds[-2])

    def _summed(self, stop: int) -> np.ndarray:
        if self.n_sessions == 0:
            raise ConfigurationError("remap needs at least one session")
        matrix = np.zeros((len(self._order), self.feature_dim))
        # unbuffered: rows added in order
        np.add.at(matrix, self._row_pos[:stop], self._rows[:stop])
        matrix.flags.writeable = False
        return matrix

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        """Predicted class index per row of `features` (shape (N, d)); ties
        break toward the lowest class index."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise ValueError(f"feature matrix has shape {features.shape}, "
                             f"expected (N, {self.feature_dim})")
        scores = features @ self.remap().T
        order = np.asarray(self.class_order)
        return order[np.argmax(scores, axis=1)]

