"""Per-session fold assignments (subject- or instance-level) and fold binding.

Both partition modes shuffle their units (subjects or samples, taken in
sorted order so assignments depend only on session contents, fold count, and
seed) with the seeded xoshiro256** generator and then deal unit i to fold
(i mod k) + 1. Round-robin dealing keeps fold sizes within one of each other,
the closest realizable reading of equal-size folds when k does not divide
the unit count.

A partition is one int array per session, the fold of each row. Binding
fixes one fold index across all sessions: trial tau tests on the rows of
fold tau of every session (a boolean mask) and trains on the complement, so
a k-fold experiment is exactly k complete incremental runs rather than a
cross-session product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigurationError, SessionDataset, check_choice, check_int
from .rng import Xoshiro256StarStar

SLCV = "slcv"
ILCV = "ilcv"
MODES = (SLCV, ILCV)


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """The fold index in 1..k of each row of one session (read-only)."""

    session_index: int
    k: int
    mode: str
    folds: np.ndarray

    def __post_init__(self):
        self.folds.flags.writeable = False


def _deal(units: Sequence[str], k: int, seed: int) -> np.ndarray:
    """Fold of each unit: the units, in sorted order, are shuffled and the
    i-th of the shuffle goes to fold (i mod k) + 1. Shuffling the index
    permutation that sorts the units gives the same folds as shuffling them."""
    order = sorted(range(len(units)), key=units.__getitem__)
    Xoshiro256StarStar(seed).shuffle(order)
    folds = np.empty(len(units), dtype=np.int64)
    folds[order] = np.arange(len(units)) % k + 1
    return folds


def slcv_partition(session: SessionDataset, k: int, seed: int) -> FoldAssignment:
    """Subject-level folds: all samples of a subject share one fold."""
    check_int("k", k, 2)
    n_subjects = len(session.subjects)
    if n_subjects < k:
        raise ConfigurationError(
            f"session {session.session_index}: fewer subjects than folds "
            f"({n_subjects} < {k})")
    subjects = sorted(session.subjects)
    subject_fold = dict(zip(subjects, _deal(subjects, k, seed).tolist()))
    folds = np.array([subject_fold[s] for s in session.subject_ids], dtype=np.int64)
    return FoldAssignment(session.session_index, k, SLCV, folds)


def ilcv_partition(session: SessionDataset, k: int, seed: int) -> FoldAssignment:
    """Instance-level folds: samples are dealt independently of subjects."""
    check_int("k", k, 2)
    if session.size < k:
        raise ConfigurationError(
            f"session {session.session_index}: fewer samples than folds "
            f"({session.size} < {k})")
    return FoldAssignment(session.session_index, k, ILCV,
                          _deal(session.sample_ids, k, seed))


def partition(session: SessionDataset, k: int, seed: int, mode: str) -> FoldAssignment:
    check_choice("mode", mode, MODES)
    return (slcv_partition if mode == SLCV else ilcv_partition)(session, k, seed)


def bind_folds(assignments: Sequence[FoldAssignment],
               trial_index: int) -> tuple[np.ndarray, ...]:
    """Bind fold `trial_index` across sessions: one boolean test mask per
    session, in session order. The trial trains on each mask's complement."""
    if not assignments:
        raise ConfigurationError("bind_folds needs at least one assignment")
    k = assignments[0].k
    mode = assignments[0].mode
    for a in assignments:
        if a.k != k or a.mode != mode:
            raise ConfigurationError(
                f"assignments disagree on (k, mode): session {a.session_index} "
                f"has ({a.k}, {a.mode}), expected ({k}, {mode})")
    if not 1 <= trial_index <= k:
        raise IndexError(f"trial index {trial_index} out of range 1..{k}")
    return tuple(a.folds == trial_index for a in assignments)
