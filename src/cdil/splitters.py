"""Per-session fold assignments (subject- or instance-level) and fold binding.

A partition is one read-only int array per session, the fold in 1..k of each
row. Both modes deal units, subjects (SLCV) or samples (ILCV), taken in sorted
order so folds depend only on session contents, fold count and seed: the
seeded xoshiro256** generator shuffles the index order of the sorted units,
and the i-th unit of the shuffle goes to fold (i mod k) + 1. Round-robin
dealing keeps fold sizes within one of each other, the closest realizable
reading of equal-size folds when k does not divide the unit count.

Binding fixes one fold index across all sessions: trial tau tests on the rows
of fold tau of every session (a boolean mask) and trains on the complement, so
a k-fold experiment is exactly k complete incremental runs rather than a
cross-session product. k is the largest fold of a partition: a session has at
least k units, so every fold 1..k holds some of its rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ConfigurationError, SessionDataset, check_choice, check_int
from .rng import Xoshiro256StarStar

SLCV = "slcv"
ILCV = "ilcv"
MODES = (SLCV, ILCV)


def partition(session: SessionDataset, k: int, seed: int, mode: str) -> np.ndarray:
    """The fold in 1..k of each row: SLCV deals subjects, so all samples of a
    subject share one fold; ILCV deals samples independently of subjects."""
    check_choice("mode", mode, MODES)
    check_int("k", k, 2)
    ids = session.subject_ids if mode == SLCV else session.sample_ids
    units = sorted(set(ids))
    if len(units) < k:
        raise ConfigurationError(
            f"session {session.session_index}: fewer "
            f"{'subjects' if mode == SLCV else 'samples'} than folds ({len(units)} < {k})")
    order = list(range(len(units)))
    Xoshiro256StarStar(seed).shuffle(order)
    fold_of = {units[j]: i % k + 1 for i, j in enumerate(order)}
    folds = np.fromiter(map(fold_of.__getitem__, ids), np.int64, len(ids))
    folds.flags.writeable = False
    return folds


def bind_folds(folds: Sequence[np.ndarray], trial_index: int) -> tuple[np.ndarray, ...]:
    """Bind fold `trial_index` across sessions: one boolean test mask per
    session, in session order. The trial trains on each mask's complement."""
    if not folds:
        raise ConfigurationError("bind_folds needs at least one partition")
    ks = [int(f.max()) for f in folds]
    for t, k in enumerate(ks, start=1):
        if k != ks[0]:
            raise ConfigurationError(
                f"partitions disagree on k: session {t} has {k} folds, session 1 has {ks[0]}")
    if not 1 <= trial_index <= ks[0]:
        raise IndexError(f"trial index {trial_index} out of range 1..{ks[0]}")
    return tuple(f == trial_index for f in folds)
