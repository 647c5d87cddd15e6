"""Incremental learners behind one contract: update on a session, predict over
everything seen so far.

Two variants mirror the benchmark's baselines at linear desk scale:

* ``finetune`` — a trainable square feature map (the stand-in for a
  fine-tuned backbone) plus the current session's head rows, trained with
  mini-batch SGD on cross-entropy over the full cumulative label space.
  Earlier sessions' head rows are frozen; forgetting enters through the
  shared feature map and through new rows competing in the softmax. The k
  trials of an experiment train stacked, bit for bit as each would alone.
  A session's shuffles for every trial and epoch come from one draw,
  bit for bit as per-epoch draws; a trial whose words hold one `randbelow`
  would reject (about n/2⁶⁴ a word) draws its picks one at a time instead.

* ``prototype`` — a frozen random projection followed by a nonlinearity,
  with each session's head rows the ridge regression of its classes'
  one-hot targets on the projected training split. The split is taken in
  (label, sample id) order, so the heads are bitwise independent of sample
  order. One one-hot target matrix Y feeds every solve, made in the smaller
  space: with at least as many rows as head features (and always in
  ``cumulative`` mode) the p×p Gram HᵀH against HᵀY, else the n×n kernel
  HHᵀ against Y. The projection is drawn once per experiment, shared by its
  trials, and never changes, so all adaptation lives in the heads.

The default learning rate is 0.05: the published schedule (batch 16,
60 epochs then 10 per later session) is kept, but its 2e-5 rate targets
pre-trained deep backbones and would barely move a from-scratch linear
model.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import AbstractSet, Sequence

import numpy as np

from .core import (NumericalError, ProtocolError, check_bool, check_choice, check_int,
                   check_real)
from .rch import RCHState
from .rng import derive_seed, permute, shuffle_plans, substream

FINETUNE = "finetune"
PROTOTYPE = "prototype"
VARIANTS = (FINETUNE, PROTOTYPE)

RIDGE_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class LearnerConfig:
    learning_rate: float = 0.05
    batch_size: int = 16
    epochs_first: int = 60
    epochs_later: int = 10
    ridge_lambda: float = 1.0
    projection_dim: int | None = None  # default 4*d, resolved at construction
    projection_seed: int | None = None  # default derived from the experiment seed
    nonlinearity: str = "relu"  # "relu" | "identity"
    feature_map: bool = True  # finetune trains a d->d map every session
    head_init: str = "zeros"  # "zeros" | "gaussian"
    head_init_std: float = 0.01
    bias_feature: bool = False  # append a constant-1 feature before the heads
    prototype_stats: str = "per_session"  # "per_session" | "cumulative"

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate, 0)
        check_real("ridge_lambda", self.ridge_lambda, 0, strict=True)
        check_real("head_init_std", self.head_init_std, 0, strict=True)
        for name, minimum in (("batch_size", 1), ("epochs_first", 0), ("epochs_later", 0)):
            check_int(name, getattr(self, name), minimum)
        if self.projection_dim is not None:
            check_int("projection_dim", self.projection_dim, 1)
        if self.projection_seed is not None:
            check_int("projection_seed", self.projection_seed)
        check_bool("feature_map", self.feature_map)
        check_bool("bias_feature", self.bias_feature)
        check_choice("nonlinearity", self.nonlinearity, ("relu", "identity"))
        check_choice("head_init", self.head_init, ("zeros", "gaussian"))
        check_choice("prototype_stats", self.prototype_stats, ("per_session", "cumulative"))


class Learner(ABC):
    """Contract used by the pipeline: sequential updates, cumulative prediction."""

    rch: RCHState
    feature_dim: int

    @abstractmethod
    def update(self, features: np.ndarray, labels: np.ndarray, sample_ids: Sequence[str],
               label_set: AbstractSet[int]) -> None:
        """Consume session t's training split, one row per sample: features
        (N, d), labels (N,) and sample ids; afterwards the learner predicts
        over every class seen in sessions 1..t."""

    @abstractmethod
    def transform(self, features: np.ndarray) -> np.ndarray:
        """Map raw feature rows (N, d) into the space the heads live in."""

    @property
    def known_classes(self) -> frozenset[int]:
        return self.rch.known_classes

    def _training_split(self, features, labels, sample_ids) -> np.ndarray:
        """The features as float64 (N, d), checked before `update` changes any state."""
        features = np.asarray(features, dtype=np.float64)
        n = len(features)
        if (features.ndim != 2 or features.shape[1] != self.feature_dim
                or np.shape(labels) != (n,) or len(sample_ids) != n):
            raise ValueError(
                f"training split has features {features.shape}, labels {np.shape(labels)} "
                f"and {len(sample_ids)} sample ids; expected (N, {self.feature_dim}), (N,) and N")
        if not n:
            raise ProtocolError("empty training split: a bound fold consumed the whole session")
        return features

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        return self.rch.predict_many(self.transform(features))


def _append_bias(rows: np.ndarray) -> np.ndarray:
    return np.concatenate([rows, np.ones(rows.shape[:-1] + (1,))], axis=-1)


def finetune_loss_and_grads(
    features: np.ndarray,
    labels_pos: np.ndarray,
    remap_matrix: np.ndarray,
    feature_map: np.ndarray | None = None,
    bias_feature: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Cross-entropy over the remapped logits, with analytic gradients, for k
    trials: features (k, b, d), labels_pos (k, b), remap_matrix (k, C, h) and
    feature_map (k, d, d) or None; one trial's arrays may drop the k axis.

    Returns (losses, d_loss/d_remap_row per class, d_loss/d_feature_map or None),
    each trial's slice bit for bit a one-trial call: a matmul is one BLAS call
    per trial and a reduction runs along the last axis. The gradient w.r.t. a
    remapped row equals the gradient w.r.t. any single session's row of that
    class, because remapping is a per-class sum."""
    batch, classes = features.shape[-2], remap_matrix.shape[-2]
    # flat (trial, row, label) entries
    picked = labels_pos + classes * np.arange(labels_pos.size).reshape(labels_pos.shape)
    hidden = features @ feature_map.swapaxes(-1, -2) if feature_map is not None else features
    inputs = _append_bias(hidden) if bias_feature else hidden
    logits = inputs @ remap_matrix.swapaxes(-1, -2)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    norm = np.add.reduce(exp, axis=-1, keepdims=True)
    # the mean log-likelihood, summed and divided as np.mean does
    loss = -np.add.reduce(shifted.take(picked) - np.log(norm[..., 0]), axis=-1) / batch
    d_logits = exp / norm  # the softmax of the logits
    d_logits.reshape(-1)[picked] -= 1.0
    d_logits /= batch
    d_remap = d_logits.swapaxes(-1, -2) @ inputs
    d_map = None
    if feature_map is not None:
        d_hidden = d_logits @ remap_matrix
        if bias_feature:
            d_hidden = d_hidden[..., :-1]
        d_map = d_hidden.swapaxes(-1, -2) @ features
    return loss, d_remap, d_map


def finetune_step(features, labels_pos, frozen, heads, maps, session_pos, lr: float,
                  bias_feature: bool = False):
    """One SGD step of k trials, remapping as `RCHState.remap` does: `heads`
    (k, n_t, h) added at `session_pos` (positions, or a slice of them) to the
    frozen prefixes (k, C, h). Updates `heads` and the feature maps `maps`
    (k, d, d) or None in place; returns the losses."""
    remap = frozen.copy()
    remap[:, session_pos] += heads
    loss, d_remap, d_map = finetune_loss_and_grads(features, labels_pos, remap, maps,
                                                   bias_feature)
    step = d_remap[:, session_pos]  # scaled in place: d_remap is not read again
    step *= -lr
    heads += step
    if maps is not None:
        d_map *= lr
        maps -= d_map
    return loss


class FinetuneLearner(Learner):
    """Naive sequential fine-tuning: SGD on the newest session's head rows
    (and the shared feature map, when enabled) with everything earlier frozen."""

    def __init__(self, feature_dim: int, cfg: LearnerConfig,
                 experiment_seed: int = 0, trial_index: int = 1):
        self.feature_dim = feature_dim
        self.cfg = cfg
        self._seed = experiment_seed
        self._trial = trial_index
        self.feature_map = np.eye(feature_dim) if cfg.feature_map else None
        head_dim = feature_dim + (1 if cfg.bias_feature else 0)
        self.rch = RCHState(head_dim)

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        hidden = features @ self.feature_map.T if self.feature_map is not None else features
        return _append_bias(hidden) if self.cfg.bias_feature else hidden

    def update(self, features: np.ndarray, labels: np.ndarray, sample_ids: Sequence[str],
               label_set: AbstractSet[int]) -> None:
        train_finetune([self], [(features, labels, sample_ids)], label_set)


def _as_slice(positions: np.ndarray) -> np.ndarray | slice:
    """Sorted distinct `positions` as a slice when they are contiguous, so that
    indexing by them gives views rather than copies."""
    first, last = positions[[0, -1]].tolist()
    return slice(first, last + 1) if last - first == len(positions) - 1 else positions


def train_finetune(learners: Sequence[FinetuneLearner], splits: Sequence[tuple],
                   label_set: AbstractSet[int]) -> None:
    """Train k finetune learners of one config and one session history, each
    on its (features, labels, sample_ids) split of the next session. Shuffles
    and initial head blocks come from each trial's own substreams; the
    shuffle picks of every trial and epoch are drawn at once. At each
    batch start, the trials whose batches are equally long step in one
    `finetune_step` call, so each learner ends bit for bit as if trained alone."""
    first, cfg = learners[0], learners[0].cfg
    features = [learner._training_split(*split) for learner, split in zip(learners, splits)]
    t = first.rch.n_sessions + 1
    for learner in learners:
        rows = None
        if cfg.head_init == "gaussian":
            rng = substream(learner._seed, "finetune", learner._trial, t, "head-init")
            rows = rng.normals((len(label_set), learner.rch.feature_dim)) * cfg.head_init_std
        learner.rch.add_session(label_set, rows)
    order = first.rch.class_order
    session_pos = _as_slice(np.searchsorted(order, sorted(label_set)))
    prefix = np.stack([learner.rch.frozen() for learner in learners])
    heads = np.stack([learner.rch.rows(t) for learner in learners])
    maps = np.stack([learner.feature_map for learner in learners]) if cfg.feature_map else None
    # the splits padded to the longest; a padded row is never in a batch
    sizes = np.array([len(split) for split in features])
    k, longest, size = len(learners), int(sizes.max()), cfg.batch_size
    padded = np.zeros((k, longest, first.feature_dim))
    labels_pos = np.zeros((k, longest), dtype=np.intp)
    for i, (split, (_, labels, _)) in enumerate(zip(features, splits)):
        padded[i, :sizes[i]] = split
        labels_pos[i, :sizes[i]] = np.searchsorted(order, labels)
    steps = []  # (batch rows, the trials whose batch there has that many rows)
    for start in range(0, longest, size):
        lengths = np.minimum(sizes - start, size)
        for b in sorted(set(lengths[lengths > 0].tolist())):
            steps.append((slice(start, start + b), _as_slice(np.flatnonzero(lengths == b))))
    trials = np.array([learner._trial for learner in learners])
    epochs = cfg.epochs_first if t == 1 else cfg.epochs_later
    # every epoch's shuffle of every trial, bit for bit as per-epoch `shuffle` calls
    plans = shuffle_plans([substream(learner._seed, "finetune", learner._trial, t, "shuffle")
                           for learner in learners], sizes.tolist(), epochs)
    indices = [list(range(n)) for n in sizes.tolist()]
    perm, trial_axis = np.zeros((k, longest), dtype=np.intp), np.arange(k)[:, None]
    lr = cfg.learning_rate
    for epoch in range(epochs):
        for i, (plan, order_i) in enumerate(zip(plans, indices)):
            permute(order_i, plan[epoch])
            perm[i, :sizes[i]] = order_i
        # batches are then slices of one gather
        epoch_features, epoch_labels = padded[trial_axis, perm], labels_pos[trial_axis, perm]
        for batch, group in steps:
            head, fmap = heads[group], None if maps is None else maps[group]
            loss = finetune_step(epoch_features[group, batch], epoch_labels[group, batch],
                                 prefix[group], head, fmap, session_pos, lr, cfg.bias_feature)
            if not math.isfinite(loss.max()):
                raise NumericalError(
                    f"non-finite loss at session {t}, epoch {epoch}, "
                    f"trial {trials[group][~np.isfinite(loss)][0]} (lr={lr})")
            if not isinstance(group, slice):  # fancy indexing copied them
                heads[group] = head
                if maps is not None:
                    maps[group] = fmap
    for i, learner in enumerate(learners):
        learner.rch.set_rows(t, heads[i])
        if maps is not None:
            learner.feature_map = maps[i]


def ridge_solve(gram: np.ndarray, targets: np.ndarray, lam: float):
    """Solve (gram + lam*I) W = targets and verify the residual; return (W,
    the residual norm the check used). `gram` is the prototype's p×p Gram
    HᵀH or, for a per-session split of n < p rows, its n×n kernel HHᵀ. A
    non-finite system, solution or residual raises NumericalError, as does a
    residual above tolerance."""
    system = gram + lam * np.eye(gram.shape[0])
    if not (np.isfinite(system).all() and np.isfinite(targets).all()):
        raise NumericalError("ridge system has a non-finite entry")
    solution = np.linalg.solve(system, targets)
    residual = float(np.linalg.norm(system @ solution - targets))
    bound = RIDGE_RESIDUAL_RTOL * (np.linalg.norm(gram) + lam) * max(
        np.linalg.norm(solution), 1e-30)
    # a NaN residual fails both comparisons
    if not (np.isfinite(solution).all() and (residual <= bound or residual <= 1e-12)):
        raise NumericalError(
            f"ridge solve residual {residual:.3e} exceeds tolerance {bound:.3e}")
    return solution, residual


def draw_projection(feature_dim: int, cfg: LearnerConfig,
                    experiment_seed: int) -> np.ndarray:
    """The prototype learner's frozen random projection, read-only. It depends
    only on `cfg` and the seed, so `run_experiment` draws it once for k trials."""
    resolved = config_with_defaults(cfg, feature_dim, experiment_seed)
    rng = substream(resolved.projection_seed, "projection-matrix")
    projection = rng.normals((resolved.projection_dim, feature_dim)) / np.sqrt(feature_dim)
    projection.flags.writeable = False
    return projection


class PrototypeLearner(Learner):
    """Frozen random features plus closed-form ridge heads on one-hot targets."""

    def __init__(self, feature_dim: int, cfg: LearnerConfig,
                 experiment_seed: int = 0, projection: np.ndarray | None = None):
        self.feature_dim = feature_dim
        self.cfg = cfg
        self.projection = (projection if projection is not None
                           else draw_projection(feature_dim, cfg, experiment_seed))
        self.head_dim = self.projection.shape[0] + (1 if cfg.bias_feature else 0)
        self.rch = RCHState(self.head_dim)
        self._cumulative_gram = (np.zeros((self.head_dim, self.head_dim))
                                 if cfg.prototype_stats == "cumulative" else None)
        self._cumulative_sums: dict[int, np.ndarray] = {}
        # the residual norm of the latest session's ridge solve: of the n×n
        # kernel system when that session solved in the dual space
        self.last_residual: float = 0.0

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        hidden = features @ self.projection.T
        if self.cfg.nonlinearity == "relu":
            hidden = np.maximum(hidden, 0.0)
        return _append_bias(hidden) if self.cfg.bias_feature else hidden

    def update(self, features: np.ndarray, labels: np.ndarray, sample_ids: Sequence[str],
               label_set: AbstractSet[int]) -> None:
        features = self._training_split(features, labels, sample_ids)
        classes = sorted(label_set)
        cumulative = self.cfg.prototype_stats == "cumulative"
        t = self.rch.add_session(label_set)

        # Only for order independence: the ids are unique within a session,
        # so this order, and so every sum below, depends only on the samples.
        keys = list(zip(labels.tolist(), sample_ids))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        hidden = self.transform(features[order])
        onehot = (labels[order][:, None] == classes).astype(np.float64)
        lam = self.cfg.ridge_lambda
        if not cumulative and len(hidden) < self.head_dim:
            # Fewer rows than features: solve in the n×n kernel space, as
            # (HᵀH + λI)⁻¹HᵀY = Hᵀ(HHᵀ + λI)⁻¹Y.
            dual, self.last_residual = ridge_solve(hidden @ hidden.T, onehot, lam)
            self.rch.set_rows(t, (hidden.T @ dual).T)
            return
        # column i sums the rows of classes[i]; a class without rows gets zeros
        gram, targets = hidden.T @ hidden, hidden.T @ onehot
        if cumulative:
            gram = self._cumulative_gram = self._cumulative_gram + gram
            for c, column in zip(classes, targets.T):
                self._cumulative_sums[c] = self._cumulative_sums.get(c, 0.0) + column
            targets = np.stack([self._cumulative_sums[c] for c in classes], axis=1)
        solution, self.last_residual = ridge_solve(gram, targets, lam)
        rows = solution.T
        if cumulative:
            # Session t's rows are still zero, so remap() sums the earlier
            # sessions; subtracting it makes every class's summed row equal
            # the global ridge solution.
            rows = rows - self.rch.remap()[np.searchsorted(self.rch.class_order, classes)]
        self.rch.set_rows(t, rows)


def make_learner(variant: str, feature_dim: int, cfg: LearnerConfig | None = None,
                 experiment_seed: int = 0, trial_index: int = 1,
                 projection: np.ndarray | None = None) -> Learner:
    """A fresh learner; `projection` is a prototype projection drawn once per experiment."""
    cfg = cfg if cfg is not None else LearnerConfig()
    check_choice("variant", variant, VARIANTS)
    if variant == FINETUNE:
        return FinetuneLearner(feature_dim, cfg, experiment_seed, trial_index)
    return PrototypeLearner(feature_dim, cfg, experiment_seed, projection=projection)


def config_with_defaults(cfg: LearnerConfig, feature_dim: int,
                         experiment_seed: int) -> LearnerConfig:
    """Resolve the derived defaults (projection dim/seed) for reporting."""
    resolved = cfg
    if resolved.projection_dim is None:
        resolved = replace(resolved, projection_dim=4 * feature_dim)
    if resolved.projection_seed is None:
        resolved = replace(resolved, projection_seed=derive_seed(experiment_seed, "projection"))
    return resolved
