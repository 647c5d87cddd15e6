"""Experiment orchestration: sessions in order, folds bound across sessions,
trials aggregated.

A trial is one complete incremental run: a fresh learner trains on the bound
training split of each session in turn and, after each session, is evaluated
on the union of the bound test folds of every session seen so far. A k-fold
experiment runs exactly k such trials (one per fold index), so the total
number of session evaluations is k*n rather than a cross-session product.
Trials run session-major: each session trains every trial's learner, then
evaluates each in trial-index order. Finetune trials take their SGD steps
stacked over a leading trial axis, bit for bit as each would alone, so every
run is sequential and deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from itertools import compress
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import interface
from .core import (ConfigurationError, ProtocolError, SessionSequence, check_bool,
                   check_choice, check_int)
from .learners import (FINETUNE, PROTOTYPE, VARIANTS, LearnerConfig, Learner,
                       config_with_defaults, draw_projection, make_learner, train_finetune)
from .metrics import ExperimentReport, TrialResult, aggregate
from .rng import derive_seed
from .splitters import MODES, bind_folds, partition
from .synth import SynthSpec, generate_stream

logger = logging.getLogger(__name__)


@dataclass
class ExperimentConfig:
    protocol: str = "slcv"
    k: int = 5
    learner: str = "finetune"
    learner_config: LearnerConfig = field(default_factory=LearnerConfig)
    seed: int = 0
    synth: SynthSpec | None = None
    manifest: str | Path | None = None
    out: str | Path | None = None
    # Every run is sequential and deterministic; the flag is only echoed.
    deterministic: bool = False

    def __post_init__(self):
        check_choice("protocol", self.protocol, MODES)
        check_int("k", self.k, 2)
        check_int("seed", self.seed)
        check_choice("learner", self.learner, VARIANTS)
        check_bool("deterministic", self.deterministic)
        if self.out == "":  # Path("") would mean the working directory
            raise ConfigurationError("must name a path, got ''", "out")
        if (self.synth is None) == (self.manifest is None):
            raise ConfigurationError("exactly one of synth spec or manifest path is required")

    def echo(self, feature_dim: int) -> dict[str, Any]:
        """Full configuration echo for reports (derived defaults resolved)."""
        learner_cfg = config_with_defaults(self.learner_config, feature_dim, self.seed)
        data = ({"synthetic": asdict(self.synth)} if self.synth is not None
                else {"manifest": str(self.manifest)})
        return {
            "protocol": self.protocol,
            "k": self.k,
            "seed": self.seed,
            "learner": {"variant": self.learner, **asdict(learner_cfg)},
            "data": data,
            "deterministic": self.deterministic,
        }


def split_seed(experiment_seed: int, mode: str, session_index: int) -> int:
    """Per-session fold seed; SLCV and ILCV runs over the same data stay independent."""
    return derive_seed(experiment_seed, "split", mode, session_index)


def partition_sequence(seq: SessionSequence, k: int, seed: int,
                       mode: str) -> list[np.ndarray]:
    return [partition(session, k, split_seed(seed, mode, session.session_index), mode)
            for session in seq.sessions]


def run_session(learner: Learner, seq: SessionSequence, test_masks: Sequence[np.ndarray],
                t: int) -> tuple[int, int]:
    """Train on the rows of session t outside its test mask, then evaluate on
    the masked rows of sessions 1..t; returns (correct, total)."""
    return _run_session([learner], seq, [test_masks], t)[0]


def _run_session(learners: Sequence[Learner], seq: SessionSequence,
                 test_masks: Sequence[Sequence[np.ndarray]], t: int,
                 train: Callable | None = None,
                 trial_indices: Sequence[int] | None = None) -> list[tuple[int, int]]:
    """Session t of every trial: train each learner on its own split, through
    `train(learners, splits, label_set)` or one `update` each; then evaluate
    each. Warnings name each trial's index from `trial_indices`, if given."""
    session = seq.session(t)
    splits = []
    for tau, masks in zip(trial_indices or [None] * len(test_masks), test_masks):
        rows = ~masks[t - 1]
        if not rows.any():
            raise ProtocolError(f"session {t}: empty training split")
        labels = session.labels[rows]
        where = f"session {t}" if tau is None else f"trial {tau} session {t}"
        for c in sorted(session.label_set - set(labels.tolist())):
            logger.warning(
                "%s: class %d has no training samples in the bound split; "
                "nothing trains it this session", where, c)
        splits.append((session.features[rows], labels,
                       tuple(compress(session.sample_ids, rows))))
    if train is not None:
        train(learners, splits, session.label_set)
    else:
        for learner, split in zip(learners, splits):
            learner.update(*split, session.label_set)
    expected_space = seq.cumulative_label_space(t)
    results = []
    for learner, masks in zip(learners, test_masks):
        if learner.known_classes != expected_space:
            raise ProtocolError(
                f"session {t}: learner knows {sorted(learner.known_classes)}, "
                f"expected cumulative label space {sorted(expected_space)}")
        seen = list(zip(seq.sessions[:t], masks))
        test_labels = np.concatenate([s.labels[mask] for s, mask in seen])
        predictions = learner.predict_many(np.concatenate([s.features[m] for s, m in seen]))
        results.append((int(np.sum(predictions == test_labels)), len(test_labels)))
    return results


LearnerFactory = Callable[[int], Learner]


def _run_trials(cfg: ExperimentConfig, seq: SessionSequence,
                folds: Sequence[np.ndarray], trial_indices: Sequence[int],
                learner_factory: LearnerFactory | None) -> list[TrialResult]:
    """The trials `trial_indices`, session-major. Learners made here from `cfg`
    share one prototype projection; finetune ones train stacked."""
    test_masks = [bind_folds(folds, tau) for tau in trial_indices]
    train = train_finetune if learner_factory is None and cfg.learner == FINETUNE else None
    if learner_factory is None:
        # Every trial would draw the same projection; draw it once, read-only.
        projection = (draw_projection(seq.feature_dim, cfg.learner_config, cfg.seed)
                      if cfg.learner == PROTOTYPE else None)
        learner_factory = lambda tau: make_learner(
            cfg.learner, seq.feature_dim, cfg.learner_config, cfg.seed, tau, projection)
    learners = [learner_factory(tau) for tau in trial_indices]
    sessions = []  # per session, each trial's (correct, total)
    for t in range(1, seq.n + 1):
        sessions.append(_run_session(learners, seq, test_masks, t, train, trial_indices))
        for tau, (c, m) in zip(trial_indices, sessions[-1]):
            logger.info("trial %d session %d: accuracy %.4f (%d/%d)", tau, t, c / m, c, m)
    return [TrialResult(trial_index=tau, correct=tuple(c for c, _ in counts),
                        total=tuple(m for _, m in counts))
            for tau, counts in zip(trial_indices, zip(*sessions))]


def run_trial(cfg: ExperimentConfig, seq: SessionSequence,
              folds: Sequence[np.ndarray], trial_index: int,
              learner_factory: LearnerFactory | None = None) -> TrialResult:
    """One complete incremental run over all sessions with fold `trial_index` bound."""
    return _run_trials(cfg, seq, folds, [trial_index], learner_factory)[0]


def build_sequence(cfg: ExperimentConfig, values: bool = True) -> SessionSequence:
    if cfg.synth is not None:
        return generate_stream(cfg.synth)
    return interface.load_sequence(cfg.manifest, values)


def run_experiment(cfg: ExperimentConfig,
                   learner_factory: LearnerFactory | None = None) -> ExperimentReport:
    """Build the stream, partition every session, run all k trials, aggregate.

    Any trial failure aborts the whole experiment: a partial fold average
    would silently bias the reported means.
    """
    if cfg.out is not None:  # before any trial trains, so a failed run leaves no report
        interface.clear_report(cfg.out)
    seq = build_sequence(cfg)
    folds = partition_sequence(seq, cfg.k, cfg.seed, cfg.protocol)
    trials = _run_trials(cfg, seq, folds, range(1, cfg.k + 1), learner_factory)
    report = aggregate(trials, config=cfg.echo(seq.feature_dim))
    logger.info("experiment done: mean final %.4f, mean average %.4f",
                report.mean_final, report.mean_average)
    if cfg.out is not None:
        interface.write_report(report, cfg.out)
    return report
