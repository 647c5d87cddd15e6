"""Session accuracy bookkeeping and fold-averaged aggregation.

Per-session accuracies are stored as exact (correct, total) integer pairs so
reports can be re-derived without rounding drift; the real-valued accuracy,
the final accuracy (last session), and the average accuracy (mean over
sessions) are computed from those pairs on demand. A report holds only its
trials and config, and derives its aggregates across the k bound trials the
same way: each is a plain arithmetic mean in trial-index order, reported with
the sample standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from .core import ConfigurationError, ProtocolError, check_int, check_list


@dataclass(frozen=True)
class TrialResult:
    """One trial's per-session evaluation counts, sessions 1..n in order."""

    trial_index: int
    correct: tuple[int, ...]
    total: tuple[int, ...]

    DERIVED = ("per_session_accuracy", "final_accuracy", "average_accuracy")  # by `to_dict`

    def __post_init__(self):
        check_int("trial_index", self.trial_index, 1)
        for name in ("correct", "total"):
            counts = check_list(name, getattr(self, name), 1)
            for i, count in enumerate(counts, start=1):
                check_int(f"{name}[{i}]", count, 0)
            object.__setattr__(self, name, counts)
        if len(self.correct) != len(self.total):
            raise ProtocolError("correct/total vectors differ in length")
        for c, t in zip(self.correct, self.total):
            if t < 1 or c > t:
                raise ProtocolError(f"invalid counts ({c}, {t})")

    @property
    def n_sessions(self) -> int:
        return len(self.total)

    @property
    def per_session_accuracy(self) -> tuple[float, ...]:
        return tuple(c / t for c, t in zip(self.correct, self.total))

    def to_dict(self) -> dict[str, Any]:
        return {
            "trial_index": self.trial_index,
            "correct": list(self.correct),
            "total": list(self.total),
            "per_session_accuracy": list(self.per_session_accuracy),
            "final_accuracy": final_accuracy(self),
            "average_accuracy": average_accuracy(self),
        }


def final_accuracy(result: TrialResult) -> float:
    """Accuracy after the last session."""
    return result.per_session_accuracy[-1]


def average_accuracy(result: TrialResult) -> float:
    """Mean of the per-session accuracies."""
    acc = result.per_session_accuracy
    return sum(acc) / len(acc)


@dataclass(frozen=True)
class ExperimentReport:
    """The bound trials and the config echo. Every aggregate is derived from the
    trials' counts: a mean or sample standard deviation across the trials, in
    the order they are held."""

    trials: tuple[TrialResult, ...]
    config: dict[str, Any] = field(default_factory=dict)

    DERIVED = ("k", "n_sessions", "mean_per_session", "mean_final", "mean_average",
               "std_final", "std_average")  # by `to_dict`

    def __post_init__(self):
        object.__setattr__(self, "trials", check_list("trials", self.trials, 1))
        if not isinstance(self.config, dict):
            raise ConfigurationError(f"must be a JSON object, got {self.config!r}", "config")
        learner = self.config.get("learner", {})
        if not isinstance(learner, dict):  # `format_report_table` reads its variant
            raise ConfigurationError(f"must be a JSON object, got {learner!r}", "config.learner")
        check_int("config.k", self.config.get("k", 1), 1)  # k is optional

    @property
    def n_sessions(self) -> int:
        return self.trials[0].n_sessions

    @property
    def k(self) -> int:
        return len(self.trials)

    @property
    def mean_per_session(self) -> tuple[float, ...]:
        return tuple(map(_mean, zip(*(t.per_session_accuracy for t in self.trials))))

    @property
    def mean_final(self) -> float:
        return _mean(list(map(final_accuracy, self.trials)))

    @property
    def mean_average(self) -> float:
        return _mean(list(map(average_accuracy, self.trials)))

    @property
    def std_final(self) -> float:
        return _sample_std(list(map(final_accuracy, self.trials)))

    @property
    def std_average(self) -> float:
        return _sample_std(list(map(average_accuracy, self.trials)))

    def to_dict(self) -> dict[str, Any]:
        return {"config": self.config, "trials": [t.to_dict() for t in self.trials],
                **{name: getattr(self, name) for name in self.DERIVED}}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def aggregate(trials: Sequence[TrialResult],
              config: dict[str, Any] | None = None) -> ExperimentReport:
    """The report of `trials` in trial-index order. There must be as many trials
    as the k that `config` records, if it records one."""
    if not trials:
        raise ProtocolError("cannot aggregate zero trials")
    trials = tuple(sorted(trials, key=lambda t: t.trial_index))
    n = trials[0].n_sessions
    for t in trials:
        if t.n_sessions != n:
            raise ProtocolError(
                f"ragged trials: trial {t.trial_index} has {t.n_sessions} sessions, "
                f"expected {n}")
    for before, t in zip(trials, trials[1:]):
        if before.trial_index == t.trial_index:
            raise ProtocolError(f"repeated trial index {t.trial_index}")
    report = ExperimentReport(trials, dict(config or {}))
    if report.k != report.config.get("k", report.k):
        raise ProtocolError(f"expected {report.config['k']} trials, got {report.k}")
    return report
