"""Session accuracy bookkeeping and fold-averaged aggregation.

Per-session accuracies are stored as exact (correct, total) integer pairs so
reports can be re-derived without rounding drift; the real-valued accuracy,
the final accuracy (last session), and the average accuracy (mean over
sessions) are computed from those pairs on demand. Aggregation across the k
bound trials is a plain arithmetic mean, reported with the sample standard
deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from .core import ConfigurationError, ProtocolError, check_int, check_list, check_real


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
    """Fold-averaged accuracies over all trials, plus the per-trial detail."""

    trials: tuple[TrialResult, ...]
    mean_per_session: tuple[float, ...]
    mean_final: float
    mean_average: float
    std_final: float
    std_average: float
    config: dict[str, Any] = field(default_factory=dict)

    DERIVED = ("k", "n_sessions")  # by `to_dict`

    def __post_init__(self):
        object.__setattr__(self, "trials", check_list("trials", self.trials, 1))
        object.__setattr__(self, "mean_per_session",
                           check_list("mean_per_session", self.mean_per_session))
        for i, value in enumerate(self.mean_per_session, start=1):
            check_real(f"mean_per_session[{i}]", value)
        for name in ("mean_final", "mean_average", "std_final", "std_average"):
            check_real(name, getattr(self, name))
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

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "k": self.k,
            "n_sessions": self.n_sessions,
            "trials": [t.to_dict() for t in self.trials],
            "mean_per_session": list(self.mean_per_session),
            "mean_final": self.mean_final,
            "mean_average": self.mean_average,
            "std_final": self.std_final,
            "std_average": self.std_average,
        }


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def aggregate(trials: Sequence[TrialResult], config: dict[str, Any] | None = None,
              expect_k: int | None = None) -> ExperimentReport:
    """Arithmetic means across trials, in trial-index order."""
    if not trials:
        raise ProtocolError("cannot aggregate zero trials")
    trials = tuple(sorted(trials, key=lambda t: t.trial_index))
    if expect_k is not None and len(trials) != expect_k:
        raise ProtocolError(f"expected {expect_k} trials, got {len(trials)}")
    n = trials[0].n_sessions
    for t in trials:
        if t.n_sessions != n:
            raise ProtocolError(
                f"ragged trials: trial {t.trial_index} has {t.n_sessions} sessions, "
                f"expected {n}")
    mean_per_session = tuple(
        sum(t.per_session_accuracy[i] for t in trials) / len(trials) for i in range(n))
    finals = [final_accuracy(t) for t in trials]
    averages = [average_accuracy(t) for t in trials]
    return ExperimentReport(
        trials=trials,
        mean_per_session=mean_per_session,
        mean_final=sum(finals) / len(finals),
        mean_average=sum(averages) / len(averages),
        std_final=_sample_std(finals),
        std_average=_sample_std(averages),
        config=dict(config or {}),
    )
