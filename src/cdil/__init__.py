"""Benchmark engine for composite class-domain incremental learning."""

from .core import (ConfigurationError, DataLoadError, LabelRegistry, NumericalError,
                   ProtocolError, SessionDataset, SessionSequence)
from .learners import (FinetuneLearner, Learner, LearnerConfig, PrototypeLearner,
                       make_learner)
from .metrics import (ExperimentReport, TrialResult, aggregate, average_accuracy,
                      final_accuracy)
from .pipeline import ExperimentConfig, run_experiment, run_session, run_trial
from .rch import RCHState
from .splitters import bind_folds, partition
from .synth import DEFAULT_SESSION_LABELS, SynthSpec, generate_stream

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DataLoadError", "LabelRegistry", "NumericalError",
    "ProtocolError", "SessionDataset", "SessionSequence",
    "FinetuneLearner", "Learner", "LearnerConfig", "PrototypeLearner", "make_learner",
    "ExperimentReport", "TrialResult", "aggregate", "average_accuracy", "final_accuracy",
    "ExperimentConfig", "run_experiment", "run_session", "run_trial",
    "RCHState",
    "bind_folds", "partition",
    "DEFAULT_SESSION_LABELS", "SynthSpec", "generate_stream",
    "__version__",
]
