import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdil.core import ConfigurationError, ProtocolError
from cdil.metrics import (ExperimentReport, TrialResult, aggregate,
                          average_accuracy, final_accuracy)


def trial_from_accuracies(accuracies, trial_index=1, total=10000):
    # exact rational representation of each accuracy over a common denominator
    correct = tuple(round(a * total) for a in accuracies)
    return TrialResult(trial_index=trial_index, correct=correct,
                       total=tuple([total] * len(accuracies)))


def from_fields(cls, record):
    """`cls` built from the keys of `record` that name its fields."""
    return cls(**{f.name: record[f.name] for f in fields(cls)})


class TestFinalAccuracy:
    def test_constant_vector(self):
        assert final_accuracy(trial_from_accuracies([0.5, 0.5, 0.5, 0.5])) == 0.5

    def test_reference_finetune_row(self):
        # per-session percents 35.60, 25.74, 23.90, 21.04 -> final 21.04
        trial = trial_from_accuracies([0.3560, 0.2574, 0.2390, 0.2104])
        assert 100 * final_accuracy(trial) == pytest.approx(21.04, abs=1e-9)

    def test_single_session(self):
        assert final_accuracy(trial_from_accuracies([0.9])) == pytest.approx(0.9)

    def test_only_last_entry_matters(self):
        a = trial_from_accuracies([0.1, 0.9, 0.3])
        b = trial_from_accuracies([0.8, 0.2, 0.3])
        assert final_accuracy(a) == final_accuracy(b)


class TestAverageAccuracy:
    def test_reference_finetune_row(self):
        trial = trial_from_accuracies([0.3560, 0.2574, 0.2390, 0.2104])
        assert 100 * average_accuracy(trial) == pytest.approx(26.57, abs=0.005)

    def test_reference_prototype_row(self):
        trial = trial_from_accuracies([0.4707, 0.3725, 0.4317, 0.3908])
        assert 100 * average_accuracy(trial) == pytest.approx(41.64, abs=0.005)

    def test_constant_vector(self):
        assert average_accuracy(trial_from_accuracies([0.25] * 6)) == pytest.approx(0.25)

    def test_bounded_by_extremes(self):
        trial = trial_from_accuracies([0.2, 0.8, 0.5])
        accs = trial.per_session_accuracy
        assert min(accs) <= average_accuracy(trial) <= max(accs)


class TestTrialResult:
    def test_accuracy_is_exact_ratio(self):
        trial = TrialResult(trial_index=1, correct=(3,), total=(4,))
        assert trial.per_session_accuracy == (0.75,)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ProtocolError):
            TrialResult(trial_index=1, correct=(5,), total=(4,))
        with pytest.raises(ProtocolError):
            TrialResult(trial_index=1, correct=(1, 2), total=(4,))
        with pytest.raises(ConfigurationError, match="correct must be a list of length >= 1"):
            TrialResult(trial_index=1, correct=(), total=())

    def test_round_trips_through_dict(self):
        # `to_dict` writes the fields and the keys in DERIVED; the fields rebuild the trial
        trial = TrialResult(trial_index=2, correct=(3, 7), total=(4, 9))
        record = trial.to_dict()
        assert set(record) == {f.name for f in fields(TrialResult)} | set(TrialResult.DERIVED)
        assert from_fields(TrialResult, record) == trial


class TestAggregate:
    def test_identical_trials_equal_any_single_trial(self):
        trials = [trial_from_accuracies([0.3, 0.6], trial_index=i) for i in (1, 2, 3)]
        report = aggregate(trials)
        assert report.mean_per_session == trials[0].per_session_accuracy
        assert report.mean_final == final_accuracy(trials[0])
        assert report.mean_average == average_accuracy(trials[0])
        assert report.std_final == 0.0

    def test_mean_of_finals(self):
        trials = [trial_from_accuracies([0.1, 0.2], 1), trial_from_accuracies([0.3, 0.4], 2)]
        assert aggregate(trials).mean_final == pytest.approx(0.3)

    def test_ragged_trials_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate([trial_from_accuracies([0.1], 1), trial_from_accuracies([0.1, 0.2], 2)])

    def test_wrong_trial_count_rejected(self):
        with pytest.raises(ProtocolError, match="expected 5 trials, got 1"):
            aggregate([trial_from_accuracies([0.1], 1)], config={"k": 5})

    def test_repeated_trial_index_rejected(self):
        # one fold counted twice would pass for k = 2 folds
        trials = [TrialResult(1, (1,), (2,)), TrialResult(1, (2,), (2,))]
        with pytest.raises(ProtocolError, match="repeated trial index 1"):
            aggregate(trials, config={"k": 2})

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate([])

    def test_report_round_trips_through_dict(self):
        trials = [trial_from_accuracies([0.25, 0.5], 1), trial_from_accuracies([0.75, 0.5], 2)]
        report = aggregate(trials, config={"seed": 3})
        record = report.to_dict()
        assert set(record) == ({f.name for f in fields(ExperimentReport)}
                               | set(ExperimentReport.DERIVED))
        again = from_fields(ExperimentReport, record)
        again = replace(again, trials=tuple(from_fields(TrialResult, t) for t in again.trials))
        assert again == report

    @pytest.mark.parametrize("change,error", [
        ({"trials": ()}, "trials must be a list of length >= 1"),
        ({"config": []}, "config must be a JSON object, got []"),
        ({"config": {"k": 0}}, "config.k must be an integer >= 1, got 0"),
        ({"config": {"k": 2.0}}, "config.k must be an integer >= 1, got 2.0"),
    ])
    def test_report_checks_its_fields(self, change, error):
        report = aggregate([trial_from_accuracies([0.25, 0.5], 1)], config={"k": 1})
        with pytest.raises(ConfigurationError) as raised:
            replace(report, **change)
        assert str(raised.value).startswith(error)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 50))
                         .map(lambda ct: (min(ct), max(ct))), min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_aggregation_linearity(rows):
    # mean over trials of per-trial averages == average of the per-session means
    trials = [TrialResult(trial_index=i + 1,
                          correct=tuple(c for c, _ in row),
                          total=tuple(t for _, t in row))
              for i, row in enumerate(rows)]
    report = aggregate(trials)
    lhs = report.mean_average
    rhs = sum(report.mean_per_session) / len(report.mean_per_session)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def reference_aggregate(trials, config=None, expect_k=None):
    """The aggregation of the stored-field report, returning the record its
    `to_dict` wrote: the reference the derived aggregates must equal."""
    def _sample_std(values):
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))

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
    return {
        "config": dict(config or {}),
        "k": len(trials),
        "n_sessions": n,
        "trials": [t.to_dict() for t in trials],
        "mean_per_session": list(mean_per_session),
        "mean_final": sum(finals) / len(finals),
        "mean_average": sum(averages) / len(averages),
        "std_final": _sample_std(finals),
        "std_average": _sample_std(averages),
    }


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
           st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 1000))
                    .map(lambda ct: (min(ct), max(ct))), min_size=n, max_size=n),
           min_size=1, max_size=8)),
       st.randoms(use_true_random=False))
def test_derived_aggregates_equal_the_stored_ones(rows, random):
    """Every key of the report record, means and deviations included, is the
    stored-field aggregation's to the bit, for trials in any order."""
    trials = [TrialResult(trial_index=i + 1, correct=tuple(c for c, _ in row),
                          total=tuple(t for _, t in row))
              for i, row in enumerate(rows)]
    random.shuffle(trials)
    config = {"k": len(trials), "seed": 3}
    expected = reference_aggregate(trials, config, expect_k=len(trials))
    assert (json.dumps(aggregate(trials, config).to_dict(), sort_keys=True)
            == json.dumps(expected, sort_keys=True))
