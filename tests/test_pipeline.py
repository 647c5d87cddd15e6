import hashlib
import logging
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cdil.core import ConfigurationError, NumericalError
from cdil.learners import FinetuneLearner, Learner, LearnerConfig
import cdil.pipeline
from cdil.pipeline import (ExperimentConfig, partition_sequence, run_experiment,
                           run_session, run_trial)
from cdil.rng import substream
from cdil.splitters import bind_folds
from cdil.synth import SynthSpec, generate_stream


class OracleLearner(Learner):
    """Always answers with the true label (looked up by feature bytes)."""

    def __init__(self, seq):
        from cdil.rch import RCHState
        self.rch = RCHState(seq.feature_dim)
        self._answers = {row.tobytes(): label for session in seq.sessions
                         for row, label in zip(session.features, session.labels.tolist())}

    def update(self, features, labels, sample_ids, label_set):
        self.rch.add_session(label_set)

    def transform(self, features):
        return np.asarray(features)

    def predict_many(self, features):
        return np.array([self._answers[np.asarray(x).tobytes()] for x in features])


class RandomGuessLearner(Learner):
    """Uniform draw over the classes seen so far."""

    def __init__(self, feature_dim, seed):
        from cdil.rch import RCHState
        self.rch = RCHState(feature_dim)
        self._rng = substream(seed, "guess")

    def update(self, features, labels, sample_ids, label_set):
        self.rch.add_session(label_set)

    def transform(self, features):
        return np.asarray(features)

    def predict_many(self, features):
        order = self.rch.class_order
        return np.array([order[self._rng.randbelow(len(order))]
                         for _ in range(len(features))])


@pytest.fixture(scope="module")
def small_stream():
    return generate_stream(SynthSpec(
        session_label_sets=(("a", "b", "c"), ("b", "c", "d"), ("a", "d", "e")),
        samples_per_class_per_session=10, subjects_per_session=6,
        feature_dim=8, seed=23))


def quick_config(**kwargs):
    defaults = dict(
        protocol="ilcv", k=5, learner="prototype",
        learner_config=LearnerConfig(epochs_first=2, epochs_later=2),
        seed=3,
        synth=SynthSpec(session_label_sets=(("a", "b"), ("b", "c")),
                        samples_per_class_per_session=10, subjects_per_session=5,
                        feature_dim=6, seed=3),
        deterministic=True)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRunSession:
    def test_accuracy_is_correct_over_total(self, small_stream):
        seq = small_stream
        assignments = partition_sequence(seq, 5, 1, "ilcv")
        masks = bind_folds(assignments, 1)
        learner = OracleLearner(seq)
        correct, total = run_session(learner, seq, masks, 1)
        assert correct == total == masks[0].sum()

    def test_oracle_learner_scores_one_everywhere(self, small_stream):
        seq = small_stream
        assignments = partition_sequence(seq, 5, 2, "slcv")
        result = run_trial(quick_config(), seq, assignments, 1,
                           learner_factory=lambda tau: OracleLearner(seq))
        assert result.per_session_accuracy == (1.0, 1.0, 1.0)

    def test_evaluation_set_is_union_of_bound_folds(self, small_stream):
        seq = small_stream
        assignments = partition_sequence(seq, 5, 7, "ilcv")
        masks = bind_folds(assignments, 2)
        evaluated = []

        class RecordingOracle(OracleLearner):
            def predict_many(self, features):
                evaluated.append({row.tobytes() for row in features})
                return super().predict_many(features)

        learner = RecordingOracle(seq)
        totals = []
        for t in range(1, seq.n + 1):
            _, total = run_session(learner, seq, masks, t)
            totals.append(total)
            expected = {row.tobytes() for i in range(t)
                        for row in seq.sessions[i].features[masks[i]]}
            assert evaluated[-1] == expected
            assert total == sum(masks[i].sum() for i in range(t))
        # monotone coverage
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_uniform_random_predictor_expectation(self, small_stream):
        # E[A_1] = 1/|L_1|; check the empirical mean over 50 seeds against
        # the binomial standard error
        seq = small_stream
        assignments = partition_sequence(seq, 5, 11, "ilcv")
        masks = bind_folds(assignments, 1)
        p = 1.0 / len(seq.cumulative_label_space(1))
        n_eval = masks[0].sum()
        seeds = range(50)
        accs = []
        for seed in seeds:
            learner = RandomGuessLearner(seq.feature_dim, seed)
            correct, total = run_session(learner, seq, masks, 1)
            assert total == n_eval
            accs.append(correct / total)
        se = math.sqrt(p * (1 - p) / (len(accs) * n_eval))
        assert abs(float(np.mean(accs)) - p) <= 3 * se

    def test_untrained_class_warning_names_the_trial(self, small_stream, caplog,
                                                      monkeypatch):
        # every sample of class 0 in session 1 is moved to fold 2, so trial 2
        # trains on none of them
        def starved(seq, k, seed, mode):
            first, *rest = partition_sequence(seq, k, seed, mode)
            folds = np.where(first == 2, 1, first)
            folds[seq.sessions[0].labels == 0] = 2
            return [folds, *rest]

        seq = small_stream
        assignments = starved(seq, 5, 1, "ilcv")
        warning = ("session 1: class 0 has no training samples in the bound split; "
                   "nothing trains it this session")
        caplog.set_level(logging.WARNING, logger="cdil.pipeline")
        run_session(OracleLearner(seq), seq, bind_folds(assignments, 2), 1)
        assert caplog.messages == [warning]
        caplog.clear()
        run_trial(quick_config(), seq, assignments, 2,
                  learner_factory=lambda tau: OracleLearner(seq))
        assert caplog.messages == [f"trial 2 {warning}"]
        caplog.clear()
        monkeypatch.setattr(cdil.pipeline, "build_sequence", lambda cfg: seq)
        monkeypatch.setattr(cdil.pipeline, "partition_sequence", starved)
        run_experiment(quick_config())
        assert caplog.messages == [f"trial 2 {warning}"]


class TestRunTrial:
    def test_single_session_equals_plain_kfold(self):
        seq = generate_stream(SynthSpec(session_label_sets=(("a", "b"),),
                                        samples_per_class_per_session=15,
                                        subjects_per_session=5, feature_dim=4, seed=9))
        assignments = partition_sequence(seq, 5, 9, "ilcv")
        result = run_trial(quick_config(), seq, assignments, 3,
                           learner_factory=lambda tau: OracleLearner(seq))
        assert result.n_sessions == 1
        assert result.total[0] == np.sum(assignments[0] == 3)

    def test_trials_differ_only_in_bound_fold(self, small_stream):
        seq = small_stream
        assignments = partition_sequence(seq, 5, 4, "ilcv")
        r1 = run_trial(quick_config(), seq, assignments, 1)
        r2 = run_trial(quick_config(), seq, assignments, 2)
        assert r1.trial_index == 1 and r2.trial_index == 2
        # same sessions, same evaluation sizes (folds are balanced within 1)
        assert len(r1.total) == len(r2.total)

    def test_rerun_reproduces_exactly(self, small_stream):
        seq = small_stream
        assignments = partition_sequence(seq, 5, 4, "slcv")
        cfg = quick_config(learner="finetune",
                           learner_config=LearnerConfig(epochs_first=3, epochs_later=2))
        a = run_trial(cfg, seq, assignments, 2)
        b = run_trial(cfg, seq, assignments, 2)
        assert a == b

    def test_training_data_isolation(self, small_stream):
        # the learner must never see a sample outside the bound training split
        seq = small_stream
        assignments = partition_sequence(seq, 5, 6, "ilcv")
        masks = bind_folds(assignments, 1)
        seen: list[tuple] = []

        class SpyLearner(OracleLearner):
            def update(self, features, labels, sample_ids, label_set):
                assert len(features) == len(labels) == len(sample_ids)
                seen.append(sample_ids)
                super().update(features, labels, sample_ids, label_set)

        run_trial(quick_config(), seq, assignments, 1,
                  learner_factory=lambda tau: SpyLearner(seq))
        for session, mask, ids in zip(seq.sessions, masks, seen):
            assert set(ids) == {sid for sid, m in zip(session.sample_ids, ~mask) if m}


class TestRunExperiment:
    def test_k_trials_and_aggregate(self):
        report = run_experiment(quick_config())
        assert report.k == 5
        assert len(report.trials) == 5
        assert [t.trial_index for t in report.trials] == [1, 2, 3, 4, 5]

    def test_rerun_identical_in_deterministic_mode(self):
        a = run_experiment(quick_config())
        b = run_experiment(quick_config())
        assert a == b

    def test_projection_drawn_once_per_experiment(self, monkeypatch):
        import cdil.learners
        import cdil.pipeline
        draw, make = cdil.learners.draw_projection, cdil.pipeline.make_learner
        draws, learners = [], []

        def counting_draw(*args):
            draws.append(draw(*args))
            return draws[-1]

        def recording_make(*args, **kwargs):
            learners.append(make(*args, **kwargs))
            return learners[-1]

        for module in (cdil.learners, cdil.pipeline):
            monkeypatch.setattr(module, "draw_projection", counting_draw)
        monkeypatch.setattr(cdil.pipeline, "make_learner", recording_make)
        cfg = quick_config()
        run_experiment(cfg)
        assert len(draws) == 1 and len(learners) == cfg.k
        assert all(learner.projection is draws[0] for learner in learners)
        assert draws[0].flags.writeable is False
        run_experiment(cfg)
        assert len(draws) == 2

    def test_slcv_and_ilcv_share_the_stream_but_not_folds(self):
        cfg_a = quick_config(protocol="slcv")
        cfg_b = quick_config(protocol="ilcv")
        seq = generate_stream(cfg_a.synth)
        slcv = partition_sequence(seq, 5, cfg_a.seed, "slcv")
        ilcv = partition_sequence(seq, 5, cfg_b.seed, "ilcv")
        assert not np.array_equal(slcv[0], ilcv[0])

    def test_session_evaluation_count_is_k_times_n(self, small_stream):
        seq = small_stream
        cfg = quick_config()
        assignments = partition_sequence(seq, cfg.k, cfg.seed, cfg.protocol)
        evaluations = 0

        class CountingLearner(OracleLearner):
            def predict_many(self, features):
                nonlocal evaluations
                evaluations += 1
                return super().predict_many(features)

        for tau in range(1, cfg.k + 1):
            run_trial(cfg, seq, assignments, tau,
                      learner_factory=lambda tau: CountingLearner(seq))
        assert evaluations == cfg.k * seq.n

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            quick_config(protocol="loso")
        with pytest.raises(ConfigurationError):
            quick_config(k=1)
        with pytest.raises(ConfigurationError):
            quick_config(learner="resnet")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(synth=None, manifest=None)

    def test_failure_aborts_whole_experiment(self):
        class ExplodingLearner(OracleLearner):
            def update(self, features, labels, sample_ids, label_set):
                raise RuntimeError("numerical blow-up")

        cfg = quick_config()
        seq = generate_stream(cfg.synth)
        with pytest.raises(RuntimeError, match="blow-up"):
            run_experiment(cfg, learner_factory=lambda tau: ExplodingLearner(seq))


RAGGED = SynthSpec(session_label_sets=(("a", "b", "c"), ("b", "c", "d"), ("a", "d", "e")),
                   samples_per_class_per_session=9, subjects_per_session=6, feature_dim=5,
                   seed=61)


class TestSessionMajor:
    """run_experiment trains every trial each session before the next; the
    results must be those of k separate one-trial runs."""

    def config(self, protocol, learner, **kwargs):
        return quick_config(protocol=protocol, learner=learner, seed=62, synth=RAGGED,
                            learner_config=LearnerConfig(epochs_first=3, epochs_later=2,
                                                         batch_size=4, **kwargs))

    @pytest.mark.parametrize("protocol", ["slcv", "ilcv"])
    @pytest.mark.parametrize("learner", ["finetune", "prototype"])
    def test_experiment_equals_separate_trials(self, protocol, learner):
        cfg = self.config(protocol, learner)
        seq = generate_stream(cfg.synth)
        assignments = partition_sequence(seq, cfg.k, cfg.seed, protocol)
        sizes = {int((~bind_folds(assignments, tau)[0]).sum()) for tau in range(1, cfg.k + 1)}
        assert len(sizes) > 1 or protocol == "ilcv"  # SLCV splits are ragged
        separate = [run_trial(cfg, seq, assignments, tau) for tau in range(1, cfg.k + 1)]
        assert list(run_experiment(cfg).trials) == separate

    @pytest.mark.parametrize("protocol", ["slcv", "ilcv"])
    def test_custom_factory_updates_each_trial(self, protocol):
        cfg = self.config(protocol, "finetune", head_init="gaussian")
        seq = generate_stream(cfg.synth)
        updates = []

        class CountingFinetune(FinetuneLearner):
            def update(self, *args):
                updates.append(self._trial)
                super().update(*args)

        report = run_experiment(cfg, learner_factory=lambda tau: CountingFinetune(
            seq.feature_dim, cfg.learner_config, cfg.seed, tau))
        # session-major: every trial once per session, in trial order
        assert updates == list(range(1, cfg.k + 1)) * seq.n
        assert report.trials == run_experiment(cfg).trials  # per trial == stacked

    @pytest.mark.parametrize("protocol", ["slcv", "ilcv"])
    def test_custom_learner_experiment_equals_separate_trials(self, protocol):
        cfg = self.config(protocol, "prototype")
        seq = generate_stream(cfg.synth)
        assignments = partition_sequence(seq, cfg.k, cfg.seed, protocol)
        factory = lambda tau: RandomGuessLearner(seq.feature_dim, tau)
        separate = [run_trial(cfg, seq, assignments, tau, factory)
                    for tau in range(1, cfg.k + 1)]
        assert list(run_experiment(cfg, learner_factory=factory).trials) == separate

    def test_non_finite_loss_in_one_trial_aborts_without_a_report(self, tmp_path,
                                                                  monkeypatch):
        import cdil.learners
        real = cdil.learners.finetune_loss_and_grads

        def poisoned(features, *args):
            loss, d_remap, d_map = real(features, *args)
            if len(features) >= 3:  # a stacked step of trials 1..k: poison trial 3
                loss[2] = np.nan
            return loss, d_remap, d_map

        monkeypatch.setattr(cdil.learners, "finetune_loss_and_grads", poisoned)
        cfg = self.config("slcv", "finetune")
        with pytest.raises(NumericalError,
                           match=r"non-finite loss at session 1, epoch 0, trial 3 \(lr=0.05\)"):
            run_experiment(replace(cfg, out=tmp_path))
        assert not any(tmp_path.iterdir())

    def test_divergence_aborts_without_a_report(self, tmp_path):
        cfg = quick_config(learner="finetune", out=tmp_path,
                           learner_config=LearnerConfig(learning_rate=1e300, epochs_first=30))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError,
                               match=r"non-finite loss at session \d+, epoch \d+, trial \d+"):
                run_experiment(cfg)
        assert not any(tmp_path.iterdir())


# report.json digests of the deterministic default-config runs, unchanged
# since the dict-of-rows head and the per-sample session objects were replaced
PINNED_REPORT_DIGESTS = {
    ("finetune", "slcv"): "8ffadde54237d3a88873bd182166a4e8341d96adaf6b134d93d0cc5b9e5a3596",
    ("finetune", "ilcv"): "10696d1e65d625ff574d4b87eaaca6ed92a08b3d2416bff5f95dff20b4576477",
    ("prototype", "slcv"): "ed304dbcbc80c6af4a671a0ba1fe08f120fbe167ded359ede66a30ecd7ff4337",
    ("prototype", "ilcv"): "2cb2d2ae7590078e4b2b43e2abe411760096c704114a6748f113f5dcf333c81c",
}


@pytest.mark.parametrize("learner,protocol", sorted(PINNED_REPORT_DIGESTS))
def test_pinned_report_digest(tmp_path, learner, protocol):
    cfg = ExperimentConfig(protocol=protocol, k=5, learner=learner, seed=11,
                           synth=SynthSpec(samples_per_class_per_session=20, seed=11),
                           out=tmp_path, deterministic=True)
    run_experiment(cfg)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == PINNED_REPORT_DIGESTS[(learner, protocol)]


def numpy_blas() -> str:
    """The name of the BLAS numpy was built with, or "" if numpy cannot say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 takes no `mode`
        return ""


def numpy_dispatch_targets(*families: str) -> str:
    """The names, space-separated, of numpy's runtime-dispatched SIMD targets
    of the given families ("avx512", "avx2") that this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    members = {"avx512": lambda name: name.startswith("AVX512") or name == "X86_V4",
               "avx2": lambda name: name in ("AVX2", "FMA3", "X86_V3")}
    return " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)
                    and any(members[family](name) for family in families))


@pytest.mark.skipif("openblas" not in numpy_blas().lower()
                    or platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="needs numpy linked to OpenBLAS on x86-64")
@pytest.mark.parametrize("families", [(), ("avx512",), ("avx512", "avx2")],
                         ids=["numpy-simd-on", "no-avx512", "no-avx512-no-avx2"])
def test_pinned_report_digests_hold_on_the_prescott_kernel(families):
    # OpenBLAS picks its kernels by CPU, and numpy its SIMD loops; the digests
    # must depend on neither choice. Prescott is the oldest x86-64 kernel, so
    # every such CPU runs it. numpy warns on a target it does not dispatch, and
    # a warning fails a test, so only targets it dispatches here are disabled.
    disabled = numpy_dispatch_targets(*families)
    if families and not disabled:
        pytest.skip(f"numpy dispatches no {' or '.join(families)} target on this CPU")
    src = str(Path(cdil.pipeline.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    if families:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_pinned_report_digest"],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(PINNED_REPORT_DIGESTS)} passed" in done.stdout
