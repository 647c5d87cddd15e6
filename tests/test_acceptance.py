"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Criterion 8 (method ordering on the default stream) encodes the expected
ordering of the two baselines; it is a known failure of the default
configuration at linear desk scale. See the README's "Acceptance status"
section for the measured analysis. Every other criterion passes.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from cdil.cli import main as cli_main
from cdil.core import SessionDataset
from cdil.learners import (LearnerConfig, finetune_loss_and_grads, make_learner,
                           ridge_solve)
from cdil.metrics import TrialResult, average_accuracy, final_accuracy
from cdil.pipeline import ExperimentConfig, partition_sequence, run_experiment, run_session, run_trial
from cdil.rch import RCHState
from cdil.rng import Xoshiro256StarStar
from cdil.splitters import ILCV, SLCV, bind_folds, partition
from cdil.synth import DEFAULT_SESSION_LABELS, SynthSpec, generate_stream

ORDERING_SEEDS = (101, 102, 103, 104, 105)
FORGETTING_SEEDS = (201, 202, 203, 204, 205)
FORGETTING_DROP_PP = 10.0  # frozen from the pilot; observed drops 2.6..20.0 pp
DISJOINT_LABELS = (DEFAULT_SESSION_LABELS[0], ("anger", "contempt", "fear", "sad"),
                   DEFAULT_SESSION_LABELS[2], DEFAULT_SESSION_LABELS[3])


def report_criterion(num: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


class RecordingLearner:
    """Perfect predictor that records the exact evaluation sets it sees."""

    def __init__(self, seq):
        self.rch = RCHState(seq.feature_dim)
        self._answers = {row.tobytes(): (sid, label) for session in seq.sessions
                         for row, sid, label in zip(session.features, session.sample_ids,
                                                    session.labels.tolist())}
        self.evaluated_ids: list[set[str]] = []

    def update(self, features, labels, sample_ids, label_set):
        self.rch.add_session(label_set)

    def predict_many(self, features):
        ids = set()
        labels = []
        for x in np.asarray(features):
            sid, label = self._answers[x.tobytes()]
            ids.add(sid)
            labels.append(label)
        self.evaluated_ids.append(ids)
        return np.array(labels)

    @property
    def known_classes(self):
        return self.rch.known_classes


def session_with(n_subjects, per_subject, session_index=1):
    n = n_subjects * per_subject
    return SessionDataset.build(
        session_index, np.zeros((n, 1)), np.zeros(n, dtype=int),
        [f"x{p}-{j}" for p in range(n_subjects) for j in range(per_subject)],
        [f"p{p}" for p in range(n_subjects) for _ in range(per_subject)])


def random_rch_state(rng, max_dim=4, max_sessions=3, max_classes=5):
    dim = rng.randbelow(max_dim) + 1
    n_classes = rng.randbelow(max_classes - 1) + 2
    state = RCHState(dim)
    sessions = []  # each session's classes, in the sorted order of its block rows
    for _ in range(rng.randbelow(max_sessions) + 1):
        size = rng.randbelow(n_classes) + 1
        classes = set()
        while len(classes) < size:
            classes.add(rng.randbelow(n_classes))
        state.add_session(classes, rng.normals((len(classes), dim)))
        sessions.append(sorted(classes))
    return state, dim, sessions


@pytest.fixture(scope="module")
def default_sweep():
    """Fold-averaged accuracies of both stock learners on the default stream,
    both protocols, five seeds; shared by criteria 8 and 9."""
    sweep = {}
    for learner in ("finetune", "prototype"):
        for protocol in (SLCV, ILCV):
            for seed in ORDERING_SEEDS:
                cfg = ExperimentConfig(protocol=protocol, learner=learner, seed=seed,
                                       synth=SynthSpec(seed=seed))
                sweep[(learner, protocol, seed)] = run_experiment(cfg).mean_average
    return sweep


def test_criterion_01_metric_arithmetic_vs_reference_rows():
    start = time.time()
    rows = {
        (35.60, 25.74, 23.90, 21.04): (26.57, 21.04),
        (47.07, 37.25, 43.17, 39.08): (41.64, 39.08),
    }
    ok = True
    details = []
    for percents, (avg_expected, final_expected) in rows.items():
        trial = TrialResult(trial_index=1,
                            correct=tuple(round(p * 100) for p in percents),
                            total=(10000, 10000, 10000, 10000))
        avg = 100 * average_accuracy(trial)
        final = 100 * final_accuracy(trial)
        ok &= abs(avg - avg_expected) <= 0.005
        ok &= final == pytest.approx(final_expected, abs=1e-12)
        details.append(f"avg {avg:.4f} vs {avg_expected}, final {final:.2f} vs {final_expected}")
    report_criterion(1, ok, "; ".join(details), time.time() - start)


def test_criterion_02_protocol_shape():
    start = time.time()
    seq = generate_stream(SynthSpec(
        session_label_sets=(("a", "b", "c"), ("b", "c", "d"), ("c", "e")),
        samples_per_class_per_session=12, subjects_per_session=6,
        feature_dim=6, seed=77))
    k = 5
    assignments = partition_sequence(seq, k, 77, ILCV)
    cfg = ExperimentConfig(protocol=ILCV, k=k, learner="prototype", seed=77,
                           synth=SynthSpec(seed=77), deterministic=True)
    trials = []
    evaluations = 0
    for tau in range(1, k + 1):
        learner = RecordingLearner(seq)
        trials.append(run_trial(cfg, seq, assignments, tau,
                                learner_factory=lambda tau: learner))
        masks = bind_folds(assignments, tau)
        assert len(learner.evaluated_ids) == seq.n
        for t, ids in enumerate(learner.evaluated_ids, start=1):
            expected = set()
            for session, assignment, mask in zip(seq.sessions[:t], assignments, masks):
                assert np.array_equal(mask, assignment == tau)
                expected |= {sid for sid, fold in zip(session.sample_ids,
                                                      assignment.tolist()) if fold == tau}
            assert ids == expected, f"trial {tau} session {t} evaluation set mismatch"
        evaluations += len(learner.evaluated_ids)
    ok = len(trials) == k and evaluations == k * seq.n
    report_criterion(2, ok, f"{len(trials)} trials, {evaluations} session-evaluations "
                     f"(= {k}*{seq.n}); per-trial evaluation sets exact", time.time() - start)


def test_criterion_03_splitter_properties():
    start = time.time()
    rng = Xoshiro256StarStar(4242)
    cases = 1000
    for _ in range(cases):
        k = rng.randbelow(5) + 2
        n_subjects = k + rng.randbelow(15)
        per_subject = rng.randbelow(3) + 1
        seed = rng.next_u64()
        session = session_with(n_subjects, per_subject)
        for mode in (SLCV, ILCV):
            assignment = partition(session, k, seed, mode)
            folds = assignment.tolist()
            # partition / coverage: one fold in 1..k per row
            assert len(folds) == session.size
            assert all(1 <= f <= k for f in folds)
            # balance over the mode's units
            if mode == SLCV:
                unit_fold = {}
                for subject, fold in zip(session.subject_ids, folds):
                    assert unit_fold.setdefault(subject, fold) == fold
                counts = Counter(unit_fold.values())
            else:
                counts = Counter(folds)
            sizes = [counts.get(tau, 0) for tau in range(1, k + 1)]
            assert max(sizes) - min(sizes) <= 1
            # SLCV leakage freedom for every trial
            if mode == SLCV:
                for tau in range(1, k + 1):
                    (test,) = bind_folds([assignment], tau)
                    train_subj = {s for s, m in zip(session.subject_ids, ~test) if m}
                    test_subj = {s for s, m in zip(session.subject_ids, test) if m}
                    assert not (train_subj & test_subj)
            # seed determinism
            assert np.array_equal(partition(session, k, seed, mode), assignment)
    elapsed = time.time() - start
    report_criterion(3, elapsed < 10.0,
                     f"{cases} randomized cases x 2 modes: coverage, balance <= 1, "
                     f"SLCV leakage-freedom, determinism", elapsed)


def test_criterion_04_rch_oracle_equivalence():
    start = time.time()
    rng = Xoshiro256StarStar(31337)
    instances = 1000
    for _ in range(instances):
        state, dim, sessions = random_rch_state(rng)
        x = rng.normals(dim)
        # brute-force per-session logit summation, no remapped matrix
        logits = {}
        for t, classes in enumerate(sessions, start=1):
            for c, row in zip(classes, state.rows(t)):
                logits[c] = logits.get(c, 0.0) + float(x @ row)
        best = max(sorted(logits), key=lambda c: (logits[c], -c))
        assert state.predict_many(x[None])[0] == best
        matrix = state.remap()
        for pos, c in enumerate(state.class_order):
            remapped = float(x @ matrix[pos])
            assert abs(remapped - logits[c]) <= 1e-10 * max(1.0, abs(logits[c]))
    elapsed = time.time() - start
    report_criterion(4, elapsed < 5.0,
                     f"{instances} instances: predict == summation oracle, "
                     f"remap linearity within 1e-10", elapsed)


def test_criterion_05_finetune_gradient_check():
    start = time.time()
    rng = Xoshiro256StarStar(2718)
    instances = 50
    worst = 0.0
    for _ in range(instances):
        d, n_classes, batch = 5, 3, 6
        X = rng.normals((batch, d))
        y = np.array([rng.randbelow(n_classes) for _ in range(batch)])
        W = rng.normals((n_classes, d))
        F = rng.normals((d, d)) * 0.5 + np.eye(d)
        _, d_remap, d_map = finetune_loss_and_grads(X, y, W, F)
        h = 1e-5
        for param, analytic in ((W, d_remap), (F, d_map)):
            numeric = np.zeros_like(param)
            flat, gflat = param.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up, _, _ = finetune_loss_and_grads(X, y, W, F)
                flat[i] = orig - h
                down, _, _ = finetune_loss_and_grads(X, y, W, F)
                flat[i] = orig
                gflat[i] = (up - down) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-4
    elapsed = time.time() - start
    report_criterion(5, elapsed < 5.0,
                     f"{instances} instances d=5: worst relative error {worst:.2e} <= 1e-4",
                     elapsed)


def test_criterion_06_ridge_solve_residual():
    start = time.time()
    rng = Xoshiro256StarStar(99)
    instances = 100
    worst_ratio = 0.0
    for _ in range(instances):
        m = rng.randbelow(31) + 2  # M <= 32
        B = rng.normals((m, m)) * (10.0 ** (rng.randbelow(3) - 1))
        G = B @ B.T
        C = rng.normals((m, rng.randbelow(5) + 1))
        lam = 10.0 ** (rng.randbelow(5) - 2)
        W, _ = ridge_solve(G, C, lam)
        residual = np.linalg.norm((G + lam * np.eye(m)) @ W - C)
        bound = 1e-8 * (np.linalg.norm(G) + lam) * np.linalg.norm(W)
        worst_ratio = max(worst_ratio, residual / bound if bound else 0.0)
        assert residual <= bound
    elapsed = time.time() - start
    report_criterion(6, elapsed < 5.0,
                     f"{instances} instances M<=32: worst residual/bound {worst_ratio:.2e}",
                     elapsed)


def test_criterion_07_forgetting_reproduction():
    start = time.time()
    passes = 0
    drops = []
    for seed in FORGETTING_SEEDS:
        seq = generate_stream(SynthSpec(seed=seed, session_label_sets=DISJOINT_LABELS))
        assignments = partition_sequence(seq, 5, seed, SLCV)
        masks = bind_folds(assignments, 1)

        # pilot gate: nearest-class-mean oracle confirms session 1 is solvable
        session1 = seq.session(1)
        X_train, y_train = session1.features[~masks[0]], session1.labels[~masks[0]]
        X_test, y_test = session1.features[masks[0]], session1.labels[masks[0]]
        means = {c: X_train[y_train == c].mean(axis=0) for c in set(y_train.tolist())}
        oracle = np.mean([min(means, key=lambda c: np.linalg.norm(x - means[c])) == y
                          for x, y in zip(X_test, y_test.tolist())])
        assert oracle >= 0.9, f"seed {seed}: oracle {oracle:.3f} below solvability gate"

        def fold1_accuracy(learner):
            return float(np.mean(learner.predict_many(X_test) == y_test))

        learner = make_learner("finetune", seq.feature_dim, LearnerConfig(), seed, 1)
        run_session(learner, seq, masks, 1)
        after_1 = fold1_accuracy(learner)
        run_session(learner, seq, masks, 2)
        after_2 = fold1_accuracy(learner)
        drop = 100 * (after_1 - after_2)
        drops.append(drop)
        passes += drop >= FORGETTING_DROP_PP
    ok = passes >= 4
    report_criterion(7, ok,
                     f"drops {['%.1f' % d for d in drops]} pp, threshold {FORGETTING_DROP_PP} pp, "
                     f"{passes}/5 seeds", time.time() - start)


def test_criterion_08_method_ordering(default_sweep):
    # Criterion: prototype fold-averaged average-accuracy exceeds finetune's
    # on >= 4 of 5 seeds, under both protocols, on the default stream.
    # Known failure of the default configuration; asserted unweakened.
    start = time.time()
    details = []
    ok = True
    for protocol in (SLCV, ILCV):
        wins = sum(default_sweep[("prototype", protocol, s)]
                   > default_sweep[("finetune", protocol, s)] for s in ORDERING_SEEDS)
        gaps = [100 * (default_sweep[("prototype", protocol, s)]
                       - default_sweep[("finetune", protocol, s)]) for s in ORDERING_SEEDS]
        details.append(f"{protocol}: prototype wins {wins}/5 "
                       f"(gaps {['%.1f' % g for g in gaps]} pp)")
        ok &= wins >= 4
    report_criterion(8, ok, "; ".join(details), time.time() - start)


def test_criterion_09_protocol_gap(default_sweep):
    start = time.time()
    details = []
    ok = True
    for learner in ("finetune", "prototype"):
        wins = sum(default_sweep[(learner, ILCV, s)] >= default_sweep[(learner, SLCV, s)]
                   for s in ORDERING_SEEDS)
        gaps = [100 * (default_sweep[(learner, ILCV, s)] - default_sweep[(learner, SLCV, s)])
                for s in ORDERING_SEEDS]
        details.append(f"{learner}: ILCV >= SLCV on {wins}/5 "
                       f"(gaps {['%.1f' % g for g in gaps]} pp)")
        ok &= wins >= 4
    report_criterion(9, ok, "; ".join(details), time.time() - start)


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.time()
    config = {
        "protocol": "slcv", "k": 5, "seed": 12,
        "learner": {"variant": "prototype"},
        "data": {"synthetic": {"samples_per_class_per_session": 10,
                               "subjects_per_session": 10, "seed": 12}},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        code = cli_main(["run", "--config", str(config_path), "--deterministic",
                         "--out", str(out_dir)])
        assert code == 0
        outputs.append((out_dir / "report.json").read_bytes())
    ok = outputs[0] == outputs[1]
    report_criterion(10, ok, f"two deterministic runs: {len(outputs[0])}-byte reports "
                     f"{'identical' if ok else 'DIFFER'}", time.time() - start)


def test_criterion_11_full_default_experiment_runtime():
    start = time.time()
    total_samples = None
    for learner in ("finetune", "prototype"):
        for protocol in (SLCV, ILCV):
            spec = SynthSpec(seed=500, samples_per_class_per_session=100)
            cfg = ExperimentConfig(protocol=protocol, learner=learner, seed=500,
                                   synth=spec)
            report = run_experiment(cfg)
            assert report.k == 5
            if total_samples is None:
                total_samples = sum(len(labels) * spec.samples_per_class_per_session
                                    for labels in spec.session_label_sets)
    elapsed = time.time() - start
    ok = elapsed < 300.0 and 2000 <= total_samples <= 6000
    report_criterion(11, ok, f"4 sessions, {total_samples} samples, d=64, k=5, "
                     f"both learners x both protocols", elapsed)
