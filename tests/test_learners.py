import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdil.core import ConfigurationError, NumericalError, ProtocolError
from cdil.learners import (FinetuneLearner, LearnerConfig, PrototypeLearner,
                           finetune_loss_and_grads, finetune_step, make_learner, ridge_solve,
                           train_finetune)
from cdil.pipeline import ExperimentConfig, partition_sequence, run_experiment
from cdil.rng import Xoshiro256StarStar, substream
from cdil.splitters import bind_folds
from cdil.synth import SynthSpec, generate_stream


def columns(features, labels, prefix="s"):
    """A training split as `update` takes it: features, labels, sample ids."""
    features = np.asarray(features, dtype=float)
    return features, np.asarray(labels, dtype=np.int64), tuple(
        f"{prefix}{i}" for i in range(len(features)))


def perceptron_separable(features, labels, max_epochs=200):
    """Oracle: the pocketless perceptron converges iff the data is separable."""
    X = np.hstack([features, np.ones((len(features), 1))])
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    w = np.zeros(X.shape[1])
    for _ in range(max_epochs):
        mistakes = 0
        for xi, yi in zip(X, y):
            if yi * (w @ xi) <= 0:
                w += yi * xi
                mistakes += 1
        if mistakes == 0:
            return True
    return False


def nearest_class_mean_accuracy(train, test):
    (X, y, _), (X_test, y_test, _) = train, test
    means = {c: X[y == c].mean(axis=0) for c in set(y.tolist())}
    hits = sum(1 for x, label in zip(X_test, y_test.tolist())
               if min(means, key=lambda c: np.linalg.norm(x - means[c])) == label)
    return hits / len(X_test)


def gaussian_blobs(rng, means, per_class, sigma=1.0):
    samples = []
    for c, mean in enumerate(means):
        for _ in range(per_class):
            samples.append(mean + sigma * rng.normals(len(mean)))
    labels = [c for c in range(len(means)) for _ in range(per_class)]
    return np.array(samples), labels


def softmax_rows(logits):
    """Row-wise stable softmax of a (N, C) logit matrix."""
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=1, keepdims=True)


def reference_loss_and_grads(features, labels_pos, remap_matrix, feature_map=None,
                             bias_feature=False):
    """The two-`exp` cross-entropy and gradients `finetune_loss_and_grads` must
    reproduce bit for bit: log-softmax for the loss, a separate softmax for the
    gradient."""
    batch = features.shape[0]
    hidden = features @ feature_map.T if feature_map is not None else features
    inputs = np.hstack([hidden, np.ones((batch, 1))]) if bias_feature else hidden
    logits = inputs @ remap_matrix.T
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1))
    log_probs = shifted - log_norm[:, None]
    loss = float(-np.mean(log_probs[np.arange(batch), labels_pos]))
    d_logits = softmax_rows(logits)
    d_logits[np.arange(batch), labels_pos] -= 1.0
    d_logits /= batch
    d_remap = d_logits.T @ inputs
    d_map = None
    if feature_map is not None:
        d_hidden = d_logits @ remap_matrix
        if bias_feature:
            d_hidden = d_hidden[:, :-1]
        d_map = d_hidden.T @ features
    return loss, d_remap, d_map


def reference_finetune(sessions, feature_dim, cfg, seed, trial):
    """The finetune step loop of one trial as a plain function: per-epoch
    Fisher-Yates on `randbelow`, batches gathered by index lists, a full
    `np.add.at` remap and the two-`exp` gradients at every step.
    Returns (per-session head blocks, feature map)."""
    feature_map = np.eye(feature_dim) if cfg.feature_map else None
    head_dim = feature_dim + (1 if cfg.bias_feature else 0)
    session_classes, blocks = [], []
    for t, (features, labels, label_set) in enumerate(sessions, start=1):
        classes = sorted(label_set)
        session_classes.append(classes)
        blocks.append(substream(seed, "finetune", trial, t, "head-init").normals(
            (len(classes), head_dim)) * cfg.head_init_std if cfg.head_init == "gaussian"
            else np.zeros((len(classes), head_dim)))
        order = sorted(set().union(*session_classes))
        row_pos = np.searchsorted(order, np.concatenate(session_classes))
        labels_pos = np.searchsorted(order, labels)
        session_pos = np.searchsorted(order, classes)
        shuffle_rng = substream(seed, "finetune", trial, t, "shuffle")
        indices = list(range(len(features)))
        for epoch in range(cfg.epochs_first if t == 1 else cfg.epochs_later):
            for i in range(len(indices) - 1, 0, -1):
                j = shuffle_rng.randbelow(i + 1)
                indices[i], indices[j] = indices[j], indices[i]
            for start in range(0, len(indices), cfg.batch_size):
                batch = indices[start:start + cfg.batch_size]
                remap = np.zeros((len(order), head_dim))
                np.add.at(remap, row_pos, np.vstack(blocks))
                loss, d_remap, d_map = reference_loss_and_grads(
                    features[batch], labels_pos[batch], remap, feature_map, cfg.bias_feature)
                assert np.isfinite(loss)
                blocks[-1] += -cfg.learning_rate * d_remap[session_pos]
                if feature_map is not None:
                    feature_map = feature_map - cfg.learning_rate * d_map
    return blocks, feature_map


class TestLearnerConfig:
    def test_defaults_valid(self):
        cfg = LearnerConfig()
        assert cfg.batch_size == 16
        assert cfg.epochs_first == 60
        assert cfg.epochs_later == 10
        assert cfg.ridge_lambda == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": -1.0},
        {"batch_size": 0},
        {"ridge_lambda": 0.0},
        {"nonlinearity": "tanh"},
        {"prototype_stats": "weird"},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"ridge_lambda": math.nan},
        {"ridge_lambda": math.inf},
        {"head_init_std": math.nan},
        {"head_init_std": math.inf},
        {"head_init_std": 0.0},
        {"learning_rate": "fast"},
        {"ridge_lambda": True},
        {"batch_size": 2.5},
        {"batch_size": True},
        {"epochs_first": 1.0},
        {"epochs_later": "2"},
        {"projection_dim": 8.0},
        {"projection_seed": "7"},
        {"feature_map": "false"},
        {"bias_feature": 1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            LearnerConfig(**kwargs)


class TestFinetune:
    def test_zero_learning_rate_is_a_no_op(self):
        rng = substream(1, "lr0")
        learner = FinetuneLearner(3, LearnerConfig(learning_rate=0.0, epochs_first=3))
        X = rng.normals((8, 3))
        learner.update(*columns(X, [0, 1] * 4), {0, 1})
        assert np.array_equal(learner.rch.remap(), np.zeros((2, 3)))
        assert np.array_equal(learner.feature_map, np.eye(3))

    def test_reaches_perfect_training_accuracy_on_separable_data(self):
        rng = substream(2, "separable")
        X, y = gaussian_blobs(rng, [np.array([3.0, 0.0]), np.array([-3.0, 0.0])],
                              per_class=20, sigma=0.5)
        assert perceptron_separable(X, y)  # oracle gate before trusting the learner
        learner = FinetuneLearner(2, LearnerConfig(epochs_first=60))
        train = columns(X, y)
        learner.update(*train, {0, 1})
        preds = learner.predict_many(X)
        assert np.mean(preds == np.array(y)) == 1.0

    def test_single_class_session_loss_is_zero(self):
        # softmax over a single class is identically one: no gradient, no change
        learner = FinetuneLearner(2, LearnerConfig(epochs_first=5))
        X = np.array([[1.0, -1.0]])
        learner.update(*columns(X, [0]), {0})
        assert np.array_equal(learner.rch.remap(), np.zeros((1, 2)))
        assert learner.predict_many(X).tolist() == [0]

    def test_empty_training_split_rejected(self):
        with pytest.raises(ProtocolError):
            FinetuneLearner(2, LearnerConfig()).update(*columns(np.zeros((0, 2)), []), {0})

    def test_earlier_head_groups_frozen(self):
        rng = substream(3, "frozen")
        cfg = LearnerConfig(epochs_first=5, epochs_later=5)
        learner = FinetuneLearner(2, cfg)
        X1 = rng.normals((12, 2))
        learner.update(*columns(X1, [0, 1] * 6, prefix="a"), {0, 1})
        session1 = learner.rch.rows(1)  # classes 0, 1
        X2 = rng.normals((12, 2))
        learner.update(*columns(X2, [2, 3] * 6, prefix="b"), {2, 3})
        assert np.array_equal(learner.rch.rows(1), session1)

    def test_descent_on_fixed_batch_with_frozen_features(self):
        rng = substream(4, "descent")
        X, y = gaussian_blobs(rng, [np.array([1.0, 1.0]), np.array([-1.0, -1.0])],
                              per_class=8)
        cfg = LearnerConfig(feature_map=False, learning_rate=0.01,
                            epochs_first=1, batch_size=16)
        learner = FinetuneLearner(2, cfg)
        learner.rch.add_session({0, 1})
        labels_pos = np.array(y)
        losses = []
        for _ in range(10):
            loss, d_remap, _ = finetune_loss_and_grads(X, labels_pos, learner.rch.remap())
            losses.append(loss)
            learner.rch.add_to_rows(1, -cfg.learning_rate * d_remap)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_divergent_training_raises_numerical_error(self):
        from cdil.core import NumericalError
        rng = substream(6, "diverge")
        X = rng.normals((8, 3)) * 10
        train = columns(X, [0, 1] * 4)
        learner = FinetuneLearner(3, LearnerConfig(learning_rate=1e12, epochs_first=30))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="non-finite loss at session 1"):
                learner.update(*train, {0, 1})

    def test_gaussian_head_init(self):
        rng = substream(7, "ginit")
        X = rng.normals((6, 4))
        cfg = LearnerConfig(learning_rate=0.0, epochs_first=1,
                            head_init="gaussian", head_init_std=0.01)
        learner = FinetuneLearner(4, cfg)
        learner.update(*columns(X, [0, 1] * 3), {0, 1})
        rows = learner.rch.remap()
        assert not np.array_equal(rows, np.zeros_like(rows))
        assert np.all(np.abs(rows) < 0.1)  # draws at std 0.01

    def test_gaussian_head_init_draw_is_pinned(self):
        # each session's block is one (n_t, d) draw from its own substream,
        # in sorted class order; no epochs, so the rows stay as drawn
        rng = substream(8, "ginit-pin")
        cfg = LearnerConfig(epochs_first=0, epochs_later=0, head_init="gaussian",
                            head_init_std=0.03, bias_feature=True)
        learner = FinetuneLearner(5, cfg, experiment_seed=13, trial_index=2)
        for label_set in ({4, 0, 2}, {2, 7}):
            learner.update(*columns(rng.normals((2 * len(label_set), 5)), sorted(label_set) * 2),
                           label_set)
        for t, n_t in ((1, 3), (2, 2)):
            expected = substream(13, "finetune", 2, t, "head-init").normals((n_t, 6)) * 0.03
            assert np.array_equal(learner.rch.rows(t), expected)

    def test_forgetting_on_disjoint_sessions(self):
        # direction only: session-1 accuracy drops after training on session 2
        rng = substream(5, "forget")
        means1 = [rng.normals(8) * 2 for _ in range(2)]
        means2 = [rng.normals(8) * 2 for _ in range(2)]
        X1, y1 = gaussian_blobs(rng, means1, per_class=30, sigma=0.6)
        X2, y2raw = gaussian_blobs(rng, means2, per_class=30, sigma=0.6)
        y2 = [y + 2 for y in y2raw]
        test1, ytest1 = gaussian_blobs(rng, means1, per_class=15, sigma=0.6)
        learner = FinetuneLearner(8, LearnerConfig())
        learner.update(*columns(X1, y1, prefix="a"), {0, 1})
        acc_after_1 = np.mean(learner.predict_many(test1) == np.array(ytest1))
        learner.update(*columns(X2, y2, prefix="b"), {2, 3})
        acc_after_2 = np.mean(learner.predict_many(test1) == np.array(ytest1))
        assert acc_after_1 >= 0.9
        assert acc_after_2 < acc_after_1


class TestFinetuneGradients:
    def numeric_gradient(self, build_loss, param, h=1e-5):
        grad = np.zeros_like(param)
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = build_loss()
            flat[i] = original - h
            down = build_loss()
            flat[i] = original
            gflat[i] = (up - down) / (2 * h)
        return grad

    def test_matches_central_finite_differences(self):
        rng = Xoshiro256StarStar(2718)
        for _ in range(20):
            d, n_classes, batch = 5, 3, 7
            X = rng.normals((batch, d))
            y = np.array([rng.randbelow(n_classes) for _ in range(batch)])
            W = rng.normals((n_classes, d))
            F = rng.normals((d, d)) * 0.5 + np.eye(d)

            loss, d_remap, d_map = finetune_loss_and_grads(X, y, W, F)

            def loss_only():
                value, _, _ = finetune_loss_and_grads(X, y, W, F)
                return value

            num_w = self.numeric_gradient(loss_only, W)
            num_f = self.numeric_gradient(loss_only, F)
            assert np.linalg.norm(d_remap - num_w) <= 1e-4 * max(np.linalg.norm(num_w), 1e-8)
            assert np.linalg.norm(d_map - num_f) <= 1e-4 * max(np.linalg.norm(num_f), 1e-8)

    def test_session_row_gradient_equals_remap_row_gradient(self):
        # perturbing one session's row shifts the remapped row one-to-one
        rng = Xoshiro256StarStar(42)
        d = 4
        learner = FinetuneLearner(d, LearnerConfig(feature_map=False, epochs_first=1))
        learner.rch.add_session({0, 1}, rng.normals((2, d)))
        learner.rch.add_session({1, 2}, rng.normals((2, d)))
        X = rng.normals((6, d))
        y = np.array([rng.randbelow(3) for _ in range(6)])
        _, d_remap, _ = finetune_loss_and_grads(X, y, learner.rch.remap())
        h = 1e-6
        rows = learner.rch.rows(2)  # classes 1, 2
        for i in range(d):
            bump = np.zeros_like(rows)
            bump[0, i] = h
            learner.rch.set_rows(2, rows + bump)
            up, _, _ = finetune_loss_and_grads(X, y, learner.rch.remap())
            learner.rch.set_rows(2, rows - bump)
            down, _, _ = finetune_loss_and_grads(X, y, learner.rch.remap())
            learner.rch.set_rows(2, rows)
            numeric = (up - down) / (2 * h)
            assert numeric == pytest.approx(d_remap[1, i], rel=1e-3, abs=1e-7)


class TestFinetuneBitExact:
    def test_loss_and_grads_equal_the_two_exp_formula(self):
        rng = substream(31, "loss-bits")
        for _ in range(300):
            batch, d, n_classes = (rng.randbelow(40) + 1, rng.randbelow(12) + 1,
                                   rng.randbelow(10) + 1)
            bias = rng.randbelow(2) == 1
            scale = 10.0 ** (rng.randbelow(7) - 3)
            X = rng.normals((batch, d)) * scale
            y = np.array([rng.randbelow(n_classes) for _ in range(batch)])
            W = rng.normals((n_classes, d + bias)) * scale
            F = rng.normals((d, d)) if rng.randbelow(2) else None
            got = finetune_loss_and_grads(X, y, W, F, bias)
            expected = reference_loss_and_grads(X, y, W, F, bias)
            assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes()
            assert got[1].tobytes() == expected[1].tobytes()
            assert (got[2] is None if F is None else got[2].tobytes() == expected[2].tobytes())

    @pytest.mark.parametrize("seed", [7, 23, 58])
    @pytest.mark.parametrize("bias_feature", [False, True])
    @pytest.mark.parametrize("feature_map", [False, True])
    def test_training_equals_the_reference_step_loop(self, seed, bias_feature, feature_map):
        # a recurring class, a 650-row session (block shuffles past the scalar
        # threshold) and sizes that leave a short last batch
        d = 5
        rng = substream(seed, "bit-exact-stream")
        means = rng.normals((5, d)) * 2
        sessions = []
        for label_set, n in (({0, 1, 2}, 41), ({1, 3}, 650), ({0, 3, 4}, 27)):
            classes = sorted(label_set)
            labels = np.array([classes[rng.randbelow(len(classes))] for _ in range(n)])
            sessions.append((rng.normals((n, d)) + means[labels], labels, label_set))
        cfg = LearnerConfig(batch_size=8, epochs_first=3, epochs_later=2,
                            bias_feature=bias_feature, feature_map=feature_map)
        learner = FinetuneLearner(d, cfg, experiment_seed=seed, trial_index=2)
        for features, labels, label_set in sessions:
            learner.update(*columns(features, labels), label_set)
        blocks, expected_map = reference_finetune(sessions, d, cfg, seed, 2)
        for t, block in enumerate(blocks, start=1):
            assert learner.rch.rows(t).tobytes() == block.tobytes()
        if feature_map:
            assert learner.feature_map.tobytes() == expected_map.tobytes()
        else:
            assert learner.feature_map is None and expected_map is None


@st.composite
def stacked_steps(draw):
    """k trials' step inputs as the trainer hands them over: features maybe a
    slice of a longer padded epoch, and a session block at sorted positions,
    maybe given as a slice."""
    k, batch, classes, d = (draw(st.integers(2, 5)), draw(st.integers(1, 16)),
                            draw(st.integers(2, 17)), draw(st.integers(1, 80)))
    bias, with_map = draw(st.booleans()), draw(st.booleans())
    rng = Xoshiro256StarStar(draw(st.integers(0, 2**64 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 2))
    offset = draw(st.sampled_from([None, 0, 3]))
    features = rng.normals((k, batch + (offset or 0) + 2, d)) * scale
    features = (features[:, :batch].copy() if offset is None
                else features[:, offset:offset + batch])
    labels_pos = np.array([[rng.randbelow(classes) for _ in range(batch)] for _ in range(k)])
    session_pos = np.array(sorted(draw(st.sets(st.integers(0, classes - 1), min_size=1))))
    frozen = rng.normals((k, classes, d + bias)) * scale
    heads = rng.normals((k, len(session_pos), d + bias)) * scale
    if session_pos[-1] - session_pos[0] == len(session_pos) - 1 and draw(st.booleans()):
        session_pos = slice(session_pos[0], session_pos[-1] + 1)  # as the trainer passes it
    maps = np.eye(d) + rng.normals((k, d, d)) * 0.3 if with_map else None
    return features, labels_pos, frozen, heads, maps, session_pos, bias


class TestStackedStep:
    @settings(max_examples=300, deadline=None)
    @given(stacked_steps())
    def test_each_trial_slice_equals_its_one_trial_step(self, case):
        features, labels_pos, frozen, heads, maps, session_pos, bias = case
        remap = frozen.copy()
        remap[:, session_pos] += heads
        loss, d_remap, d_map = finetune_loss_and_grads(features, labels_pos, remap, maps, bias)
        new_heads, new_maps = heads.copy(), None if maps is None else maps.copy()
        step_loss = finetune_step(features, labels_pos, frozen, new_heads, new_maps,
                                  session_pos, 0.05, bias)
        assert step_loss.tobytes() == loss.tobytes()
        for i in range(len(features)):
            one = slice(i, i + 1)
            alone = finetune_loss_and_grads(features[one], labels_pos[one], remap[one],
                                            None if maps is None else maps[one], bias)
            assert loss[one].tobytes() == alone[0].tobytes()
            assert d_remap[one].tobytes() == alone[1].tobytes()
            assert d_map is None if maps is None else d_map[one].tobytes() == alone[2].tobytes()
            head, fmap = heads[one].copy(), None if maps is None else maps[one].copy()
            finetune_step(features[one], labels_pos[one], frozen[one], head, fmap,
                          session_pos, 0.05, bias)
            assert new_heads[one].tobytes() == head.tobytes()
            assert fmap is None or new_maps[one].tobytes() == fmap.tobytes()

    def test_one_trial_without_the_trial_axis_is_the_k1_slice(self):
        rng = substream(41, "no-axis")
        X, W, F = rng.normals((7, 5)), rng.normals((3, 6)), rng.normals((5, 5))
        y = np.array([rng.randbelow(3) for _ in range(7)])
        flat = finetune_loss_and_grads(X, y, W, F, True)
        stacked = finetune_loss_and_grads(X[None], y[None], W[None], F[None], True)
        for a, b in zip(flat, stacked):
            assert np.asarray(a).tobytes() == b[0].tobytes()


class TestStackedTraining:
    """An experiment's finetune trials train stacked; each learner must end
    bit for bit where the one-trial reference loop leaves it."""

    SPEC = SynthSpec(session_label_sets=(("a", "b", "c"), ("b", "c", "d"), ("a", "d", "e")),
                     samples_per_class_per_session=9, subjects_per_session=6,
                     feature_dim=5, seed=64)

    @pytest.mark.parametrize("protocol", ["slcv", "ilcv"])
    @pytest.mark.parametrize("overrides", [
        {}, {"head_init": "gaussian"}, {"bias_feature": True}, {"feature_map": False},
        {"batch_size": 1, "epochs_first": 1, "epochs_later": 1}, {"batch_size": 8}])
    def test_experiment_learners_equal_the_reference_step_loop(self, monkeypatch, protocol,
                                                               overrides):
        import cdil.pipeline
        cfg = ExperimentConfig(
            protocol=protocol, k=5, learner="finetune", seed=64, synth=self.SPEC,
            learner_config=LearnerConfig(**{"epochs_first": 3, "epochs_later": 2,
                                            "batch_size": 4, **overrides}))
        make, made = cdil.pipeline.make_learner, []
        monkeypatch.setattr(cdil.pipeline, "make_learner",
                            lambda *args: made.append(make(*args)) or made[-1])
        run_experiment(cfg)
        seq = generate_stream(self.SPEC)
        assignments = partition_sequence(seq, cfg.k, cfg.seed, protocol)
        sizes = set()
        for tau, learner in enumerate(made, start=1):
            sessions = [(s.features[~mask], s.labels[~mask], s.label_set)
                        for s, mask in zip(seq.sessions, bind_folds(assignments, tau))]
            sizes |= {len(features) for features, _, _ in sessions}
            blocks, expected_map = reference_finetune(sessions, seq.feature_dim,
                                                      cfg.learner_config, cfg.seed, tau)
            for t, block in enumerate(blocks, start=1):
                assert learner.rch.rows(t).tobytes() == block.tobytes()
            assert (learner.feature_map is None if expected_map is None
                    else learner.feature_map.tobytes() == expected_map.tobytes())
        assert len(made) == cfg.k
        if protocol == "slcv":
            assert len(sizes) > 2  # ragged: trials step apart at the end of an epoch
        if cfg.learner_config.batch_size == 8:
            assert all(n % 8 for n in sizes)  # every split ends in a short batch


class TestShufflePlans:
    """Stacked trials draw each session's shuffle words for every trial and
    epoch in one `u64_blocks` call; a trial with a rejected word falls back to
    one `randbelow` at a time, alone."""

    TRIALS, SEED = (1, 2, 3), 17
    CFG = LearnerConfig(batch_size=8, epochs_first=3, epochs_later=2)

    @staticmethod
    def sessions():
        # session 1 draws 3 * 3 * ~197 words (lanes), the others fewer than _MIN_BLOCK
        rng = substream(17, "plan-stream")
        means = rng.normals((5, 4)) * 2
        out = []
        for label_set, n in (({0, 1, 2}, 200), ({1, 3}, 30), ({0, 3, 4}, 60)):
            classes = sorted(label_set)
            labels = np.array([classes[rng.randbelow(len(classes))] for _ in range(n)])
            out.append((rng.normals((n, 4)) + means[labels], labels, label_set))
        return out

    @staticmethod
    def of_trial(sessions, tau):
        """Trial tau trains on all but the first tau rows of each session."""
        return [(features[tau:], labels[tau:], label_set)
                for features, labels, label_set in sessions]

    def train_stacked(self, sessions):
        learners = [FinetuneLearner(4, self.CFG, experiment_seed=self.SEED, trial_index=tau)
                    for tau in self.TRIALS]
        for t, (_, _, label_set) in enumerate(sessions):
            train_finetune(learners, [columns(*self.of_trial(sessions, tau)[t][:2])
                                      for tau in self.TRIALS], label_set)
        return learners

    def test_one_draw_per_session_for_every_trial(self, monkeypatch):
        import cdil.rng
        u64_blocks, calls = cdil.rng.u64_blocks, []

        def counted(gens, counts):
            calls.append(list(counts))
            return u64_blocks(gens, counts)

        sessions = self.sessions()  # its normals draw words through `u64_blocks` too
        monkeypatch.setattr(cdil.rng, "u64_blocks", counted)
        self.train_stacked(sessions)
        epochs = [self.CFG.epochs_first] + [self.CFG.epochs_later] * (len(sessions) - 1)
        assert calls == [[e * (len(features) - tau - 1) for tau in self.TRIALS]
                         for e, (features, _, _) in zip(epochs, sessions)]

    def test_a_rejected_word_falls_back_for_its_trial_alone(self, monkeypatch):
        import cdil.rng
        u64_blocks, randbelow = cdil.rng.u64_blocks, Xoshiro256StarStar.randbelow
        drawn, fallback = [], []

        def poisoned(gens, counts):
            blocks = [block.copy() for block in u64_blocks(gens, counts)]
            drawn.append(gens)
            if len(drawn) == 2:
                # session 2, trial 2: the first word's bound is the split size, 28,
                # and 2**64 - 1 is past randbelow(28)'s acceptance bound
                blocks[1][0] = np.uint64(2**64 - 1)
            return blocks

        def counted(self, n):
            fallback.append(self)
            return randbelow(self, n)

        sessions = self.sessions()
        monkeypatch.setattr(cdil.rng, "u64_blocks", poisoned)
        monkeypatch.setattr(Xoshiro256StarStar, "randbelow", counted)
        learners = self.train_stacked(sessions)
        monkeypatch.undo()
        assert len(fallback) == self.CFG.epochs_later * (len(sessions[1][0]) - 2 - 1)
        assert all(gen is drawn[1][1] for gen in fallback)
        for tau, learner in zip(self.TRIALS, learners):
            blocks, expected_map = reference_finetune(self.of_trial(sessions, tau), 4,
                                                      self.CFG, self.SEED, tau)
            for t, block in enumerate(blocks, start=1):
                assert learner.rch.rows(t).tobytes() == block.tobytes()
            assert learner.feature_map.tobytes() == expected_map.tobytes()


class TestRidgeSolve:
    def test_residual_bound_on_random_instances(self):
        rng = Xoshiro256StarStar(99)
        for _ in range(100):
            m = rng.randbelow(31) + 2
            ncols = rng.randbelow(5) + 1
            B = rng.normals((m, m))
            G = B @ B.T
            C = rng.normals((m, ncols))
            lam = 10.0 ** (rng.randbelow(5) - 2)
            W, _ = ridge_solve(G, C, lam)
            residual = np.linalg.norm((G + lam * np.eye(m)) @ W - C)
            assert residual <= 1e-8 * (np.linalg.norm(G) + lam) * np.linalg.norm(W)

    def test_huge_lambda_shrinks_solution(self):
        rng = Xoshiro256StarStar(7)
        m = 16
        B = rng.normals((m, m))
        G = B @ B.T
        C = rng.normals((m, 3))
        W, _ = ridge_solve(G, C, 1e9)
        assert np.linalg.norm(W) <= 1e-6 * np.linalg.norm(C)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["gram", "targets"])
    def test_non_finite_system_raises(self, where, bad):
        # a NaN residual must not pass the tolerance check as a silent NaN head
        system = {"gram": np.eye(3), "targets": np.ones((3, 2))}
        system[where][1, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            ridge_solve(system["gram"], system["targets"], 1.0)


def record_ridge_systems(monkeypatch) -> list:
    """The (gram, targets) of every `ridge_solve` call a learner makes from now on."""
    import cdil.learners
    systems = []

    def recording(gram, targets, lam):
        systems.append((gram, targets))
        return ridge_solve(gram, targets, lam)

    monkeypatch.setattr(cdil.learners, "ridge_solve", recording)
    return systems


class TestRidgeSystem:
    @pytest.mark.parametrize("mode", ["per_session", "cumulative"])
    @pytest.mark.parametrize("nonlinearity", ["relu", "identity"])
    def test_matches_exactly_rounded_sums_on_wide_dynamic_range(self, monkeypatch, mode,
                                                                nonlinearity):
        # Row scales span 1e-8..1e8. The error is taken relative to the sum of
        # the terms' magnitudes, which for non-negative (relu) rows is the
        # plain relative error of each entry. 16 head features: the first
        # session's 120 rows solve the p×p system, and so does the second
        # cumulative session's 12; class 9 has no rows.
        systems = record_ridge_systems(monkeypatch)
        rng = substream(22, "dynamic-range")
        learner = PrototypeLearner(4, LearnerConfig(nonlinearity=nonlinearity,
                                                    prototype_stats=mode), experiment_seed=3)
        sessions = [("a", [0, 2, 5], [50, 30, 40]), ("b", [2, 7], [7, 5])]
        hidden, labels = [], []
        for prefix, classes, counts in sessions[:1 if mode == "per_session" else 2]:
            n = sum(counts)
            scales = 10.0 ** np.array([rng.randbelow(17) - 8 for _ in range(n)])
            split = columns(rng.normals((n, 4)) * scales[:, None],
                            np.repeat(classes, counts), prefix)
            learner.update(*split, {*classes, 9})
            hidden.append(learner.transform(split[0]))
            labels.append(split[1])
            H, y = np.vstack(hidden), np.concatenate(labels)
            gram, targets = systems[-1]
            assert gram.shape == (16, 16) and targets.shape == (16, len(classes) + 1)
            for i in range(16):
                for j in range(16):
                    terms = H[:, i] * H[:, j]
                    assert abs(gram[i, j] - math.fsum(terms)) <= (
                        1e-13 * math.fsum(np.abs(terms)))
                for k, c in enumerate([*classes, 9]):
                    terms = H[y == c, i]
                    assert abs(targets[i, k] - math.fsum(terms)) <= (
                        1e-13 * math.fsum(np.abs(terms)))


class TestPrototype:
    def test_well_separated_gaussians(self):
        rng = substream(11, "blobs")
        dirs = [rng.normals(16) for _ in range(3)]
        means = [6.0 * d / np.linalg.norm(d) for d in dirs]  # >= 6 sigma apart from origin
        Xtr, ytr = gaussian_blobs(rng, means, per_class=100)
        Xte, yte = gaussian_blobs(rng, means, per_class=40)
        train = columns(Xtr, ytr, prefix="tr")
        test = columns(Xte, yte, prefix="te")
        ncm = nearest_class_mean_accuracy(train, test)
        assert ncm >= 0.95  # oracle confirms the task is easy
        learner = PrototypeLearner(16, LearnerConfig(), experiment_seed=11)
        learner.update(*train, {0, 1, 2})
        accuracy = np.mean(learner.predict_many(Xte) == np.array(yte))
        assert accuracy >= 0.95

    def test_projection_frozen_across_sessions(self):
        rng = substream(12, "frozen-proj")
        learner = PrototypeLearner(4, LearnerConfig(), experiment_seed=3)
        digest_before = hashlib.sha256(learner.projection.tobytes()).hexdigest()
        X1 = rng.normals((10, 4))
        learner.update(*columns(X1, [0, 1] * 5, prefix="a"), {0, 1})
        X2 = rng.normals((10, 4))
        learner.update(*columns(X2, [2, 3] * 5, prefix="b"), {2, 3})
        assert hashlib.sha256(learner.projection.tobytes()).hexdigest() == digest_before

    def test_order_insensitive_accumulation(self):
        rng = substream(13, "order")
        X = rng.normals((40, 6))
        y = [0, 1, 2, 3] * 10
        forward = columns(X, y)
        reversed_rows = tuple(column[::-1] for column in forward)
        a = PrototypeLearner(6, LearnerConfig(), experiment_seed=5)
        b = PrototypeLearner(6, LearnerConfig(), experiment_seed=5)
        a.update(*forward, {0, 1, 2, 3})
        b.update(*reversed_rows, {0, 1, 2, 3})
        assert np.allclose(a.rch.remap(), b.rch.remap(), atol=1e-12)

    def test_statistics_exactly_independent_of_sample_order(self):
        # 20 head features: sessions a and b solve the 20×20 system, c the
        # 12×12 kernel system
        rng = substream(20, "canonical-order")
        sessions = [columns(rng.normals((30, 5)), [0, 1, 2] * 10, prefix="a"),
                    columns(rng.normals((30, 5)), [1, 2, 3] * 10, prefix="b"),
                    columns(rng.normals((12, 5)), [3, 4, 5] * 4, prefix="c")]
        for mode in ("per_session", "cumulative"):
            cfg = LearnerConfig(prototype_stats=mode)
            given = PrototypeLearner(5, cfg, experiment_seed=6)
            shuffled = PrototypeLearner(5, cfg, experiment_seed=6)
            for features, labels, ids in sessions:
                label_set = set(labels.tolist())
                order = list(range(len(ids)))
                rng.shuffle(order)
                given.update(features, labels, ids, label_set)
                shuffled.update(features[order], labels[order],
                                tuple(ids[i] for i in order), label_set)
                assert np.array_equal(given.rch.remap(), shuffled.rch.remap())
                assert np.array_equal(given.last_residual, shuffled.last_residual)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           nonlinearity=st.sampled_from(["relu", "identity"]), bias_feature=st.booleans(),
           lam=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_heads_equal_the_primal_ridge_solution(self, seed, n, nonlinearity, bias_feature,
                                                   lam):
        # 16 or 17 head features, so n falls on both sides of p
        rng = substream(seed, "primal-dual")
        labels = [rng.randbelow(3) for _ in range(n)]  # a class may have no rows
        split = columns(rng.normals((n, 4)), labels)
        cfg = LearnerConfig(nonlinearity=nonlinearity, bias_feature=bias_feature,
                            ridge_lambda=lam)
        learner = PrototypeLearner(4, cfg, experiment_seed=seed)
        learner.update(*split, {0, 1, 2})
        hidden = learner.transform(split[0])
        onehot = (split[1][:, None] == [0, 1, 2]).astype(float)
        primal, _ = ridge_solve(hidden.T @ hidden, hidden.T @ onehot, lam)
        heads = learner.rch.rows(1)
        assert np.linalg.norm(heads - primal.T) <= 1e-9 * np.linalg.norm(primal)
        for c in set(range(3)) - set(labels):
            assert not heads[c].any()

    @pytest.mark.parametrize("mode,n,system", [
        ("per_session", 12, 12), ("per_session", 20, 20), ("per_session", 30, 20),
        ("cumulative", 12, 20), ("cumulative", 30, 20),
    ])
    def test_solves_in_the_smaller_space(self, monkeypatch, mode, n, system):
        # 20 head features: a per-session split of fewer rows solves the n×n kernel system
        systems = record_ridge_systems(monkeypatch)
        rng = substream(23, "smaller-space")
        learner = PrototypeLearner(5, LearnerConfig(prototype_stats=mode), experiment_seed=9)
        for prefix in ("a", "b"):
            learner.update(*columns(rng.normals((n, 5)), [0, 1] * (n // 2), prefix), {0, 1})
        assert [gram.shape for gram, _ in systems] == [(system, system)] * 2

    def test_huge_lambda_keeps_heads_near_zero(self):
        rng = substream(14, "lambda")
        X = rng.normals((20, 4))
        learner = PrototypeLearner(4, LearnerConfig(ridge_lambda=1e9), experiment_seed=2)
        learner.update(*columns(X, [0, 1] * 10), {0, 1})
        norm_c = max(np.linalg.norm(learner.transform(X[np.array(  # scale of the targets
            [i for i in range(20) if i % 2 == c])]).sum(axis=0)) for c in (0, 1))
        assert np.linalg.norm(learner.rch.remap()) <= 1e-6 * norm_c

    @pytest.mark.parametrize("mode", ["per_session", "cumulative"])
    def test_zero_training_class_head_stays_at_init(self, monkeypatch, mode):
        systems = record_ridge_systems(monkeypatch)
        rng = substream(15, "zero-class")
        X = rng.normals((10, 4))
        learner = PrototypeLearner(4, LearnerConfig(prototype_stats=mode), experiment_seed=8)
        learner.update(*columns(X, [0] * 10), {0, 1})  # class 1 declared, no samples
        # column and block row 1 are class 1's, in sorted class order
        (_, targets), = systems
        assert targets.shape[1] == 2 and not targets[:, 1].any() and targets[:, 0].any()
        assert np.array_equal(learner.rch.rows(1)[1], np.zeros(learner.head_dim))

    def test_deterministic_given_data_and_seeds(self):
        rng = substream(16, "determinism")
        X = rng.normals((30, 5))
        y = [0, 1, 2] * 10
        preds = []
        for _ in range(2):
            learner = PrototypeLearner(5, LearnerConfig(), experiment_seed=21)
            learner.update(*columns(X, y), {0, 1, 2})
            preds.append(learner.predict_many(X))
        assert np.array_equal(preds[0], preds[1])

    def test_cumulative_stats_match_single_global_solve(self):
        # remapped rows of current-session classes equal one global ridge classifier
        rng = substream(17, "cumulative")
        X1 = rng.normals((30, 5))
        y1 = [0, 1, 2] * 10
        X2 = rng.normals((30, 5))
        y2 = [1, 2, 3] * 10
        learner = PrototypeLearner(5, LearnerConfig(prototype_stats="cumulative"),
                                   experiment_seed=4)
        learner.update(*columns(X1, y1, prefix="a"), {0, 1, 2})
        learner.update(*columns(X2, y2, prefix="b"), {1, 2, 3})
        H = learner.transform(np.vstack([X1, X2]))
        yall = np.array(y1 + y2)
        G = H.T @ H
        matrix = learner.rch.remap()
        order = learner.rch.class_order
        for c in (1, 2, 3):  # classes of the latest session
            target = H[yall == c].sum(axis=0)
            expected, _ = ridge_solve(G, target, learner.cfg.ridge_lambda)
            assert np.allclose(matrix[order.index(c)], expected, atol=1e-9)


class TestSharedContract:
    def test_fresh_state_uniform_probabilities(self):
        for variant in ("finetune", "prototype"):
            learner = make_learner(variant, 4)
            learner.rch.add_session({0, 1, 2})
            probs = softmax_rows(learner.transform(np.ones((1, 4))) @ learner.rch.remap().T)
            assert np.allclose(probs, 1.0 / 3)

    def test_both_variants_predict_the_single_trained_class(self):
        rng = substream(18, "single")
        X = rng.normals((12, 4))
        points = rng.normals((5, 4))
        for variant in ("finetune", "prototype"):
            learner = make_learner(variant, 4, LearnerConfig(epochs_first=5))
            learner.update(*columns(X, [0] * 12), {0})
            assert learner.predict_many(points).tolist() == [0] * 5

    def test_known_classes_track_cumulative_space(self):
        rng = substream(19, "space")
        for variant in ("finetune", "prototype"):
            learner = make_learner(variant, 3, LearnerConfig(epochs_first=2, epochs_later=2))
            learner.update(*columns(rng.normals((6, 3)), [0, 1] * 3, prefix="a"), {0, 1})
            assert learner.known_classes == {0, 1}
            learner.update(*columns(rng.normals((6, 3)), [1, 2] * 3, prefix="b"), {1, 2})
            assert learner.known_classes == {0, 1, 2}

    @pytest.mark.parametrize("variant", ["finetune", "prototype"])
    def test_rejected_update_leaves_the_learner_unchanged(self, variant):
        rng = substream(20, "rejected")
        learner = make_learner(variant, 4, LearnerConfig(epochs_first=2))
        learner.update(*columns(rng.normals((6, 4)), [0, 1] * 3), {0, 1})
        head, feature_map = learner.rch.remap().copy(), getattr(learner, "feature_map", None)
        bad_splits = (columns(rng.normals((3, 5)), [2, 3, 2]),  # feature dimension 5, not 4
                      columns(rng.normals((3, 4)), [2, 3]),  # two labels for three rows
                      columns(rng.normals(4), [2, 3, 2, 3]))  # one row, not a matrix
        for split in bad_splits:
            with pytest.raises(ValueError, match=r"expected \(N, 4\), \(N,\)"):
                learner.update(*split, {2, 3})
            assert learner.rch.n_sessions == 1
            assert learner.rch.remap().tobytes() == head.tobytes()
            if variant == "finetune":
                assert learner.feature_map.tobytes() == feature_map.tobytes()

    @pytest.mark.parametrize("variant", ["finetune", "prototype"])
    def test_labels_outside_the_label_set_are_refused(self, variant):
        # finetune would train label 1 as class 2, the prototype on all-zero targets
        learner = make_learner(variant, 2, LearnerConfig(epochs_first=2))
        X = substream(21, "outside").normals((4, 2))
        with pytest.raises(ValueError, match=r"training labels \[1\] are not in the "
                                             r"session's label set \[0, 2\]"):
            learner.update(*columns(X, [0, 1, 2, 1]), {0, 2})
        assert learner.rch.n_sessions == 0
        learner.update(*columns(X, [0, 2, 2, 0]), {0, 2})
        assert learner.known_classes == {0, 2}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            make_learner("mystery", 4)
