import math

import numpy as np
import pytest

from cdil.core import ConfigurationError
from cdil.rch import RCHState
from cdil.rng import Xoshiro256StarStar, substream


def softmax_oracle(logits):
    # independent reference: direct exponentials over shifted logits
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def probabilities(state, x):
    """Softmax of the remapped logits, as the finetune loss computes it."""
    logits = x @ state.remap().T
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def predict(state, x):
    return state.predict_many(x[None])[0]


def random_state(rng, max_dim=4, max_sessions=3, max_classes=5):
    """A random head, its feature dim and each session's classes in sorted order."""
    dim = rng.randbelow(max_dim) + 1
    n_classes = rng.randbelow(max_classes - 1) + 2
    n_sessions = rng.randbelow(max_sessions) + 1
    state = RCHState(dim)
    sessions = []
    for _ in range(n_sessions):
        size = rng.randbelow(n_classes) + 1
        classes = set()
        while len(classes) < size:
            classes.add(rng.randbelow(n_classes))
        state.add_session(classes, rng.normals((len(classes), dim)))
        sessions.append(sorted(classes))
    return state, dim, sessions


def session_rows(state, sessions, t):
    """Session t's rows keyed by class: block row i belongs to its i-th class."""
    return dict(zip(sessions[t - 1], state.rows(t)))


def per_session_logits(state, sessions, x):
    """Brute force: sum x.H_t^c per class across sessions, never remapping."""
    logits = {}
    for t in range(1, state.n_sessions + 1):
        for c, row in session_rows(state, sessions, t).items():
            logits[c] = logits.get(c, 0.0) + float(x @ row)
    return logits


class TestAddSession:
    def test_first_session(self):
        state = RCHState(4)
        state.add_session({0, 1, 2, 3, 4})
        assert state.n_sessions == 1
        assert state.known_classes == {0, 1, 2, 3, 4}
        assert state.class_order == (0, 1, 2, 3, 4)
        assert np.array_equal(state.rows(1), np.zeros((5, 4)))

    def test_overlapping_second_session(self):
        state = RCHState(4)
        state.add_session({0, 1, 2, 3, 4})
        state.add_session({1, 2, 4, 5, 6})  # 3 overlaps, 2 novel
        assert state.n_sessions == 2
        assert state.known_classes == {0, 1, 2, 3, 4, 5, 6}
        # each session has one row per class: a recurring class sums one from each
        first = np.arange(1.0, 21.0).reshape(5, 4)
        second = 100 * first
        state.set_rows(1, first)
        state.set_rows(2, second)
        rows1, rows2 = dict(zip((0, 1, 2, 3, 4), first)), dict(zip((1, 2, 4, 5, 6), second))
        remapped = dict(zip(state.class_order, state.remap()))
        for c in (1, 2, 4):
            assert np.array_equal(remapped[c], rows1[c] + rows2[c])
        for c in (0, 3):
            assert np.array_equal(remapped[c], rows1[c])
        for c in (5, 6):
            assert np.array_equal(remapped[c], rows2[c])

    def test_zero_rows_for_known_classes_leave_argmax_unchanged(self):
        rng = substream(1, "zero-extension")
        state = RCHState(3)
        state.add_session({0, 1, 2}, rng.normals((3, 3)))
        points = rng.normals((20, 3))
        before = state.predict_many(points)
        probs_before = [probabilities(state, x) for x in points]
        state.add_session({0, 1, 2})  # zero-initialized rows for known classes
        after = state.predict_many(points)
        probs_after = [probabilities(state, x) for x in points]
        assert np.array_equal(before, after)
        for p, q in zip(probs_before, probs_after):
            # same class set, zero rows added: bitwise-equal outputs
            assert np.array_equal(p, q)

    def test_empty_label_set_rejected(self):
        with pytest.raises(ConfigurationError):
            RCHState(3).add_session(set())

    def test_initial_block_stored_in_class_order(self):
        state = RCHState(2)
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        state.add_session({9, 1, 4}, rows)
        assert state.class_order == (1, 4, 9)
        assert np.array_equal(state.remap(), rows)

    def test_initial_block_shape_checked(self):
        state = RCHState(3)
        for shape in ((1, 3), (2, 2), (3,), (2, 3, 1)):
            with pytest.raises(ValueError, match="session 1"):
                state.add_session({0, 1}, np.zeros(shape))
        assert state.n_sessions == 0


class TestRemap:
    def test_single_session_rows_verbatim(self):
        state = RCHState(2)
        state.add_session({0, 1})
        rows = np.array([[1.0, 2.0], [-3.0, 0.5]])
        state.set_rows(1, rows)
        matrix = state.remap()
        assert state.class_order == (0, 1)
        assert np.array_equal(matrix[0], rows[0])
        assert np.array_equal(matrix[1], rows[1])

    def test_shared_class_rows_sum(self):
        state = RCHState(2)
        state.add_session({0, 1})
        state.set_rows(1, np.array([[1.0, 0.0], [5.0, 5.0]]))
        state.add_session({0})
        state.set_rows(2, np.array([[0.0, 2.0]]))
        matrix = state.remap()
        assert np.array_equal(matrix[0], np.array([1.0, 2.0]))
        # class present in session 1 only keeps its row unchanged
        assert np.array_equal(matrix[1], np.array([5.0, 5.0]))

    def test_rows_ordered_by_class_index(self):
        state = RCHState(1)
        state.add_session({7, 2, 5})
        state.set_rows(1, np.array([[2.0], [5.0], [7.0]]))
        assert state.class_order == (2, 5, 7)
        assert state.rows(1).tolist() == [[2.0], [5.0], [7.0]]
        assert state.remap()[:, 0].tolist() == [2.0, 5.0, 7.0]

    def test_cache_invalidated_on_write(self):
        state = RCHState(2)
        state.add_session({0})
        first = state.remap().copy()
        state.set_rows(1, np.array([[1.0, 1.0]]))
        assert not np.array_equal(state.remap(), first)

    def test_remap_linearity_randomized(self):
        rng = Xoshiro256StarStar(2024)
        for _ in range(200):
            state, dim, sessions = random_state(rng)
            x = rng.normals(dim)
            matrix = state.remap()
            direct = per_session_logits(state, sessions, x)
            for pos, c in enumerate(state.class_order):
                remapped = float(x @ matrix[pos])
                assert remapped == pytest.approx(direct[c], rel=1e-10, abs=1e-12)

    def test_bitwise_equal_to_per_session_loop(self):
        # rows spanning 1e-8..1e8 make any change in summation order visible
        rng = Xoshiro256StarStar(4242)
        for _ in range(200):
            state, dim, sessions = random_state(rng, max_dim=6, max_sessions=5, max_classes=6)
            for t in range(1, state.n_sessions + 1):
                state.set_rows(t, np.array([row * 10.0 ** np.array(
                    [rng.randbelow(17) - 8 for _ in row]) for row in state.rows(t)]))
            position = {c: i for i, c in enumerate(state.class_order)}
            expected = np.zeros((len(position), dim))
            for t in range(1, state.n_sessions + 1):
                for c, row in session_rows(state, sessions, t).items():
                    expected[position[c]] += row
            assert np.array_equal(state.remap(), expected)

    def test_sums_equal_add_at_after_interleaved_writes(self):
        # writes to any session, and new sessions, show in the next remap and
        # frozen sum; a second remap with no write between returns an equal,
        # new array
        rng = Xoshiro256StarStar(777)
        for _ in range(40):
            dim = rng.randbelow(5) + 1
            state = RCHState(dim)
            sessions = []
            for _ in range(30):
                if state.n_sessions == 0 or rng.randbelow(6) == 0:
                    classes = {rng.randbelow(7) for _ in range(rng.randbelow(4) + 1)}
                    state.add_session(classes, rng.normals((len(classes), dim)))
                    sessions.append(sorted(classes))
                else:
                    t = rng.randbelow(state.n_sessions) + 1
                    block = rng.normals((len(sessions[t - 1]), dim))
                    block *= 10.0 ** (rng.randbelow(17) - 8)
                    write = state.add_to_rows if rng.randbelow(2) else state.set_rows
                    write(t, block)
                position = {c: i for i, c in enumerate(state.class_order)}
                classes = [c for session in sessions for c in session]
                rows = [row for t in range(1, state.n_sessions + 1) for row in state.rows(t)]
                expected = np.zeros((len(position), dim))
                np.add.at(expected, [position[c] for c in classes], np.array(rows))
                first = state.remap()
                assert first.tobytes() == expected.tobytes()
                # the frozen prefix is the same sum over sessions 1..n-1
                last = len(classes) - len(sessions[-1])
                prefix = np.zeros((len(position), dim))
                np.add.at(prefix, [position[c] for c in classes[:last]],
                          np.array(rows[:last]).reshape(-1, dim))
                assert state.frozen().tobytes() == prefix.tobytes()
                assert not state.frozen().flags.writeable
                again = state.remap()
                assert again.tobytes() == first.tobytes()
                assert not np.shares_memory(again, first)

    def test_remap_is_read_only(self):
        state = RCHState(2)
        state.add_session({0})
        with pytest.raises(ValueError):
            state.remap()[0, 0] = 1.0

    def test_writes_validated(self):
        state = RCHState(2)
        state.add_session({0, 1})
        for write in (state.set_rows, state.add_to_rows):
            for shape in ((1, 2), (2, 3), (3, 2), (2,), (4,)):
                with pytest.raises(ValueError, match="session 1"):
                    write(1, np.ones(shape))
            with pytest.raises(IndexError):
                write(2, np.zeros((2, 2)))
        assert state.remap().tolist() == [[0.0, 0.0], [0.0, 0.0]]
        state.add_to_rows(1, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert state.remap().tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestPredictProba:
    """Class probabilities: the softmax of the remapped logits, which is what
    the finetune loss trains on."""

    def test_all_zero_heads_uniform(self):
        state = RCHState(5)
        state.add_session({0, 1, 2})
        probs = probabilities(state, np.ones(5))
        assert np.allclose(probs, 1.0 / 3)

    def test_two_class_scalar_value(self):
        # logits (3, 0): p0 = e^3 / (e^3 + 1)
        state = RCHState(2)
        state.add_session({0, 1})
        state.set_rows(1, np.array([[1.0, 2.0], [0.0, 0.0]]))
        x = np.array([1.0, 1.0])
        probs = probabilities(state, x)
        oracle = softmax_oracle([3.0, 0.0])
        assert probs[0] == pytest.approx(0.95257, abs=5e-6)
        assert probs[1] == pytest.approx(0.04743, abs=5e-6)
        assert np.allclose(probs, oracle, atol=1e-12)

    def test_sums_to_one(self):
        rng = Xoshiro256StarStar(5)
        for _ in range(50):
            state, dim, _ = random_state(rng)
            probs = probabilities(state, rng.normals(dim))
            assert abs(float(np.sum(probs)) - 1.0) <= 1e-9
            assert np.all(probs >= 0)

    def test_logit_shift_invariance(self):
        state = RCHState(2)
        state.add_session({0, 1})
        rows = np.array([[1.0, 2.0], [-1.0, 0.5]])
        state.set_rows(1, rows)
        x = np.array([0.3, -0.7])
        base = probabilities(state, x)
        # add a vector v with known x^T v to every row: constant logit shift
        v = np.array([2.0, 2.0])
        state.set_rows(1, rows + v)
        shifted = probabilities(state, x)
        assert np.allclose(base, shifted, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        state = RCHState(1)
        state.add_session({0, 1})
        state.set_rows(1, np.array([[700.0], [-700.0]]))
        probs = probabilities(state, np.array([1.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        state = RCHState(3)
        state.add_session({0})
        with pytest.raises(ValueError):
            state.predict_many(np.ones((1, 4)))


class TestPredict:
    def test_argmax_of_logits(self):
        state = RCHState(2)
        state.add_session({0, 1})
        state.set_rows(1, np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert predict(state, np.array([1.0, 1.0])) == 0

    def test_tie_breaks_to_lowest_class_index(self):
        state = RCHState(1)
        state.add_session({1, 2, 5})
        state.set_rows(1, np.array([[0.0], [3.0], [3.0]]))
        assert predict(state, np.array([1.0])) == 2

    def test_matches_per_session_summation_oracle(self):
        # brute force: sum x.H_t^c per class across sessions, never remapping
        rng = Xoshiro256StarStar(31337)
        for _ in range(1000):
            state, dim, sessions = random_state(rng)
            x = rng.normals(dim)
            logits = per_session_logits(state, sessions, x)
            best = max(sorted(logits), key=lambda c: (logits[c], -c))
            assert predict(state, x) == best

