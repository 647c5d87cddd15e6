from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdil.core import ConfigurationError, SessionDataset
from cdil.rng import Xoshiro256StarStar
from cdil.splitters import ILCV, SLCV, bind_folds, partition


def session_from_subjects(subjects, session_index=1):
    """A one-class session with one row per entry of `subjects`."""
    n = len(subjects)
    return SessionDataset.build(session_index, np.zeros((n, 2)), np.zeros(n, dtype=int),
                                [f"x{j}" for j in range(n)], subjects)


def session_with(n_subjects, samples_per_subject=3, session_index=1):
    return session_from_subjects([f"p{p}" for p in range(n_subjects)
                                  for _ in range(samples_per_subject)], session_index)


def session_of_size(n_samples, session_index=1):
    return session_from_subjects([f"p{j % 4}" for j in range(n_samples)], session_index)


def subject_fold_counts(session, folds):
    subject_fold = {}
    for subject, fold in zip(session.subject_ids, folds.tolist()):
        assert subject_fold.setdefault(subject, fold) == fold
    return Counter(subject_fold.values())


class TestSlcvPartition:
    def test_ten_subjects_five_folds_exactly_two_each(self):
        session = session_with(10)
        folds = partition(session, k=5, seed=3, mode=SLCV)
        counts = subject_fold_counts(session, folds)
        assert sorted(counts.values()) == [2, 2, 2, 2, 2]
        assert folds.shape == (session.size,)
        assert not folds.flags.writeable

    def test_eleven_subjects_five_folds_counts(self):
        # brute-force count of the deal rule's fold sizes
        session = session_with(11)
        folds = partition(session, k=5, seed=3, mode=SLCV)
        counts = subject_fold_counts(session, folds)
        assert sorted(counts.values(), reverse=True) == [3, 2, 2, 2, 2]

    def test_subject_atomicity(self):
        session = session_with(7, samples_per_subject=5)
        folds = partition(session, k=3, seed=1, mode=SLCV)
        subject_fold_counts(session, folds)  # asserts internally

    def test_deterministic(self):
        session = session_with(9)
        a = partition(session, k=4, seed=77, mode=SLCV)
        b = partition(session, k=4, seed=77, mode=SLCV)
        assert np.array_equal(a, b)

    def test_fewer_subjects_than_folds_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"^session 1: fewer subjects than folds \(3 < 5\)$"):
            partition(session_with(3), k=5, seed=0, mode=SLCV)


class TestIlcvPartition:
    def test_hundred_samples_five_folds_of_twenty(self):
        folds = partition(session_of_size(100), k=5, seed=9, mode=ILCV)
        counts = Counter(folds.tolist())
        assert sorted(counts.values()) == [20] * 5

    def test_103_samples_five_folds(self):
        folds = partition(session_of_size(103), k=5, seed=9, mode=ILCV)
        counts = Counter(folds.tolist())
        assert sorted(counts.values(), reverse=True) == [21, 21, 21, 20, 20]

    def test_every_sample_in_exactly_one_fold(self):
        session = session_of_size(37)
        folds = partition(session, k=4, seed=2, mode=ILCV)
        assert folds.shape == (session.size,)
        masks = [bind_folds([folds], tau)[0] for tau in range(1, 5)]
        assert (np.sum(masks, axis=0) == 1).all()

    def test_fewer_samples_than_folds_rejected(self):
        with pytest.raises(ConfigurationError, match=r"fewer samples than folds \(3 < 5\)"):
            partition(session_of_size(3), k=5, seed=0, mode=ILCV)


def test_unknown_mode_and_small_k_rejected():
    with pytest.raises(ConfigurationError):
        partition(session_with(4), 2, 0, "loso")
    with pytest.raises(ConfigurationError):
        partition(session_with(4), 1, 0, SLCV)


def reference_partition(session, k, seed, mode):
    """Folds as dealt by the earlier per-mode partitions: the index permutation
    that sorts the units is shuffled, and SLCV deals the sorted subjects."""
    def deal(units):
        order = sorted(range(len(units)), key=units.__getitem__)
        Xoshiro256StarStar(seed).shuffle(order)
        folds = np.empty(len(units), dtype=np.int64)
        folds[order] = np.arange(len(units)) % k + 1
        return folds

    if mode == ILCV:
        return deal(session.sample_ids)
    subjects = sorted(session.subjects)
    subject_fold = dict(zip(subjects, deal(subjects).tolist()))
    return np.array([subject_fold[s] for s in session.subject_ids], dtype=np.int64)


@st.composite
def sessions(draw):
    """A session of 1..40 rows with arbitrary unique sample ids, in any order,
    and subject ids drawn from a few arbitrary names."""
    sample_ids = draw(st.lists(st.text(max_size=4), min_size=1, max_size=40, unique=True))
    names = draw(st.lists(st.text(max_size=3), min_size=1, max_size=12, unique=True))
    subject_ids = draw(st.lists(st.sampled_from(names), min_size=len(sample_ids),
                                max_size=len(sample_ids)))
    n = len(sample_ids)
    return SessionDataset.build(1, np.zeros((n, 1)), np.zeros(n, dtype=int),
                                sample_ids, subject_ids)


@settings(max_examples=200, deadline=None)
@given(session=sessions(), k=st.integers(2, 8), seed=st.integers(0, 2**64 - 1),
       mode=st.sampled_from((SLCV, ILCV)))
def test_partition_equals_the_earlier_folds(session, k, seed, mode):
    units = len(session.subjects) if mode == SLCV else session.size
    if units < k:
        with pytest.raises(ConfigurationError):
            partition(session, k, seed, mode)
        return
    folds = partition(session, k, seed, mode)
    assert folds.dtype == np.int64 and not folds.flags.writeable
    assert folds.tobytes() == reference_partition(session, k, seed, mode).tobytes()


@pytest.mark.parametrize("mode", [SLCV, ILCV])
def test_fold_of_each_sample_does_not_depend_on_row_order(mode):
    session = session_with(9, samples_per_subject=2)
    order = list(range(session.size))
    Xoshiro256StarStar(5).shuffle(order)
    permuted = SessionDataset.build(1, session.features[order], session.labels[order],
                                    [session.sample_ids[i] for i in order],
                                    [session.subject_ids[i] for i in order])
    folds = dict(zip(session.sample_ids, partition(session, 4, 8, mode).tolist()))
    again = dict(zip(permuted.sample_ids, partition(permuted, 4, 8, mode).tolist()))
    assert again == folds


class TestBindFolds:
    def make_partitions(self, k=2):
        s1 = session_with(6, session_index=1)
        s2 = session_with(8, session_index=2)
        return ([partition(s1, k, seed=1, mode=SLCV), partition(s2, k, seed=2, mode=SLCV)],
                s1, s2)

    def test_test_set_is_the_bound_fold(self):
        partitions, s1, s2 = self.make_partitions()
        masks = bind_folds(partitions, trial_index=1)
        assert len(masks) == 2
        for mask, folds, session in zip(masks, partitions, (s1, s2)):
            assert mask.dtype == bool and mask.shape == (session.size,)
            assert np.array_equal(mask, folds == 1)

    def test_train_test_partition_session(self):
        partitions, s1, _ = self.make_partitions()
        test = bind_folds(partitions, trial_index=2)[0]
        tested = {sid for sid, m in zip(s1.sample_ids, test) if m}
        trained = {sid for sid, m in zip(s1.sample_ids, ~test) if m}
        assert tested and trained
        assert tested | trained == set(s1.sample_ids)
        assert tested.isdisjoint(trained)

    def test_complementary_trials(self):
        partitions, *_ = self.make_partitions(k=2)
        p1 = bind_folds(partitions, 1)
        p2 = bind_folds(partitions, 2)
        for t in (0, 1):
            assert np.array_equal(p1[t], ~p2[t])

    def test_single_session_degenerates_to_kfold(self):
        session = session_with(10)
        folds = partition(session, k=5, seed=4, mode=SLCV)
        (mask,) = bind_folds([folds], 3)
        assert np.array_equal(mask, folds == 3)
        assert subject_fold_counts(session, folds)[3] == 2

    def test_mismatched_k_rejected(self):
        s1 = session_with(6, session_index=1)
        s2 = session_with(6, session_index=2)
        with pytest.raises(ConfigurationError):
            bind_folds([partition(s1, 2, 0, SLCV), partition(s2, 3, 0, SLCV)], 1)

    def test_no_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            bind_folds([], 1)

    def test_cumulative_sizes_add_up(self):
        # over the k trials, each session's test rows add up to its size
        partitions, s1, s2 = self.make_partitions(k=3)
        sizes = np.sum([[m.sum() for m in bind_folds(partitions, tau)]
                        for tau in (1, 2, 3)], axis=0)
        assert sizes.tolist() == [s1.size, s2.size]

    def test_trial_index_out_of_range(self):
        partitions, *_ = self.make_partitions()
        with pytest.raises(IndexError):
            bind_folds(partitions, 3)


@settings(max_examples=100, deadline=None)
@given(n_subjects=st.integers(2, 25), per_subject=st.integers(1, 4),
       k=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_property_partition_balance_and_leakage(n_subjects, per_subject, k, seed):
    session = session_with(n_subjects, per_subject)
    rng = Xoshiro256StarStar(seed)
    for mode in (SLCV, ILCV):
        if mode == SLCV and n_subjects < k:
            with pytest.raises(ConfigurationError):
                partition(session, k, seed, mode)
            continue
        if mode == ILCV and session.size < k:
            continue
        folds = partition(session, k, seed, mode)
        # partition: one fold per row, fold indices in range
        assert folds.shape == (session.size,)
        assert ((1 <= folds) & (folds <= k)).all()
        # balance over the mode's units
        if mode == SLCV:
            counts = subject_fold_counts(session, folds)
        else:
            counts = Counter(folds.tolist())
        sizes = [counts.get(tau, 0) for tau in range(1, k + 1)]
        assert max(sizes) - min(sizes) <= 1
        # leakage freedom for a random trial
        tau = rng.randbelow(k) + 1
        (test,) = bind_folds([folds], tau)
        if mode == SLCV:
            train_subjects = {s for s, m in zip(session.subject_ids, ~test) if m}
            test_subjects = {s for s, m in zip(session.subject_ids, test) if m}
            assert train_subjects.isdisjoint(test_subjects)
        # determinism
        again = partition(session, k, seed, mode)
        assert np.array_equal(again, folds)


@settings(max_examples=100, deadline=None)
@given(sessions=st.lists(st.lists(st.integers(1, 5), min_size=2, max_size=12),
                         min_size=1, max_size=3),
       k=st.integers(2, 6), seed=st.integers(0, 2**64 - 1), mode=st.sampled_from((SLCV, ILCV)))
def test_property_bound_masks_partition_every_session(sessions, k, seed, mode):
    # each inner list holds the sample count of each subject of one session
    built = [session_from_subjects([f"p{p}" for p, n in enumerate(per_subject)
                                    for _ in range(n)], t)
             for t, per_subject in enumerate(sessions, start=1)]
    units = [len(s.subjects) if mode == SLCV else s.size for s in built]
    if min(units) < k:
        with pytest.raises(ConfigurationError):
            [partition(s, k, seed + s.session_index, mode) for s in built]
        return
    partitions = [partition(s, k, seed + s.session_index, mode) for s in built]
    trials = [bind_folds(partitions, tau) for tau in range(1, k + 1)]
    for t, session in enumerate(built):
        masks = np.array([trial[t] for trial in trials])
        assert masks.shape == (k, session.size)
        # the k test masks cover every row of the session exactly once
        assert (masks.sum(axis=0) == 1).all()
        for test in masks:
            tested = {s for s, m in zip(session.subject_ids, test) if m}
            trained = {s for s, m in zip(session.subject_ids, ~test) if m}
            # SLCV never splits a subject between training and test
            assert mode == ILCV or tested.isdisjoint(trained)
        # fold sizes, in the mode's units, differ by at most one
        if mode == SLCV:
            sizes = [len({s for s, m in zip(session.subject_ids, test) if m}) for test in masks]
        else:
            sizes = masks.sum(axis=1).tolist()
        assert max(sizes) - min(sizes) <= 1
