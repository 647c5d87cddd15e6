import math

import numpy as np
import pytest

import cdil
from cdil.core import (ConfigurationError, LabelRegistry, SessionDataset, SessionSequence,
                       check_bool, check_choice, check_int, check_list, check_names, check_real,
                       check_str)
from cdil.synth import DEFAULT_SESSION_LABELS, SynthSpec, generate_stream


def make_session(rows, session_index=1, dim=3, label_set=None):
    """A session from (sample_id, subject_id, label) rows with zero features."""
    sample_ids, subject_ids, labels = zip(*rows) if rows else ((), (), ())
    return SessionDataset.build(session_index, np.zeros((len(rows), dim)), labels,
                                sample_ids, subject_ids, label_set=label_set)


@pytest.fixture(scope="module")
def default_stream():
    return generate_stream(SynthSpec(seed=11))


class TestLabelRegistry:
    def test_indices_assigned_in_first_appearance_order(self):
        reg = LabelRegistry(["b", "a", "c"])
        assert reg.names == ("b", "a", "c")
        assert [reg.index_of(n) for n in ("b", "a", "c")] == [0, 1, 2]

    def test_repeated_name_keeps_its_first_index(self):
        reg = LabelRegistry(["x", "y", "x"])
        assert reg.names == ("x", "y")
        assert [reg.index_of(n) for n in ("x", "y")] == [0, 1]
        assert len(reg) == 2

    def test_round_trip(self):
        reg = LabelRegistry(["u", "v", "w", "z"])
        for i, name in enumerate(reg.names):
            assert reg.index_of(name) == i
            assert reg.name_of(i) == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            LabelRegistry(["a"]).index_of("missing")


class TestSessionDataset:
    def test_subjects_derived_from_samples(self):
        ds = make_session([("a", "s1", 0), ("b", "s2", 0)])
        assert ds.subjects == {"s1", "s2"}
        assert ds.label_set == {0}
        assert ds.size == 2

    def test_columns_are_read_only_and_ids_stay_python_strings(self):
        ds = make_session([("a", "s1", 0), ("b", "s2", 1)])
        assert ds.features.shape == (2, 3) and ds.features.dtype == np.float64
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1]
        assert ds.sample_ids == ("a", "b") and ds.subject_ids == ("s1", "s2")
        for column in (ds.features, ds.labels):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_declared_label_superset_allowed(self):
        ds = make_session([("a", "s1", 0)], label_set={0, 1})
        assert ds.label_set == {0, 1}

    def test_sample_label_outside_declared_set_rejected(self):
        with pytest.raises(ConfigurationError):
            make_session([("a", "s1", 2)], label_set={0, 1})

    def test_duplicate_sample_id_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate sample_id 'a'"):
            make_session([("a", "s1", 0), ("a", "s2", 0)])

    def test_ids_differing_only_in_a_trailing_nul_are_distinct(self):
        # a fixed-width numpy string array would drop the NUL and merge the two
        ds = make_session([("a", "s1", 0), ("a\x00", "s1", 0)])
        assert ds.size == 2

    def test_column_lengths_must_agree(self):
        with pytest.raises(ConfigurationError, match="disagree in length"):
            SessionDataset.build(1, np.zeros((2, 3)), [0], ["a", "b"], ["s", "s"])

    def test_empty_session_rejected(self):
        with pytest.raises(ConfigurationError):
            make_session([])


class TestSessionSequence:
    def test_session_indices_must_be_in_order(self):
        reg = LabelRegistry(["a"])
        ds = make_session([("x", "s", 0)], session_index=2)
        with pytest.raises(ConfigurationError):
            SessionSequence.build([ds], reg, 3)

    def test_mixed_feature_dimension_rejected(self):
        reg = LabelRegistry(["a"])
        ds = make_session([("x", "s", 0)], dim=4)
        with pytest.raises(ValueError):
            SessionSequence.build([ds], reg, 3)


class TestCumulativeLabelSpace:
    def test_default_sequence_session_1(self, default_stream):
        space = default_stream.cumulative_label_space(1)
        names = {default_stream.registry.name_of(c) for c in space}
        assert names == {"disgust", "happiness", "others", "repression", "surprise"}
        assert len(space) == 5

    def test_default_sequence_growth(self, default_stream):
        assert len(default_stream.cumulative_label_space(2)) == 7
        assert len(default_stream.cumulative_label_space(3)) == 9
        # the last session introduces no class beyond session 3's union
        assert len(default_stream.cumulative_label_space(4)) == 9

    def test_monotone(self, default_stream):
        for t in range(2, default_stream.n + 1):
            assert (default_stream.cumulative_label_space(t - 1)
                    <= default_stream.cumulative_label_space(t))

    def test_recurrence_union_of_session_sets(self, default_stream):
        # L_t == L_{t-1} | l^(t), with L_0 empty
        space = frozenset()
        for t in range(1, default_stream.n + 1):
            space = space | default_stream.session(t).label_set
            assert default_stream.cumulative_label_space(t) == space

    def test_single_session_sequence(self):
        seq = generate_stream(SynthSpec(session_label_sets=(("a", "b"),), seed=1))
        assert seq.cumulative_label_space(1) == seq.session(1).label_set

    def test_out_of_range(self, default_stream):
        with pytest.raises(IndexError):
            default_stream.cumulative_label_space(0)
        with pytest.raises(IndexError):
            default_stream.cumulative_label_space(5)


class TestSessionsOfClass:
    def test_default_sequence_memberships(self, default_stream):
        reg = default_stream.registry
        for name, sessions in (("happiness", {1, 2, 3, 4}), ("repression", {1}),
                               ("anger", {2, 4})):
            assert {t for t in range(1, default_stream.n + 1)
                    if reg.index_of(name) in default_stream.session(t).label_set} == sessions


def test_default_label_structure_matches_benchmark_sequence():
    sizes = [len(s) for s in DEFAULT_SESSION_LABELS]
    assert sizes == [5, 5, 6, 7]


@pytest.mark.parametrize("check,args,text", [
    (check_int, ("k", 1.0, 2), "k must be an integer >= 2, got 1.0"),
    (check_int, ("seed", True), "seed must be an integer, got True"),
    (check_real, ("rate", math.nan, 0), "rate must be a finite number >= 0, got nan"),
    (check_real, ("rate", -math.inf), "rate must be a finite number, got -inf"),
    (check_real, ("lam", 0.0, 0, True), "lam must be a finite number > 0, got 0.0"),
    (check_real, ("lam", False), "lam must be a finite number, got False"),
    (check_bool, ("flag", 1), "flag must be true or false, got 1"),
    (check_choice, ("mode", "loso", ("slcv", "ilcv")),
     "mode must be one of ('slcv', 'ilcv'), got 'loso'"),
    (check_str, ("name", 3), "name must be a string, got 3"),
    (check_list, ("correct", "3781"), "correct must be a list, got '3781'"),
    (check_list, ("sessions", [], 1), "sessions must be a list of length >= 1, got []"),
    (check_names, ("labels", ["a", "a"]), "labels must be a list of distinct strings, got ['a', 'a']"),
    (check_names, ("labels", ["a", 1]), "labels must be a list of distinct strings, got ['a', 1]"),
    (check_names, ("labels", "ab"), "labels must be a list of length >= 1, got 'ab'"),
])
def test_checks_name_the_field_and_the_reason(check, args, text):
    with pytest.raises(ConfigurationError) as raised:
        check(*args)
    assert str(raised.value) == text
    assert raised.value.field == args[0]
    assert text == f"{args[0]} {raised.value.reason}"


def test_checks_pass_good_values_and_return_lists_as_tuples():
    check_int("k", np.int64(2), 2)
    check_real("lam", 1, 0, strict=True)
    check_bool("flag", False)
    check_choice("mode", "ilcv", ("slcv", "ilcv"))
    check_str("name", "")
    assert check_list("correct", []) == ()
    assert check_names("labels", ["b", "a"], 2) == ("b", "a")


def test_configuration_error_without_a_field_is_its_reason():
    error = ConfigurationError("a sequence needs at least one session")
    assert (str(error), error.field) == ("a sequence needs at least one session", None)


def test_every_exported_name_resolves():
    assert [name for name in cdil.__all__ if not hasattr(cdil, name)] == []
