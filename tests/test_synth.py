import numpy as np
import pytest

from cdil import synth
from cdil.core import ConfigurationError
from cdil.rng import substream
from cdil.synth import DEFAULT_SESSION_LABELS, SynthSpec, generate_stream


@pytest.fixture(scope="module")
def default_stream():
    return generate_stream(SynthSpec(seed=5))


class TestStructure:
    def test_default_shape(self, default_stream):
        assert default_stream.n == 4
        assert [len(s.label_set) for s in default_stream.sessions] == [5, 5, 6, 7]
        assert [len(default_stream.cumulative_label_space(t))
                for t in range(1, 5)] == [5, 7, 9, 9]

    def test_session_sample_counts(self, default_stream):
        for session, labels in zip(default_stream.sessions, DEFAULT_SESSION_LABELS):
            assert session.size == len(labels) * 40

    def test_subjects_confined_to_one_session(self, default_stream):
        seen = {}
        for session in default_stream.sessions:
            for subject in session.subjects:
                assert seen.setdefault(subject, session.session_index) == session.session_index

    def test_label_sets_realized_exactly(self, default_stream):
        for session, labels in zip(default_stream.sessions, DEFAULT_SESSION_LABELS):
            realized = {default_stream.registry.name_of(c) for c in session.label_set}
            assert realized == set(labels)
            assert set(session.labels.tolist()) == session.label_set

    def test_too_few_subjects_for_classes_rejected(self):
        with pytest.raises(ConfigurationError, match="subjects_per_session"):
            SynthSpec(subjects_per_session=3, seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"feature_dim": "64"},
        {"feature_dim": 64.0},
        {"samples_per_class_per_session": True},
        {"subjects_per_session": 0},
        {"seed": 1.5},
        {"noise_sigma": "1"},
        {"domain_shift": -1.0},
        {"noise_sigma": float("nan")},
        {"class_separation": float("inf")},
        {"domain_shift": float("-inf")},
        {"subject_shift": float("nan")},
        {"session_label_sets": 3},
        {"session_label_sets": [[1, 2], [2, 3]]},
        {"session_label_sets": ["ab"]},
    ])
    def test_invalid_spec_field_named(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            SynthSpec(**kwargs)

    def test_label_sets_normalised_to_tuples(self):
        spec = SynthSpec(session_label_sets=[["a", "b"], ["b"]])
        assert spec.session_label_sets == (("a", "b"), ("b",))
        assert spec == SynthSpec(session_label_sets=(("a", "b"), ("b",)))


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        a = generate_stream(SynthSpec(seed=99))
        b = generate_stream(SynthSpec(seed=99))
        for sa, sb in zip(a.sessions, b.sessions):
            assert sa.sample_ids == sb.sample_ids
            assert sa.subject_ids == sb.subject_ids
            assert np.array_equal(sa.labels, sb.labels)
            assert np.array_equal(sa.features, sb.features)

    def test_different_seeds_differ(self):
        a = generate_stream(SynthSpec(seed=1))
        b = generate_stream(SynthSpec(seed=2))
        assert not np.array_equal(a.sessions[0].features[0], b.sessions[0].features[0])


class TestGeometry:
    def test_zero_noise_zero_subject_shift_collapses_to_means(self):
        spec = SynthSpec(noise_sigma=0.0, subject_shift=0.0,
                         samples_per_class_per_session=5, seed=3)
        seq = generate_stream(spec)
        for session in seq.sessions:
            by_class = {c: session.features[session.labels == c] for c in session.label_set}
            for feats in by_class.values():
                for f in feats[1:]:
                    assert np.array_equal(f, feats[0])
            # nearest-class-mean within the session is then perfect
            means = {c: feats[0] for c, feats in by_class.items()}
            for x, label in zip(session.features, session.labels.tolist()):
                best = min(means, key=lambda c: np.linalg.norm(x - means[c]))
                assert best == label

    def test_class_mean_norms(self):
        spec = SynthSpec(noise_sigma=0.0, subject_shift=0.0, domain_shift=0.0,
                         class_separation=4.0, samples_per_class_per_session=1,
                         subjects_per_session=7, seed=8)
        seq = generate_stream(spec)
        for x in seq.sessions[0].features:
            assert np.linalg.norm(x) == pytest.approx(4.0)

    def test_bayes_oracle_sanity(self):
        # a maximum-likelihood classifier knowing all means must clear 0.9;
        # the exact class+session means come from a zero-noise twin stream
        seq = generate_stream(SynthSpec(seed=17))
        twin = generate_stream(SynthSpec(seed=17, noise_sigma=0.0, subject_shift=0.0))
        means = {}
        for session in twin.sessions:
            for x, label in zip(session.features, session.labels.tolist()):
                means[(session.session_index, label)] = x
        correct = 0
        total = 0
        for session in seq.sessions:
            classes = sorted(session.label_set)
            for x, label in zip(session.features, session.labels.tolist()):
                best = min(classes, key=lambda c: np.linalg.norm(
                    x - means[(session.session_index, c)]))
                total += 1
                correct += (best == label)
        assert correct / total >= 0.9


def one_direction(rng, dim, norm):
    """A vector with the given norm drawn alone, redrawing a zero-length draw."""
    if norm == 0.0:
        return np.zeros(dim)
    raw = rng.normals(dim)
    while np.linalg.norm(raw) == 0.0:
        raw = rng.normals(dim)
    return raw * (norm / np.linalg.norm(raw))


@pytest.mark.parametrize("norm", [0.0, 2.0])
def test_directions_equal_one_draw_at_a_time(monkeypatch, norm):
    # 3 rows of 701 normals take the lane path; row 1 of the lane draw is made
    # zero, so its generator redraws alone, as a zero draw alone would. 701 is
    # odd: each draw drops its last sine, and the redraw starts on a fresh pair
    real, dim = synth.normal_rows, 701
    monkeypatch.setattr(synth, "normal_rows", lambda gens, n: real(gens, n) * [[1], [0], [1]])
    rngs = [substream(5, "direction", i) for i in range(3)]
    alone = [substream(5, "direction", i) for i in range(3)]
    if norm:
        alone[1].normals(dim)  # the draw made zero
    got = synth._directions(rngs, dim, norm)
    for row, rng, reference in zip(got, rngs, alone):
        assert row.tobytes() == one_direction(reference, dim, norm).tobytes()
        assert rng._s == reference._s  # left where a draw alone leaves it
