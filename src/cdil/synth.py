"""Synthetic composite class-domain session streams.

Each class has a fixed base mean; each session adds a rigid translation (the
domain gap between datasets) and each subject a smaller personal offset, so
later sessions revisit known classes under a shifted distribution while also
introducing new ones. Subject offsets are what make subject-level splits
strictly harder than instance-level splits: held-out subjects carry offsets
the learner never saw.

The default four-session label structure mirrors the benchmark's real
dataset sequence (five initial classes, overlapping five/six/seven-class
follow-ups, nine classes cumulative). The separation/shift magnitudes are
absolute norms calibrated against the default unit noise; `noise_sigma`
scales only the additive noise, so a zero-sigma stream collapses onto the
exact class+session(+subject) means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (LabelRegistry, SessionDataset, SessionSequence,
                   check_int, check_list, check_names, check_real)
from .rng import normal_rows, substream

DEFAULT_SESSION_LABELS: tuple[tuple[str, ...], ...] = (
    ("disgust", "happiness", "others", "repression", "surprise"),
    ("anger", "contempt", "happiness", "others", "surprise"),
    ("disgust", "fear", "happiness", "others", "sad", "surprise"),
    ("anger", "disgust", "fear", "happiness", "others", "sad", "surprise"),
)


@dataclass(frozen=True)
class SynthSpec:
    session_label_sets: tuple[tuple[str, ...], ...] = DEFAULT_SESSION_LABELS
    feature_dim: int = 64
    samples_per_class_per_session: int = 40
    subjects_per_session: int = 15
    class_separation: float = 4.0
    domain_shift: float = 2.0
    subject_shift: float = 0.5
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        label_sets = check_list("session_label_sets", self.session_label_sets, 1)
        object.__setattr__(self, "session_label_sets", tuple(
            check_names("session_label_sets", labels, 2 if t == 1 else 1)
            for t, labels in enumerate(label_sets, start=1)))
        for name in ("feature_dim", "samples_per_class_per_session"):
            check_int(name, getattr(self, name), 1)
        # every class of a session is dealt at least one subject
        check_int("subjects_per_session", self.subjects_per_session,
                  max(map(len, self.session_label_sets)))
        check_int("seed", self.seed)
        for name in ("class_separation", "domain_shift", "subject_shift", "noise_sigma"):
            check_real(name, getattr(self, name), 0)


def _directions(rngs, dim: int, norm: float) -> np.ndarray:
    """Row i: a random vector with the given norm drawn from rngs[i] (a zero norm
    gives zero vectors and draws nothing). The rows are drawn together, as each
    would be alone, and a row of length zero is redrawn from its own generator."""
    if norm == 0.0:
        return np.zeros((len(rngs), dim))
    rows = normal_rows(rngs, dim)
    for rng, row in zip(rngs, rows):
        length = np.linalg.norm(row)
        while length == 0.0:
            row[:] = rng.normals(dim)
            length = np.linalg.norm(row)
        row *= norm / length
    return rows


def generate_stream(spec: SynthSpec) -> SessionSequence:
    """Deterministically generate the session stream described by `spec`."""
    registry = LabelRegistry(name for labels in spec.session_label_sets for name in labels)
    dim = spec.feature_dim
    class_means = dict(zip(registry.names, _directions(
        [substream(spec.seed, "class-mean", name) for name in registry.names],
        dim, spec.class_separation)))
    session_shifts = _directions(
        [substream(spec.seed, "session-shift", t)
         for t in range(1, len(spec.session_label_sets) + 1)], dim, spec.domain_shift)

    sessions = []
    for t, (labels, session_shift) in enumerate(zip(spec.session_label_sets, session_shifts),
                                                 start=1):
        subject_ids = [f"s{t}:p{i:02d}" for i in range(spec.subjects_per_session)]
        subject_shifts = dict(zip(subject_ids, _directions(
            [substream(spec.seed, "subject-shift", sid) for sid in subject_ids],
            dim, spec.subject_shift)))
        deal_order = list(subject_ids)
        substream(spec.seed, "subject-deal", t).shuffle(deal_order)
        class_subjects = {name: deal_order[j::len(labels)] for j, name in enumerate(labels)}

        per_class = range(spec.samples_per_class_per_session)
        row_names = [name for name in labels for _ in per_class]
        row_subjects = [class_subjects[name][m % len(class_subjects[name])]
                        for name in labels for m in per_class]
        # one noise block in row order holds the draws of one normals(feature_dim) per
        # row; adding each row's mean to it in place is exact, as a + b == b + a
        features = substream(spec.seed, "noise", t).normals((len(row_names), dim))
        features *= spec.noise_sigma
        for row, name, subject in zip(features, row_names, row_subjects):
            row += class_means[name] + session_shift + subject_shifts[subject]
        sample_ids = [f"s{t}-{i:04d}" for i in range(len(row_names))]
        sessions.append(SessionDataset.build(t, features, list(map(registry.index_of, row_names)),
                                             sample_ids, row_subjects))

    return SessionSequence.build(sessions, registry, spec.feature_dim)
