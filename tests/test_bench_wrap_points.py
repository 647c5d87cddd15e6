"""The benchmark's tracer (`bench/spans.py`) patches `cdil` names by their
module and attribute path. Every one of them must still resolve, and the
arguments it reads by position must still sit there, so that renaming a
function fails here rather than only in the benchmark's own smoke test."""

import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()

# span name -> (argument position the tracer reads, the parameter expected there)
ARGUMENTS_READ = {
    "pipeline.trial": (3, "trial_index"),
    "rng.shuffle": (1, "items"),
    "learners.update": (1, "features"),
    "learners.predict": (1, "features"),
}


@pytest.mark.parametrize("name,module,path", [point[:3] for point in SPANS.WRAP_POINTS])
def test_wrap_point_resolves(name, module, path):
    owner, attr = SPANS._resolve(module, path)
    # a class attribute must be the class's own, as the tracer patches owner.__dict__
    target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(target)
    if name in ARGUMENTS_READ:
        position, parameter = ARGUMENTS_READ[name]
        assert list(inspect.signature(target).parameters)[position] == parameter


def test_every_read_argument_belongs_to_a_wrap_point():
    assert set(ARGUMENTS_READ) <= {point[0] for point in SPANS.WRAP_POINTS}
