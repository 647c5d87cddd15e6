"""Outside-in tracing of `cdil`: spans around the public functions each layer
is reached through, recorded in memory and turned into per-layer metrics.

Each wrap point is patched at the name its caller looks up (a module global
the caller reads at call time, or a class attribute), so `cdil` itself is not
changed. A span is (id, name, start, end, parent id, trial, work count,
phase, thread CPU time); the CPU time is taken for trial spans only. Parents
are tracked per thread; a pool worker thread whose own stack is empty
takes the main thread's innermost open span (the experiment) as its parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path


def _rows(args, result):
    return sum(s.size for s in result.sessions)


# (span name, module, attribute path, work count from (args, result) or None)
WRAP_POINTS = (
    ("cli.main", "cdil.cli", "main", None),
    ("rng.normals", "cdil.rng", "Xoshiro256StarStar.normals", lambda a, r: r.size),
    ("rng.shuffle", "cdil.rng", "Xoshiro256StarStar.shuffle", lambda a, r: len(a[1])),
    ("synth.generate", "cdil.cli", "generate_stream", None),
    ("interface.write_stream", "cdil.cli", "write_stream", None),
    ("interface.load", "cdil.interface", "load_sequence", _rows),
    ("interface.write_report", "cdil.interface", "write_report", None),
    ("splitters.partition", "cdil.pipeline", "partition", None),
    ("splitters.bind", "cdil.pipeline", "bind_folds", None),
    ("learners.init", "cdil.pipeline", "make_learner", None),
    ("learners.update", "cdil.learners", "FinetuneLearner.update", lambda a, r: len(a[1])),
    ("learners.update", "cdil.learners", "PrototypeLearner.update", lambda a, r: len(a[1])),
    ("learners.loss_grads", "cdil.learners", "finetune_loss_and_grads", None),
    ("learners.ridge_solve", "cdil.learners", "ridge_solve", None),
    ("learners.predict", "cdil.learners", "Learner.predict_many",
     lambda a, r: len(a[1])),
    ("rch.remap", "cdil.rch", "RCHState.remap", None),
    ("rch.write", "cdil.rch", "RCHState.set_rows", None),
    ("rch.write", "cdil.rch", "RCHState.add_to_rows", None),
    ("pipeline.experiment", "cdil.cli", "run_experiment", None),
    ("pipeline.trial", "cdil.pipeline", "run_trial", None),
    ("pipeline.session", "cdil.pipeline", "run_session", None),
    ("metrics.aggregate", "cdil.pipeline", "aggregate", None),
)

LAYERS = ("cli", "rng", "synth", "interface", "splitters", "learners", "rch",
          "pipeline", "metrics")

# Inclusive time and call count of these spans are reported as-is.
TIMED = ("rng.normals", "rng.shuffle", "synth.generate", "interface.write_stream",
         "interface.load", "interface.write_report", "splitters.partition",
         "splitters.bind", "learners.init", "learners.update", "learners.loss_grads",
         "learners.ridge_solve", "learners.predict", "rch.remap", "rch.write",
         "metrics.aggregate")

# Work counts (span count or summed work) under the names the metrics use.
COUNTS = (
    ("rng.normals.values", "rng.normals", "work"),
    ("rng.shuffle.items", "rng.shuffle", "work"),
    ("interface.load_rows", "interface.load", "work"),
    ("learners.update_rows", "learners.update", "work"),
    ("learners.predict_rows", "learners.predict", "work"),
    ("learners.sgd_steps", "learners.loss_grads", "calls"),
    ("learners.ridge_solves", "learners.ridge_solve", "calls"),
    ("rch.remap.calls", "rch.remap", "calls"),
    ("rch.write.calls", "rch.write", "calls"),
)


def _resolve(module: str, path: str):
    """The object owning the patched attribute, and the attribute name."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans while installed; `phase` tags every span it records."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[tuple[int, int | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, path, count in WRAP_POINTS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _stack(self) -> list[tuple[int, int | None]]:
        try:
            return self._local.stack
        except AttributeError:
            main = threading.get_ident() == self._main_ident
            stack = self._local.stack = self._main_stack if main else []
            return stack

    def _wrap(self, name, fn, count):
        is_trial = name == "pipeline.trial"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack
                                           else (None, None))
            parent, trial = top
            if is_trial:
                trial = args[3]
            span_id = next(self._ids)
            stack.append((span_id, trial))
            work = 1
            cpu = time.thread_time() if is_trial else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    work = count(args, result)
                return result
            finally:
                end = time.perf_counter()
                if is_trial:
                    cpu = time.thread_time() - cpu
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, trial, work,
                                   self.phase, cpu))

        return wrapper

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "trial", "work", "phase", "cpu")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def of_phase(self, *phases: str) -> list[tuple]:
        return [s for s in self.spans if s[7] in phases]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children of one span may overlap (trials running on a pool), so the
    covered part is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for span_id, _, start, end, *_ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def _pass_metrics(setup: list[tuple], det: list[tuple]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one traced deterministic pass (`det`).

    Named times and counts cover the traced set-up and the pass; layer self
    times and the trial percentiles cover the pass alone.
    """
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    total: dict[str, float] = {}
    for _, name, start, end, _, _, n, *_ in setup + det:
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + n
        total[name] = total.get(name, 0.0) + (end - start)

    out: dict[str, tuple[float, str, int]] = {}
    for name in TIMED:
        out[f"{name}_s"] = (total.get(name, 0.0), "s", calls.get(name, 0))
    for metric, name, kind in COUNTS:
        value = calls.get(name, 0) if kind == "calls" else work.get(name, 0)
        out[metric] = (value, "count", calls.get(name, 0))

    own = self_times(det)
    named_self: dict[str, float] = {}
    named_spans: dict[str, int] = {}
    for span in det:
        named_self[span[1]] = named_self.get(span[1], 0.0) + own[span[0]]
        named_spans[span[1]] = named_spans.get(span[1], 0) + 1
    for layer in LAYERS:
        names = [name for name in named_self if name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = (sum(named_self[n] for n in names), "s",
                                  sum(named_spans[n] for n in names))
    for metric, name in (("learners.update_self_s", "learners.update"),
                         ("pipeline.session_self_s", "pipeline.session")):
        out[metric] = (named_self.get(name, 0.0), "s", named_spans.get(name, 0))

    trials = [s[3] - s[2] for s in det if s[1] == "pipeline.trial"]
    if len(trials) >= 2:
        p50 = statistics.median(trials)
        p90 = statistics.quantiles(trials, n=10, method="inclusive")[8]
    else:
        p50 = p90 = trials[0] if trials else 0.0
    out["pipeline.trial_s.p50"] = (p50, "s", len(trials))
    out["pipeline.trial_s.p90"] = (p90, "s", len(trials))
    return out


def layer_metrics(tracer: Tracer, setup_phase: str, pass_phases: list[str],
                  pooled_phase: str, traced_walls: list[float],
                  untraced_walls: list[float], pooled_wall: float | None,
                  workers: int) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count).

    Each traced deterministic pass has its own phase (`pass_phases`, wall
    times `traced_walls`); every metric of `_pass_metrics` is the median over
    those passes, and its sample count is its span count summed over them.
    Pool efficiency is the trials' summed thread CPU time in the traced pooled
    pass over (its wall time x workers), 0 without a pooled pass. The tracing
    overhead is the median of traced minus untraced wall time over the
    alternating pairs; the residual is the median over the same pairs of how
    far the traced pass's summed layer self times are from the untraced
    pass's wall time.
    """
    setup = tracer.of_phase(setup_phase)
    per_pass = [_pass_metrics(setup, tracer.of_phase(phase)) for phase in pass_phases]
    out: dict[str, tuple[float, str, int]] = {}
    for name, (_, unit, _) in per_pass[0].items():
        # Counts are the same in every pass; median_low keeps them whole.
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = (median(m[name][0] for m in per_pass), unit,
                     sum(m[name][2] for m in per_pass))

    pooled_cpu = [s[8] for s in tracer.of_phase(pooled_phase) if s[1] == "pipeline.trial"]
    efficiency = sum(pooled_cpu) / (pooled_wall * workers) if pooled_cpu else 0.0
    out["pipeline.pool_efficiency"] = (efficiency, "ratio", len(pooled_cpu))

    layer_self = [sum(m[f"{layer}.self_s"][0] for layer in LAYERS) for m in per_pass]
    pairs = len(traced_walls)
    out["trace.wall_s"] = (statistics.median(traced_walls), "s", pairs)
    out["trace.untraced_wall_s"] = (statistics.median(untraced_walls), "s", pairs)
    out["trace.overhead_s"] = (
        statistics.median(t - u for t, u in zip(traced_walls, untraced_walls)), "s", pairs)
    out["trace.residual_s"] = (
        statistics.median(abs(s - u) for s, u in zip(layer_self, untraced_walls)), "s",
        pairs)
    return out
