"""Spans and output checks around the public functions the benchmark drives.

The wrappers replace attributes of the ``pdsaddle`` modules inside the
benchmark's own worker process; the program's source is untouched.  The
harness looks these names up in its module globals (and the instance builders
through ``pdsaddle.instances``) at call time, so calls it makes internally,
such as ``measure_units_to_target`` calling ``run_pdg``, pass through the
wrappers too.

Two things are installed separately:

* observers on the four solvers, always on: they count the grad-units every
  run spends (a diverged run too, from the partial trace its error carries)
  and check every stochastic trace against the SVRG cost model (one epoch
  costs 1 + 2N/n grad-units).  Their cost is one function call per solver run.
* span wrappers, only in a traced run: each call records name, layer, start,
  end and parent in memory; ``Recorder.enabled`` switches recording per pass.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, layer) of every function that gets a span.  build_instance
# lives in harness.py and so belongs to the harness layer; the smoothed-L1 and
# quadratic builders it calls belong to instances.
SPAN_TARGETS = (
    ("harness", "build_instance", "harness"),
    ("harness", "grid_search", "harness"),
    ("harness", "measure_units_to_target", "harness"),
    ("harness", "run_pdg", "solvers"),
    ("harness", "run_primal_gd", "solvers"),
    ("harness", "reference_solution", "solvers"),
    ("harness", "run_pdsvrg", "svrg"),
    ("harness", "run_primal_svrg", "svrg"),
    ("instances", "make_smoothed_l1", "instances"),
    ("instances", "smoothed_l1_saddle", "instances"),
    ("instances", "smoothed_l1_primal", "instances"),
    ("instances", "smoothed_l1_minimizer", "instances"),
    ("instances", "random_quadratic", "instances"),
    ("instances", "split_quadratic", "instances"),
    ("instances", "split_quadratic_primal", "instances"),
)

SOLVERS = ("run_pdg", "run_primal_gd", "run_pdsvrg", "run_primal_svrg")
STOCHASTIC = ("run_pdsvrg", "run_primal_svrg")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int
    end: float = 0.0
    phase: str = ""
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def final_units(trace) -> float:
    """Grad-units on the last row of a solver trace (0 for an empty trace)."""
    if trace is None or len(trace) == 0:
        return 0.0
    return float(trace.column("grad_evals")[-1])


class Recorder:
    """In-memory span log plus the stochastic-trace checks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.phase = ""
        self._stack: list[int] = []
        # grad-units spent by every solver run so far; ref_cpu_s is the CPU
        # time of the reference loop, which own_cpu_s leaves out
        self.solver_units = 0.0
        self.ref_cpu_s = 0.0
        self.violations: list[str] = []

    def own_cpu_s(self) -> float:
        return time.thread_time() - self.ref_cpu_s

    # -- solver observers ---------------------------------------------------
    def observe_stochastic(self, solver: str, fsp, cfg, trace):
        expected = 1.0 + 2.0 * cfg.inner_iters / fsp.n
        steps = np.diff(trace.column("grad_evals"))
        bad = np.abs(steps - expected) > 1e-9 * expected
        if np.any(bad):
            self.violations.append(
                f"{solver}: per-epoch grad-unit step {steps[bad][0]!r} is not "
                f"1 + 2N/n = {expected!r} (N={cfg.inner_iters}, n={fsp.n})"
            )

    # -- spans --------------------------------------------------------------
    def _enter(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, 0.0, parent, phase=self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def self_times(self, spans: list[int]) -> dict[int, float]:
        """Self time of each listed span: its duration minus the time its
        direct children cover (children never overlap: calls are nested)."""
        out = {i: self.spans[i].duration for i in spans}
        for i in spans:
            p = self.spans[i].parent
            if p in out:
                out[p] -= self.spans[i].duration
        return out

    def children(self, index: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == index]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": s.parent, "phase": s.phase, "error": s.error,
             "info": s.info}
            for s in self.spans
        ]


def _solver_info(attr, args, kwargs, result) -> dict:
    info = {"units": final_units(result)}
    if attr in STOCHASTIC and len(result):
        cfg = kwargs["cfg"]
        info["epochs"] = len(result) - 1
        info["inner_iters"] = cfg.inner_iters
    return info


def _result_info(attr, args, kwargs, result) -> dict:
    if attr in SOLVERS:
        return _solver_info(attr, args, kwargs, result)
    if attr == "grid_search":
        return {"solver": args[1], "points": len(result["ranked"]),
                "diverged": sum(r["status"] != "ok" for r in result["ranked"])}
    if attr == "measure_units_to_target":
        return {"solver": args[1], "result_units": result[0] or 0.0}
    return {}


def span_wrapper(rec: Recorder, fn, attr: str, layer: str):
    name = f"{layer}.{attr}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec._enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec._exit(span)
            span.error = type(exc).__name__
            partial = getattr(exc, "trace", None)
            if attr in SOLVERS and partial is not None:
                span.info["units"] = final_units(partial)
            raise
        rec._exit(span)
        span.info.update(_result_info(attr, args, kwargs, result))
        return result

    return wrapper


def _observer_wrapper(rec: Recorder, fn, attr: str):
    @functools.wraps(fn)
    def wrapper(problem, *args, **kwargs):
        try:
            trace = fn(problem, *args, **kwargs)
        except BaseException as exc:
            rec.solver_units += final_units(getattr(exc, "trace", None))
            raise
        rec.solver_units += final_units(trace)
        if attr in STOCHASTIC:
            rec.observe_stochastic(attr, problem, kwargs["cfg"], trace)
        return trace

    return wrapper


def install(rec: Recorder, *, spans: bool):
    """Install the observers and, when ``spans``, the span wrappers.

    Observers sit inside the span wrappers, so a span's time includes them
    exactly as the untraced run does."""
    from pdsaddle import harness, instances

    modules = {"harness": harness, "instances": instances}
    for attr in SOLVERS:
        setattr(harness, attr, _observer_wrapper(rec, getattr(harness, attr), attr))
    if spans:
        for mod_name, attr, layer in SPAN_TARGETS:
            mod = modules[mod_name]
            setattr(mod, attr, span_wrapper(rec, getattr(mod, attr), attr, layer))
