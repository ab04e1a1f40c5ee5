"""Per-layer metrics of a traced run.

Two sources:

* microbenchmarks of single calls into ``problems``, ``theory``, ``solvers``
  and ``svrg`` on the workload's own problem, and of the quadratic instance
  builders at the sizes the certificate suites use (median of several
  batches);
* the spans of the traced passes, turned into per-pass counts, grad-units,
  time per grad-unit and self time per layer.

Every workload emits every metric; a layer a workload never calls reports 0
calls, 0 units and 0 time.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np
from tracing import SOLVERS

from pdsaddle import (
    Iterate,
    StoppingRule,
    SvrgConfig,
    conj_grad,
    full_grad,
    ghost_step,
    grad_primal,
    instances,
    pdg_step,
    reference_solution,
    run_primal_svrg,
    vr_grad,
)

LAYERS = ("harness", "solvers", "svrg", "instances")


def per_call_us(fn, *, batch_s: float = 0.02, batches: int = 5) -> float:
    """Median time of one call, in microseconds, over ``batches`` batches of
    calls each lasting at least ``batch_s`` seconds."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def microbenchmarks(problem, fsp, primal_fsp) -> dict[str, float]:
    rng = np.random.default_rng(0)
    A = problem.coupling
    x = rng.standard_normal(problem.d1)
    y = rng.standard_normal(problem.d2)
    z = A @ x
    xs = rng.standard_normal(fsp.d1)
    ys = rng.standard_normal(fsp.d2)
    xs2 = rng.standard_normal(fsp.d1)
    ys2 = rng.standard_normal(fsp.d2)
    snap = full_grad(fsp, xs2, ys2)
    idx = itertools.cycle(rng.integers(fsp.n, size=4096).tolist())
    it = Iterate(np.zeros(problem.d1), np.zeros(problem.d2))
    out = {
        "problems.matvec_us": per_call_us(lambda: (A @ x, A.T @ y)),
        "problems.grad_f_us": per_call_us(lambda: problem.grad_f(x)),
        "problems.grad_g_us": per_call_us(lambda: problem.grad_g(y)),
        "problems.conj_grad_us": per_call_us(lambda: conj_grad(problem, z)),
        "problems.grad_primal_us": per_call_us(lambda: grad_primal(problem, x)),
        "theory.ghost_step_us": per_call_us(lambda: ghost_step(problem, x, 1e-3)),
        "solvers.pdg_step_us": per_call_us(lambda: pdg_step(problem, it, 1e-3, 1e-3)),
        "svrg.full_grad_us": per_call_us(lambda: full_grad(fsp, xs, ys)),
        "svrg.vr_grad_us": per_call_us(
            lambda: vr_grad(fsp, next(idx), xs, ys, xs2, ys2, snap)),
    }
    # the primal finite sum has no public full-gradient call; a run of
    # single-step epochs is one full pass per epoch plus one inner step
    epochs = 20
    cfg = SvrgConfig(eta1=1e-9, eta2=1e-9, inner_iters=1, epochs=epochs)
    out["svrg.primal_full_grad_us"] = per_call_us(
        lambda: run_primal_svrg(primal_fsp, cfg=cfg,
                                stop=StoppingRule(1, 1e-300)),
        batches=3) / epochs
    # the per-trial set-up of the certificate suites (criteria 1, 3, 4 and 6),
    # at the sizes those suites use
    quad = instances.random_quadratic(1000)
    small = instances.random_quadratic(4242, 10, 10)
    out["instances.random_quadratic_s"] = per_call_us(
        lambda: instances.random_quadratic(1000), batches=3) * 1e-6
    out["instances.split_quadratic_s"] = per_call_us(
        lambda: instances.split_quadratic(small, 50, seed=4243), batches=3) * 1e-6
    out["solvers.reference_solution_s"] = per_call_us(
        lambda: reference_solution(quad, "direct"), batches=3) * 1e-6
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(rec, traced_passes: int, micro: dict) -> dict[str, float]:
    """Per-pass layer metrics from the spans recorded during traced passes."""
    P = traced_passes
    idx = [i for i, s in enumerate(rec.spans) if s.phase == "pass"]
    selft = rec.self_times(idx)
    spans = rec.spans

    def named(attr):
        return [i for i in idx if spans[i].name.endswith("." + attr)]

    def units(ids):
        return sum(spans[i].info.get("units", 0.0) for i in ids)

    def child_solver_runs(ids):
        kids = [k for i in ids for k in rec.children(i)
                if spans[k].name.split(".")[-1] in SOLVERS]
        return len(kids), units(kids)

    out: dict[str, float] = {}
    oracle_us = (micro["problems.matvec_us"] + micro["problems.grad_f_us"]
                 + micro["problems.grad_g_us"])
    for solver, layer in (("pdg", "solvers"), ("primal_gd", "solvers"),
                          ("pdsvrg", "svrg"), ("primal_svrg", "svrg")):
        ids = named("run_" + solver)
        u = units(ids)
        busy = sum(selft[i] for i in ids)
        pre = f"{layer}.{solver}"
        out[f"{pre}.calls"] = len(ids) / P
        out[f"{pre}.units"] = u / P
        out[f"{pre}.us_per_unit"] = _ratio(busy, u) * 1e6
        if solver == "pdg":
            out[f"{pre}.oracle_share"] = _ratio(oracle_us, out[f"{pre}.us_per_unit"])
        if layer == "svrg":
            full_us = micro["svrg.full_grad_us" if solver == "pdsvrg"
                            else "svrg.primal_full_grad_us"]
            epochs = sum(spans[i].info.get("epochs", 0) for i in ids)
            steps = sum(spans[i].info.get("epochs", 0) * spans[i].info.get("inner_iters", 0)
                        for i in ids)
            full_s = epochs * full_us * 1e-6
            out[f"{pre}.inner_step_us"] = _ratio(busy - full_s, steps) * 1e6
            if solver == "pdsvrg":
                out[f"{pre}.full_pass_share"] = _ratio(full_s, busy)

    grids = named("grid_search")
    points = sum(spans[i].info.get("points", 0) for i in grids)
    out["harness.grid.points"] = points / P
    out["harness.grid.diverged"] = sum(spans[i].info.get("diverged", 0) for i in grids) / P
    out["harness.grid.s_per_point"] = _ratio(sum(spans[i].duration for i in grids), points)
    out["harness.grid.units"] = child_solver_runs(grids)[1] / P

    mutts = named("measure_units_to_target")
    runs, spent = child_solver_runs(mutts)
    out["harness.mutt.runs"] = runs / P
    out["harness.mutt.units"] = spent / P
    out["harness.mutt.useful_ratio"] = _ratio(
        sum(spans[i].info.get("result_units", 0.0) for i in mutts), spent)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for i, t in selft.items()
                                     if spans[i].layer == layer) / P
    out["trace.spans"] = len(idx) / P
    return out


def setup_metrics(rec) -> dict[str, float]:
    """Time the set-up builds spent in each part of the smoothed-L1 build."""
    def total(*attrs):
        return sum(s.duration for s in rec.spans
                   if s.phase == "setup" and s.name.split(".")[-1] in attrs)

    return {
        "instances.data_s": total("make_smoothed_l1"),
        "instances.reference_s": total("smoothed_l1_minimizer"),
        "instances.finite_sum_s": total("smoothed_l1_saddle", "smoothed_l1_primal"),
    }


def span_cost_us() -> float:
    """Cost of one enabled span around an empty call, in microseconds."""
    from tracing import Recorder, span_wrapper

    rec = Recorder()
    rec.enabled = True
    wrapped = span_wrapper(rec, lambda: None, "noop", "bench")

    def traced():
        rec.spans.clear()
        wrapped()

    def plain():
        rec.spans.clear()

    return max(per_call_us(traced) - per_call_us(plain), 0.0)
