"""Batch first-order solvers with diagnostic traces.

``run_pdg`` is the simultaneous primal-dual gradient method: both variables
step from the same (x_t, y_t), descent in x and ascent in y.  ``run_primal_gd``
is the baseline that does plain gradient descent on the primal objective
P(x) = g*(Ax) + f(x); its step is PDG's ghost update, the PDG step with y tied
to grad g*(A x), so both run in one loop.  Both emit a Trace with
per-iteration distances, potential values and gradient-evaluation counts,
suitable for rate fitting.  Every solver loop, the stochastic ones in
``svrg`` included, records its rows and declares divergence through one
``_Recorder``.

``reference_solution`` produces a certified saddle point, either by a dense
solve of the stationarity system (quadratic problems) or by driving the
primal gradient to near machine precision.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .problems import (
    ConvergenceError,
    Iterate,
    SaddleProblem,
    _conj_grad_counted,
    _grad_L,
    _oracles,
    conj_grad,
    grad_L,
    grad_primal,
)
from .theory import _certified_potential, primal_step

__all__ = [
    "DivergenceError",
    "StoppingRule",
    "Trace",
    "pdg_step",
    "run_pdg",
    "run_primal_gd",
    "reference_solution",
]

# Divergence guard: abort once a watched column exceeds this multiple of its
# initial size (see _Recorder).
BLOWUP_FACTOR = 1e6

TRACE_COLUMNS = (
    "iter",
    "grad_evals",
    "dist_x",
    "dist_y",
    "b_t",
    "potential",
    "elapsed_seconds",
)


class DivergenceError(RuntimeError):
    """A solver produced non-finite values or a blown-up distance or potential.

    The partial trace accumulated so far is attached as ``trace``.
    """

    def __init__(self, message: str, iteration: int, trace: "Trace | None" = None):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


@dataclass(frozen=True)
class StoppingRule:
    """Stop after max_iters steps, once the gradient norm drops to tol, or
    once the distance drops to dist_tol.

    The gradient norm is the joint ||(gx, gy)|| of a batch run (the
    stochastic runs do not check it).  The distance ||x_t - x*|| is checked
    when a reference solution is supplied to the solver.  ``dist_tol``
    defaults to ``tol``, so one tolerance governs both unless a caller, such
    as a run to a target distance, splits them.
    """

    max_iters: int = 1000
    tol: float = 1e-10
    dist_tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.dist_tol is None:
            object.__setattr__(self, "dist_tol", self.tol)
        elif not self.dist_tol > 0:
            raise ValueError(f"dist_tol must be > 0, got {self.dist_tol}")


class Trace:
    """Per-iteration record of a solver run.

    Columns: iter, grad_evals (full-gradient units), dist_x = ||x_t - x*||,
    dist_y = ||y_t - y*||, b_t = ||y_t - grad g*(A x_t)||, potential
    (P_t, Q_t or R_t depending on the solver; see ``potential_kind``),
    elapsed_seconds.  They are lists of floats (iter of ints); a column a
    run does not measure holds NaN, written as an empty CSV field.
    ``inner_evals`` counts iterations spent inside the conjugate-gradient
    fallback, kept separate from grad_evals.
    """

    def __init__(self, potential_kind: str | None = None):
        self.iters: list[int] = []
        self.grad_evals: list[float] = []
        self.dist_x: list[float] = []
        self.dist_y: list[float] = []
        self.b_t: list[float] = []
        self.potential: list[float] = []
        self.elapsed: list[float] = []
        self.potential_kind = potential_kind
        self.inner_evals = 0

    def append(self, it: int, grad_evals: float, dist_x=None, dist_y=None,
               b_t=None, potential=None, elapsed=0.0):
        """Add a row; a column passed as None is stored as NaN."""
        if self.iters and it <= self.iters[-1]:
            raise ValueError("iteration indices must be strictly increasing")
        if self.grad_evals and grad_evals < self.grad_evals[-1]:
            raise ValueError("grad_evals must be nondecreasing")
        self.iters.append(it)
        self.grad_evals.append(grad_evals)
        for col, v in ((self.dist_x, dist_x), (self.dist_y, dist_y),
                       (self.b_t, b_t), (self.potential, potential)):
            col.append(math.nan if v is None else v)
        self.elapsed.append(elapsed)

    def __len__(self):
        return len(self.iters)

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` (one of TRACE_COLUMNS) as a float array."""
        return np.array(getattr(self, _TRACE_ATTRS[name]), dtype=float)

    def final_dist_x(self) -> float | None:
        """The last measured dist_x; None when no row measured it."""
        d = self.column("dist_x")
        d = d[~np.isnan(d)]
        return float(d[-1]) if d.size else None

    def units_to_target(self, target: float) -> float | None:
        """Grad-units consumed when dist_x first drops to ``target``."""
        hit = np.flatnonzero(self.column("dist_x") <= target)
        return float(self.grad_evals[hit[0]]) if hit.size else None

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for i in range(len(self)):
                row = [
                    self.iters[i],
                    repr(float(self.grad_evals[i])),
                    *(
                        "" if math.isnan(v) else repr(float(v))
                        for v in (
                            self.dist_x[i],
                            self.dist_y[i],
                            self.b_t[i],
                            self.potential[i],
                        )
                    ),
                    f"{self.elapsed[i]:.6f}",
                ]
                writer.writerow(row)


_TRACE_ATTRS = dict(zip(TRACE_COLUMNS, ("iters", "grad_evals", "dist_x", "dist_y",
                                        "b_t", "potential", "elapsed")))


class _Recorder:
    """The row and divergence policy of every solver loop.

    A loop calls ``finite`` on the iterates of a row before it measures
    them, so no oracle sees a non-finite value (the batch loop skips the
    call when finite distances already prove them finite), then
    ``append`` with the measured columns.  ``append`` adds the row first
    and then applies the blow-up guard to the watched columns ("distance"
    for dist_x, "potential"): a column fails once it exceeds BLOWUP_FACTOR
    times its base, 1 + its first value for a distance and max(first
    value, 1e-300) for a potential.  Messages place the failure as ``at`` followed by the
    loop counter, e.g. "at iteration 3" or "in epoch 0".
    """

    def __init__(self, trace: Trace, at: str, watch: tuple[str, ...]):
        self.trace, self.at = trace, at
        self.limits = dict.fromkeys(watch)
        self.t0 = time.perf_counter()

    def error(self, what: str, k: int, detail: str = "") -> DivergenceError:
        return DivergenceError(f"{what} {self.at} {k}{detail}", k, self.trace)

    def finite(self, k: int, *iterates):
        for v in iterates:
            if v is not None and not np.isfinite(v).all():
                raise self.error("non-finite iterate", k)

    def append(self, k: int, it: int, units: float, dist_x=None, dist_y=None,
               b_t=None, potential=None):
        self.trace.append(it, units, dist_x, dist_y, b_t, potential,
                          elapsed=time.perf_counter() - self.t0)
        for name, value in (("distance", dist_x), ("potential", potential)):
            if value is None or name not in self.limits:
                continue
            limit = self.limits[name]
            if limit is None:
                self.limits[name] = BLOWUP_FACTOR * (
                    1.0 + value if name == "distance" else max(value, 1e-300))
            elif value > limit:
                raise self.error(f"{name} blew up", k, f": {value:.3e}")


def _pd_step(oracles, x, y, eta1, eta2):
    """The simultaneous update from (x, y), with ``oracles`` from
    ``problems._oracles``.

    Returns A x, the step directions gx = grad f(x) + A^T y and
    gy = A x - grad g(y), and the next pair (x - eta1 gx, y + eta2 gy).
    Callers run it under np.errstate and check finiteness themselves.
    """
    ax, gx, gy = _grad_L(oracles, x, y)
    return ax, gx, gy, x - eta1 * gx, y + eta2 * gy


def pdg_step(problem: SaddleProblem, it: Iterate, eta1: float, eta2: float) -> Iterate:
    """One simultaneous primal-dual gradient step.

        x+ = x - eta1 (grad f(x) + A^T y)
        y+ = y + eta2 (A x - grad g(y))

    Both updates read the same pre-step iterate.  Costs one full-gradient
    unit.  Raises DivergenceError if the step produces non-finite values.
    """
    if not (eta1 > 0 and eta2 > 0):
        raise ValueError("step sizes must be positive")
    x, y = it.x, it.y
    if x.shape != (problem.d1,) or y.shape != (problem.d2,):
        raise ValueError(
            f"iterate dims {x.shape}, {y.shape} do not match problem "
            f"({problem.d1},), ({problem.d2},)"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        *_, xn, yn = _pd_step(_oracles(problem), x, y, eta1, eta2)
    if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(yn))):
        raise DivergenceError(
            f"non-finite iterate after step {it.iter + 1}", it.iter + 1
        )
    return Iterate(x=xn, y=yn, iter=it.iter + 1, grad_evals=it.grad_evals + 1)


def _resolve_steps(schedule, eta1, eta2):
    if schedule is not None:
        if eta1 is not None or eta2 is not None:
            raise ValueError("pass either a schedule or explicit (eta1, eta2)")
        return schedule.eta1, schedule.eta2
    if eta1 is None or eta2 is None:
        raise ValueError("explicit runs need both eta1 and eta2")
    return float(eta1), float(eta2)


def run_pdg(
    problem: SaddleProblem,
    init: Iterate | None = None,
    *,
    schedule=None,
    eta1: float | None = None,
    eta2: float | None = None,
    stop: StoppingRule = StoppingRule(),
    x_star: np.ndarray | None = None,
) -> Trace:
    """Run the primal-dual gradient method and collect a trace.

    Steps come either from a schedule object or from explicit (eta1, eta2).
    When ``x_star`` is supplied the trace records distances to the saddle
    point (the dual reference y* = grad g*(A x*) is derived once) and, under
    a PdgSchedule or an ScSchedule, the potential it certifies: P_t or R_t.

    Raises DivergenceError (with the partial trace attached) on non-finite
    iterates, or on dist_x or the potential exceeding 1e6 times its initial
    size.
    """
    e1, e2 = _resolve_steps(schedule, eta1, eta2)
    if init is None:
        init = Iterate(np.zeros(problem.d1), np.zeros(problem.d2))
    return _batch_loop(problem, init.x.copy(), init.y.copy(), e1, e2, stop, x_star,
                       schedule)


def run_primal_gd(
    problem: SaddleProblem,
    x0: np.ndarray | None = None,
    *,
    eta: float,
    stop: StoppingRule = StoppingRule(),
    x_star: np.ndarray | None = None,
) -> Trace:
    """Gradient descent on the primal objective P(x) = g*(Ax) + f(x).

    This is PDG's ghost update x - eta grad P(x): the PDG step with y tied to
    grad g*(A x).  Each step costs one full-gradient unit; iterations of the
    iterative conjugate fallback (if any) are accumulated in
    ``trace.inner_evals``.
    """
    x = np.zeros(problem.d1) if x0 is None else np.asarray(x0, dtype=float).copy()
    return _batch_loop(problem, x, None, eta, None, stop, x_star)


def _batch_loop(problem, x, y, eta1, eta2, stop, x_star, schedule=None) -> Trace:
    """The loop of both batch solvers.  With ``y`` None it runs the primal
    form: gs = grad g*(A x) once per step, then x - eta1 (grad f(x) + A^T gs).
    Otherwise it is the PDG step, and with ``x_star`` the potential that
    ``schedule`` certifies is recorded and watched.

    An iteration proves the iterate finite, takes the step and checks its
    gradient norm, all before the conjugate map of a PDG row (a factorized
    map fails on an overflowed A x), then records the row at the iterate.
    With ``x_star`` the distances come first: a finite distance to a finite
    reference proves the iterate finite, so entries are checked one by one
    only without ``x_star`` or when a distance is not finite (an iterate
    that is finite but whose distance overflowed runs on).  One np.errstate
    block covers the whole loop.
    """
    dual = y is not None
    if not (eta1 > 0 and (not dual or eta2 > 0)):
        raise ValueError("step sizes must be positive")
    oracles = A, At, grad_f, _ = _oracles(problem)
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        if dual:
            y_star = conj_grad(problem, A @ x_star)

    kind, potential = _certified_potential(schedule) if x_star is not None else (None, None)
    trace = Trace(potential_kind=kind)
    rec = _Recorder(trace, "at iteration", ("distance", "potential"))

    def counted_conj(z):
        gs, inner = _conj_grad_counted(problem, z)
        trace.inner_evals += inner
        return gs

    conj = problem.conj_grad_g if problem.conj_grad_g is not None else counted_conj
    t, y_next, dist, dist_y = 0, None, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if x_star is not None:
                d = x - x_star
                dist = math.sqrt(d @ d)
                if dual:
                    d = y - y_star
                    dist_y = math.sqrt(d @ d)
            if not (x_star is not None and math.isfinite(dist)
                    and (not dual or math.isfinite(dist_y))):
                rec.finite(t, x, y)
            if dual:
                ax, gx, gy, x_next, y_next = _pd_step(oracles, x, y, eta1, eta2)
                gnorm = math.sqrt(gx @ gx + gy @ gy)
            else:
                gs = conj(A @ x)
                gx = grad_f(x) + At @ gs
                x_next = x - eta1 * gx
                gnorm = math.sqrt(gx @ gx)
            if not math.isfinite(gnorm):
                raise rec.error("non-finite gradient", t)

            stopping = (t >= stop.max_iters or gnorm <= stop.tol
                        or (dist is not None and dist <= stop.dist_tol))
            b_t = pot = None
            if dual:
                d = y - conj(ax)
                b_t = math.sqrt(d @ d)
                if potential is not None:
                    pot = potential(dist, dist_y, b_t)
            rec.append(t, t, float(t), dist, dist_y, b_t, pot)
            if stopping:
                return trace
            x, y = x_next, y_next
            t += 1


def reference_solution(
    problem: SaddleProblem,
    mode: str = "direct",
    *,
    tol: float = 1e-12,
    max_iters: int = 2_000_000,
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Certified saddle point (x*, y*) with its stationarity residuals.

    mode "direct" (quadratic problems only) solves the linear system

        [ Bs   A^T ] [x]   [-b]
        [ A   -Cs  ] [y] = [-c]

    by dense factorization, where Bs, Cs are the symmetrized quadratic forms
    of f and g.  mode "iterate" runs primal gradient descent with the safe
    step 2/(gamma+delta) until ||grad P|| <= tol, then sets
    y* = grad g*(A x*).

    Returns (x_star, y_star, (res_x, res_y)) where res_x = ||grad f(x*) +
    A^T y*|| and res_y = ||A x* - grad g(y*)||.
    """
    A = problem.coupling
    if mode == "direct":
        parts = getattr(problem, "quadratic_parts", None)
        if parts is None:
            raise ValueError(
                "direct mode needs a quadratic problem exposing quadratic_parts"
            )
        b_sym, b_lin, c_sym, c_lin = parts
        d1, d2 = problem.d1, problem.d2
        kkt = np.zeros((d1 + d2, d1 + d2))
        kkt[:d1, :d1] = b_sym
        kkt[:d1, d1:] = A.T
        kkt[d1:, :d1] = A
        kkt[d1:, d1:] = -c_sym
        rhs = np.concatenate([-b_lin, -c_lin])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular stationarity system: {exc}") from exc
        x_star, y_star = sol[:d1], sol[d1:]
    elif mode == "iterate":
        eta = primal_step(problem.params)
        x = np.zeros(problem.d1)
        res = np.inf
        for _ in range(max_iters):
            g = grad_primal(problem, x)
            res = float(np.linalg.norm(g))
            if res <= tol:
                break
            x = x - eta * g
        else:
            raise ConvergenceError(
                f"iterate mode stalled at primal residual {res:.3e} (tol {tol:.1e})",
                residual=res,
            )
        x_star = x
        y_star = conj_grad(problem, A @ x_star)
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'direct' or 'iterate'")

    gx, gy = grad_L(problem, x_star, y_star)
    return x_star, y_star, (float(np.linalg.norm(gx)), float(np.linalg.norm(gy)))
