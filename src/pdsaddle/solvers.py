"""Batch first-order solvers with diagnostic traces.

``run_pdg`` is the simultaneous primal-dual gradient method: both variables
step from the same (x_t, y_t), descent in x and ascent in y.  ``run_primal_gd``
is the baseline that does plain gradient descent on the primal objective
P(x) = g*(Ax) + f(x).  Both emit a Trace with per-iteration distances,
potential values and gradient-evaluation counts, suitable for rate fitting.

``reference_solution`` produces a certified saddle point, either by a dense
solve of the stationarity system (quadratic problems) or by driving the
primal gradient to near machine precision.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .problems import (
    ConvergenceError,
    Iterate,
    SaddleProblem,
    _conj_grad_counted,
    _grad_L,
    _grad_primal_counted,
    conj_grad,
    grad_L,
)
from .theory import primal_step

__all__ = [
    "DivergenceError",
    "StoppingRule",
    "Trace",
    "pdg_step",
    "run_pdg",
    "run_primal_gd",
    "reference_solution",
]

# Divergence guard: abort once the tracked potential exceeds this multiple of
# its initial value.
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
    """A solver produced non-finite values or a blowing-up potential.

    The partial trace accumulated so far is attached as ``trace``.
    """

    def __init__(self, message: str, iteration: int, trace: "Trace | None" = None):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace


@dataclass(frozen=True)
class StoppingRule:
    """Stop after max_iters steps or once an error measure drops below tol.

    The error measure is the joint gradient norm ||(gx, gy)||; when a
    reference solution is supplied to the solver, ||x_t - x*|| <= tol also
    stops the run.
    """

    max_iters: int = 1000
    tol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


class Trace:
    """Per-iteration record of a solver run.

    Columns (missing entries are None in memory, empty fields in CSV):
    iter, grad_evals (full-gradient units), dist_x = ||x_t - x*||,
    dist_y = ||y_t - y*||, b_t = ||y_t - grad g*(A x_t)||, potential
    (P_t, Q_t or R_t depending on the solver; see ``potential_kind``),
    elapsed_seconds.  ``inner_evals`` counts iterations spent inside the
    conjugate-gradient fallback, kept separate from grad_evals.
    """

    def __init__(self, potential_kind: str | None = None):
        self.iters: list[int] = []
        self.grad_evals: list[float] = []
        self.dist_x: list[float | None] = []
        self.dist_y: list[float | None] = []
        self.b_t: list[float | None] = []
        self.potential: list[float | None] = []
        self.elapsed: list[float] = []
        self.potential_kind = potential_kind
        self.inner_evals = 0
        self.schedule: dict | None = None

    def append(self, it: int, grad_evals: float, dist_x=None, dist_y=None,
               b_t=None, potential=None, elapsed=0.0):
        if self.iters and it <= self.iters[-1]:
            raise ValueError("iteration indices must be strictly increasing")
        if self.grad_evals and grad_evals < self.grad_evals[-1]:
            raise ValueError("grad_evals must be nondecreasing")
        self.iters.append(it)
        self.grad_evals.append(grad_evals)
        self.dist_x.append(dist_x)
        self.dist_y.append(dist_y)
        self.b_t.append(b_t)
        self.potential.append(potential)
        self.elapsed.append(elapsed)

    def __len__(self):
        return len(self.iters)

    def column(self, name: str) -> np.ndarray:
        """Column as a float array with None mapped to NaN."""
        raw = {
            "iter": self.iters,
            "grad_evals": self.grad_evals,
            "dist_x": self.dist_x,
            "dist_y": self.dist_y,
            "b_t": self.b_t,
            "potential": self.potential,
            "elapsed_seconds": self.elapsed,
        }[name]
        return np.array([np.nan if v is None else float(v) for v in raw])

    def final_dist_x(self) -> float | None:
        for v in reversed(self.dist_x):
            if v is not None:
                return float(v)
        return None

    def units_to_target(self, target: float) -> float | None:
        """Grad-units consumed when dist_x first drops to ``target``."""
        for d, u in zip(self.dist_x, self.grad_evals):
            if d is not None and d <= target:
                return float(u)
        return None

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for i in range(len(self)):
                row = [
                    self.iters[i],
                    repr(float(self.grad_evals[i])),
                    *(
                        "" if v is None else repr(float(v))
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


def _pd_step(problem, x, y, eta1, eta2):
    """The simultaneous update from (x, y).

    Returns A x, the step directions gx = grad f(x) + A^T y and
    gy = A x - grad g(y), and the next pair (x - eta1 gx, y + eta2 gy).
    Overflow is left to the callers' finiteness checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ax, gx, gy = _grad_L(problem, x, y)
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
    *_, xn, yn = _pd_step(problem, x, y, eta1, eta2)
    if not (np.all(np.isfinite(xn)) and np.all(np.isfinite(yn))):
        raise DivergenceError(
            f"non-finite iterate after step {it.iter + 1}", it.iter + 1
        )
    return Iterate(x=xn, y=yn, iter=it.iter + 1, grad_evals=it.grad_evals + 1)


def _resolve_steps(schedule, eta1, eta2):
    if schedule is not None:
        if eta1 is not None or eta2 is not None:
            raise ValueError("pass either a schedule or explicit (eta1, eta2)")
        return schedule.eta1, schedule.eta2, getattr(schedule, "lambda_", None)
    if eta1 is None or eta2 is None:
        raise ValueError("explicit runs need both eta1 and eta2")
    return float(eta1), float(eta2), None


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

    Steps come either from a schedule object (whose lambda_ weight, when
    present, is also used to record the potential P_t) or from explicit
    (eta1, eta2).  When ``x_star`` is supplied the trace records distances to
    the saddle point (the dual reference y* = grad g*(A x*) is derived once).

    Raises DivergenceError (with the partial trace attached) on non-finite
    iterates or a potential exceeding 1e6 times its initial value.
    """
    e1, e2, lam = _resolve_steps(schedule, eta1, eta2)
    if init is None:
        init = Iterate(np.zeros(problem.d1), np.zeros(problem.d2))
    x, y = init.x.copy(), init.y.copy()

    y_star = None
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        y_star = conj_grad(problem, problem.coupling @ x_star)

    trace = Trace(potential_kind="P_t" if (lam is not None and x_star is not None) else None)
    trace.schedule = {"eta1": e1, "eta2": e2}
    if lam is not None:
        trace.schedule["lambda"] = lam

    t0 = time.perf_counter()
    t = 0
    p_first = None
    d_first = None
    while True:
        ax, gx, gy, x_next, y_next = _pd_step(problem, x, y, e1, e2)
        with np.errstate(over="ignore", invalid="ignore"):
            gnorm = float(np.sqrt(gx @ gx + gy @ gy))
        if not np.isfinite(gnorm):
            raise DivergenceError(f"non-finite gradient at iteration {t}", t, trace)

        dist = dist_y = pot = None
        if x_star is not None:
            dist = float(np.linalg.norm(x - x_star))
            dist_y = float(np.linalg.norm(y - y_star))
            if d_first is None:
                d_first = dist
            if dist > BLOWUP_FACTOR * (1.0 + d_first):
                raise DivergenceError(
                    f"distance blew up at iteration {t}: {dist:.3e}", t, trace
                )
        stopping = (
            t >= stop.max_iters
            or gnorm <= stop.tol
            or (dist is not None and dist <= stop.tol)
        )
        gs, inner = _conj_grad_counted(problem, ax)
        trace.inner_evals += inner
        b_t = float(np.linalg.norm(y - gs))
        if lam is not None and dist is not None:
            pot = lam * dist + b_t
            if p_first is None:
                p_first = pot
        trace.append(t, float(t), dist, dist_y, b_t, pot,
                     elapsed=time.perf_counter() - t0)
        if pot is not None and pot > BLOWUP_FACTOR * max(p_first, 1e-300):
            raise DivergenceError(
                f"potential blew up at iteration {t}: {pot:.3e} "
                f"vs initial {p_first:.3e}",
                t,
                trace,
            )
        if stopping:
            break

        x, y = x_next, y_next
        t += 1
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DivergenceError(f"non-finite iterate at iteration {t}", t, trace)
    return trace


def run_primal_gd(
    problem: SaddleProblem,
    x0: np.ndarray | None = None,
    *,
    eta: float,
    stop: StoppingRule = StoppingRule(),
    x_star: np.ndarray | None = None,
) -> Trace:
    """Gradient descent on the primal objective P(x) = g*(Ax) + f(x).

    Each step costs one full-gradient unit; iterations of the iterative
    conjugate fallback (if any) are accumulated in ``trace.inner_evals``.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    x = np.zeros(problem.d1) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)

    trace = Trace()
    trace.schedule = {"eta": eta}
    t0 = time.perf_counter()
    t = 0
    d_first = None
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            g, inner = _grad_primal_counted(problem, x)
            gnorm = float(np.linalg.norm(g))
        trace.inner_evals += inner
        if not np.isfinite(gnorm):
            raise DivergenceError(f"non-finite gradient at iteration {t}", t, trace)
        dist = None
        if x_star is not None:
            dist = float(np.linalg.norm(x - x_star))
            if d_first is None:
                d_first = dist
        stopping = (
            t >= stop.max_iters
            or gnorm <= stop.tol
            or (dist is not None and dist <= stop.tol)
        )
        trace.append(t, float(t), dist, elapsed=time.perf_counter() - t0)
        if dist is not None and dist > BLOWUP_FACTOR * (1.0 + d_first):
            raise DivergenceError(
                f"distance blew up at iteration {t}: {dist:.3e}", t, trace
            )
        if stopping:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            x = x - eta * g
        t += 1
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"non-finite iterate at iteration {t}", t, trace)
    return trace


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
            g, _ = _grad_primal_counted(problem, x)
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
