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
from array import array
from dataclasses import dataclass

import numpy as np

from .problems import (
    ConvergenceError,
    Iterate,
    SaddleProblem,
    _cache_aligned,
    _grad_L,
    _oracles,
    _row_dots,
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
    elapsed_seconds.  They are packed ``array.array`` columns of C doubles
    (iter of 64-bit ints), about 59 bytes a row where lists of boxed values
    took over 200; a column a run does not measure holds NaN, written as an
    empty CSV field.
    """

    def __init__(self, potential_kind: str | None = None):
        self.iters = array("q")
        self.grad_evals = array("d")
        self.dist_x = array("d")
        self.dist_y = array("d")
        self.b_t = array("d")
        self.potential = array("d")
        self.elapsed = array("d")
        self.potential_kind = potential_kind

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

    def extend(self, iters: range, elapsed: float, **columns):
        """Add the rows of a batch run's iterations ``iters`` (grad_evals =
        iteration), each measured column an array of their values and the
        others NaN; every row gets the time ``elapsed``."""
        if self.iters and iters and iters[0] <= self.iters[-1]:
            raise ValueError("iteration indices must be strictly increasing")
        n = len(iters)
        self.iters.extend(iters)
        self.grad_evals.extend(map(float, iters))
        for name in ("dist_x", "dist_y", "b_t", "potential"):
            values = columns.get(name)
            col = getattr(self, name)
            if values is None:
                col.extend([math.nan] * n)
            else:
                col.frombytes(np.asarray(values, dtype=float).tobytes())
        self.elapsed.extend([elapsed] * n)

    def __len__(self):
        return len(self.iters)

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` (one of TRACE_COLUMNS) as a float array.  It is a
        copy: a view would pin the buffer that a later append resizes."""
        return np.array(getattr(self, _TRACE_ATTRS[name]), dtype=float)

    def final_dist_x(self) -> float | None:
        """The last measured dist_x; None when no row measured it."""
        for d in reversed(self.dist_x):
            if not math.isnan(d):
                return d
        return None

    def units_to_target(self, target: float) -> float | None:
        """Grad-units consumed when dist_x first drops to ``target``."""
        hit = np.flatnonzero(self.column("dist_x") <= target)
        return self.grad_evals[hit[0]] if hit.size else None

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for it, units, *measured, elapsed in zip(
                    self.iters, self.grad_evals, self.dist_x, self.dist_y,
                    self.b_t, self.potential, self.elapsed):
                writer.writerow([it, repr(units),
                                 *("" if math.isnan(v) else repr(v) for v in measured),
                                 f"{elapsed:.6f}"])


_TRACE_ATTRS = dict(zip(TRACE_COLUMNS, ("iters", "grad_evals", "dist_x", "dist_y",
                                        "b_t", "potential", "elapsed")))


class _Recorder:
    """The row and divergence policy of every solver loop.

    A loop calls ``finite`` on the iterates of a row before it measures
    them, so no oracle sees a non-finite value, then ``append`` with the
    measured columns; the batch loop checks a block's iterates itself and
    records the block through ``append_rows``.  ``append`` adds the row first
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

    def _limit(self, name: str, first: float) -> float:
        """The blow-up limit of ``name``, set from its first value."""
        if self.limits[name] is None:
            self.limits[name] = BLOWUP_FACTOR * (
                1.0 + first if name == "distance" else max(first, 1e-300))
        return self.limits[name]

    def append(self, k: int, it: int, units: float, dist_x=None, dist_y=None,
               b_t=None, potential=None):
        self.trace.append(it, units, dist_x, dist_y, b_t, potential,
                          elapsed=time.perf_counter() - self.t0)
        for name, value in (("distance", dist_x), ("potential", potential)):
            if value is None or name not in self.limits:
                continue
            if self.limits[name] is None:
                self._limit(name, value)
            elif value > self.limits[name]:
                raise self.error(f"{name} blew up", k, f": {value:.3e}")

    def append_rows(self, t0: int, rows: int, **columns):
        """``append`` for the rows of iterations t0 .. t0 + rows - 1 of a
        batch run, from arrays of their measured columns (``Trace.extend``):
        the rows up to the first that trips the guard are added, and that
        row raises, the distance before the potential."""
        cut, tripped = rows, None
        for name, col in (("distance", "dist_x"), ("potential", "potential")):
            values = columns.get(col)
            if values is None or name not in self.limits or not rows:
                continue
            over = values[:cut] > self._limit(name, float(values[0]))
            if over.any():
                cut = int(over.argmax())
                tripped = name, float(values[cut])
        if tripped is not None:
            columns = {c: v[:cut + 1] for c, v in columns.items()}
            rows = cut + 1
        self.trace.extend(range(t0, t0 + rows), time.perf_counter() - self.t0, **columns)
        if tripped is not None:
            name, value = tripped
            raise self.error(f"{name} blew up", t0 + cut, f": {value:.3e}")


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
        _, gx, gy = _grad_L(_oracles(problem), x, y)
        xn, yn = x - eta1 * gx, y + eta2 * gy
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
    grad g*(A x).  Each step costs one full-gradient unit.
    """
    x = np.zeros(problem.d1) if x0 is None else np.asarray(x0, dtype=float).copy()
    return _batch_loop(problem, x, None, eta, None, stop, x_star)


# Rows of a block of the batch loop: the steps it takes before it measures
# them.  On the exp_decay(10) regression case 16 ran about 5% slower per step
# than 32, and 64 no faster, with twice the buffers and the discarded steps.
_BLOCK_ROWS = 32


def _batch_loop(problem, x, y, eta1, eta2, stop, x_star, schedule=None) -> Trace:
    """The loop of both batch solvers.  With ``y`` None it runs the primal
    form: gs = grad g*(A x) once per step, then x - eta1 (grad f(x) + A^T gs).
    Otherwise it is the PDG step, and with ``x_star`` the potential that
    ``schedule`` certifies is recorded and watched.

    The loop takes up to _BLOCK_ROWS steps into run-owned blocks of rows
    (iterates, A x and the gradient pair; 64-byte aligned, each row padded to
    whole cache lines), then measures the block's columns with a few array
    calls: every row dot is one BLAS dot (``_row_dots``), so each value has
    the bits of the row-by-row loop.  It then decides the rows in order, as
    that loop did row by row: the iterate is proved finite (by finite
    distances to a finite reference, else entry by entry), the step's
    gradient norm is checked and the stopping rule applied, and only then
    does a PDG row run the conjugate map for b_t (a factorized map fails on
    an overflowed A x) and get recorded.  The first row that fails a check
    raises, and an oracle that raised in a step is raised at its row; a stop
    returns.  So a run may take up to _BLOCK_ROWS - 1 steps past its
    stopping row, which it discards: they add no row and no grad-unit.  A
    block never reaches past max_iters.  One np.errstate block covers the
    whole loop.
    """
    dual = y is not None
    if not (eta1 > 0 and (not dual or eta2 > 0)):
        raise ValueError("step sizes must be positive")
    A, At, grad_f, grad_g = _oracles(problem)
    conj = problem.conj_grad_g
    measured = x_star is not None
    if measured:
        x_star = np.asarray(x_star, dtype=float)
        if dual:
            y_star = conj_grad(problem, A @ x_star)
    kind, potential = _certified_potential(schedule) if measured else (None, None)
    trace = Trace(potential_kind=kind)
    rec = _Recorder(trace, "at iteration", ("distance", "potential"))

    def block(rows, width):
        return _cache_aligned(np.zeros((rows, -(-width // 8) * 8)))[:, :width]

    def first(mask):
        """Index of the first True in ``mask``, its length if none."""
        return int(mask.argmax()) if mask.any() else len(mask)

    add, subtract, multiply, matmul = np.add, np.subtract, np.multiply, np.matmul
    step1, step2 = np.array(eta1), np.array(eta2)  # 0-d: cheaper ufunc operands
    # the gradient blocks are scratch once the gradient norms are measured
    C, d1, d2 = _BLOCK_ROWS, problem.d1, problem.d2
    X, GX = block(C + 1, d1), block(C, d1)
    X[0] = x
    xs, gxs = list(X), list(GX)
    if dual:
        Y, AX, GY = block(C + 1, d2), block(C, d2), block(C, d2)
        Y[0] = y
        ys, axs, gys = list(Y), list(AX), list(GY)
    t0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # step: rows [0, rows) take a step, X[rows] starts the next
            # block.  Sums and products commute in IEEE arithmetic, so these
            # are pdg_step's bits (GD: the ghost step's)
            rows, failed = min(C, stop.max_iters - t0 + 1), None
            try:
                if dual:
                    for i in range(rows):
                        x, y, ax, gx, gy = xs[i], ys[i], axs[i], gxs[i], gys[i]
                        matmul(A, x, ax)
                        add(matmul(At, y, gx), grad_f(x), gx)
                        subtract(ax, grad_g(y), gy)
                        add(y, multiply(gy, step2, ys[i + 1]), ys[i + 1])
                        subtract(x, multiply(gx, step1, xs[i + 1]), xs[i + 1])
                else:
                    for i in range(rows):
                        x, gx = xs[i], gxs[i]
                        add(matmul(At, conj(A @ x), gx), grad_f(x), gx)
                        subtract(x, multiply(gx, step1, xs[i + 1]), xs[i + 1])
            except Exception as exc:  # raised at its row, if the run gets there
                rows, failed = i, exc

            # measure: the iterate of the failed step's row is checked too
            g2 = _row_dots(GX[:rows])
            if dual:
                g2 += _row_dots(GY[:rows])
            gnorm = np.sqrt(g2)
            nm = rows + (failed is not None)
            finite = np.zeros(nm, dtype=bool)
            if measured:
                dist = np.sqrt(_row_dots(subtract(X[:nm], x_star, GX[:nm])))
                finite = np.isfinite(dist)
                if dual:
                    dist_y = np.sqrt(_row_dots(subtract(Y[:nm], y_star, GY[:nm])))
                    finite &= np.isfinite(dist_y)
            if not finite.all():
                entries = np.isfinite(X[:nm]).all(axis=1)
                if dual:
                    entries &= np.isfinite(Y[:nm]).all(axis=1)
                finite |= entries

            # decide in row order: the row of the first failed check (k) or
            # the row after the stop (r) ends the block
            k = first(~finite)
            k = min(k, first(~np.isfinite(gnorm[:k])))
            stops = gnorm[:k] <= stop.tol
            if measured:
                stops |= dist[:k] <= stop.dist_tol
            if stop.max_iters - t0 < len(stops):
                stops[stop.max_iters - t0] = True
            s = first(stops)
            r, pending, cols = min(s + 1, k), None, {}
            if dual:
                try:
                    for i in range(r):
                        subtract(ys[i], conj(axs[i]), gys[i])
                except Exception as exc:
                    r, pending = i, exc
                cols["b_t"] = np.sqrt(_row_dots(GY[:r]))
            if measured:
                cols["dist_x"] = dist[:r]
                if dual:
                    cols["dist_y"] = dist_y[:r]
                    if potential is not None:
                        cols["potential"] = potential(dist[:r], dist_y[:r], cols["b_t"])
            rec.append_rows(t0, r, **cols)
            if pending is not None:
                raise pending
            if r == s + 1:
                return trace
            if k < nm:
                if not finite[k]:
                    raise rec.error("non-finite iterate", t0 + k)
                if k == rows:
                    raise failed
                raise rec.error("non-finite gradient", t0 + k)
            X[0] = X[rows]
            if dual:
                Y[0] = Y[rows]
            t0 += rows


def reference_solution(
    problem: SaddleProblem,
    mode: str = "direct",
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Certified saddle point (x*, y*) with its stationarity residuals.

    mode "direct" (quadratic problems only) solves the linear system

        [ Bs   A^T ] [x]   [-b]
        [ A   -Cs  ] [y] = [-c]

    by dense factorization, where Bs, Cs are the symmetrized quadratic forms
    of f and g.  mode "iterate" runs primal gradient descent with the safe
    step 2/(gamma+delta) until ||grad P|| <= 1e-12, then sets
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
        for _ in range(2_000_000):
            g = grad_primal(problem, x)
            res = float(np.linalg.norm(g))
            if res <= 1e-12:
                break
            x = x - eta * g
        else:
            raise ConvergenceError(
                f"iterate mode stalled at primal residual {res:.3e} (tol 1.0e-12)",
                residual=res,
            )
        x_star = x
        y_star = conj_grad(problem, A @ x_star)
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'direct' or 'iterate'")

    gx, gy = grad_L(problem, x_star, y_star)
    return x_star, y_star, (float(np.linalg.norm(gx)), float(np.linalg.norm(gy)))
