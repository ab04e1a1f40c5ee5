"""Batch first-order solvers with diagnostic traces.

``run_pdg`` is the simultaneous primal-dual gradient method: both variables
step from the same (x_t, y_t), descent in x and ascent in y.  ``run_primal_gd``
is the baseline that does plain gradient descent on the primal objective
P(x) = g*(Ax) + f(x); its step is PDG's ghost update, the PDG step with y tied
to grad g*(A x), so both run in one loop.  Both emit a Trace with
per-iteration distances, potential values and gradient-evaluation counts,
suitable for rate fitting.  Every solver loop, the stochastic ones in
``svrg`` included, measures its rows' columns, records them and declares
divergence through one ``_Recorder``.

``reference_solution`` produces a certified saddle point, either by a dense
solve of the stationarity system (quadratic problems) or by driving the
primal gradient to near machine precision.
"""

from __future__ import annotations

import csv
import math
import operator
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .problems import (
    ConvergenceError,
    Iterate,
    SaddleProblem,
    _cache_aligned,
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
    (iter of 64-bit ints); a column a run does not measure holds NaN,
    written as an empty CSV field.  Every row is added by ``extend``, with the iteration
    and grad-units the loop counts: the batch loop's grad-units are its
    iterations, an SVRG row's are its component evaluations / n.
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

    def extend(self, iters, grad_evals, elapsed: float, **columns):
        """Add rows: their iteration indices ``iters`` and grad-units
        ``grad_evals``, as the loop counts them, and each measured column an
        array of their values (a column not passed is NaN); every row gets
        the time ``elapsed``.  Iterations must increase strictly and
        grad-units must not decrease, from the last row held on."""
        its, units = [*self.iters[-1:], *iters], [*self.grad_evals[-1:], *grad_evals]
        if not all(map(operator.lt, its, its[1:])):
            raise ValueError("iteration indices must be strictly increasing")
        if not all(map(operator.le, units, units[1:])):
            raise ValueError("grad_evals must be nondecreasing")
        n = len(iters)
        self.iters.extend(iters)
        self.grad_evals.extend(map(float, grad_evals))
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
        copy: a view would pin the buffer that a later extend resizes."""
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
    """The trace of every solver loop: it measures the rows' columns and
    applies the row and divergence policy.

    It is built from the run's ``problem`` (None for a primal run: no dual
    columns), the reference ``x_star`` (None: no distances, no potential)
    and the ``steps`` whose potential ``_certified_potential`` picks, and
    derives y* = grad g*(A x*) once.  Loops hand it blocks of rows, the SVRG
    loop one at a time (``row``).  Each distance and b_t (every primal-dual
    row has one) is the root of a BLAS dot: np.linalg.norm's bits.

    A loop proves its rows' iterates finite before they are measured: the
    SVRG loop by ``finite``, the batch loop itself.  ``append_rows`` applies
    the blow-up guard to the watched columns ("distance" for dist_x,
    "potential"): one fails once it exceeds BLOWUP_FACTOR times its base,
    1 + its first value for a distance, max(first value, 1e-300) for a
    potential, placed as the loop's phrase ``at`` and its counter.
    """

    def __init__(self, problem: SaddleProblem | None, x_star, steps, at: str,
                 watch: tuple[str, ...]):
        self.problem, self.at = problem, at
        self.x_star = self.y_star = self.potential = kind = None
        if x_star is not None:
            self.x_star = np.asarray(x_star, dtype=float)
            if problem is not None:
                self.y_star = conj_grad(problem, problem.coupling @ self.x_star)
                kind, self.potential = _certified_potential(steps)
        self.trace = Trace(potential_kind=kind)
        self.limits = dict.fromkeys(watch)
        self.t0 = time.perf_counter()

    def error(self, what: str, k: int, detail: str = "") -> DivergenceError:
        return DivergenceError(f"{what} {self.at} {k}{detail}", k, self.trace)

    def finite(self, k: int, *iterates):
        for v in iterates:
            if v is not None and not np.isfinite(v).all():
                raise self.error("non-finite iterate", k)

    def distances(self, X, Y=None, out=(None, None)):
        """dist_x, dist_y of the blocks' rows (None unmeasured), via ``out``."""
        pairs = zip((X, Y), (self.x_star, self.y_star), out)
        return tuple(None if B is None or ref is None
                     else np.sqrt(_row_dots(np.subtract(B, ref, o))) for B, ref, o in pairs)

    def row(self, k: int, units: float, at: int, x, y=None, *unrecorded):
        """Record iteration ``k`` at (x, y), once it and ``unrecorded`` are
        proved finite, as a one-row block failing at ``at``; returns the
        dist_x recorded (NaN unmeasured, inf on overflow)."""
        self.finite(at, x, y, *unrecorded)
        Y, AX = (None, None) if y is None else (y[None], (self.problem.coupling @ x)[None])
        with np.errstate(over="ignore", invalid="ignore"):
            self.append_rows((k,), (units,), self.distances(x[None], Y), Y, AX, at=at)
        return self.trace.dist_x[-1]

    def append_rows(self, iters, units, dist=(None, None), Y=None, AX=None, out=None,
                    at: int | None = None):
        """Add the rows of iterations ``iters`` with grad-units ``units``,
        their distances ``dist`` and, given blocks of their y and A x, b_t
        (differences written into ``out``) and the potential, up to the
        first that fails: a row whose conjugate map raises is not added and
        the map's error raised; a row that trips the guard (distance first)
        is added and fails at the counter ``at`` (None: its iteration)."""
        cut, pending, tripped = len(iters), [], None
        columns = dict(zip(("dist_x", "dist_y"), dist))
        if Y is not None:
            diff, conj = np.empty(Y.shape) if out is None else out, self.problem.conj_grad_g
            try:
                for i in range(cut):
                    np.subtract(Y[i], conj(AX[i]), diff[i])
            except Exception as exc:
                cut, pending = i, [exc]
            columns["b_t"] = np.sqrt(_row_dots(diff[:cut]))
        columns = {c: v[:cut] for c, v in columns.items() if v is not None}
        if self.potential is not None:
            columns["potential"] = self.potential(columns["dist_x"], columns["dist_y"],
                                                  columns["b_t"])
        rows = cut
        for name, col in (("distance", "dist_x"), ("potential", "potential")):
            values = columns.get(col)
            if values is None or name not in self.limits or not len(values):
                continue
            if self.limits[name] is None:
                first = float(values[0])
                self.limits[name] = BLOWUP_FACTOR * (
                    1.0 + first if name == "distance" else max(first, 1e-300))
            over = values[:cut] > self.limits[name]
            if over.any():
                cut = int(over.argmax())
                rows, tripped = cut + 1, (name, float(values[cut]))
        self.trace.extend(iters[:rows], units[:rows], time.perf_counter() - self.t0,
                          **{c: v[:rows] for c, v in columns.items()})
        # each error raised unbound (popped): a local holding it would tie it,
        # through its traceback, to this frame
        if tripped is not None:
            name, value = tripped
            raise self.error(f"{name} blew up", iters[cut] if at is None else at,
                             f": {value:.3e}")
        if pending:
            raise pending.pop()


def pdg_step(problem: SaddleProblem, it: Iterate, eta1: float, eta2: float) -> Iterate:
    """One simultaneous primal-dual gradient step.

        x+ = x - eta1 (grad f(x) + A^T y)
        y+ = y + eta2 (A x - grad g(y))

    Both updates read the same pre-step iterate.  Costs one full-gradient
    unit.  Raises DivergenceError if the step produces non-finite values,
    and ``grad_L``'s ValueError on an iterate of the wrong shape.
    """
    if not (eta1 > 0 and eta2 > 0):
        raise ValueError("step sizes must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = grad_L(problem, it.x, it.y)
        xn, yn = it.x - eta1 * gx, it.y + eta2 * gy
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
    Otherwise it is the PDG step, recording the potential ``schedule``
    certifies.

    It takes up to _BLOCK_ROWS steps into run-owned blocks of rows (iterates,
    A x and the gradient pair; C-ordered, 64-byte aligned), measures their
    gradient norms and distances, then decides the rows in order, as a
    row-by-row loop: the iterate proved finite (by finite distances, else
    entry by entry), the gradient norm checked, the stop applied, and only
    then the conjugate map run for b_t (a factorized map fails on an
    overflowed A x) and the row recorded.  The first row that fails raises
    (a step's oracle error at its row); a stop discards the up to
    _BLOCK_ROWS - 1 steps past it.  A block never reaches past max_iters.
    """
    dual = y is not None
    if not (eta1 > 0 and (not dual or eta2 > 0)):
        raise ValueError("step sizes must be positive")
    A, grad_f, grad_g = problem.coupling, problem.grad_f, problem.grad_g
    At, conj = A.T, problem.conj_grad_g
    rec = _Recorder(problem if dual else None, x_star, schedule, "at iteration",
                    ("distance", "potential"))

    def block(rows, width):
        return _cache_aligned(np.zeros((rows, width)))

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
    Y = AX = GY = None
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
            rows, failed = min(C, stop.max_iters - t0 + 1), []
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
                rows, failed = i, [exc]

            # measure: the iterate of the failed step's row is checked too
            g2 = _row_dots(GX[:rows])
            if dual:
                g2 += _row_dots(GY[:rows])
            gnorm = np.sqrt(g2)
            nm = rows + len(failed)
            dist = dist_x, dist_y = rec.distances(
                X[:nm], Y[:nm] if dual else None, (GX[:nm], GY[:nm] if dual else None))
            finite = np.zeros(nm, dtype=bool) if dist_x is None else np.isfinite(dist_x)
            if dist_y is not None:
                finite &= np.isfinite(dist_y)
            if not finite.all():  # entry by entry; a finite distance implies it
                finite = np.isfinite(X[:nm]).all(axis=1)
                if dual:
                    finite &= np.isfinite(Y[:nm]).all(axis=1)

            # decide in row order: the row of the first failed check (k) or
            # the row after the stop (r) ends the block
            k = first(~finite)
            k = min(k, first(~np.isfinite(gnorm[:k])))
            stops = gnorm[:k] <= stop.tol
            if dist_x is not None:
                stops |= dist_x[:k] <= stop.dist_tol
            if stop.max_iters - t0 < len(stops):
                stops[stop.max_iters - t0] = True
            s = first(stops)
            r = min(s + 1, k)
            rec.append_rows(range(t0, t0 + r), range(t0, t0 + r), dist, Y, AX, GY)
            if r == s + 1:
                return rec.trace
            if k < nm:
                if not finite[k]:
                    raise rec.error("non-finite iterate", t0 + k)
                if k == rows:  # popped, as _Recorder.append_rows raises its error
                    raise failed.pop()
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
