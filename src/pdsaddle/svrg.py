"""Finite-sum saddle problems and variance-reduced stochastic solvers.

A finite-sum problem averages n component triples (f_i, g_i, A_i):

    L(x, y) = (1/n) sum_i [ f_i(x) + y^T A_i x - g_i(y) ].

Components only need to be smooth (they may individually be non-convex); the
aggregate must satisfy the usual saddle assumptions.  The stochastic solver
runs in epochs: a full gradient is computed at a snapshot, then N inner steps
use the variance-reduced estimate

    B_i(x, y) + B(snap) - B_i(snap),

which is unbiased for the full gradient and has vanishing variance as the
iterate approaches the snapshot.  The new snapshot is one of the inner
iterates x_{t,0..N-1}, chosen uniformly at random.

Storage: a finite sum is held as arrays, in one of two kinds.

* ``RowSum``, one observation per component: data rows A (n x d), targets b
  and one gradient grad_f shared by every component.  Saddle form:
  f_i = f, A_i = e_i a_i^T and g_i(y) = y_i^2/2 + b_i y_i, so the dual part
  of component i's gradient is nonzero at coordinate i only.  Primal form,
  on the same rows: P_i(x) = (a_i^T x - b_i)^2/2 + f(x).
* ``DenseSum``, explicit quadratic components stacked along axis 0:
  gradient (B_i x + b_i + A_i^T y, A_i x - (C_i y - c_i)), i.e.
  f_i(x) = x^T B_i x/2 + b_i^T x and g_i(y) = y^T C_i y/2 - c_i^T y.
  Without A, C and c it is a primal sum with component gradients B_i x + b_i.

A full pass evaluates all components as one array expression whose
arithmetic is that of one component at a time, bit for bit: stacked matvecs
are per-matrix matvecs, and the row dots are one BLAS dot per row (a gemv
``A @ x`` sums in another order).  Each kind has one reference formula for
a component, ``_component``, which ``component_grad`` and ``vr_grad`` use
(the epoch loop runs a row component inline, by the same ufunc calls in its
order, and the tests hold the two to the same bits), and one for a full
pass, which ``full_grad`` and the epoch loop share.  A row sum's run writes
into buffers it owns: a component into ``_buffers``, a full pass into a
snapshot table (``_table``), by in-place ufunc calls in the order of the
expression.  Each run owns one table, allocated once and refilled every
epoch; the sum holds none, so runs can share it.  A ``DenseSum`` returns
fresh arrays for both.

Random stream: per epoch the N component indices are drawn as one
``rng.integers(n, size=N)``, then the snapshot as ``rng.integers(N)``, both
before the inner loop.  This is the same stream as N + 1 scalar draws (one
per inner step, then the snapshot), so a seed fixes a run bit for bit.

Cost accounting: one component-gradient evaluation is 1/n of a grad-unit, so
an epoch costs 1 + 2N/n units (full pass plus two component evaluations per
inner step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import SaddleProblem, _cache_aligned, _row_dots, grad_L
from .solvers import StoppingRule, Trace, _Recorder

__all__ = [
    "RowSum",
    "DenseSum",
    "SvrgConfig",
    "component_grad",
    "full_grad",
    "vr_grad",
    "run_pdsvrg",
    "run_primal_svrg",
]


class _FiniteSum:
    """What both kinds share: sizes, the aggregate saddle problem (None for
    a primal-only sum), the forms it runs in, and ``M``, the largest
    component coupling norm max_i sigma_max(A_i) (None for a primal-only
    sum), which feeds the stochastic step-size heuristics.  With an
    aggregate, construction spot-checks that the averaged component
    gradients reproduce its oracles."""

    def _finish(self, aggregate, norms):
        self.aggregate = aggregate
        self.M = None if norms is None else max(norms)
        if aggregate is not None:
            _validate(self)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, d1={self.d1}, d2={self.d2})"


class RowSum(_FiniteSum):
    """Finite sum over the rows of a data matrix (see the module docstring).

    ``aggregate`` is the averaged saddle problem: coupling A/n and
    g(y) = (||y||^2/2 + b^T y)/n.  ``M`` is max_i ||a_i||.
    """

    forms = ("saddle", "primal")

    def __init__(self, A, b, grad_f: Callable[[np.ndarray], np.ndarray],
                 aggregate: SaddleProblem):
        # C order keeps the stacked gradients' axis-0 sums in row order
        self.A = np.ascontiguousarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] < 1 or self.b.shape != self.A.shape[:1]:
            raise ValueError(f"need rows A (n x d) and n targets, got shapes "
                             f"{self.A.shape} and {self.b.shape}")
        self.grad_f = grad_f
        # row views and float targets, built once: a list index is cheaper
        # than A[i] or b[i] in the inner loop
        self._rows, self._targets = list(self.A), self.b.tolist()
        self.n, self.d1 = self.A.shape
        self.d2 = self.n
        self._finish(aggregate, np.sqrt(_row_dots(self.A)).tolist())

    def _full_pass(self, x, y=None, out=None):
        """All component gradients at (x, y) and their averages; the primal
        form when y is None.  The primal parts are written into ``out`` from
        ``_table`` (a fresh one when None) as grad_f(x) + r[:, None] * A,
        one in-place ufunc call per operation in that order, never into
        grad_f's result.  The dual parts come as the (n,) vector of each
        component's own coordinate."""
        dots = np.matmul(self.A[:, None, :], x)[:, 0]  # A[i] @ x, row by row
        gxs = self._table() if out is None else out
        r = dots - self.b if y is None else y
        np.add(self.grad_f(x), np.multiply(r[:, None], self.A, gxs), gxs)
        if y is None:
            return gxs, np.sum(gxs, axis=0) / self.n
        gys = dots - (y + self.b)
        return gxs, gys, np.sum(gxs, axis=0) / self.n, gys / self.n

    def _table(self):
        """A fresh snapshot table for ``_full_pass``: the n x d primal parts,
        on a 64-byte cache line."""
        return _cache_aligned(np.zeros((self.n, self.d1)))

    def _buffers(self):
        """Fresh buffers for a component: the primal part and a scalar."""
        return np.empty(self.d1), np.empty(())

    def _component(self, i, x, y=None):
        """Gradient of component i, gx in the primal form (y None), else
        (gx, gy) with gy the dual part's scalar at coordinate i.  gx is
        written into fresh ``_buffers``, never into grad_f's result.  The row
        dots are BLAS dots, and the scalar factors 0-d arrays (``y[i, ...]``
        is a view): a ufunc multiplies by those faster than by a float."""
        a = self._rows[i]
        gx, r = self._buffers()
        if y is None:
            r[()] = a.dot(x) - self._targets[i]
            return np.add(self.grad_f(x), np.multiply(r, a, gx), gx)
        return (np.add(self.grad_f(x), np.multiply(y[i, ...], a, gx), gx),
                a.dot(x) - (y[i] + self._targets[i]))


class DenseSum(_FiniteSum):
    """Finite sum of explicitly stored quadratic components (see the module
    docstring): B (n, d1, d1), b (n, d1) and, for the saddle form, A
    (n, d2, d1), C (n, d2, d2), c (n, d2) with the averaged ``aggregate``.
    ``M`` is max_i sigma_max(A_i)."""

    def __init__(self, B, b, A=None, C=None, c=None,
                 aggregate: SaddleProblem | None = None):
        self.B, self.b = np.asarray(B, dtype=float), np.asarray(b, dtype=float)
        self.n, self.d1 = self.b.shape
        if any((v is None) != (A is None) for v in (C, c, aggregate)):
            raise ValueError("A, C, c and aggregate are given together or not at all")
        self.forms = ("primal",) if A is None else ("saddle",)
        norms = self.d2 = None
        want = {"B": (self.n, self.d1, self.d1)}
        if A is not None:
            self.A, self.C, self.c = (np.asarray(v, dtype=float) for v in (A, C, c))
            self.d2 = self.c.shape[1]
            self._At = np.swapaxes(self.A, 1, 2)
            want.update(A=(self.n, self.d2, self.d1), C=(self.n, self.d2, self.d2),
                        c=(self.n, self.d2))
            norms = [float(np.linalg.svd(a, compute_uv=False)[0]) for a in self.A]
        for name, shape in want.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, "
                                 f"expected {shape}")
        self._finish(aggregate, norms)

    def _full_pass(self, x, y=None, out=None):
        """All component gradients at (x, y) and their averages; the primal
        form when y is None.  They come as fresh arrays; ``out`` is
        ignored."""
        gxs = self.B @ x + self.b
        if y is None:
            return gxs, np.sum(gxs, axis=0) / self.n
        gxs = gxs + self._At @ y
        gys = self.A @ x - (self.C @ y - self.c)
        return gxs, gys, np.sum(gxs, axis=0) / self.n, np.sum(gys, axis=0) / self.n

    def _table(self):
        """None: a dense full pass comes as fresh arrays."""
        return None

    def _component(self, i, x, y=None):
        """Gradient of component i, gx in the primal form (y None), else
        (gx, gy), as fresh arrays."""
        gx = self.B[i] @ x + self.b[i]
        if y is None:
            return gx
        return gx + self.A[i].T @ y, self.A[i] @ x - (self.C[i] @ y - self.c[i])


def _validate(fsp):
    rng = np.random.default_rng(0)
    agg = fsp.aggregate
    for _ in range(2):
        x = rng.standard_normal(agg.d1)
        y = rng.standard_normal(agg.d2)
        gx, gy = full_grad(fsp, x, y)
        ax, ay = grad_L(agg, x, y)
        scale = 1.0 + np.linalg.norm(ax) + np.linalg.norm(ay)
        if (
            np.linalg.norm(gx - ax) > 1e-9 * scale
            or np.linalg.norm(gy - ay) > 1e-9 * scale
        ):
            raise ValueError(
                "component average does not reproduce the aggregate gradient"
            )


@dataclass(frozen=True)
class SvrgConfig:
    """Knobs of the stochastic solvers.

    The theory only asserts existence of good values as polynomials of the
    problem constants, so they are exposed as inputs; the harness's theory
    point (eta1 = eta2 = alpha/(10 M^2), N = 2n, mu = 1) is a conservative
    start and its grid search tunes them.  ``mu`` weighs the dual term of the
    per-epoch potential Q.
    """

    eta1: float
    eta2: float
    inner_iters: int
    epochs: int
    seed: int = 0
    mu: float = 1.0

    def __post_init__(self):
        if not (self.eta1 > 0 and self.eta2 > 0 and self.mu > 0):
            raise ValueError("eta1, eta2, mu must be positive")
        if self.inner_iters < 1 or self.epochs < 1:
            raise ValueError("inner_iters and epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def component_grad(fsp: RowSum | DenseSum, i: int, x: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the i-th component (0-based) of a saddle-form sum:

        ( grad f_i(x) + A_i^T y,  A_i x - grad g_i(y) ).
    """
    if not 0 <= i < fsp.n:
        raise IndexError(f"component index {i} out of range [0, {fsp.n})")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    gx, gy = fsp._component(i, x, y)
    if isinstance(fsp, RowSum):
        gy_i, gy = gy, np.zeros(fsp.n)
        gy[i] = gy_i
    return gx, gy


def full_grad(fsp: RowSum | DenseSum, x: np.ndarray, y: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Average of all component gradients of a saddle-form sum; costs one
    grad-unit (n components)."""
    return fsp._full_pass(x, y)[2:]


def vr_grad(
    fsp: RowSum | DenseSum,
    i: int,
    x: np.ndarray,
    y: np.ndarray,
    x_snap: np.ndarray,
    y_snap: np.ndarray,
    full_at_snap: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Variance-reduced estimate B_i(x,y) + B(snap) - B_i(snap).

    ``full_at_snap`` must be the precomputed full gradient at the snapshot.
    The component difference is formed first, so at the snapshot it cancels
    bit-for-bit and the estimate reproduces full_at_snap exactly.  Costs two
    component evaluations.
    """
    gx, gy = component_grad(fsp, i, x, y)
    sx, sy = component_grad(fsp, i, x_snap, y_snap)
    return (gx - sx) + full_at_snap[0], (gy - sy) + full_at_snap[1]


def run_pdsvrg(
    fsp: RowSum | DenseSum,
    init: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    cfg: SvrgConfig,
    x_star: np.ndarray | None = None,
    stop: StoppingRule | None = None,
    record_inner: bool = False,
) -> Trace:
    """Primal-dual SVRG on a saddle-form finite sum.

    Per epoch: full gradient at the snapshot, N inner steps with the
    variance-reduced estimate (descent in x, ascent in y, both from the same
    inner iterate), then a new snapshot drawn uniformly from the N inner
    iterates, using the same random stream as the index draws.

    Trace rows are per epoch at the snapshot (per inner step when
    ``record_inner``); the potential column is Q_t when x_star is known.
    Runs with equal seeds produce identical traces.
    """
    if init is None:
        init = (np.zeros(fsp.d1), np.zeros(fsp.d2))
    return _epoch_loop(fsp, init[0], init[1], cfg, x_star, stop, record_inner)


def run_primal_svrg(
    fsp: RowSum | DenseSum,
    x0: np.ndarray | None = None,
    *,
    cfg: SvrgConfig,
    x_star: np.ndarray | None = None,
    stop: StoppingRule | None = None,
    record_inner: bool = False,
) -> Trace:
    """Standard SVRG on a primal-form finite sum P = (1/n) sum_i P_i.

    Same epoch structure and snapshot rule as the primal-dual variant; eta2
    and mu of the config are ignored.
    """
    x0 = np.zeros(fsp.d1) if x0 is None else x0
    return _epoch_loop(fsp, x0, None, cfg, x_star, stop, record_inner)


def _epoch_loop(fsp, x0, y0, cfg, x_star, stop, record_inner) -> Trace:
    """The SVRG epoch loop of both solvers.  With ``y0`` None the sum runs in
    its primal form and the dual block is skipped (plain SVRG).  Inner
    iterates alternate between two rows per variable; the snapshot index is
    drawn before the inner loop and its iterate copied when the loop reaches
    it.  A non-finite snapshot raises there, with the error and partial trace
    of the end-of-epoch row, which checks x_N, y_N for finiteness.  The
    full pass fills the run's one snapshot table, a row component is
    computed inline into the run's own buffers (a dense one comes as fresh
    arrays from ``_component``), the update
    x - eta1 ((g_i(x) - g_i(snap)) + full) is made in place in that order,
    and the snapshot gradients are read through row views.  Each row is one
    call to the recorder, which watches Q_t (primal-dual) or dist_x
    (primal).  ``stop`` ends the run at the first row after a step with
    dist_x <= stop.dist_tol."""
    dual = y0 is not None
    form = "saddle" if dual else "primal"
    if form not in fsp.forms:
        raise TypeError(f"{fsp!r} has no {form} form")
    row_sum = isinstance(fsp, RowSum)
    n, N = fsp.n, cfg.inner_iters
    eta1, eta2 = cfg.eta1, cfg.eta2
    step1, step2 = np.array(eta1), np.array(eta2)  # 0-d: cheaper ufunc operands
    x_snap = np.asarray(x0, dtype=float).copy()
    y_snap = np.asarray(y0, dtype=float).copy() if dual else None
    rec = _Recorder(fsp.aggregate if dual else None, x_star, cfg, "in epoch",
                    ("potential",) if dual else ("distance",))
    # an unmeasured dist_x is NaN, which stops nothing
    dist_tol = -np.inf if stop is None else stop.dist_tol

    rng = np.random.default_rng(cfg.seed)
    comp_evals = 0  # component-gradient evaluations; n per grad-unit
    rec.row(0, 0.0, 0, x_snap, y_snap)
    # two rows per variable, the iterate and the next one, swapped every step
    x, x_next = np.empty(x_snap.size), np.empty(x_snap.size)
    y = y_next = None
    if dual:
        y, y_next = np.empty(y_snap.size), np.empty(y_snap.size)
    component, table = fsp._component, fsp._table()
    # every full pass refills a run-owned table, so its row views last the run
    snap_gx = None if table is None else list(table)
    if row_sum:
        # the inner step is _component's formula inline, in its ufunc order
        rows, targets, grad_f = fsp._rows, fsp._targets, fsp.grad_f
        gx, r = fsp._buffers()
    add, subtract, multiply = np.add, np.subtract, np.multiply

    for epoch in range(cfg.epochs):
        # the snapshot draw follows the index draws in the stream, and the
        # loop draws nothing, so it can be made first
        indices = rng.integers(n, size=N).tolist()
        j_t = int(rng.integers(N))
        x[:] = x_snap
        if dual:
            y[:] = y_snap
            gxs, gys, full_gx, full_gy = fsp._full_pass(x_snap, y_snap, table)
            drift = eta2 * full_gy
            if row_sum:
                # per-coordinate dual scalars, read as Python floats
                gys_at, full_gy_at = gys.tolist(), full_gy.tolist()
            else:
                gys = list(gys)
        else:
            gxs, full_gx = fsp._full_pass(x_snap, None, table)
        if table is None:  # a dense full pass comes as fresh arrays
            snap_gx = list(gxs)
        comp_evals += n
        # snap_gx/gys hold every component gradient at the snapshot, so the
        # updates below reproduce vr_grad bit for bit without re-evaluating
        # the snapshot component (the 2-evaluations cost model still applies)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, i in enumerate(indices):
                if j == j_t:
                    # the end-of-epoch row would refuse a non-finite snapshot
                    rec.finite(epoch, x, y)
                    x_snap = x.copy()
                    if dual:
                        y_snap = y.copy()
                if row_sum:
                    a = rows[i]
                    if dual:
                        r[()] = y_i = y.item(i)
                    else:
                        r[()] = a.dot(x) - targets[i]
                    add(grad_f(x), multiply(r, a, gx), gx)
                    if dual:
                        # away from coordinate i the dual estimate is
                        # (0 - 0) + full_gy, so only coordinate i needs work;
                        # Python floats give the bits of numpy scalars
                        add(y, drift, y_next)
                        y_next[i] = y_i + eta2 * (((float(a.dot(x)) - (y_i + targets[i]))
                                                   - gys_at[i]) + full_gy_at[i])
                elif not dual:
                    gx = component(i, x)
                else:
                    gx, gy = component(i, x, y)
                    add(subtract(gy, gys[i], gy), full_gy, gy)
                    add(y, multiply(step2, gy, gy), y_next)
                add(subtract(gx, snap_gx[i], gx), full_gx, gx)
                subtract(x, multiply(step1, gx, gx), x_next)
                if record_inner and rec.row(
                        epoch * N + j + 1, (comp_evals + 2 * (j + 1)) / n,
                        epoch, x_next, y_next) <= dist_tol:
                    return rec.trace
                x, x_next = x_next, x
                y, y_next = y_next, y
        comp_evals += 2 * N

        if not record_inner and rec.row(
                epoch + 1, comp_evals / n, epoch, x_snap, y_snap, x, y) <= dist_tol:
            break
    return rec.trace
