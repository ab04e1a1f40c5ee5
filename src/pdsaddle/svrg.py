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
iterates x_{t,0..N-1}, chosen uniformly at random after the loop finishes.

Cost accounting: one component-gradient evaluation is 1/n of a grad-unit, so
an epoch costs 1 + 2N/n units (full pass plus two component evaluations per
inner step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .problems import SaddleProblem, conj_grad, grad_L
from .solvers import BLOWUP_FACTOR, DivergenceError, StoppingRule, Trace

__all__ = [
    "DenseComponent",
    "RowComponent",
    "FiniteSumSaddleProblem",
    "FiniteSumPrimal",
    "SvrgConfig",
    "default_svrg_config",
    "component_grad",
    "full_grad",
    "vr_grad",
    "run_pdsvrg",
    "run_primal_svrg",
]


@dataclass(frozen=True)
class DenseComponent:
    """Component with an explicitly stored coupling matrix A_i."""

    grad_f: Callable[[np.ndarray], np.ndarray]
    grad_g: Callable[[np.ndarray], np.ndarray]
    coupling: np.ndarray

    def apply(self, x):
        return self.coupling @ x

    def apply_t(self, y):
        return self.coupling.T @ y

    def coupling_norm(self) -> float:
        return float(np.linalg.svd(self.coupling, compute_uv=False)[0])

    def dense_coupling(self) -> np.ndarray:
        return self.coupling


@dataclass(frozen=True)
class RowComponent:
    """Rank-one component A_i = e_index row^T (one observation of an ERM-style
    problem).  A_i x and A_i^T y cost O(d) instead of O(d1 d2)."""

    grad_f: Callable[[np.ndarray], np.ndarray]
    grad_g: Callable[[np.ndarray], np.ndarray]
    index: int
    row: np.ndarray
    d2: int

    def apply(self, x):
        out = np.zeros(self.d2)
        out[self.index] = self.row @ x
        return out

    def apply_t(self, y):
        return y[self.index] * self.row

    def coupling_norm(self) -> float:
        return float(np.linalg.norm(self.row))

    def dense_coupling(self) -> np.ndarray:
        out = np.zeros((self.d2, self.row.size))
        out[self.index] = self.row
        return out


class FiniteSumSaddleProblem:
    """n saddle components averaging to an aggregate SaddleProblem.

    ``M`` bounds the component coupling norms max_i sigma_max(A_i); it feeds
    the stochastic step-size heuristics.  Construction spot-checks that the
    averaged component gradients reproduce the aggregate oracles.
    """

    def __init__(
        self,
        components: Sequence,
        aggregate: SaddleProblem,
        M: float | None = None,
        validate: bool = True,
    ):
        if len(components) == 0:
            raise ValueError("need at least one component")
        self.components = tuple(components)
        self.n = len(components)
        self.aggregate = aggregate
        norms = max(c.coupling_norm() for c in self.components)
        self.M = float(M) if M is not None else norms
        if self.M < norms - 1e-9 * max(1.0, norms):
            raise ValueError(f"M={M} is below max component norm {norms:.6g}")
        if validate:
            self._validate()

    def _validate(self, points: int = 2, tol: float = 1e-9):
        rng = np.random.default_rng(0)
        agg = self.aggregate
        for _ in range(points):
            x = rng.standard_normal(agg.d1)
            y = rng.standard_normal(agg.d2)
            gx, gy = full_grad(self, x, y)
            ax, ay = grad_L(agg, x, y)
            scale = 1.0 + np.linalg.norm(ax) + np.linalg.norm(ay)
            if (
                np.linalg.norm(gx - ax) > tol * scale
                or np.linalg.norm(gy - ay) > tol * scale
            ):
                raise ValueError(
                    "component average does not reproduce the aggregate gradient"
                )

    @property
    def d1(self):
        return self.aggregate.d1

    @property
    def d2(self):
        return self.aggregate.d2

    def __repr__(self):
        return f"FiniteSumSaddleProblem(n={self.n}, aggregate={self.aggregate!r})"


@dataclass(frozen=True)
class SvrgConfig:
    """Knobs of the stochastic solvers.

    The theory only asserts existence of good values as polynomials of the
    problem constants, so they are exposed as inputs; see
    ``default_svrg_config`` for a conservative starting point and the harness
    grid search for tuning.  ``mu`` weighs the dual term of the per-epoch
    potential Q.
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

    def with_(self, **kw) -> "SvrgConfig":
        return replace(self, **kw)


def default_svrg_config(fsp: FiniteSumSaddleProblem, epochs: int = 10, seed: int = 0) -> SvrgConfig:
    """Conservative defaults: eta1 = eta2 = alpha/(10 M^2), N = 2n, mu = 1."""
    alpha = fsp.aggregate.params.alpha
    eta = alpha / (10.0 * fsp.M**2)
    return SvrgConfig(eta1=eta, eta2=eta, inner_iters=2 * fsp.n, epochs=epochs, seed=seed)


def component_grad(
    fsp: FiniteSumSaddleProblem, i: int, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the i-th component (0-based):

        ( grad f_i(x) + A_i^T y,  A_i x - grad g_i(y) ).
    """
    if not 0 <= i < fsp.n:
        raise IndexError(f"component index {i} out of range [0, {fsp.n})")
    c = fsp.components[i]
    return c.grad_f(x) + c.apply_t(y), c.apply(x) - c.grad_g(y)


def _full_pass(fsp, x, y):
    """All component gradients at (x, y) plus their average.

    The average uses numpy's pairwise summation over the stacked component
    gradients, which is also exactly how ``full_grad`` computes it.
    """
    gxs = np.empty((fsp.n, fsp.d1))
    gys = np.empty((fsp.n, fsp.d2))
    for i, c in enumerate(fsp.components):
        gxs[i] = c.grad_f(x) + c.apply_t(y)
        gys[i] = c.apply(x) - c.grad_g(y)
    return gxs, gys, np.sum(gxs, axis=0) / fsp.n, np.sum(gys, axis=0) / fsp.n


def full_grad(
    fsp: FiniteSumSaddleProblem, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Average of all component gradients; costs one grad-unit (n components)."""
    _, _, gx, gy = _full_pass(fsp, x, y)
    return gx, gy


def vr_grad(
    fsp: FiniteSumSaddleProblem,
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
    fsp: FiniteSumSaddleProblem,
    init: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    cfg: SvrgConfig,
    x_star: np.ndarray | None = None,
    stop: StoppingRule | None = None,
    record_inner: bool = False,
) -> Trace:
    """Primal-dual SVRG.

    Per epoch: full gradient at the snapshot, N inner steps with the
    variance-reduced estimate (descent in x, ascent in y, both from the same
    inner iterate), then a new snapshot drawn uniformly from the N retained
    inner iterates, using the same random stream as the index draws.

    Trace rows are per epoch at the snapshot (per inner step when
    ``record_inner``); the potential column is Q_t when x_star is known.
    Runs with equal seeds produce identical traces.
    """
    if init is None:
        init = (np.zeros(fsp.d1), np.zeros(fsp.d2))
    return _epoch_loop(fsp, init[0], init[1], cfg, x_star, stop, record_inner)


@dataclass(frozen=True)
class FiniteSumPrimal:
    """Finite-sum decomposition of a primal objective: P = (1/n) sum_i P_i.

    Stores the component gradient oracles only; the aggregate gradient is
    their average.
    """

    component_grads: tuple
    d: int

    @property
    def n(self):
        return len(self.component_grads)


def _primal_full_pass(fsp: FiniteSumPrimal, x):
    gs = np.empty((fsp.n, fsp.d))
    for i, g in enumerate(fsp.component_grads):
        gs[i] = g(x)
    return gs, np.sum(gs, axis=0) / fsp.n


def run_primal_svrg(
    fsp: FiniteSumPrimal,
    x0: np.ndarray | None = None,
    *,
    cfg: SvrgConfig,
    x_star: np.ndarray | None = None,
    stop: StoppingRule | None = None,
    record_inner: bool = False,
) -> Trace:
    """Standard SVRG on a finite-sum primal objective.

    Same epoch structure and snapshot rule as the primal-dual variant; eta2
    and mu of the config are ignored.
    """
    x0 = np.zeros(fsp.d) if x0 is None else x0
    return _epoch_loop(fsp, x0, None, cfg, x_star, stop, record_inner)


def _epoch_loop(fsp, x0, y0, cfg, x_star, stop, record_inner) -> Trace:
    """The SVRG epoch loop of both solvers.  With ``y0`` None, ``fsp`` is a
    FiniteSumPrimal and the dual block is skipped (plain SVRG).  Random
    stream: one index draw per inner step, then one snapshot draw per epoch.
    The blow-up guard watches Q_t (primal-dual) or dist_x (primal)."""
    dual = y0 is not None
    n, N = fsp.n, cfg.inner_iters
    eta1, eta2 = cfg.eta1, cfg.eta2
    x_snap = np.asarray(x0, dtype=float).copy()
    y_snap = np.asarray(y0, dtype=float).copy() if dual else None
    comps = fsp.components if dual else fsp.component_grads
    agg = fsp.aggregate if dual else None
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)
        if dual:
            y_star = conj_grad(agg, agg.coupling @ x_star)

    def measure(x, y):
        """Trace columns at (x, y) and the value the blow-up guard watches."""
        if x_star is None:
            return (), None
        dist = float(np.linalg.norm(x - x_star))
        if not dual:
            return (dist,), dist
        dist_y = float(np.linalg.norm(y - y_star))
        b = float(np.linalg.norm(y - conj_grad(agg, agg.coupling @ x)))
        q = dist**2 + cfg.mu * b**2
        return (dist, dist_y, b, q), q

    rng = np.random.default_rng(cfg.seed)
    trace = Trace(potential_kind="Q_t" if dual and x_star is not None else None)
    trace.schedule = ({"eta1": eta1, "eta2": eta2, "inner_iters": N, "mu": cfg.mu,
                       "seed": cfg.seed} if dual else
                      {"eta1": eta1, "inner_iters": N, "seed": cfg.seed})
    t0 = time.perf_counter()

    comp_evals = 0  # component-gradient evaluations; n per grad-unit
    cols, first = measure(x_snap, y_snap)
    trace.append(0, comp_evals / n, *cols, elapsed=time.perf_counter() - t0)
    if first is not None:
        limit = BLOWUP_FACTOR * (max(first, 1e-300) if dual else 1.0 + first)
    retained_x = np.empty((N, x_snap.size))
    retained_y = np.empty((N, y_snap.size)) if dual else None
    inner_row = 0

    for epoch in range(cfg.epochs):
        if dual:
            gxs, gys, full_gx, full_gy = _full_pass(fsp, x_snap, y_snap)
        else:
            gxs, full_gx = _primal_full_pass(fsp, x_snap)
        comp_evals += n
        # gxs/gys hold every component gradient at the snapshot, so the inner
        # updates below reproduce vr_grad bit for bit without re-evaluating
        # the snapshot component (the 2-evaluations cost model still applies)
        x = x_snap.copy()
        y = y_snap.copy() if dual else None
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(N):
                retained_x[j] = x
                i = int(rng.integers(n))
                if dual:
                    retained_y[j] = y
                    c = comps[i]
                    vx = (c.grad_f(x) + c.apply_t(y) - gxs[i]) + full_gx
                    vy = (c.apply(x) - c.grad_g(y) - gys[i]) + full_gy
                    y = y + eta2 * vy
                else:
                    vx = (comps[i](x) - gxs[i]) + full_gx
                x = x - eta1 * vx
                comp_evals += 2
                if record_inner:
                    inner_row += 1
                    trace.append(inner_row, comp_evals / n, *measure(x, y)[0],
                                 elapsed=time.perf_counter() - t0)

        j_t = int(rng.integers(N))
        x_snap = retained_x[j_t].copy()
        if dual:
            y_snap = retained_y[j_t].copy()
        if not all(np.all(np.isfinite(v)) for v in (x_snap, x, y_snap, y)
                   if v is not None):
            raise DivergenceError(f"non-finite iterate in epoch {epoch}", epoch, trace)
        if record_inner:
            continue
        cols, guard = measure(x_snap, y_snap)
        trace.append(epoch + 1, comp_evals / n, *cols,
                     elapsed=time.perf_counter() - t0)
        if guard is None:
            continue
        if guard > limit:
            raise DivergenceError(
                f"{'potential' if dual else 'distance'} blew up in epoch "
                f"{epoch}: {guard:.3e}", epoch, trace
            )
        if stop is not None and cols[0] <= stop.tol:
            break
    return trace
