"""Bilinear saddle point problems and their gradient oracles.

A problem has the form

    min_x max_y  L(x, y) = f(x) + y^T A x - g(y),

where f: R^d1 -> R is convex and rho-smooth, g: R^d2 -> R is beta-smooth and
alpha-strongly convex, and the coupling matrix A (shape d2 x d1) has full
column rank.  Under these conditions the induced primal objective
P(x) = g*(Ax) + f(x) is smooth and strongly convex, which is what makes
linear convergence of first-order methods possible in the first place.

The module provides the problem container plus the oracles everything else
is built from: the joint gradient of L, the conjugate-gradient map grad g*,
the primal gradient grad P, and a finite-difference gradient checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConvergenceError",
    "SmoothnessParams",
    "SaddleProblem",
    "Iterate",
    "grad_L",
    "conj_grad",
    "grad_primal",
    "primal_value",
    "check_gradients",
    "GradientCheckReport",
]

# Numerical proxy for "full column rank": smallest singular value must not be
# negligible relative to the largest.
RANK_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance: raised by
    ``reference_solution(mode="iterate")``.

    Carries the final residual so callers can decide whether the partial
    answer is still usable.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SmoothnessParams:
    """Curvature constants of a saddle problem.

    rho:       smoothness of f (>= 0; rho = 0 means f is linear or zero)
    alpha:     strong convexity of g (> 0)
    beta:      smoothness of g (>= alpha)
    sigma_max: largest singular value of the coupling matrix
    sigma_min: smallest singular value of the coupling matrix (> 0)
    """

    rho: float
    alpha: float
    beta: float
    sigma_max: float
    sigma_min: float

    def __post_init__(self):
        if not self.rho >= 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.beta >= self.alpha:
            raise ValueError(
                f"beta must be >= alpha, got beta={self.beta}, alpha={self.alpha}"
            )
        if not self.sigma_min > 0:
            raise ValueError(f"sigma_min must be > 0, got {self.sigma_min}")
        if not self.sigma_max >= self.sigma_min:
            raise ValueError(
                f"sigma_max must be >= sigma_min, got "
                f"{self.sigma_max} < {self.sigma_min}"
            )


def _cache_aligned(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``a`` whose data starts on a 64-byte cache line.

    numpy only promises 16-byte alignment, and a product with a 500 x 200
    matrix takes up to 1.8x as long at the other three offsets, so without
    this a solver's speed would follow where the heap happens to put A.
    BLAS gives the same bits at every offset."""
    buf = np.empty(a.size + 8)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    return out


def _row_dots(m: np.ndarray) -> np.ndarray:
    """``m[i] @ m[i]`` for every row of the matrix ``m``, in one call.  A
    stacked matmul of 1 x d by d x 1 runs one BLAS dot per row, so each entry
    has the bits of the 1-d product, at any row stride or offset."""
    return np.matmul(m[:, None, :], m[:, :, None])[:, 0, 0]


class SaddleProblem:
    """Oracle bundle for min_x max_y f(x) + y^T A x - g(y).

    Instances are immutable after construction and safe to share between
    concurrently running solvers.  Construction computes the extreme singular
    values of the coupling matrix by full SVD (exactness over speed; problem
    dimensions stay in the thousands) and rejects rank-deficient couplings.
    The coupling is kept as a cache-line-aligned copy (``_cache_aligned``).

    Parameters
    ----------
    grad_f, grad_g : callables mapping a vector to the gradient of f resp. g.
    coupling : the matrix A, shape (d2, d1).
    rho, alpha, beta : curvature constants, see SmoothnessParams.
    conj_grad_g : the closed-form conjugate map z -> grad g*(z), i.e. the
        unique y with grad g(y) = z.  The ghost update, y* and b_t all go
        through it.
    f_value, g_value : optional value oracles, used for finite-difference
        checks and objective-value reporting.
    """

    def __init__(
        self,
        grad_f: Callable[[np.ndarray], np.ndarray],
        grad_g: Callable[[np.ndarray], np.ndarray],
        coupling: np.ndarray,
        *,
        rho: float,
        alpha: float,
        beta: float,
        conj_grad_g: Callable[[np.ndarray], np.ndarray],
        f_value: Callable[[np.ndarray], float] | None = None,
        g_value: Callable[[np.ndarray], float] | None = None,
    ):
        coupling = np.asarray(coupling, dtype=float)
        if coupling.ndim != 2:
            raise ValueError(f"coupling must be a matrix, got ndim={coupling.ndim}")
        d2, d1 = coupling.shape
        if d1 == 0 or d2 == 0:
            raise ValueError(f"degenerate dimensions d1={d1}, d2={d2}")

        svals = np.linalg.svd(coupling, compute_uv=False)
        sigma_max = float(svals[0])
        # rank(A) = d1 requires at least d1 rows and a nonzero d1-th value
        sigma_min = float(svals[d1 - 1]) if d2 >= d1 else 0.0
        if sigma_min <= RANK_TOL * sigma_max:
            raise ValueError(
                f"coupling matrix must have full column rank (linear convergence "
                f"needs rank(A) = d1): sigma_min={sigma_min:.3e} vs "
                f"sigma_max={sigma_max:.3e} (shape {d2}x{d1})"
            )

        self.grad_f = grad_f
        self.grad_g = grad_g
        self.coupling = _cache_aligned(coupling)
        self.conj_grad_g = conj_grad_g
        self.f_value = f_value
        self.g_value = g_value
        self.d1 = d1
        self.d2 = d2
        self.params = SmoothnessParams(
            rho=float(rho),
            alpha=float(alpha),
            beta=float(beta),
            sigma_max=sigma_max,
            sigma_min=sigma_min,
        )

    def __repr__(self):
        p = self.params
        return (
            f"SaddleProblem(d1={self.d1}, d2={self.d2}, rho={p.rho:.4g}, "
            f"alpha={p.alpha:.4g}, beta={p.beta:.4g}, "
            f"sigma=[{p.sigma_min:.4g}, {p.sigma_max:.4g}])"
        )


@dataclass(frozen=True)
class Iterate:
    """A paired primal/dual point with iteration metadata.

    ``grad_evals`` counts full-gradient-equivalent evaluations consumed to
    produce this point (one batch step of the primal-dual method costs one
    unit).
    """

    x: np.ndarray
    y: np.ndarray
    iter: int = 0
    grad_evals: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.iter < 0 or self.grad_evals < 0:
            raise ValueError("iter and grad_evals must be nonnegative")


def grad_L(
    problem: SaddleProblem, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joint gradient of L at (x, y).

    Returns (gx, gy) with gx = grad f(x) + A^T y and gy = A x - grad g(y).
    gy is the ascent direction for the dual variable: the primal-dual step
    moves x against gx and y along gy.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (problem.d1,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.d1},)")
    if y.shape != (problem.d2,):
        raise ValueError(f"y has shape {y.shape}, expected ({problem.d2},)")
    A = problem.coupling
    return problem.grad_f(x) + A.T @ y, A @ x - problem.grad_g(y)


def conj_grad(problem: SaddleProblem, z: np.ndarray) -> np.ndarray:
    """Gradient of the conjugate g* at z, i.e. the unique y with grad g(y) = z,
    from the problem's closed form.  Strong convexity of g guarantees
    existence and uniqueness.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.d2,):
        raise ValueError(f"z has shape {z.shape}, expected ({problem.d2},)")
    return problem.conj_grad_g(z)


def grad_primal(problem: SaddleProblem, x: np.ndarray) -> np.ndarray:
    """Gradient of the primal objective P(x) = g*(Ax) + f(x).

    grad P(x) = grad f(x) + A^T grad g*(Ax).  P is (rho + sigma_max^2/alpha)-
    smooth and (sigma_min^2/beta)-strongly convex.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.d1,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.d1},)")
    ystar = conj_grad(problem, problem.coupling @ x)
    return problem.grad_f(x) + problem.coupling.T @ ystar


def primal_value(problem: SaddleProblem, x: np.ndarray) -> float:
    """P(x) = f(x) + g*(Ax), evaluated through the conjugate map.

    Requires both value oracles; g*(z) is computed as <z, y> - g(y) at
    y = grad g*(z).
    """
    if problem.f_value is None or problem.g_value is None:
        raise ValueError("primal_value requires f_value and g_value oracles")
    x = np.asarray(x, dtype=float)
    z = problem.coupling @ x
    y = conj_grad(problem, z)
    return float(problem.f_value(x) + z @ y - problem.g_value(y))


def _central_diff(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    # cube-root-of-eps step balances truncation against roundoff
    hs = 6e-6 * (1.0 + np.abs(x))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = hs[i]
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * hs[i])
    return g


@dataclass(frozen=True)
class GradientCheckReport:
    """Outcome of a finite-difference comparison for the f and g oracles."""

    max_rel_error_f: float
    max_rel_error_g: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            max(self.max_rel_error_f, self.max_rel_error_g) <= self.tol
        )


def check_gradients(
    problem: SaddleProblem,
    tol: float = 1e-6,
    *,
    num_points: int = 10,
    seed: int = 0,
) -> GradientCheckReport:
    """Compare the analytic gradients of f and g against central differences
    of the problem's value oracles.

    Report-only: never raises.  The (x, y) points are ``num_points``
    standard-normal pairs drawn from ``seed``.  The relative error at a point
    is ||fd - grad|| / (1 + ||grad||).
    """
    fv, gv = problem.f_value, problem.g_value
    if fv is None or gv is None:
        raise ValueError("check_gradients requires value oracles for f and g")

    rng = np.random.default_rng(seed)
    err_f = 0.0
    err_g = 0.0
    for _ in range(num_points):
        x = rng.standard_normal(problem.d1)
        y = rng.standard_normal(problem.d2)
        gf = problem.grad_f(x)
        gg = problem.grad_g(y)
        df = _central_diff(fv, x)
        dg = _central_diff(gv, y)
        err_f = max(err_f, float(np.linalg.norm(df - gf) / (1.0 + np.linalg.norm(gf))))
        err_g = max(err_g, float(np.linalg.norm(dg - gg) / (1.0 + np.linalg.norm(gg))))
    return GradientCheckReport(max_rel_error_f=err_f, max_rel_error_g=err_g, tol=tol)
