"""Concrete problem families: quadratic saddles, smoothed-L1 regression,
policy-evaluation (MSPBE) instances, and the correlated-Gaussian data
generator used by the experiment harness.

All builders return problems in the standard orientation

    min_x max_y  f(x) + y^T A x - g(y)

and fill in the curvature constants exactly (eigenvalues of the quadratic
forms, or closed-form bounds for the smoothed-L1 regularizer).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .problems import SaddleProblem
from .svrg import DenseSum, RowSum

__all__ = [
    "QuadraticSaddle",
    "QuadraticSaddleProblem",
    "quadratic_saddle",
    "random_quadratic",
    "split_quadratic",
    "split_quadratic_primal",
    "SmoothedL1Regression",
    "make_smoothed_l1",
    "smoothed_l1_saddle",
    "smoothed_l1_primal",
    "smoothed_l1_minimizer",
    "MspbeInstance",
    "random_mspbe",
    "mspbe_saddle",
    "mspbe_minimizer",
    "mspbe_value",
    "exp_decay_cov",
    "gaussian_data",
    "instance_to_json",
    "instance_from_json",
    "save_instance",
]

PSD_TOL = 1e-10


# ---------------------------------------------------------------------------
# quadratic saddle problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticSaddle:
    """Raw data of L(x, y) = x^T B x + b^T x + y^T A x - y^T C y + c^T y.

    B need not be positive definite (f need not be strongly convex), but its
    symmetrization must be positive semidefinite; C's symmetrization must be
    positive definite; A must have full column rank.
    """

    B: np.ndarray
    b: np.ndarray
    A: np.ndarray
    C: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("B", "b", "A", "C", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        d2, d1 = self.A.shape
        if self.B.shape != (d1, d1) or self.b.shape != (d1,):
            raise ValueError("B/b dimensions do not match the coupling matrix")
        if self.C.shape != (d2, d2) or self.c.shape != (d2,):
            raise ValueError("C/c dimensions do not match the coupling matrix")

    def to_problem(self) -> "QuadraticSaddleProblem":
        return quadratic_saddle(self.B, self.b, self.A, self.C, self.c)


class QuadraticSaddleProblem(SaddleProblem):
    """SaddleProblem with quadratic f and g, exposing the symmetrized forms.

    ``quadratic_parts`` = (Bs, b, Cs, c) with grad f(x) = Bs x + b and
    grad g(y) = Cs y - c; the stationarity system of these parts is what the
    direct reference solver factorizes.
    """

    def __init__(self, b_sym, b_lin, coupling, c_sym, c_lin):
        b_sym = np.asarray(b_sym, dtype=float)
        c_sym = np.asarray(c_sym, dtype=float)
        b_lin = np.asarray(b_lin, dtype=float)
        c_lin = np.asarray(c_lin, dtype=float)

        eig_b = np.linalg.eigvalsh(b_sym)
        eig_c = np.linalg.eigvalsh(c_sym)
        scale_b = max(1.0, float(eig_b[-1])) if eig_b.size else 1.0
        if eig_b.size and eig_b[0] < -PSD_TOL * scale_b:
            raise ValueError(
                f"f is not convex: symmetrized quadratic form has eigenvalue "
                f"{eig_b[0]:.3e}"
            )
        if eig_c[0] <= PSD_TOL * max(1.0, float(eig_c[-1])):
            raise ValueError(
                f"g is not strongly convex: symmetrized quadratic form has "
                f"eigenvalue {eig_c[0]:.3e}"
            )

        # imported here: only quadratic problems use it, and it is most of
        # the package's import time
        from scipy.linalg import cho_factor, cho_solve

        factor = cho_factor(c_sym)
        super().__init__(
            grad_f=lambda x: b_sym @ x + b_lin,
            grad_g=lambda y: c_sym @ y - c_lin,
            coupling=coupling,
            rho=max(float(eig_b[-1]), 0.0),
            alpha=float(eig_c[0]),
            beta=float(eig_c[-1]),
            conj_grad_g=lambda z: cho_solve(factor, z + c_lin),
            f_value=lambda x: float(0.5 * x @ (b_sym @ x) + b_lin @ x),
            g_value=lambda y: float(0.5 * y @ (c_sym @ y) - c_lin @ y),
        )
        self.b_sym = b_sym
        self.b_lin = b_lin
        self.c_sym = c_sym
        self.c_lin = c_lin

    @property
    def quadratic_parts(self):
        return self.b_sym, self.b_lin, self.c_sym, self.c_lin


def quadratic_saddle(B, b, A, C, c) -> QuadraticSaddleProblem:
    """Problem for L(x, y) = x^T B x + b^T x + y^T A x - y^T C y + c^T y.

    Oracles: grad f(x) = (B + B^T) x + b, grad g(y) = (C + C^T) y - c, and a
    closed-form conjugate map via a Cholesky solve of (C + C^T) y = z + c.
    The curvature constants are the extreme eigenvalues of the symmetrized
    forms (rho = lambda_max(B + B^T)).
    """
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    return QuadraticSaddleProblem(B + B.T, b, A, C + C.T, c)


def _random_orthogonal(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def random_quadratic(
    seed: int,
    d1: int | None = None,
    d2: int | None = None,
    *,
    strongly_convex: bool = False,
) -> QuadraticSaddleProblem:
    """Seeded random quadratic saddle instance with d1, d2 <= 20.

    Singular values of the coupling lie in [1.0, 1.6] and eigenvalues of the
    dual form in [0.8, 1.3], keeping the instances well scaled.  The primal
    form cycles through zero / rank-deficient / definite shapes across seeds
    (or is uniformly positive definite when ``strongly_convex``), so the
    family exercises the no-strong-convexity regime.
    """
    rng = np.random.default_rng(seed)
    if d1 is None:
        d1 = int(rng.integers(2, 13))
    if d2 is None:
        d2 = int(rng.integers(d1, 21))
    if d2 < d1:
        raise ValueError("full column rank needs d2 >= d1")

    u = _random_orthogonal(rng, d2, d1)
    v = _random_orthogonal(rng, d1, d1)
    svals = rng.uniform(1.0, 1.6, size=d1)
    A = u @ (svals[:, None] * v.T)

    qc = _random_orthogonal(rng, d2, d2)
    c_eigs = rng.uniform(0.8, 1.3, size=d2)
    Cs = qc @ (c_eigs[:, None] * qc.T)
    c = 0.5 * rng.standard_normal(d2)

    if strongly_convex:
        b_eigs = rng.uniform(0.3, 1.0, size=d1)
    else:
        kind = int(rng.integers(3))
        if kind == 0:
            b_eigs = np.zeros(d1)  # f linear
        elif kind == 1:
            b_eigs = rng.uniform(0.0, 0.8, size=d1)
            b_eigs[rng.random(d1) < 0.5] = 0.0  # rank-deficient curvature
        else:
            b_eigs = rng.uniform(0.05, 0.8, size=d1)
    qb = _random_orthogonal(rng, d1, d1)
    Bs = qb @ (b_eigs[:, None] * qb.T)
    b = 0.5 * rng.standard_normal(d1)

    return QuadraticSaddleProblem(Bs, b, A, Cs, c)


def _zero_mean_noise(rng, shape, count, scale):
    """count random arrays of the given shape summing exactly to zero."""
    noise = scale * rng.standard_normal((count, *shape))
    noise -= noise.mean(axis=0)
    return noise


def split_quadratic(
    problem: QuadraticSaddleProblem, n: int, seed: int = 0, scale: float = 0.5
) -> DenseSum:
    """Split a quadratic saddle into n components by symmetric random
    perturbations that sum to zero, preserving the aggregate exactly.

    Individual components are typically indefinite, which is allowed: only
    the average has to satisfy the convexity assumptions.
    """
    b_sym, b_lin, c_sym, c_lin = problem.quadratic_parts
    d1, d2 = problem.d1, problem.d2
    rng = np.random.default_rng(seed)

    eb = _zero_mean_noise(rng, (d1, d1), n, scale)
    eb = (eb + np.swapaxes(eb, 1, 2)) / 2.0
    ub = _zero_mean_noise(rng, (d1,), n, scale)
    ec = _zero_mean_noise(rng, (d2, d2), n, scale)
    ec = (ec + np.swapaxes(ec, 1, 2)) / 2.0
    uc = _zero_mean_noise(rng, (d2,), n, scale)
    ea = _zero_mean_noise(rng, (d2, d1), n, scale)
    return DenseSum(b_sym + eb, b_lin + ub, problem.coupling + ea, c_sym + ec,
                    c_lin + uc, aggregate=problem)


def split_quadratic_primal(
    problem: QuadraticSaddleProblem, n: int, seed: int = 0, scale: float = 0.5
) -> DenseSum:
    """Finite-sum split of the quadratic primal objective P(x).

    P is the quadratic (1/2) x^T H x + h^T x + const with
    H = Bs + A^T Cs^{-1} A and h = b + A^T Cs^{-1} c; components perturb
    (H, h) by zero-sum symmetric noise.
    """
    b_sym, b_lin, c_sym, c_lin = problem.quadratic_parts
    A = problem.coupling
    sol = np.linalg.solve(c_sym, np.column_stack([A, c_lin]))
    H = b_sym + A.T @ sol[:, :-1]
    H = (H + H.T) / 2.0
    h = b_lin + A.T @ sol[:, -1]

    rng = np.random.default_rng(seed)
    eh = _zero_mean_noise(rng, (problem.d1, problem.d1), n, scale)
    eh = (eh + np.swapaxes(eh, 1, 2)) / 2.0
    uh = _zero_mean_noise(rng, (problem.d1,), n, scale)

    return DenseSum(H + eh, h + uh)


# ---------------------------------------------------------------------------
# smoothed-L1 regularized regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothedL1Regression:
    """Linear regression with a smoothed-L1 penalty:

        min_x (1/2n) ||A x - b||^2 + lambda_reg * R_a(x),

    R_a(x) = sum_i (1/a) [ log(1 + e^{a x_i}) + log(1 + e^{-a x_i}) ].
    R_a is smooth but not strongly convex, approaches the L1 norm for large
    ``a``, and has no closed-form proximal map, which is exactly the regime
    where a gradient-only primal-dual method is interesting.
    """

    A: np.ndarray
    b: np.ndarray
    a: float
    lambda_reg: float

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.A.ndim != 2 or self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise ValueError(f"data matrix must be n x d, got shape {self.A.shape}")
        if self.b.shape != (self.A.shape[0],):
            raise ValueError("targets must have one entry per data row")
        if not self.a > 0:
            raise ValueError(f"sharpness a must be > 0, got {self.a}")
        if not self.lambda_reg > 0:
            raise ValueError(f"lambda_reg must be > 0, got {self.lambda_reg}")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.A.shape[1]


def _reg_value(x, a):
    # log(1+e^t) + log(1+e^{-t}) = |t| + 2 log(1 + e^{-|t|}), overflow-free
    t = np.abs(a * x)
    return float(np.sum(t + 2.0 * np.log1p(np.exp(-t))) / a)


def _reg_grad_f(a, lam):
    """Gradient of lam times the regularizer, x -> lam * tanh(0.5 a x): the
    derivative of (1/a)[log(1+e^{at}) + log(1+e^{-at})] is tanh(at/2).  Both
    factors are held as 0-d arrays: a ufunc multiplies by those at about
    half the cost of a Python float, and the products are the same."""
    half_a, lam = np.array(0.5 * a), np.array(lam)

    def grad_f(x):
        g = np.multiply(half_a, x)
        np.tanh(g, g)
        return np.multiply(lam, g, g)
    return grad_f


def _reg_hess_diag(x, a):
    t = 0.5 * a * x
    sech = 2.0 * np.exp(-np.abs(t)) / (1.0 + np.exp(-2.0 * np.abs(t)))
    return 0.5 * a * sech**2


def make_smoothed_l1(
    n: int,
    d: int,
    *,
    cov: str = "identity",
    decay: float | None = None,
    a: float = 10.0,
    lambda_reg: float | None = None,
    noise: float = 0.01,
    density: float = 0.1,
    seed: int = 0,
) -> SmoothedL1Regression:
    """Synthetic instance: correlated Gaussian rows, sparse ground truth.

    Targets are b = A x_true + noise * standard normal, with x_true a seeded
    vector having ceil(density * d) entries of +-1.  lambda_reg defaults to
    0.01/n.
    """
    A = gaussian_data(n, d, cov=cov, decay=decay, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x_true = np.zeros(d)
    k = max(1, int(np.ceil(density * d)))
    support = rng.choice(d, size=k, replace=False)
    x_true[support] = rng.choice([-1.0, 1.0], size=k)
    b = A @ x_true + noise * rng.standard_normal(n)
    if lambda_reg is None:
        lambda_reg = 0.01 / n
    return SmoothedL1Regression(A=A, b=b, a=a, lambda_reg=lambda_reg)


def smoothed_l1_saddle(inst: SmoothedL1Regression) -> RowSum:
    """Saddle form of the smoothed-L1 regression problem:

        min_x max_y (1/n)( -||y||^2/2 - b^T y + y^T A x ) + lambda_reg R_a(x)

    i.e. f(x) = lambda_reg R_a(x), coupling A/n, and
    g(y) = (||y||^2/2 + b^T y)/n with the closed-form conjugate map
    z -> n z - b.  Constants: rho = lambda_reg * a / 2 (the exact supremum of
    |R_a''|), alpha = beta = 1/n.

    Component i couples through the single data row a_i (A_i = e_i a_i^T) and
    owns the i-th dual coordinate, g_i(y) = y_i^2/2 + b_i y_i; every f_i is
    the full regularizer.  Averaging recovers the aggregate exactly.
    """
    A, b, a, lam = inst.A, inst.b, inst.a, inst.lambda_reg
    n = inst.n
    grad_f = _reg_grad_f(a, lam)
    aggregate = SaddleProblem(
        grad_f=grad_f,
        grad_g=lambda y: (y + b) / n,
        coupling=A / n,
        rho=lam * a / 2.0,
        alpha=1.0 / n,
        beta=1.0 / n,
        conj_grad_g=lambda z: n * z - b,
        f_value=lambda x: lam * _reg_value(x, a),
        g_value=lambda y: float((0.5 * y @ y + b @ y) / n),
    )
    return RowSum(A, b, grad_f, aggregate)


def smoothed_l1_primal(inst: SmoothedL1Regression) -> RowSum:
    """Finite-sum form of the primal objective: P_i(x) = (a_i^T x - b_i)^2 / 2
    + lambda_reg R_a(x) (each component carries the full regularizer).  It is
    the primal form of the row sum that ``smoothed_l1_saddle`` builds on the
    same rows, so this returns that row sum."""
    return smoothed_l1_saddle(inst)


def smoothed_l1_minimizer(inst: SmoothedL1Regression) -> np.ndarray:
    """Minimizer of the regression objective by damped Newton iteration,
    stopped once the gradient norm is at most 1e-13.

    The Hessian A^T A / n + lambda_reg R_a'' is positive definite whenever A
    has full column rank, so the full Newton step converges quadratically
    near the minimizer; the result is the high-accuracy reference the saddle
    solvers are measured against.

    A line search on the objective value alone cannot certify 1e-13: near
    the minimizer the decrease the Armijo condition asks for, about
    ||g||^2 / L, falls far below the roundoff of the value itself (about
    eps |P(x)|), so every step is rejected and the loop stalls at a
    gradient norm of a few 1e-13.  The full Newton step is therefore
    accepted whenever it lowers the gradient norm; otherwise the step is
    damped by backtracking until the Armijo condition on the value holds.
    A ``RuntimeError`` reports a run that still misses 1e-13 after 200
    iterations.
    """
    A, b, a, lam = inst.A, inst.b, inst.a, inst.lambda_reg
    n = inst.n
    ata = A.T @ A / n
    atb = A.T @ b / n
    reg_grad = _reg_grad_f(a, lam)

    def value(x):
        r = A @ x - b
        return float(0.5 * r @ r / n + lam * _reg_value(x, a))

    def grad(x):
        return ata @ x - atb + reg_grad(x)

    x = np.zeros(inst.d)
    g = grad(x)
    for _ in range(200):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-13:
            return x
        H = ata + np.diag(lam * _reg_hess_diag(x, a))
        step = np.linalg.solve(H, g)
        x_full = x - step
        g_full = grad(x_full)
        if float(np.linalg.norm(g_full)) < gnorm:
            x, g = x_full, g_full
            continue
        t, v0 = 1.0, value(x)
        while value(x - t * step) > v0 - 1e-4 * t * float(g @ step) and t > 1e-8:
            t *= 0.5
        x = x - t * step
        g = grad(x)
    raise RuntimeError(
        f"Newton refinement stalled at gradient norm {gnorm:.3e} (tol 1.0e-13)"
    )


# ---------------------------------------------------------------------------
# MSPBE policy evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MspbeInstance:
    """Policy-evaluation data: n transitions with features phi(s_t),
    phi(s_{t+1}), rewards r_t, and discount gamma in (0, 1).

    The value-function weights x minimize the mean squared projected Bellman
    error (A x - b)^T C^{-1} (A x - b) with
    A = sum_t phi_t (phi_t - gamma phi_{t+1})^T, b = sum_t r_t phi_t,
    C = sum_t phi_t phi_t^T.
    """

    phi: np.ndarray
    phi_next: np.ndarray
    rewards: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "phi", np.atleast_2d(np.asarray(self.phi, dtype=float)))
        object.__setattr__(self, "phi_next", np.atleast_2d(np.asarray(self.phi_next, dtype=float)))
        object.__setattr__(self, "rewards", np.atleast_1d(np.asarray(self.rewards, dtype=float)))
        if self.phi.shape != self.phi_next.shape:
            raise ValueError("feature arrays must have matching shapes")
        if self.rewards.shape != (self.phi.shape[0],):
            raise ValueError("need one reward per transition")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    @property
    def n(self):
        return self.phi.shape[0]

    @property
    def d(self):
        return self.phi.shape[1]

    def matrices(self, normalize: bool = False):
        A = self.phi.T @ (self.phi - self.gamma * self.phi_next)
        b = self.phi.T @ self.rewards
        C = self.phi.T @ self.phi
        if normalize:
            A, b, C = A / self.n, b / self.n, C / self.n
        return A, b, C


def random_mspbe(n: int, d: int, gamma: float = 0.9, seed: int = 0) -> MspbeInstance:
    """Random synthetic transitions; n >= d keeps C positive definite."""
    rng = np.random.default_rng(seed)
    return MspbeInstance(
        phi=rng.standard_normal((n, d)),
        phi_next=rng.standard_normal((n, d)),
        rewards=rng.standard_normal(n),
        gamma=gamma,
    )


def mspbe_saddle(inst: MspbeInstance, normalize: bool = False) -> QuadraticSaddleProblem:
    """Saddle formulation of MSPBE minimization.

    The natural objective is min_x max_y { -y^T A x - y^T C y / 2 + b^T y };
    to express it in the standard +y^T (coupling) x orientation the coupling
    is the negated matrix -A (equivalently, the dual variable is negated),
    with f = 0 and g(y) = y^T C y / 2 - b^T y.  The x-part of the saddle
    point is exactly the MSPBE minimizer.

    ``normalize`` divides A, b, C by n (per-sample convention); the solution
    is unchanged.
    """
    A, b, C = inst.matrices(normalize)
    eig = np.linalg.eigvalsh(C)
    if eig[0] <= PSD_TOL * max(1.0, float(eig[-1])):
        raise ValueError(
            f"feature second-moment matrix is singular (min eigenvalue {eig[0]:.3e})"
        )
    d = inst.d
    return QuadraticSaddleProblem(
        np.zeros((d, d)), np.zeros(d), -A, C, b
    )


def mspbe_minimizer(inst: MspbeInstance, normalize: bool = False) -> np.ndarray:
    """Closed-form minimizer (A^T C^{-1} A)^{-1} A^T C^{-1} b."""
    A, b, C = inst.matrices(normalize)
    cinv_a = np.linalg.solve(C, A)
    cinv_b = np.linalg.solve(C, b)
    return np.linalg.solve(A.T @ cinv_a, A.T @ cinv_b)


def mspbe_value(inst: MspbeInstance, x: np.ndarray, normalize: bool = False) -> float:
    A, b, C = inst.matrices(normalize)
    r = A @ np.asarray(x, dtype=float) - b
    return float(r @ np.linalg.solve(C, r))


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def exp_decay_cov(d: int, c: float) -> np.ndarray:
    """Covariance with entries 2^{-|i-j|/c}; larger c means slower decay and
    a worse-conditioned data matrix."""
    if not c > 0:
        raise ValueError(f"decay constant must be > 0, got {c}")
    idx = np.arange(d)
    return 2.0 ** (-np.abs(idx[:, None] - idx[None, :]) / c)


def gaussian_data(
    n: int,
    d: int,
    *,
    cov: str = "identity",
    decay: float | None = None,
    seed: int = 0,
) -> np.ndarray:
    """n i.i.d. rows from N(0, Sigma), via the lower-triangular Cholesky
    factor of Sigma.  cov is "identity" or "exp_decay" (with ``decay``)."""
    if cov == "identity":
        sigma = np.eye(d)
    elif cov == "exp_decay":
        if decay is None:
            raise ValueError("exp_decay covariance needs a decay constant")
        sigma = exp_decay_cov(d, decay)
    else:
        raise ValueError(f"unknown covariance spec {cov!r}")
    L = np.linalg.cholesky(sigma)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) @ L.T


# ---------------------------------------------------------------------------
# JSON serialization (matrices row-major nested lists)
# ---------------------------------------------------------------------------

# family -> (class, array fields, number fields), in document order
_JSON_FIELDS = {
    "quadratic": (QuadraticSaddle, ("B", "b", "A", "C", "c"), ()),
    "smoothed_l1": (SmoothedL1Regression, ("A", "b"), ("a", "lambda_reg")),
    "mspbe": (MspbeInstance, ("phi", "phi_next", "rewards"), ("gamma",)),
}


def instance_to_json(inst) -> dict:
    for family, (cls, arrays, numbers) in _JSON_FIELDS.items():
        if isinstance(inst, cls):
            return {"family": family, **{k: getattr(inst, k).tolist() for k in arrays},
                    **{k: getattr(inst, k) for k in numbers}}
    raise TypeError(f"cannot serialize {type(inst).__name__}")


def _leaves(value):
    """The entries of a nested list, depth first."""
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _finite(value) -> bool:
    """Whether a JSON value is a number a float holds finitely; a bool is
    not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def instance_from_json(doc: dict):
    """The instance an ``instance_to_json`` document describes; ValueError,
    naming the field, unless the document is an object with a known family
    and exactly that family's fields, holding only finite numbers where a
    number belongs, in a number field or an array entry."""
    if not isinstance(doc, dict):
        raise ValueError(f"instance document must be an object, got {type(doc).__name__}")
    family = doc.get("family")
    if family not in _JSON_FIELDS:
        raise ValueError(f"unknown instance family {family!r}")
    cls, arrays, numbers = _JSON_FIELDS[family]
    missing = [k for k in arrays + numbers if k not in doc]
    if missing:
        raise ValueError(f"{family} instance document lacks {', '.join(missing)}")
    unknown = [k for k in doc if k not in ("family", *arrays, *numbers)]
    if unknown:
        raise ValueError(f"{family} instance document has unknown field {unknown[0]}")
    for k in numbers:
        if not _finite(doc[k]):
            raise ValueError(f"{family} instance field {k} must be a finite number, "
                             f"got {doc[k]!r}")
    for k in arrays:
        bad = [v for v in _leaves(doc[k]) if not _finite(v)]
        if bad:
            raise ValueError(f"{family} instance field {k} must hold finite numbers "
                             f"only, got {bad[0]!r}")
    return cls(**{k: doc[k] for k in arrays + numbers})


def save_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(inst), fh)
