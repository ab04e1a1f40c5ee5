"""Step-size schedules, contraction rates and potential functions.

Two regimes are covered:

* f merely convex (rho-smooth), g strongly convex, coupling of full column
  rank.  The primal-dual gradient method then contracts the potential
  P_t = lambda * ||x_t - x*|| + ||y_t - grad g*(A x_t)|| geometrically, with
  an explicit rate, under the schedule produced by ``pdg_schedule``.

* both f and g strongly convex.  The simpler weighted squared-distance
  potential R_t = eta2 * ||x_t - x*||^2 + eta1 * ||y_t - y*||^2 contracts
  under the schedule produced by ``sc_schedule``.

The stochastic variance-reduced solver tracks the squared-distance potential
Q_t = ||x - x*||^2 + mu * ||y - grad g*(Ax)||^2 per epoch.

All functions here are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import SaddleProblem, SmoothnessParams, conj_grad, grad_primal

__all__ = [
    "PdgSchedule",
    "ScSchedule",
    "pdg_schedule",
    "sc_schedule",
    "potential_P",
    "potential_Q",
    "potential_R",
    "ghost_step",
    "iteration_budget",
    "primal_step",
]


@dataclass(frozen=True)
class PdgSchedule:
    """Schedule for the primal-dual gradient method without strong convexity in f.

    lambda_ weighs the primal distance inside the potential P_t; rate is the
    certified per-iteration contraction factor of P_t.
    """

    lambda_: float
    eta1: float
    eta2: float
    rate: float

    def __post_init__(self):
        if not (self.lambda_ > 0 and self.eta1 > 0 and self.eta2 > 0):
            raise ValueError("lambda_, eta1, eta2 must be positive")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must lie in (0, 1), got {self.rate}")


@dataclass(frozen=True)
class ScSchedule:
    """Schedule for the case where both f and g are strongly convex."""

    eta1: float
    eta2: float
    rate: float

    def __post_init__(self):
        if not (self.eta1 > 0 and self.eta2 > 0):
            raise ValueError("eta1, eta2 must be positive")
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must lie in (0, 1), got {self.rate}")


def pdg_schedule(p: SmoothnessParams) -> PdgSchedule:
    """Theoretical step sizes and contraction rate for the primal-dual method.

    With kappa_P := rho + sigma_max^2/alpha (the smoothness of the primal
    objective),

        lambda = 2 beta sigma_max kappa_P / (alpha sigma_min^2)
        eta1   = alpha / ((alpha+beta)(sigma_max^2/alpha + lambda sigma_max))
        eta2   = 2 / (alpha + beta)
        rate   = 1 - alpha^2 sigma_min^4 / (12 beta^3 sigma_max^2 kappa_P)

    The resulting eta1 always satisfies eta1 <= 1/(2 kappa_P), which is what
    the contraction argument needs.
    """
    kappa_p = p.rho + p.sigma_max**2 / p.alpha
    lam = 2.0 * p.beta * p.sigma_max * kappa_p / (p.alpha * p.sigma_min**2)
    eta1 = p.alpha / ((p.alpha + p.beta) * (p.sigma_max**2 / p.alpha + lam * p.sigma_max))
    eta2 = 2.0 / (p.alpha + p.beta)
    rate = 1.0 - p.alpha**2 * p.sigma_min**4 / (12.0 * p.beta**3 * p.sigma_max**2 * kappa_p)
    return PdgSchedule(lambda_=lam, eta1=eta1, eta2=eta2, rate=rate)


def sc_schedule(
    alpha1: float, beta1: float, alpha2: float, beta2: float, sigma_max: float
) -> ScSchedule:
    """Step sizes and rate when f is (alpha1, beta1)- and g is (alpha2, beta2)-
    strongly convex and smooth.

        eta1 = min{ 1/(alpha1+beta1), alpha2/(4 sigma_max^2) }
        eta2 = min{ 1/(alpha2+beta2), alpha1/(4 sigma_max^2) }
        rate = 1 - (1/2) min{ alpha1/(alpha1+beta1), alpha2/(alpha2+beta2),
                              alpha1 alpha2 / (4 sigma_max^2) }
    """
    if not (alpha1 > 0 and alpha2 > 0 and sigma_max > 0):
        raise ValueError("alpha1, alpha2, sigma_max must be positive")
    if beta1 < alpha1 or beta2 < alpha2:
        raise ValueError("need beta1 >= alpha1 and beta2 >= alpha2")
    eta1 = min(1.0 / (alpha1 + beta1), alpha2 / (4.0 * sigma_max**2))
    eta2 = min(1.0 / (alpha2 + beta2), alpha1 / (4.0 * sigma_max**2))
    rate = 1.0 - 0.5 * min(
        alpha1 / (alpha1 + beta1),
        alpha2 / (alpha2 + beta2),
        alpha1 * alpha2 / (4.0 * sigma_max**2),
    )
    return ScSchedule(eta1=eta1, eta2=eta2, rate=rate)


# The three potentials from measured distances: dist_x = ||x - x*||,
# dist_y = ||y - y*|| and b_t = ||y - grad g*(Ax)||.  Every producer of a
# potential value calls these.

def _p(lam, dist_x, b_t):
    return lam * dist_x + b_t


def _q(mu, dist_x, b_t):
    return dist_x**2 + mu * b_t**2


def _r(eta1, eta2, dist_x, dist_y):
    # products, not **2: for a float, ** is libm pow, which can differ from
    # the product in the last bit
    return eta2 * (dist_x * dist_x) + eta1 * (dist_y * dist_y)


def _certified_potential(steps):
    """The potential ``steps`` certify, as (kind, its values from arrays of
    rows' (dist_x, dist_y, b_t)): P_t for a PdgSchedule, R_t for an
    ScSchedule, Q_t for an SvrgConfig's mu, else (None, None).  Q_t's
    squares are taken on Python floats (libm's pow), as potential_Q's."""
    from .svrg import SvrgConfig  # svrg imports this module

    if isinstance(steps, PdgSchedule):
        return "P_t", lambda dx, dy, b: _p(steps.lambda_, dx, b)
    if isinstance(steps, ScSchedule):
        return "R_t", lambda dx, dy, b: _r(steps.eta1, steps.eta2, dx, dy)
    if isinstance(steps, SvrgConfig):
        return "Q_t", lambda dx, dy, b: np.array(
            [_q(steps.mu, d, e) for d, e in zip(dx.tolist(), b.tolist())])
    return None, None


def _b_t(problem: SaddleProblem, x: np.ndarray, y: np.ndarray) -> float:
    """||y - grad g*(A x)||, the dual distance to the primal iterate's best
    response."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(np.linalg.norm(y - conj_grad(problem, problem.coupling @ x)))


def _dist(v: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=float) - ref))


def potential_P(
    problem: SaddleProblem,
    x: np.ndarray,
    y: np.ndarray,
    x_star: np.ndarray,
    lam: float,
) -> float:
    """P = lam * ||x - x*|| + ||y - grad g*(Ax)||.

    Vanishes exactly at the saddle point, where y* = grad g*(A x*).
    """
    return _p(lam, _dist(x, x_star), _b_t(problem, x, y))


def potential_Q(
    problem: SaddleProblem,
    x: np.ndarray,
    y: np.ndarray,
    x_star: np.ndarray,
    mu: float,
) -> float:
    """Q = ||x - x*||^2 + mu * ||y - grad g*(Ax)||^2 (single-sample value).

    Expectations over solver randomness are estimated by averaging this value
    across independently seeded runs.
    """
    return _q(mu, _dist(x, x_star), _b_t(problem, x, y))


def potential_R(
    x: np.ndarray,
    y: np.ndarray,
    x_star: np.ndarray,
    y_star: np.ndarray,
    eta1: float,
    eta2: float,
) -> float:
    """R = eta2 * ||x - x*||^2 + eta1 * ||y - y*||^2."""
    return _r(eta1, eta2, _dist(x, x_star), _dist(y, y_star))


def primal_step(p: SmoothnessParams) -> float:
    """The safe gradient step 2/(gamma + delta) on the primal objective P.

    gamma = rho + sigma_max^2/alpha bounds the smoothness of P and
    delta = sigma_min^2/beta its strong convexity (A has full column rank).
    """
    return 2.0 / (p.rho + p.sigma_max**2 / p.alpha + p.sigma_min**2 / p.beta)


def ghost_step(problem: SaddleProblem, x: np.ndarray, eta1: float) -> np.ndarray:
    """One gradient-descent step on the primal objective P.

    This is the reference update the contraction analysis compares the
    primal-dual iterate against: for eta1 <= 2/(rho + sigma_max^2/alpha +
    sigma_min^2/beta) it contracts the distance to the primal minimizer by
    at least (1 - sigma_min^2 eta1 / beta).
    """
    x = np.asarray(x, dtype=float)
    return x - eta1 * grad_primal(problem, x)


def iteration_budget(
    p0: float, eps: float, schedule: PdgSchedule, params: SmoothnessParams
) -> int:
    """Iterations certified to bring both primal and dual errors below eps.

    From P_t <= rate^t P_0 and the bounds ||x_t - x*|| <= P_t / lambda,
    ||y_t - y*|| <= max{1, sigma_max/(alpha lambda)} P_t, the budget is

        ceil( log(P_0 * max{1, sigma_max/(alpha lambda)} / eps)
              / (-log rate) ).
    """
    if p0 < 0 or eps <= 0:
        raise ValueError("need p0 >= 0 and eps > 0")
    blow = max(1.0, params.sigma_max / (params.alpha * schedule.lambda_))
    if p0 * blow <= eps:
        return 0
    return int(math.ceil(math.log(p0 * blow / eps) / (-math.log(schedule.rate))))
