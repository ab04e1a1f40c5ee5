import numpy as np
import pytest

from pdsaddle import (
    Iterate,
    SmoothnessParams,
    StoppingRule,
    SvrgConfig,
    ghost_step,
    iteration_budget,
    pdg_schedule,
    potential_P,
    potential_Q,
    potential_R,
    pdg_step,
    run_pdg,
    run_pdsvrg,
    sc_schedule,
)
from pdsaddle.instances import random_quadratic, split_quadratic
from pdsaddle.solvers import reference_solution
from pdsaddle.problems import conj_grad


def _params(rho, alpha, beta, smax, smin):
    return SmoothnessParams(rho=rho, alpha=alpha, beta=beta,
                            sigma_max=smax, sigma_min=smin)


def test_pdg_schedule_unit_case():
    s = pdg_schedule(_params(0.0, 1.0, 1.0, 1.0, 1.0))
    assert s.lambda_ == pytest.approx(2.0)
    assert s.eta1 == pytest.approx(1.0 / 6.0)
    assert s.eta2 == pytest.approx(1.0)
    assert s.rate == pytest.approx(1.0 - 1.0 / 12.0)


def test_pdg_schedule_coupling_rescaling():
    # rescaling the coupling by c (rho = 0) leaves the rate and eta2 unchanged
    # and scales lambda linearly; frozen from direct formula evaluation
    base = pdg_schedule(_params(0.0, 1.0, 1.5, 2.0, 1.0))
    assert base.lambda_ == pytest.approx(24.0)
    assert base.rate == pytest.approx(1.0 - 1.0 / 648.0)
    for c in (0.5, 2.0):
        scaled = pdg_schedule(_params(0.0, 1.0, 1.5, 2.0 * c, 1.0 * c))
        assert scaled.rate == pytest.approx(base.rate, rel=1e-12)
        assert scaled.eta2 == pytest.approx(base.eta2, rel=1e-12)
        assert scaled.lambda_ == pytest.approx(c * base.lambda_, rel=1e-12)


def test_pdg_schedule_step_size_bounds():
    rng = np.random.default_rng(8)
    for _ in range(200):
        alpha = rng.uniform(0.1, 2.0)
        beta = alpha * rng.uniform(1.0, 4.0)
        smin = rng.uniform(0.1, 2.0)
        smax = smin * rng.uniform(1.0, 4.0)
        rho = rng.uniform(0.0, 3.0)
        p = _params(rho, alpha, beta, smax, smin)
        s = pdg_schedule(p)
        kappa_p = rho + smax**2 / alpha
        assert s.eta1 <= 1.0 / (2.0 * kappa_p) + 1e-15
        assert s.eta1 <= 1.0 / (kappa_p + smin**2 / beta) + 1e-15
        assert s.eta2 == pytest.approx(2.0 / (alpha + beta))
        assert 0.0 < s.rate < 1.0


def test_sc_schedule_hand_cases():
    s = sc_schedule(1, 1, 1, 1, 1)
    assert (s.eta1, s.eta2) == (pytest.approx(0.25), pytest.approx(0.25))
    assert s.rate == pytest.approx(1 - 1 / 8)

    s = sc_schedule(1, 3, 1, 3, 1)
    assert (s.eta1, s.eta2) == (pytest.approx(0.25), pytest.approx(0.25))
    assert s.rate == pytest.approx(1 - 1 / 8)


def test_sc_schedule_decoupled_limit():
    s = sc_schedule(1.0, 2.0, 1.5, 2.5, 1e-9)
    assert s.eta1 == pytest.approx(1.0 / 3.0)
    assert s.eta2 == pytest.approx(1.0 / 4.0)
    assert s.rate == pytest.approx(1 - 0.5 * min(1 / 3, 1.5 / 4))


def test_sc_schedule_rejects_bad_params():
    with pytest.raises(ValueError):
        sc_schedule(1, 0.5, 1, 1, 1)
    with pytest.raises(ValueError):
        sc_schedule(0, 1, 1, 1, 1)


def test_potential_p_values(unit_problem):
    # grad g* is the identity here, so the dual gap is |y - x|
    val = potential_P(unit_problem, np.array([0.5]), np.array([0.75]),
                      np.zeros(1), lam=2.0)
    assert val == pytest.approx(1.25)
    problem = random_quadratic(31)
    x_star, y_star, _ = reference_solution(problem, "direct")
    assert potential_P(problem, x_star, y_star, x_star, lam=3.0) <= 1e-10


def test_potential_p_dominates_dual_distance():
    problem = random_quadratic(32)
    x_star, y_star, _ = reference_solution(problem, "direct")
    p = problem.params
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = x_star + rng.standard_normal(problem.d1)
        y = y_star + rng.standard_normal(problem.d2)
        a_t = np.linalg.norm(x - x_star)
        b_t = np.linalg.norm(y - conj_grad(problem, problem.coupling @ x))
        assert (np.linalg.norm(y - y_star)
                <= b_t + p.sigma_max / p.alpha * a_t + 1e-9)


def test_potential_q_values(unit_problem):
    assert potential_Q(unit_problem, np.zeros(1), np.zeros(1), np.zeros(1), 1.0) == 0.0
    # distances (0.3, 0.4) with mu = 1: 0.09 + 0.16
    val = potential_Q(unit_problem, np.array([0.3]), np.array([0.7]),
                      np.zeros(1), mu=1.0)
    assert val == pytest.approx(0.25)
    val0 = potential_Q(unit_problem, np.array([0.3]), np.array([123.0]),
                       np.zeros(1), mu=0.0)
    assert val0 == pytest.approx(0.09)


def test_potentials_equal_the_columns_runs_record():
    # each potential is defined once: at a run's iterates, replayed with
    # pdg_step, the public functions give its recorded column bit for bit
    problem = random_quadratic(8, 4, 6, strongly_convex=True)
    x_star, _, _ = reference_solution(problem, "direct")
    y_star = conj_grad(problem, problem.coupling @ x_star)  # the runs' y*
    eig, p = np.linalg.eigvalsh(problem.quadratic_parts[0]), problem.params
    sc = sc_schedule(float(eig[0]), float(eig[-1]), p.alpha, p.beta, p.sigma_max)
    pdg = pdg_schedule(p)
    init = Iterate(np.linspace(-1.0, 1.0, problem.d1), np.linspace(0.5, -0.5, problem.d2))
    for sched, potential in (
            (pdg, lambda it: potential_P(problem, it.x, it.y, x_star, pdg.lambda_)),
            (sc, lambda it: potential_R(it.x, it.y, x_star, y_star, sc.eta1, sc.eta2))):
        trace = run_pdg(problem, init, schedule=sched, stop=StoppingRule(60, 1e-300),
                        x_star=x_star)
        it, replayed = init, []
        for _ in range(len(trace)):
            replayed.append(potential(it))
            it = pdg_step(problem, it, sched.eta1, sched.eta2)
        assert replayed == trace.potential
    fsp = split_quadratic(problem, 6, seed=1)
    cfg = SvrgConfig(eta1=0.01, eta2=0.01, inner_iters=12, epochs=1, mu=1.5)
    trace = run_pdsvrg(fsp, (init.x, init.y), cfg=cfg, x_star=x_star)
    assert potential_Q(fsp.aggregate, init.x, init.y, x_star, cfg.mu) == trace.potential[0]


def test_potential_r_values():
    assert potential_R(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), 1, 1) == 0.0
    one = np.ones(1)
    assert potential_R(one, one, 0 * one, 0 * one, 1.0, 1.0) == pytest.approx(2.0)
    # swapping (x-gap, eta2) with (y-gap, eta1) leaves the value unchanged
    a = potential_R(np.array([0.6]), np.array([0.1]), np.zeros(1), np.zeros(1), 0.3, 0.7)
    b = potential_R(np.array([0.1]), np.array([0.6]), np.zeros(1), np.zeros(1), 0.7, 0.3)
    assert a == pytest.approx(b)


def test_ghost_step_scalar(unit_problem):
    assert ghost_step(unit_problem, np.array([2.0]), 0.5) == pytest.approx(1.0)


def test_ghost_step_fixed_point_and_contraction():
    for seed in (41, 42, 43):
        problem = random_quadratic(seed)
        x_star, _, _ = reference_solution(problem, "direct")
        p = problem.params
        eta1 = pdg_schedule(p).eta1
        assert ghost_step(problem, x_star, eta1) == pytest.approx(x_star, abs=1e-10)
        factor = 1 - p.sigma_min**2 / p.beta * eta1
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = x_star + rng.standard_normal(problem.d1)
            moved = ghost_step(problem, x, eta1)
            assert (np.linalg.norm(moved - x_star)
                    <= factor * np.linalg.norm(x - x_star) + 1e-12)


def test_single_gradient_step_contraction():
    # one step on a gamma-smooth, delta-strongly-convex quadratic contracts
    # the distance to the minimizer by (1 - delta * eta) for eta <= 2/(gamma+delta)
    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = rng.uniform(0.2, 3.0, size=d)
        H = q @ (eigs[:, None] * q.T)
        h = rng.standard_normal(d)
        x_bar = np.linalg.solve(H, -h)
        gamma, delta = eigs.max(), eigs.min()
        eta = rng.uniform(0.05, 1.0) * 2.0 / (gamma + delta)
        x = rng.standard_normal(d) * 3
        x_new = x - eta * (H @ x + h)
        assert (np.linalg.norm(x_new - x_bar)
                <= (1 - delta * eta) * np.linalg.norm(x - x_bar) + 1e-12)


def test_iteration_budget():
    p = _params(0.0, 1.0, 1.0, 1.0, 1.0)
    s = pdg_schedule(p)
    assert iteration_budget(0.0, 1e-6, s, p) == 0
    k1 = iteration_budget(1.0, 1e-6, s, p)
    k2 = iteration_budget(100.0, 1e-6, s, p)
    assert 0 < k1 < k2
    with pytest.raises(ValueError):
        iteration_budget(1.0, 0.0, s, p)
