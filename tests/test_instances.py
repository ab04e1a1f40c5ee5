import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdsaddle
from pdsaddle import (
    StoppingRule,
    check_gradients,
    component_grad,
    conj_grad,
    full_grad,
    grad_L,
    instances,
    run_pdg,
    run_primal_gd,
)
from pdsaddle.instances import (
    MspbeInstance,
    QuadraticSaddle,
    exp_decay_cov,
    gaussian_data,
    instance_to_json,
    make_smoothed_l1,
    mspbe_minimizer,
    mspbe_saddle,
    mspbe_value,
    quadratic_saddle,
    random_mspbe,
    random_quadratic,
    save_instance,
    smoothed_l1_minimizer,
    smoothed_l1_primal,
    smoothed_l1_saddle,
    split_quadratic,
)
from pdsaddle.harness import build_instance, load_json
from pdsaddle.solvers import reference_solution


# ---------------------------------------------------------------------------
# quadratic family
# ---------------------------------------------------------------------------

def test_quadratic_rho_is_symmetrized_top_eigenvalue():
    problem = quadratic_saddle(
        np.diag([1.0, 2.0]), np.zeros(2), np.eye(2), np.eye(2), np.zeros(2)
    )
    assert problem.params.rho == pytest.approx(4.0)
    assert problem.params.alpha == pytest.approx(2.0)


def test_quadratic_rejects_nonconvex_f():
    with pytest.raises(ValueError, match="not convex"):
        quadratic_saddle(np.array([[-1.0]]), np.zeros(1), np.array([[1.0]]),
                         np.array([[0.5]]), np.zeros(1))
    with pytest.raises(ValueError, match="strongly convex"):
        quadratic_saddle(np.zeros((1, 1)), np.zeros(1), np.array([[1.0]]),
                         np.zeros((1, 1)), np.zeros(1))


def test_quadratic_constructed_instances_pass_oracle_checks():
    for seed in (1, 2, 3):
        problem = random_quadratic(seed)
        report = check_gradients(problem, tol=1e-6, num_points=10, seed=seed)
        assert report.passed
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(problem.d2)
        y = conj_grad(problem, z)
        assert np.linalg.norm(problem.grad_g(y) - z) <= 1e-8 * (1 + np.linalg.norm(z))


def test_split_quadratic_preserves_aggregate():
    problem = random_quadratic(10, 6, 9)
    fsp = split_quadratic(problem, 7, seed=4)
    assert fsp.n == 7 and fsp.M >= problem.params.sigma_max - 1e-9
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.standard_normal(6), rng.standard_normal(9)
        fx, fy = full_grad(fsp, x, y)
        ax, ay = grad_L(problem, x, y)
        scale = 1 + np.linalg.norm(ax) + np.linalg.norm(ay)
        assert np.linalg.norm(fx - ax) <= 1e-12 * scale
        assert np.linalg.norm(fy - ay) <= 1e-12 * scale


def test_split_quadratic_components_need_not_be_convex():
    problem = random_quadratic(11, 5, 5)
    fsp = split_quadratic(problem, 10, seed=5, scale=2.0)
    # at least one perturbed component curvature goes indefinite
    indefinite = 0
    y0 = np.zeros(fsp.d2)
    for i in range(fsp.n):
        h = np.array([component_grad(fsp, i, e, y0)[0]
                      - component_grad(fsp, i, np.zeros(5), y0)[0]
                      for e in np.eye(5)])
        if np.linalg.eigvalsh((h + h.T) / 2)[0] < -1e-9:
            indefinite += 1
    assert indefinite > 0


# ---------------------------------------------------------------------------
# smoothed-L1 regression
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_l1():
    return make_smoothed_l1(25, 10, cov="identity", seed=7)


def test_smoothed_l1_regularizer_at_zero(small_l1):
    fsp = smoothed_l1_saddle(small_l1)
    agg = fsp.aggregate
    lam, a, d = small_l1.lambda_reg, small_l1.a, small_l1.d
    assert np.linalg.norm(agg.grad_f(np.zeros(d))) == 0.0
    assert agg.f_value(np.zeros(d)) == pytest.approx(lam * 2 * d / a * np.log(2))


def test_smoothed_l1_regularizer_saturates(small_l1):
    fsp = smoothed_l1_saddle(small_l1)
    x = np.full(small_l1.d, 10.0)
    g = fsp.aggregate.grad_f(x) / small_l1.lambda_reg
    assert np.max(np.abs(g - 1.0)) <= 1e-8


def test_smoothed_l1_grad_f_is_bit_equal_to_its_formula(small_l1):
    # grad_f holds its factors as 0-d arrays; it is the same arithmetic as
    # lam * tanh(0.5 * a * x) with float factors, at every kind of value
    grad_f = smoothed_l1_saddle(small_l1).aggregate.grad_f
    lam, a = small_l1.lambda_reg, small_l1.a
    x = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 4e307, 0.0, -0.0,
                  1e-320, 0.37, -2.5, 1e3])  # 1e308 and 4e307 overflow 0.5*a*x
    x_before = x.copy()
    with np.errstate(over="ignore"):
        want = lam * np.tanh(0.5 * a * x)
        got = grad_f(x)
    np.testing.assert_array_equal(got, want)
    assert np.signbit(got).tolist() == np.signbit(want).tolist()
    np.testing.assert_array_equal(x, x_before)
    assert not np.shares_memory(got, x)


def test_smoothed_l1_component_average_matches_aggregate(small_l1):
    fsp = smoothed_l1_saddle(small_l1)
    agg = fsp.aggregate
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
        fx, fy = full_grad(fsp, x, y)
        ax, ay = grad_L(agg, x, y)
        scale = 1 + np.linalg.norm(ax) + np.linalg.norm(ay)
        assert np.linalg.norm(fx - ax) <= 1e-12 * scale
        assert np.linalg.norm(fy - ay) <= 1e-12 * scale


def test_smoothed_l1_dual_constants_and_conjugate(small_l1):
    fsp = smoothed_l1_saddle(small_l1)
    p = fsp.aggregate.params
    n = small_l1.n
    assert p.alpha == pytest.approx(1.0 / n)
    assert p.beta == pytest.approx(1.0 / n)
    assert p.rho == pytest.approx(small_l1.lambda_reg * small_l1.a / 2)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(n)
    y = conj_grad(fsp.aggregate, z)
    np.testing.assert_allclose(y, n * z - small_l1.b, rtol=1e-14)
    np.testing.assert_allclose(fsp.aggregate.grad_g(y), z, atol=1e-14)


def test_smoothed_l1_gradients_pass_finite_differences(small_l1):
    fsp = smoothed_l1_saddle(small_l1)
    report = check_gradients(fsp.aggregate, tol=1e-5, num_points=8, seed=3)
    assert report.passed


def test_smoothed_l1_saddle_solution_matches_primal_minimizer(small_l1):
    fsp = smoothed_l1_saddle(small_l1)
    agg = fsp.aggregate
    x_newton = smoothed_l1_minimizer(small_l1)

    # tuned batch saddle run
    p = agg.params
    gamma = p.rho + p.sigma_max**2 / p.alpha
    trace = run_pdg(agg, eta1=0.9 / gamma, eta2=small_l1.n,
                    stop=StoppingRule(20000, 1e-11), x_star=x_newton)
    assert trace.final_dist_x() <= 1e-7

    # plain primal descent lands on the same point
    gd = run_primal_gd(agg, eta=2.0 / (gamma + p.sigma_min**2 / p.beta),
                       stop=StoppingRule(20000, 1e-11), x_star=x_newton)
    assert gd.final_dist_x() <= 1e-7

    # and the minimizer satisfies the joint stationarity conditions
    y_star = conj_grad(agg, agg.coupling @ x_newton)
    gx, gy = grad_L(agg, x_newton, y_star)
    assert np.linalg.norm(gx) <= 1e-9 and np.linalg.norm(gy) <= 1e-9


@pytest.mark.parametrize("decay,seed", [
    (2, 1), (2, 8), (2, 9), (2, 11), (2, 18), (2, 20), (2, 26), (2, 33),
    (10, 18),
])
def test_smoothed_l1_minimizer_reaches_tol_past_value_roundoff(decay, seed):
    # full-scale instances on which a value-only Armijo search stalls at
    # ||grad P|| of a few 1e-13, because the decrease it asks for is below
    # the roundoff of P itself
    inst = make_smoothed_l1(500, 200, cov="exp_decay", decay=decay, seed=seed)
    x = smoothed_l1_minimizer(inst)
    A, b = inst.A, inst.b
    grad = A.T @ (A @ x - b) / inst.n + inst.lambda_reg * np.tanh(0.5 * inst.a * x)
    assert np.linalg.norm(grad) <= 1e-13


@pytest.mark.parametrize("a,lambda_reg", [(1e3, 1e-2), (1e4, 0.1)])
def test_smoothed_l1_minimizer_damps_a_newton_step(monkeypatch, a, lambda_reg):
    # a sharp regulariser makes some full Newton step raise the gradient
    # norm; only the backtracking search evaluates the objective
    calls = []
    reg_value = instances._reg_value
    monkeypatch.setattr(instances, "_reg_value",
                        lambda x, a: calls.append(1) or reg_value(x, a))
    inst = make_smoothed_l1(50, 10, a=a, lambda_reg=lambda_reg, seed=3)
    x = smoothed_l1_minimizer(inst)
    assert len(calls) > 0
    grad = inst.A.T @ (inst.A @ x - inst.b) / inst.n + lambda_reg * np.tanh(0.5 * a * x)
    assert np.linalg.norm(grad) <= 1e-13


def test_smoothed_l1_primal_decomposition(small_l1):
    prim = smoothed_l1_primal(small_l1)
    fsp = smoothed_l1_saddle(small_l1)
    agg = fsp.aggregate
    rng = np.random.default_rng(4)
    from pdsaddle import grad_primal
    for _ in range(5):
        x = rng.standard_normal(small_l1.d)
        avg = sum(prim._component(i, x) for i in range(prim.n)) / prim.n
        np.testing.assert_allclose(avg, grad_primal(agg, x), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# MSPBE
# ---------------------------------------------------------------------------

def test_mspbe_single_transition():
    inst = MspbeInstance(phi=[[1.0]], phi_next=[[0.0]], rewards=[1.0], gamma=0.9)
    A, b, C = inst.matrices()
    assert A == pytest.approx(np.array([[1.0]]))
    assert b == pytest.approx(np.array([1.0]))
    assert C == pytest.approx(np.array([[1.0]]))
    assert mspbe_minimizer(inst) == pytest.approx(np.array([1.0]))
    problem = mspbe_saddle(inst)
    x_star, _, _ = reference_solution(problem, "direct")
    assert x_star == pytest.approx(np.array([1.0]))


def test_mspbe_ignored_next_features_reduce_coupling_to_second_moment():
    inst = random_mspbe(12, 3, seed=1)
    zeroed = MspbeInstance(phi=inst.phi, phi_next=np.zeros_like(inst.phi),
                           rewards=inst.rewards, gamma=inst.gamma)
    A, _, C = zeroed.matrices()
    np.testing.assert_array_equal(A, C)


def test_mspbe_saddle_matches_closed_form():
    for seed in (3, 4):
        inst = random_mspbe(30, 5, gamma=0.8, seed=seed)
        problem = mspbe_saddle(inst)
        x_star, y_star, res = reference_solution(problem, "direct")
        oracle = mspbe_minimizer(inst)
        assert np.linalg.norm(x_star - oracle) <= 1e-9 * (1 + np.linalg.norm(oracle))
        assert max(res) <= 1e-9
        # perturbing away from the oracle increases the objective
        assert mspbe_value(inst, oracle) <= mspbe_value(inst, oracle + 0.01) + 1e-12
        # conjugate map round-trips through grad g
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(problem.d2)
        y = conj_grad(problem, z)
        assert np.linalg.norm(problem.grad_g(y) - z) <= 1e-8 * (1 + np.linalg.norm(z))


def test_mspbe_normalization_flag_keeps_solution():
    inst = random_mspbe(40, 4, seed=9)
    x1, _, _ = reference_solution(mspbe_saddle(inst), "direct")
    x2, _, _ = reference_solution(mspbe_saddle(inst, normalize=True), "direct")
    np.testing.assert_allclose(x1, x2, rtol=1e-9)


def test_mspbe_rejects_bad_gamma_and_singular_features():
    with pytest.raises(ValueError, match="gamma"):
        MspbeInstance(phi=[[1.0]], phi_next=[[0.0]], rewards=[1.0], gamma=1.0)
    degenerate = MspbeInstance(
        phi=[[1.0, 0.0], [2.0, 0.0]], phi_next=[[0.0, 0.0], [0.0, 0.0]],
        rewards=[1.0, 1.0], gamma=0.5,
    )
    with pytest.raises(ValueError, match="singular"):
        mspbe_saddle(degenerate)


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_exp_decay_cov_entries():
    sigma = exp_decay_cov(5, 2.0)
    assert sigma[0, 1] == pytest.approx(2 ** (-1 / 2))
    assert sigma[0, 4] == pytest.approx(2 ** (-4 / 2))
    assert np.all(np.diag(sigma) == 1.0)


def test_gaussian_data_identity_covariance_monte_carlo():
    data = gaussian_data(100_000, 5, cov="identity", seed=0)
    sample_cov = data.T @ data / data.shape[0]
    assert np.max(np.abs(sample_cov - np.eye(5))) <= 0.02


def test_gaussian_data_deterministic_and_validated():
    a = gaussian_data(20, 4, cov="exp_decay", decay=2, seed=5)
    b = gaussian_data(20, 4, cov="exp_decay", decay=2, seed=5)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="decay"):
        gaussian_data(5, 3, cov="exp_decay")
    with pytest.raises(ValueError, match="covariance"):
        gaussian_data(5, 3, cov="laplace")


def test_condition_number_ordering_across_covariances():
    conds = []
    for cov, decay in (("identity", None), ("exp_decay", 2), ("exp_decay", 10)):
        data = gaussian_data(500, 200, cov=cov, decay=decay, seed=13)
        s = np.linalg.svd(data, compute_uv=False)
        conds.append(s[0] / s[-1])
    assert conds[0] < conds[1] < conds[2]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _pinned_builds(inst, tmp_path) -> list:
    """The bundles build_instance makes from ``inst`` pinned by data and by
    path, its document having made a JSON round trip."""
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    family = instance_to_json(inst)["family"]
    return [build_instance({"family": family, "data": load_json(path, "path")}),
            build_instance({"family": family, "path": str(path)})]


def test_quadratic_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rank_2 = rng.standard_normal((3, 2))
    inst = QuadraticSaddle(
        B=rank_2 @ rank_2.T, b=rng.standard_normal(3),
        A=rng.standard_normal((4, 3)) + 2 * np.vstack([np.eye(3), np.zeros((1, 3))]),
        C=np.eye(4), c=rng.standard_normal(4),
    )
    direct = inst.to_problem()
    for bundle in _pinned_builds(inst, tmp_path):
        assert bundle.family == "quadratic"
        np.testing.assert_array_equal(bundle.problem.coupling, inst.A)
        for got, want in zip(bundle.problem.quadratic_parts, direct.quadratic_parts):
            np.testing.assert_array_equal(got, want)


def test_smoothed_l1_and_mspbe_serialization(small_l1, tmp_path):
    for bundle in _pinned_builds(small_l1, tmp_path):
        assert bundle.family == "smoothed_l1"
        np.testing.assert_array_equal(bundle.fsp.A, small_l1.A)
        np.testing.assert_array_equal(bundle.x_star, smoothed_l1_minimizer(small_l1))

    inst = random_mspbe(6, 2, seed=0)
    for bundle in _pinned_builds(inst, tmp_path):
        assert bundle.family == "mspbe"
        np.testing.assert_array_equal(bundle.problem.coupling, mspbe_saddle(inst).coupling)
        np.testing.assert_allclose(bundle.x_star, mspbe_minimizer(inst), rtol=1e-8)


def test_cli_import_and_smoothed_l1_build_leave_scipy_linalg_unloaded():
    # only quadratic problems factorize their dual block with scipy.linalg,
    # whose import is most of the package's start-up time
    code = ("import sys\n"
            "import pdsaddle.cli\n"
            "from pdsaddle.harness import build_instance\n"
            "build_instance({'family': 'smoothed_l1', 'n': 60, 'd': 20, 'seed': 1,\n"
            "                'covariance': 'exp_decay', 'decay': 2})\n"
            "print('scipy.linalg' in sys.modules)\n")
    src = str(Path(pdsaddle.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
