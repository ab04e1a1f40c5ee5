import numpy as np
import pytest

from pdsaddle import (
    Iterate,
    SaddleProblem,
    SmoothnessParams,
    check_gradients,
    conj_grad,
    grad_L,
    grad_primal,
    primal_value,
)
from pdsaddle.instances import (
    make_smoothed_l1,
    mspbe_saddle,
    quadratic_saddle,
    random_mspbe,
    random_quadratic,
    smoothed_l1_saddle,
    split_quadratic,
)
from pdsaddle.problems import _cache_aligned, _row_dots
from pdsaddle.solvers import reference_solution


def test_grad_l_zero_f(unit_problem):
    gx, gy = grad_L(unit_problem, np.array([1.0]), np.array([0.0]))
    assert gx == pytest.approx(0.0)
    assert gy == pytest.approx(1.0)


def test_grad_l_hand_example(scalar_problem):
    gx, gy = grad_L(scalar_problem, np.array([2.0]), np.array([3.0]))
    assert gx == pytest.approx(5.0)
    assert gy == pytest.approx(-1.0)


def test_grad_l_vanishes_at_saddle():
    problem = random_quadratic(12)
    x_star, y_star, _ = reference_solution(problem, "direct")
    gx, gy = grad_L(problem, x_star, y_star)
    assert np.linalg.norm(gx) <= 1e-8
    assert np.linalg.norm(gy) <= 1e-8


def test_grad_l_dimension_mismatch(scalar_problem):
    with pytest.raises(ValueError, match="shape"):
        grad_L(scalar_problem, np.zeros(2), np.zeros(1))


def test_conj_grad_identity(unit_problem):
    z = np.array([0.37])
    assert conj_grad(unit_problem, z) == pytest.approx(z)


def test_conj_grad_round_trip():
    # the closed form of every shipped builder inverts grad g
    pinned = quadratic_saddle(
        np.array([[1.0, 0.2], [0.0, 0.5]]), np.array([0.1, -0.3]),
        np.array([[2.0, 0.5], [0.0, 1.0], [1.0, -1.0]]),
        np.array([[1.5, 0.3, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 2.0]]),
        np.array([0.5, 0.0, -1.0]),
    )
    problems = [
        random_quadratic(3),
        pinned,
        split_quadratic(random_quadratic(4), 6, seed=1).aggregate,
        smoothed_l1_saddle(make_smoothed_l1(30, 5, seed=2)).aggregate,
        mspbe_saddle(random_mspbe(40, 4, seed=3)),
    ]
    rng = np.random.default_rng(0)
    for problem in problems:
        for _ in range(50):
            z = rng.standard_normal(problem.d2) * rng.uniform(0.1, 5)
            back = problem.grad_g(conj_grad(problem, z))
            assert np.linalg.norm(back - z) <= 1e-8 * (1 + np.linalg.norm(z))


def test_grad_primal_scalar(unit_problem):
    # P(x) = g*(x) = x^2/2, so grad P(2) = 2
    assert grad_primal(unit_problem, np.array([2.0])) == pytest.approx(2.0)


def test_grad_primal_vanishes_at_minimizer():
    problem = random_quadratic(7)
    x_star, _, _ = reference_solution(problem, "direct")
    assert np.linalg.norm(grad_primal(problem, x_star)) <= 1e-8


def test_primal_regularity_bounds():
    # smoothness rho + sigma_max^2/alpha and strong convexity sigma_min^2/beta
    problem = random_quadratic(21)
    p = problem.params
    lip = p.rho + p.sigma_max**2 / p.alpha
    curv = p.sigma_min**2 / p.beta
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.standard_normal(problem.d1)
        xp = rng.standard_normal(problem.d1)
        gx = grad_primal(problem, x)
        gxp = grad_primal(problem, xp)
        gap = np.linalg.norm(x - xp)
        assert np.linalg.norm(gx - gxp) <= lip * gap + 1e-9
        excess = primal_value(problem, xp) - primal_value(problem, x) - gx @ (xp - x)
        assert excess >= 0.5 * curv * gap**2 - 1e-9


def test_check_gradients_quadratic_passes():
    problem = random_quadratic(5)
    report = check_gradients(problem, tol=1e-6, num_points=10, seed=1)
    assert report.passed, (report.max_rel_error_f, report.max_rel_error_g)


def test_check_gradients_smoothed_reg_passes():
    a = 10.0
    problem = SaddleProblem(
        grad_f=lambda x: np.tanh(0.5 * a * x),
        grad_g=lambda y: y,
        coupling=np.eye(4),
        rho=a / 2, alpha=1.0, beta=1.0, conj_grad_g=lambda z: z,
        f_value=lambda x: float(np.sum(np.abs(a * x) + 2 * np.log1p(np.exp(-np.abs(a * x)))) / a),
        g_value=lambda y: float(0.5 * y @ y),
    )
    report = check_gradients(problem, tol=1e-5, num_points=10, seed=2)
    assert report.passed


def test_check_gradients_detects_corruption():
    base = random_quadratic(5)

    def bad_grad_f(x):
        g = base.grad_f(x).copy()
        g[0] += 0.1
        return g

    corrupted = SaddleProblem(
        grad_f=bad_grad_f, grad_g=base.grad_g, coupling=base.coupling,
        rho=base.params.rho, alpha=base.params.alpha, beta=base.params.beta,
        conj_grad_g=base.conj_grad_g, f_value=base.f_value, g_value=base.g_value,
    )
    assert not check_gradients(corrupted, tol=1e-6, num_points=5, seed=3).passed


def test_coupling_is_a_cache_aligned_copy_with_the_same_products():
    rng = np.random.default_rng(4)
    # the matrix at each 16-byte offset from a cache line that numpy may hand out
    buf = np.empty(500 * 200 + 16)
    aligned = (-buf.ctypes.data % 64) // 8
    shifted = [buf[start:start + 500 * 200].reshape(500, 200)
               for start in (aligned + 2, aligned + 4, aligned + 6)]
    shifted[0][...] = rng.standard_normal((500, 200))
    problem = SaddleProblem(grad_f=lambda x: x, grad_g=lambda y: y, coupling=shifted[0],
                            rho=1.0, alpha=1.0, beta=1.0, conj_grad_g=lambda z: z)
    coupling = problem.coupling
    assert coupling.ctypes.data % 64 == 0 and coupling.flags.c_contiguous
    np.testing.assert_array_equal(coupling, shifted[0])
    x, y = rng.standard_normal(200), rng.standard_normal(500)
    for A in shifted:
        A[...] = coupling
        assert (A @ x).tobytes() == (coupling @ x).tobytes()
        assert (A.T @ y).tobytes() == (coupling.T @ y).tobytes()


def test_row_dots_have_the_bits_of_vector_dots():
    """The batch loop's block measurements rest on this: each batched row dot
    equals ``v @ v`` bit for bit, at every length, at an 8-byte offset and
    at padded row strides."""
    rng = np.random.default_rng(7)
    for d in range(1, 1002):
        pad = -(-d // 8) * 8 + 8
        buf = np.empty(3 * pad + 1)
        buf[...] = rng.standard_normal(buf.size) * 10.0 ** rng.integers(-3, 4, buf.size)
        for m in (buf[1:1 + 3 * d].reshape(3, d),        # 8 bytes off
                  buf[:3 * pad].reshape(3, pad)[:, :d],  # padded strides
                  buf[1:1 + 3 * pad].reshape(3, pad)[:, :d]):
            want = np.array([v @ v for v in m])
            assert _row_dots(m).tobytes() == want.tobytes(), d


def _block_rows(rows, width):
    """Rows laid out as the batch loop's blocks: a 64-byte aligned buffer,
    each row padded to a multiple of 8 doubles."""
    return _cache_aligned(np.zeros((rows, -(-width // 8) * 8)))[:, :width]


@pytest.mark.parametrize("build", [
    lambda: random_quadratic(3, 5, 7),
    lambda: random_quadratic(3, 9, 9, strongly_convex=True),
    lambda: smoothed_l1_saddle(make_smoothed_l1(40, 13, seed=1)).aggregate,
    lambda: mspbe_saddle(random_mspbe(30, 6, seed=2), normalize=True),
], ids=["quadratic", "quadratic_sc", "smoothed_l1", "mspbe"])
def test_oracles_on_block_rows_match_fresh_copies(build):
    """Every oracle the batch loop calls on a block row gives the bits it
    gives on a fresh copy of that row."""
    problem = build()
    rng = np.random.default_rng(8)
    X, GX = _block_rows(5, problem.d1), _block_rows(5, problem.d1)
    Y, AX = _block_rows(5, problem.d2), _block_rows(5, problem.d2)
    X[...] = rng.standard_normal(X.shape)
    Y[...] = rng.standard_normal(Y.shape)
    A = problem.coupling
    for x, y, ax, gx in zip(X, Y, AX, GX):
        fx, fy = x.copy(), y.copy()
        z = A @ fx
        for got, want in [(np.matmul(A, x, out=ax), z),
                          (np.matmul(A.T, y, out=gx), A.T @ fy),
                          (problem.grad_f(x), problem.grad_f(fx)),
                          (problem.grad_g(y), problem.grad_g(fy)),
                          (problem.conj_grad_g(ax), problem.conj_grad_g(z.copy()))]:
            assert got.tobytes() == want.tobytes()


def test_params_invariants():
    with pytest.raises(ValueError):
        SmoothnessParams(rho=-1, alpha=1, beta=1, sigma_max=1, sigma_min=1)
    with pytest.raises(ValueError):
        SmoothnessParams(rho=0, alpha=0, beta=1, sigma_max=1, sigma_min=1)
    with pytest.raises(ValueError):
        SmoothnessParams(rho=0, alpha=2, beta=1, sigma_max=1, sigma_min=1)
    with pytest.raises(ValueError):
        SmoothnessParams(rho=0, alpha=1, beta=1, sigma_max=1, sigma_min=2)


def test_rank_deficient_coupling_rejected():
    with pytest.raises(ValueError, match="full column rank"):
        SaddleProblem(
            grad_f=lambda x: np.zeros(2),
            grad_g=lambda y: y,
            coupling=np.array([[1.0, 0.0]]),  # wide: rank 1 < d1 = 2
            rho=0.0, alpha=1.0, beta=1.0, conj_grad_g=lambda z: z,
        )
    with pytest.raises(ValueError, match="full column rank"):
        quadratic_saddle(
            np.zeros((2, 2)), np.zeros(2),
            np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular square coupling
            np.eye(2), np.zeros(2),
        )


def test_degenerate_dimensions_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        SaddleProblem(
            grad_f=lambda x: x, grad_g=lambda y: y,
            coupling=np.zeros((0, 1)), rho=0, alpha=1, beta=1, conj_grad_g=lambda z: z,
        )
    # the conjugate map has no fallback: a problem must bring its closed form
    with pytest.raises(TypeError, match="conj_grad_g"):
        SaddleProblem(grad_f=lambda x: x, grad_g=lambda y: y, coupling=np.eye(1),
                      rho=0, alpha=1, beta=1)


def test_iterate_validation():
    it = Iterate(np.zeros(2), np.zeros(3), iter=4, grad_evals=7)
    assert it.iter == 4 and it.grad_evals == 7
    with pytest.raises(ValueError):
        Iterate(np.zeros(1), np.zeros(1), iter=-1)
