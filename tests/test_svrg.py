from dataclasses import replace

import numpy as np
import pytest

from pdsaddle import (
    DivergenceError,
    SaddleProblem,
    StoppingRule,
    SvrgConfig,
    component_grad,
    default_svrg_config,
    full_grad,
    grad_L,
    reference_solution,
    run_pdg,
    run_pdsvrg,
    run_primal_gd,
    run_primal_svrg,
    vr_grad,
)
from pdsaddle.instances import (
    random_quadratic,
    split_quadratic,
    split_quadratic_primal,
)
from pdsaddle.solvers import BLOWUP_FACTOR
from pdsaddle.svrg import DenseSum, RowSum


@pytest.fixture(scope="module")
def quad_fsp():
    problem = random_quadratic(42, 8, 8)
    fsp = split_quadratic(problem, 20, seed=1)
    x_star, y_star, _ = reference_solution(problem, "direct")
    return problem, fsp, x_star, y_star


def _single_component_fsp(problem):
    b_sym, b_lin, c_sym, c_lin = problem.quadratic_parts
    return DenseSum(b_sym[None], b_lin[None], problem.coupling[None], c_sym[None],
                    c_lin[None], aggregate=problem)


def test_component_grad_single_matches_aggregate():
    problem = random_quadratic(3)
    fsp = _single_component_fsp(problem)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(problem.d1), rng.standard_normal(problem.d2)
    gx, gy = component_grad(fsp, 0, x, y)
    ax, ay = grad_L(problem, x, y)
    np.testing.assert_array_equal(gx, ax)
    np.testing.assert_array_equal(gy, ay)


def test_component_grad_index_bounds(quad_fsp):
    _, fsp, _, _ = quad_fsp
    with pytest.raises(IndexError):
        component_grad(fsp, fsp.n, np.zeros(fsp.d1), np.zeros(fsp.d2))
    with pytest.raises(IndexError):
        component_grad(fsp, -1, np.zeros(fsp.d1), np.zeros(fsp.d2))


def test_row_component_matches_dense():
    # a row sum against the dense sum of the same components: f_i = 0,
    # A_i = e_i a_i^T, g_i(y) = y_i^2/2 (targets 0).  With f = 0 the x-part of
    # component 2 is A_2^T y, and at y = 0 its dual part is A_2 x.
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 4))
    eye = np.eye(6)
    aggregate = SaddleProblem(grad_f=lambda x: np.zeros(4), grad_g=lambda y: y / 6,
                              coupling=A / 6, rho=0.0, alpha=1 / 6, beta=1 / 6,
                              conj_grad_g=lambda z: 6 * z)
    rc = RowSum(A, np.zeros(6), aggregate.grad_f, aggregate)
    dense = DenseSum(np.zeros((6, 4, 4)), np.zeros((6, 4)),
                     eye[:, :, None] * A[:, None, :], eye[:, :, None] * eye[:, None, :],
                     np.zeros((6, 6)), aggregate=aggregate)
    x, y = rng.standard_normal(4), rng.standard_normal(6)
    np.testing.assert_allclose(component_grad(rc, 2, x, np.zeros(6))[1],
                               component_grad(dense, 2, x, np.zeros(6))[1], rtol=1e-15)
    np.testing.assert_allclose(component_grad(rc, 2, x, y)[0],
                               component_grad(dense, 2, x, y)[0], rtol=1e-15)
    assert rc.M == pytest.approx(dense.M)


def test_full_grad_average_and_aggregate(quad_fsp):
    problem, fsp, x_star, y_star = quad_fsp
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
        fx, fy = full_grad(fsp, x, y)
        sx = sum(component_grad(fsp, i, x, y)[0] for i in range(fsp.n)) / fsp.n
        sy = sum(component_grad(fsp, i, x, y)[1] for i in range(fsp.n)) / fsp.n
        np.testing.assert_allclose(fx, sx, atol=1e-12)
        np.testing.assert_allclose(fy, sy, atol=1e-12)
        ax, ay = grad_L(problem, x, y)
        scale = 1 + np.linalg.norm(ax) + np.linalg.norm(ay)
        assert np.linalg.norm(fx - ax) <= 1e-12 * scale
        assert np.linalg.norm(fy - ay) <= 1e-12 * scale
    fx, fy = full_grad(fsp, x_star, y_star)
    assert np.linalg.norm(fx) <= 1e-8 and np.linalg.norm(fy) <= 1e-8


def test_full_grad_hand_average():
    # two components with f1 = x^2, f2 = 0 sharing A = [1], g_i = y^2/2:
    # averaged x-gradient at y = 0 is x
    aggregate = SaddleProblem(
        grad_f=lambda x: x, grad_g=lambda y: y, coupling=np.array([[1.0]]),
        rho=2.0, alpha=1.0, beta=1.0, conj_grad_g=lambda z: z,
    )
    fsp = DenseSum([[[2.0]], [[0.0]]], np.zeros((2, 1)), np.ones((2, 1, 1)),
                   np.ones((2, 1, 1)), np.zeros((2, 1)), aggregate=aggregate)
    gx, gy = full_grad(fsp, np.array([3.0]), np.array([0.0]))
    assert gx == pytest.approx(3.0)
    assert gy == pytest.approx(3.0)


def test_vr_grad_snapshot_telescoping(quad_fsp):
    _, fsp, _, _ = quad_fsp
    rng = np.random.default_rng(2)
    xs, ys = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
    full = full_grad(fsp, xs, ys)
    for i in range(fsp.n):
        gx, gy = vr_grad(fsp, i, xs, ys, xs, ys, full)
        np.testing.assert_array_equal(gx, full[0])
        np.testing.assert_array_equal(gy, full[1])


def test_vr_grad_unbiased(quad_fsp):
    _, fsp, _, _ = quad_fsp
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
        xs, ys = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
        full_snap = full_grad(fsp, xs, ys)
        sx = np.zeros(fsp.d1)
        sy = np.zeros(fsp.d2)
        for i in range(fsp.n):
            gx, gy = vr_grad(fsp, i, x, y, xs, ys, full_snap)
            sx += gx
            sy += gy
        fx, fy = full_grad(fsp, x, y)
        assert np.linalg.norm(sx / fsp.n - fx) <= 1e-12 * (1 + np.linalg.norm(fx))
        assert np.linalg.norm(sy / fsp.n - fy) <= 1e-12 * (1 + np.linalg.norm(fy))


def test_vr_grad_variance_shrinks_near_snapshot(quad_fsp):
    _, fsp, _, _ = quad_fsp
    rng = np.random.default_rng(4)
    xs, ys = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
    x1, y1 = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
    full_snap = full_grad(fsp, xs, ys)

    def variance(t):
        x = xs + t * (x1 - xs)
        y = ys + t * (y1 - ys)
        grads = [np.concatenate(vr_grad(fsp, i, x, y, xs, ys, full_snap))
                 for i in range(fsp.n)]
        grads = np.array(grads)
        return float(np.mean(np.sum((grads - grads.mean(axis=0)) ** 2, axis=1)))

    v1, v01, v001 = variance(1.0), variance(0.1), variance(0.01)
    assert v1 >= v01 >= v001
    assert v001 <= 1e-2 * v1


def test_pdsvrg_single_component_matches_pdg():
    # with one component the variance correction cancels, so the inner
    # iterates of one epoch replay the batch method (up to roundoff of the
    # cancelling correction terms)
    problem = random_quadratic(55, 5, 7)
    fsp = _single_component_fsp(problem)
    x_star, _, _ = reference_solution(problem, "direct")
    steps = 12
    cfg = SvrgConfig(eta1=0.05, eta2=0.3, inner_iters=steps, epochs=1, seed=0)
    sv = run_pdsvrg(fsp, cfg=cfg, x_star=x_star, record_inner=True)
    bt = run_pdg(problem, eta1=0.05, eta2=0.3, stop=StoppingRule(steps, 1e-300),
                 x_star=x_star)
    np.testing.assert_allclose(sv.column("dist_x"), bt.column("dist_x"),
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sv.column("b_t"), bt.column("b_t"),
                               rtol=1e-12, atol=1e-14)


def test_pdsvrg_inner_loop_replays_vr_grad(quad_fsp):
    # the solver's cached inner update must agree bit for bit with composing
    # the public pieces: full_grad at the snapshot, then vr_grad per draw
    _, fsp, x_star, _ = quad_fsp
    N = 25
    cfg = SvrgConfig(eta1=0.01, eta2=0.02, inner_iters=N, epochs=1, seed=31)
    trace = run_pdsvrg(fsp, cfg=cfg, x_star=x_star, record_inner=True)

    rng = np.random.default_rng(31)
    x_snap = np.zeros(fsp.d1)
    y_snap = np.zeros(fsp.d2)
    full = full_grad(fsp, x_snap, y_snap)
    x, y = x_snap.copy(), y_snap.copy()
    dists = []
    for _ in range(N):
        i = int(rng.integers(fsp.n))
        gx, gy = vr_grad(fsp, i, x, y, x_snap, y_snap, full)
        x = x - cfg.eta1 * gx
        y = y + cfg.eta2 * gy
        dists.append(float(np.linalg.norm(x - x_star)))
    np.testing.assert_array_equal(trace.column("dist_x")[1:], dists)


def _buffer_cases(quad_fsp):
    """(saddle sum, primal sum, x_star) for both sum kinds; the row sum's
    grad_f returns its argument, so a sum that wrote into grad_f's result
    would write into the iterate."""
    problem, fsp, x_star, _ = quad_fsp
    prim = split_quadratic_primal(problem, 20, seed=1)
    rows = _identity_rows(lambda x: x)
    return [(fsp, prim, x_star), (rows, rows, np.random.default_rng(5).standard_normal(4))]


def _identity_rows(grad_f):
    """A 12-row sum in d=4 whose f has gradient x, computed by ``grad_f``."""
    rng = np.random.default_rng(5)
    A, b = rng.standard_normal((12, 4)), rng.standard_normal(12)
    agg = SaddleProblem(grad_f=grad_f, grad_g=lambda y: (y + b) / 12,
                        coupling=A / 12, rho=1.0, alpha=1 / 12, beta=1 / 12,
                        conj_grad_g=lambda z: 12 * z - b)
    return RowSum(A, b, grad_f, agg)


@pytest.mark.parametrize("kind", ["dense", "row"])
def test_svrg_runs_leave_their_inputs_unchanged(quad_fsp, kind):
    fsp, prim, x_star = _buffer_cases(quad_fsp)[kind == "row"]
    rng = np.random.default_rng(8)
    x0, y0 = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
    kept = [v.copy() for v in (x0, y0, x_star)]
    cfg = SvrgConfig(eta1=0.01, eta2=0.02, inner_iters=15, epochs=3, seed=4)
    for record_inner in (False, True):
        runs = [(run_pdsvrg(fsp, (x0, y0), cfg=cfg, x_star=x_star,
                            record_inner=record_inner),
                 run_primal_svrg(prim, x0, cfg=cfg, x_star=x_star,
                                 record_inner=record_inner)) for _ in range(2)]
        for v, k in zip((x0, y0, x_star), kept):
            np.testing.assert_array_equal(v, k)
        for first, second in zip(*runs):
            for col in ("dist_x", "dist_y", "b_t", "potential"):
                np.testing.assert_array_equal(first.column(col), second.column(col))


@pytest.mark.parametrize("kind", ["dense", "row"])
def test_component_and_vr_grads_are_not_overwritten_by_later_calls(quad_fsp, kind):
    # and leave their arguments unchanged, though the row sum's grad_f
    # returns x itself
    fsp = _buffer_cases(quad_fsp)[kind == "row"][0]
    rng = np.random.default_rng(9)
    args = x, y, xs, ys = [rng.standard_normal(d) for d in (fsp.d1, fsp.d2, fsp.d1, fsp.d2)]
    args_before = [v.copy() for v in args]
    snap = full_grad(fsp, xs, ys)
    got = [component_grad(fsp, 0, x, y), vr_grad(fsp, 1, x, y, xs, ys, snap)]
    kept = [[v.copy() for v in pair] for pair in got]
    for i in range(fsp.n):
        component_grad(fsp, i, -x, 2 * y)
        vr_grad(fsp, i, 3 * x, y, xs, -ys, snap)
    for pair, copies in zip(got, kept):
        for v, k in zip(pair, copies):
            np.testing.assert_array_equal(v, k)
    for v, k in zip(args, args_before):
        np.testing.assert_array_equal(v, k)
    assert not np.shares_memory(got[0][0], got[1][0])


def test_row_sum_never_writes_into_grad_fs_result():
    # a grad_f that returns its argument gives the traces of one that
    # returns a copy, in both forms
    cfg = SvrgConfig(eta1=0.01, eta2=0.02, inner_iters=15, epochs=3, seed=4)
    x_star = np.random.default_rng(6).standard_normal(4)
    traces = [[run(fsp, cfg=cfg, x_star=x_star, record_inner=True).column("dist_x")
               for run in (run_pdsvrg, run_primal_svrg)]
              for fsp in (_identity_rows(lambda x: x), _identity_rows(np.copy))]
    for own, copied in zip(*traces):
        np.testing.assert_array_equal(own, copied)


def test_pdsvrg_deterministic(quad_fsp):
    _, fsp, x_star, _ = quad_fsp
    cfg = SvrgConfig(eta1=0.01, eta2=0.01, inner_iters=40, epochs=3, seed=123)
    t1 = run_pdsvrg(fsp, cfg=cfg, x_star=x_star)
    t2 = run_pdsvrg(fsp, cfg=cfg, x_star=x_star)
    np.testing.assert_array_equal(t1.column("dist_x"), t2.column("dist_x"))
    np.testing.assert_array_equal(t1.column("potential"), t2.column("potential"))
    t3 = run_pdsvrg(fsp, cfg=replace(cfg, seed=124), x_star=x_star)
    assert not np.array_equal(t1.column("dist_x"), t3.column("dist_x"))


def test_pdsvrg_cost_accounting(quad_fsp):
    _, fsp, x_star, _ = quad_fsp
    N = 30
    cfg = SvrgConfig(eta1=0.01, eta2=0.01, inner_iters=N, epochs=4, seed=9)
    trace = run_pdsvrg(fsp, cfg=cfg, x_star=x_star)
    units = trace.column("grad_evals")
    per_epoch = np.diff(units)
    np.testing.assert_allclose(per_epoch, 1.0 + 2.0 * N / fsp.n, rtol=1e-12)


def test_pdsvrg_divergence(quad_fsp):
    _, fsp, x_star, _ = quad_fsp
    cfg = SvrgConfig(eta1=50.0, eta2=50.0, inner_iters=40, epochs=50, seed=1)
    with pytest.raises(DivergenceError):
        run_pdsvrg(fsp, cfg=cfg, x_star=x_star)


def test_pdsvrg_contracts_with_tuned_config():
    problem = random_quadratic(77, 10, 10)
    fsp = split_quadratic(problem, 50, seed=2)
    x_star, _, _ = reference_solution(problem, "direct")
    eta = 0.4 * problem.params.alpha / fsp.M**2
    pots = []
    for seed in range(30):
        cfg = SvrgConfig(eta1=eta, eta2=eta, inner_iters=2 * fsp.n, epochs=8, seed=seed)
        pots.append(run_pdsvrg(fsp, cfg=cfg, x_star=x_star).column("potential"))
    mean = np.mean(pots, axis=0)
    assert np.all(mean[1:] <= 0.9 * mean[:-1])


def test_primal_svrg_single_component_matches_gd():
    problem = random_quadratic(81, 6, 6)
    prim = split_quadratic_primal(problem, 1, seed=0)
    x_star, _, _ = reference_solution(problem, "direct")
    steps = 10
    cfg = SvrgConfig(eta1=0.1, eta2=0.1, inner_iters=steps, epochs=1, seed=0)
    sv = run_primal_svrg(prim, cfg=cfg, x_star=x_star, record_inner=True)
    gd = run_primal_gd(problem, eta=0.1, stop=StoppingRule(steps, 1e-300),
                       x_star=x_star)
    np.testing.assert_allclose(sv.column("dist_x"), gd.column("dist_x"),
                               rtol=1e-11, atol=1e-13)


def test_primal_svrg_deterministic_and_converges():
    problem = random_quadratic(83, 6, 9)
    prim = split_quadratic_primal(problem, 12, seed=3)
    x_star, _, _ = reference_solution(problem, "direct")
    cfg = SvrgConfig(eta1=0.02, eta2=0.02, inner_iters=24, epochs=30, seed=7)
    t1 = run_primal_svrg(prim, cfg=cfg, x_star=x_star)
    t2 = run_primal_svrg(prim, cfg=cfg, x_star=x_star)
    np.testing.assert_array_equal(t1.column("dist_x"), t2.column("dist_x"))
    assert t1.final_dist_x() < 0.1 * t1.dist_x[0]


def test_svrg_config_validation(quad_fsp):
    _, fsp, _, _ = quad_fsp
    with pytest.raises(ValueError):
        SvrgConfig(eta1=0.0, eta2=1.0, inner_iters=1, epochs=1)
    with pytest.raises(ValueError):
        SvrgConfig(eta1=1.0, eta2=1.0, inner_iters=0, epochs=1)
    cfg = replace(default_svrg_config(fsp), epochs=5, seed=3)
    assert cfg.inner_iters == 2 * fsp.n
    assert cfg.eta1 == pytest.approx(fsp.aggregate.params.alpha / (10 * fsp.M**2))


def test_fsp_rejects_inconsistent_aggregate():
    problem = random_quadratic(90, 4, 4)
    b_sym, b_lin, c_sym, c_lin = problem.quadratic_parts
    dual = (problem.coupling[None], c_sym[None], c_lin[None])
    # the component doubles grad f
    with pytest.raises(ValueError, match="aggregate"):
        DenseSum(2 * b_sym[None], 2 * b_lin[None], *dual, aggregate=problem)


@pytest.mark.parametrize("n,N,seed", [(n, N, s) for n in (1, 2, 7, 500)
                                      for N in (1, 3, 1000) for s in (0, 11)])
def test_batched_index_draws_match_scalar_draws(n, N, seed):
    # the epoch loop draws its N indices at once, then the snapshot; that
    # must be the stream of N + 1 scalar draws (one per inner step, then one)
    scalar = np.random.default_rng(seed)
    want = [int(scalar.integers(n)) for _ in range(N)] + [int(scalar.integers(N))]
    batched = np.random.default_rng(seed)
    got = batched.integers(n, size=N).tolist() + [int(batched.integers(N))]
    assert got == want
    assert scalar.random() == batched.random()


def test_pdsvrg_record_inner_divergence_is_divergence_error(quad_fsp):
    # per-step rows used to evaluate b_t (a Cholesky solve) on non-finite
    # iterates and skipped the blow-up guard, so this raised scipy's
    # ValueError("array must not contain infs or NaNs")
    _, fsp, x_star, _ = quad_fsp
    cfg = SvrgConfig(eta1=60, eta2=60, inner_iters=15, epochs=40)
    with pytest.raises(DivergenceError, match="potential blew up") as info:
        run_pdsvrg(fsp, cfg=cfg, x_star=x_star, record_inner=True)
    pots = info.value.trace.column("potential")
    assert np.all(np.isfinite(pots))
    assert pots[-1] > BLOWUP_FACTOR * pots[0]
    assert np.all(pots[:-1] <= BLOWUP_FACTOR * pots[0])


def test_primal_svrg_record_inner_applies_blowup_guard():
    problem = random_quadratic(42, 8, 8)
    prim = split_quadratic_primal(problem, 20, seed=1)
    x_star, _, _ = reference_solution(problem, "direct")
    cfg = SvrgConfig(eta1=60, eta2=60, inner_iters=15, epochs=40)
    with pytest.raises(DivergenceError, match="distance blew up") as info:
        run_primal_svrg(prim, cfg=cfg, x_star=x_star, record_inner=True)
    dists = info.value.trace.column("dist_x")
    assert np.all(np.isfinite(dists))
    assert dists[-1] > BLOWUP_FACTOR * (1 + dists[0])


@pytest.mark.parametrize("runner", [run_pdsvrg, run_primal_svrg])
def test_record_inner_stops_at_first_row_within_tol(runner):
    # record_inner used to skip the stop check, so this ran all 200 epochs
    # (4,801 rows, 1,000 grad-units) instead of stopping near 1e-3
    problem = random_quadratic(3, 5, 7)
    fsp = split_quadratic(problem, 12, seed=3) if runner is run_pdsvrg \
        else split_quadratic_primal(problem, 12, seed=3)
    x_star, _, _ = reference_solution(problem, "direct")
    cfg = SvrgConfig(eta1=0.05, eta2=0.05, inner_iters=24, epochs=200)
    stop = StoppingRule(tol=1e-3)
    trace = runner(fsp, cfg=cfg, x_star=x_star, stop=stop, record_inner=True)
    d = trace.column("dist_x")
    assert d[-1] <= 1e-3
    assert np.all(d[1:-1] > 1e-3)
    per_epoch = runner(fsp, cfg=cfg, x_star=x_star, stop=stop)
    assert trace.grad_evals[-1] <= per_epoch.grad_evals[-1]


def test_finite_sums_run_only_in_their_forms():
    # a dense saddle sum has no primal form (its B_i are the f_i, not the P_i)
    # and a dense primal sum no saddle form; a row sum has both
    problem = random_quadratic(81, 6, 6)
    fsp = split_quadratic(problem, 4, seed=0)
    prim = split_quadratic_primal(problem, 4, seed=0)
    cfg = SvrgConfig(eta1=0.01, eta2=0.01, inner_iters=4, epochs=1)
    with pytest.raises(TypeError, match="no primal form"):
        run_primal_svrg(fsp, cfg=cfg)
    with pytest.raises(TypeError, match="no saddle form"):
        run_pdsvrg(prim, (np.zeros(6), np.zeros(6)), cfg=cfg)
    with pytest.raises(ValueError, match="given together"):
        DenseSum(fsp.B, fsp.b, fsp.A, aggregate=problem)
    with pytest.raises(ValueError, match="C has shape"):
        DenseSum(fsp.B, fsp.b, fsp.A, fsp.C[:, :5, :5], fsp.c, aggregate=problem)
