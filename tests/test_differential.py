"""Differential tests: the array-backed finite sums against a closure-based
oracle that evaluates one component at a time (per-row dots, per-matrix
matvecs, one closure per component, one index draw per inner step).  The
arrays must reproduce the oracle bit for bit, so every comparison is exact.
"""

import numpy as np
import pytest

from pdsaddle import (
    SvrgConfig,
    conj_grad,
    full_grad,
    reference_solution,
    run_pdsvrg,
    run_primal_svrg,
    vr_grad,
)
from pdsaddle.instances import (
    make_smoothed_l1,
    random_quadratic,
    smoothed_l1_minimizer,
    smoothed_l1_primal,
    smoothed_l1_saddle,
    split_quadratic,
    split_quadratic_primal,
)

pytestmark = pytest.mark.differential


# ---------------------------------------------------------------------------
# the oracle: one closure per component
# ---------------------------------------------------------------------------

def _row_oracle(inst):
    """Saddle and primal component closures of a smoothed-L1 instance, built
    from the regression data, and the coupling bound max_i ||a_i||."""
    A, b, lam, a, n = inst.A, inst.b, inst.lambda_reg, inst.a, inst.n

    def grad_f(x):
        return lam * np.tanh(0.5 * a * x)

    def saddle(i):
        row = A[i]

        def grad(x, y):
            apply = np.zeros(n)
            apply[i] = row @ x
            grad_g = np.zeros(n)
            grad_g[i] = y[i] + b[i]
            return grad_f(x) + y[i] * row, apply - grad_g
        return grad

    def primal(i):
        row, bi = A[i], b[i]
        return lambda x: (row @ x - bi) * row + grad_f(x)

    return ([saddle(i) for i in range(n)], [primal(i) for i in range(n)],
            max(float(np.linalg.norm(row)) for row in A))


def _dense_oracle(fsp, prim):
    """Per-matrix component closures over the stacked arrays of a split
    quadratic, and the coupling bound max_i sigma_max(A_i)."""
    def saddle(i):
        B, b, A, C, c = fsp.B[i], fsp.b[i], fsp.A[i], fsp.C[i], fsp.c[i]
        return lambda x, y: ((B @ x + b) + A.T @ y, A @ x - (C @ y - c))

    def primal(i):
        H, h = prim.B[i], prim.b[i]
        return lambda x: H @ x + h

    return ([saddle(i) for i in range(fsp.n)], [primal(i) for i in range(prim.n)],
            max(float(np.linalg.svd(fsp.A[i], compute_uv=False)[0])
                for i in range(fsp.n)))


def _mean(grads):
    stacked = np.array(grads)
    return stacked, np.sum(stacked, axis=0) / len(grads)


def _oracle_run(comps, x0, y0, cfg, x_star, agg, record_inner):
    """The SVRG epoch loop one component closure at a time: trace rows of
    (iter, grad_evals, dist_x[, dist_y, b_t, Q_t])."""
    n, N, dual = len(comps), cfg.inner_iters, y0 is not None
    rng = np.random.default_rng(cfg.seed)
    if dual:
        y_star = conj_grad(agg, agg.coupling @ x_star)

    def measure(x, y):
        dist = float(np.linalg.norm(x - x_star))
        if not dual:
            return [dist]
        b = float(np.linalg.norm(y - conj_grad(agg, agg.coupling @ x)))
        return [dist, float(np.linalg.norm(y - y_star)), b, dist**2 + cfg.mu * b**2]

    rows = [[0, 0.0] + measure(x0, y0)]
    x_snap, y_snap, evals = x0, y0, 0
    for epoch in range(cfg.epochs):
        if dual:
            at_snap = [c(x_snap, y_snap) for c in comps]
            gxs, full_gx = _mean([g[0] for g in at_snap])
            gys, full_gy = _mean([g[1] for g in at_snap])
        else:
            gxs, full_gx = _mean([c(x_snap) for c in comps])
        evals += n
        x, y, kept = x_snap, y_snap, []
        for _ in range(N):
            kept.append((x, y))
            i = int(rng.integers(n))
            if dual:
                gx, gy = comps[i](x, y)
                vx = (gx - gxs[i]) + full_gx
                y = y + cfg.eta2 * ((gy - gys[i]) + full_gy)
            else:
                vx = (comps[i](x) - gxs[i]) + full_gx
            x = x - cfg.eta1 * vx
            evals += 2
            if record_inner:
                rows.append([len(rows), evals / n] + measure(x, y))
        x_snap, y_snap = kept[int(rng.integers(N))]
        if not record_inner:
            rows.append([epoch + 1, evals / n] + measure(x_snap, y_snap))
    return np.array(rows)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def _l1_case(n, d, cov, decay, seed):
    inst = make_smoothed_l1(n, d, cov=cov, decay=decay, seed=seed)
    fsp = smoothed_l1_saddle(inst)
    saddle, primal, M = _row_oracle(inst)
    return dict(fsp=fsp, prim=smoothed_l1_primal(inst), saddle=saddle, primal=primal,
                M=M, x_star=smoothed_l1_minimizer(inst), eta1=0.6 / fsp.M**2,
                eta2=0.5, inner=2 * n, epochs=3)


def _quad_case(seed, d1, d2, n):
    problem = random_quadratic(seed, d1, d2)
    fsp = split_quadratic(problem, n, seed=seed + 1)
    prim = split_quadratic_primal(problem, n, seed=seed + 2)
    saddle, primal, M = _dense_oracle(fsp, prim)
    eta = 0.4 * problem.params.alpha / fsp.M**2
    return dict(fsp=fsp, prim=prim, saddle=saddle, primal=primal, M=M,
                x_star=reference_solution(problem, "direct")[0], eta1=eta,
                eta2=eta, inner=2 * n, epochs=8)


CASES = {
    "l1_n25_d10": lambda: _l1_case(25, 10, "exp_decay", 2.0, 3),
    "l1_n500_d200_seed37": lambda: _l1_case(500, 200, "identity", None, 37),
    "split_quadratic_8x8_n20": lambda: _quad_case(42, 8, 8, 20),
    "split_quadratic_5x9_n7": lambda: _quad_case(5, 5, 9, 7),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_coupling_bound_matches_oracle(case):
    assert case["fsp"].M == case["M"]


def test_full_grad_matches_oracle(case):
    fsp, prim = case["fsp"], case["prim"]
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
    gx, gy = full_grad(fsp, x, y)
    at = [c(x, y) for c in case["saddle"]]
    np.testing.assert_array_equal(gx, _mean([g[0] for g in at])[1])
    np.testing.assert_array_equal(gy, _mean([g[1] for g in at])[1])
    np.testing.assert_array_equal(prim._full_pass(x)[1],
                                  _mean([c(x) for c in case["primal"]])[1])


def test_vr_grad_matches_oracle_for_every_component(case):
    fsp, comps = case["fsp"], case["saddle"]
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
    xs, ys = rng.standard_normal(fsp.d1), rng.standard_normal(fsp.d2)
    at_snap = [c(xs, ys) for c in comps]
    full_x = _mean([g[0] for g in at_snap])[1]
    full_y = _mean([g[1] for g in at_snap])[1]
    full = full_grad(fsp, xs, ys)
    for i in range(fsp.n):
        gx, gy = comps[i](x, y)
        sx, sy = at_snap[i]
        vx, vy = vr_grad(fsp, i, x, y, xs, ys, full)
        np.testing.assert_array_equal(vx, (gx - sx) + full_x)
        np.testing.assert_array_equal(vy, (gy - sy) + full_y)


@pytest.mark.parametrize("record_inner", [False, True], ids=["per_epoch", "inner"])
def test_pdsvrg_trace_matches_oracle(case, record_inner):
    fsp = case["fsp"]
    epochs = 1 if record_inner else case["epochs"]
    cfg = SvrgConfig(eta1=case["eta1"], eta2=case["eta2"], inner_iters=case["inner"],
                     epochs=epochs, seed=7, mu=1.5)
    trace = run_pdsvrg(fsp, cfg=cfg, x_star=case["x_star"], record_inner=record_inner)
    want = _oracle_run(case["saddle"], np.zeros(fsp.d1), np.zeros(fsp.d2), cfg,
                       case["x_star"], fsp.aggregate, record_inner)
    cols = ("iter", "grad_evals", "dist_x", "dist_y", "b_t", "potential")
    got = np.column_stack([trace.column(c) for c in cols])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("record_inner", [False, True], ids=["per_epoch", "inner"])
def test_primal_svrg_trace_matches_oracle(case, record_inner):
    prim = case["prim"]
    epochs = 1 if record_inner else case["epochs"]
    cfg = SvrgConfig(eta1=case["eta1"], eta2=1.0, inner_iters=case["inner"],
                     epochs=epochs, seed=8)
    trace = run_primal_svrg(prim, cfg=cfg, x_star=case["x_star"],
                            record_inner=record_inner)
    want = _oracle_run(case["primal"], np.zeros(prim.d1), None, cfg, case["x_star"],
                       None, record_inner)
    got = np.column_stack([trace.column(c) for c in ("iter", "grad_evals", "dist_x")])
    np.testing.assert_array_equal(got, want)
