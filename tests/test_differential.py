"""Differential tests, each against a reference path kept here as an oracle.

* The array-backed finite sums against a closure-based oracle that evaluates
  one component at a time (per-row dots, per-matrix matvecs, one closure per
  component, one index draw per inner step).
* The one batch loop behind ``run_pdg`` and ``run_primal_gd`` against the two
  separate loops it replaced, under the sc schedule against the R_t that was
  computed over a finished trace, with stops and failures at and inside the
  edges of the loop's blocks of steps.

The fast paths must reproduce their oracles bit for bit, so every comparison
is exact.
"""

from dataclasses import replace

import numpy as np
import pytest

from pdsaddle import (
    DivergenceError,
    Iterate,
    SaddleProblem,
    StoppingRule,
    SvrgConfig,
    conj_grad,
    full_grad,
    pdg_schedule,
    reference_solution,
    run_pdg,
    run_pdsvrg,
    run_primal_gd,
    run_primal_svrg,
    sc_schedule,
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
from pdsaddle.solvers import _BLOCK_ROWS, BLOWUP_FACTOR
from pdsaddle.svrg import RowSum
from pdsaddle.theory import primal_step

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


class _OracleDivergence(Exception):
    def __init__(self, message, iteration, rows=None):
        super().__init__(message)
        self.iteration, self.rows = iteration, rows


def _oracle_run(comps, x0, y0, cfg, x_star, agg, record_inner, stop=None):
    """The SVRG epoch loop one component closure at a time: trace rows of
    (iter, grad_evals[, dist_x[, dist_y, b_t, Q_t]]), with the distances only
    when ``x_star`` is given, ending at the first row after a step with
    dist_x <= stop.tol when ``stop`` is given.  Per epoch, the first epoch
    whose snapshot or last iterate is not finite raises _OracleDivergence
    with the rows before it.  The blow-up guard as README states it: each row
    is added, and then the run fails in that row's epoch once Q_t (dist_x
    for primal SVRG) exceeds 1e6 times its base, max(Q_0, 1e-300)
    (1 + dist_x at row 0)."""
    n, N, dual = len(comps), cfg.inner_iters, y0 is not None
    rng = np.random.default_rng(cfg.seed)
    if dual and x_star is not None:
        y_star = conj_grad(agg, agg.coupling @ x_star)
    watched, limit = (5, "potential") if dual else (2, "distance"), []

    def add(row, epoch):
        rows.append(row)
        if x_star is None:
            return
        value = row[watched[0]]
        if not limit:
            limit.append(1e6 * (max(value, 1e-300) if dual else 1.0 + value))
        elif value > limit[0]:
            raise _OracleDivergence(f"{watched[1]} blew up in epoch {epoch}: {value:.3e}",
                                    epoch, np.array(rows))

    def measure(x, y):
        if x_star is None:
            return []
        dist = float(np.linalg.norm(x - x_star))
        if not dual:
            return [dist]
        b = float(np.linalg.norm(y - conj_grad(agg, agg.coupling @ x)))
        return [dist, float(np.linalg.norm(y - y_star)), b, dist**2 + cfg.mu * b**2]

    rows = []
    add([0, 0.0] + measure(x0, y0), 0)
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
            with np.errstate(over="ignore", invalid="ignore"):
                if dual:
                    gx, gy = comps[i](x, y)
                    vx = (gx - gxs[i]) + full_gx
                    y = y + cfg.eta2 * ((gy - gys[i]) + full_gy)
                else:
                    vx = (comps[i](x) - gxs[i]) + full_gx
                x = x - cfg.eta1 * vx
            evals += 2
            if record_inner:
                add([len(rows), evals / n] + measure(x, y), epoch)
                if stop is not None and rows[-1][2] <= stop.tol:
                    return np.array(rows)
        x_snap, y_snap = kept[int(rng.integers(N))]
        if not record_inner:
            if not all(np.isfinite(v).all() for v in (x_snap, y_snap, x, y)
                       if v is not None):
                raise _OracleDivergence(f"non-finite iterate in epoch {epoch}", epoch,
                                        np.array(rows))
            add([epoch + 1, evals / n] + measure(x_snap, y_snap), epoch)
            if stop is not None and rows[-1][2] <= stop.tol:
                break
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
    want_x, want_gx = _mean([g[0] for g in at])
    np.testing.assert_array_equal(gx, want_gx)
    np.testing.assert_array_equal(gy, _mean([g[1] for g in at])[1])
    want_p, want_gp = _mean([c(x) for c in case["primal"]])
    np.testing.assert_array_equal(prim._full_pass(x)[1], want_gp)
    # into a snapshot table that already holds the pass at another point, as
    # a run refills its one table every epoch
    table = fsp._table()
    fsp._full_pass(2.0 * x + 1.0, 0.5 * y - 1.0, table)
    got = fsp._full_pass(x, y, table)
    for have, want in zip(got[:1] + got[2:], (want_x, gx, gy)):
        np.testing.assert_array_equal(have, want)
    table = prim._table()
    prim._full_pass(2.0 * x + 1.0, None, table)
    for have, want in zip(prim._full_pass(x, None, table), (want_p, want_gp)):
        np.testing.assert_array_equal(have, want)


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


@pytest.mark.parametrize("inner_iters", [1, 2])
@pytest.mark.parametrize("solver", ["pdsvrg", "primal_svrg"])
def test_short_epochs_match_oracle(case, solver, inner_iters):
    """N = 1 and N = 2 end an epoch on either of the two iterate rows and put
    the snapshot index at 0 and at N - 1; per epoch, per inner step, and per
    inner step with a stop that ends the run mid-epoch (N = 2)."""
    dual, N, epochs, seed = solver == "pdsvrg", inner_iters, 30, 9
    fsp, comps = (case["fsp"], case["saddle"]) if dual else (case["prim"], case["primal"])
    run = run_pdsvrg if dual else run_primal_svrg
    cfg = SvrgConfig(eta1=case["eta1"], eta2=case["eta2"] if dual else 1.0,
                     inner_iters=N, epochs=epochs, seed=seed, mu=1.5)
    rng, snapshots = np.random.default_rng(seed), set()
    for _ in range(epochs):  # the draws of the runs below
        rng.integers(fsp.n, size=N)
        snapshots.add(int(rng.integers(N)))
    assert snapshots == set(range(N))
    y0 = np.zeros(fsp.d2) if dual else None
    cols = ("iter", "grad_evals", "dist_x", "dist_y", "b_t", "potential")[:6 if dual else 3]

    def check(record_inner, stop=None):
        trace = run(fsp, cfg=cfg, x_star=case["x_star"], stop=stop,
                    record_inner=record_inner)
        want = _oracle_run(comps, np.zeros(fsp.d1), y0, cfg, case["x_star"],
                           fsp.aggregate, record_inner, stop)
        np.testing.assert_array_equal(
            np.column_stack([trace.column(c) for c in cols]), want)
        return want

    check(False)
    dist = check(True)[:, 2]
    # a tol at a new running minimum of dist_x, past an odd number of steps
    # of an epoch when N = 2, is first reached at that row
    k = max(k for k in range(1, len(dist)) if (N == 1 or k % N)
            and dist[k] < np.min(dist[1:k], initial=np.inf))
    assert len(check(True, StoppingRule(10**6, dist[k]))) == k + 1


def _counted_rows(fsp):
    """The row sum ``fsp`` with a grad_f that counts its calls in ``calls``:
    one per full pass and one per component, as the epoch loop makes them."""
    calls = [0]

    def grad_f(x):
        calls[0] += 1
        return fsp.grad_f(x)

    rows = RowSum(fsp.A, fsp.b, grad_f, fsp.aggregate)
    calls[0] = 0
    return rows, calls


# seeds by where the failing epoch's first non-finite inner iterate falls
# against its drawn snapshot index j_t, at eta1 = 20 / M^2 (eta2 = 30 for
# pdsvrg) and N = 50 steps an epoch:
#   primal_svrg  before: epoch 28, step 18, j_t 43   after: epoch 28, step 46, j_t 10
#   pdsvrg       before: epoch 38, step 5, j_t 27    after: epoch 39, step 35, j_t 10
OVERFLOW_SEEDS = {"primal_svrg": {"before": 9, "after": 6},
                  "pdsvrg": {"before": 4, "after": 2}}


@pytest.mark.parametrize("where", ["before", "after"])
@pytest.mark.parametrize("solver", ["primal_svrg", "pdsvrg"])
def test_svrg_overflow_matches_oracle(solver, where):
    """A per-epoch run whose iterates overflow before the epoch's drawn
    snapshot index raises when the loop reaches that index, N - j_t steps
    sooner than the end-of-epoch row, and one whose iterates overflow after
    it raises at that row; both with the oracle's message, epoch and partial
    trace."""
    case, dual = CASES["l1_n25_d10"](), solver == "pdsvrg"
    fsp, calls = _counted_rows(case["fsp"])
    seed, N = OVERFLOW_SEEDS[solver][where], case["inner"]
    cfg = SvrgConfig(eta1=20 / fsp.M**2, eta2=30.0 if dual else 1.0, inner_iters=N,
                     epochs=200, seed=seed)
    y0 = np.zeros(fsp.d2) if dual else None
    with pytest.raises(DivergenceError) as got:
        if dual:
            run_pdsvrg(fsp, cfg=cfg)
        else:
            run_primal_svrg(fsp, cfg=cfg)
    with pytest.raises(_OracleDivergence) as want:
        _oracle_run(case["saddle" if dual else "primal"], np.zeros(fsp.d1), y0, cfg,
                    None, None, False)
    got, want = got.value, want.value
    assert str(got) == str(want) and got.iteration == want.iteration
    np.testing.assert_array_equal(
        np.column_stack([got.trace.column(c) for c in ("iter", "grad_evals")]), want.rows)
    epoch, rng = got.iteration, np.random.default_rng(seed)
    for _ in range(epoch + 1):  # the draws of the run up to its last epoch
        rng.integers(fsp.n, size=N)
        j_t = int(rng.integers(N))
    steps = epoch * N + (j_t if where == "before" else N)
    assert calls[0] == epoch + 1 + steps


# eta1 (times 1 / M^2) and eta2 at which each solver trips the blow-up guard
# on l1_n25_d10 at seed 3, with N = 50: in epoch 4, except pdsvrg recorded
# per inner step, which trips in epoch 3
BLOWUP_STEPS = {"primal_svrg": (5.0, 1.0), "pdsvrg": (2.0, 2.0)}


@pytest.mark.parametrize("record_inner", [False, True], ids=["per_epoch", "inner"])
@pytest.mark.parametrize("solver", ["primal_svrg", "pdsvrg"])
def test_svrg_blowup_matches_oracle(solver, record_inner):
    """A run whose watched column, Q_t or dist_x, passes 1e6 times its base
    raises at that row with the oracle's message, epoch and partial trace."""
    case, dual = CASES["l1_n25_d10"](), solver == "pdsvrg"
    fsp, comps = (case["fsp"], case["saddle"]) if dual else (case["prim"], case["primal"])
    eta1, eta2 = BLOWUP_STEPS[solver]
    cfg = SvrgConfig(eta1=eta1 / case["M"]**2, eta2=eta2, inner_iters=case["inner"],
                     epochs=12, seed=3)
    y0 = np.zeros(fsp.d2) if dual else None
    with pytest.raises(DivergenceError) as got:
        (run_pdsvrg if dual else run_primal_svrg)(
            fsp, cfg=cfg, x_star=case["x_star"], record_inner=record_inner)
    with pytest.raises(_OracleDivergence) as want:
        _oracle_run(comps, np.zeros(fsp.d1), y0, cfg, case["x_star"], fsp.aggregate,
                    record_inner)
    got, want = got.value, want.value
    assert "blew up" in str(want)
    assert str(got) == str(want) and got.iteration == want.iteration
    cols = ("iter", "grad_evals", "dist_x", "dist_y", "b_t", "potential")[:6 if dual else 3]
    np.testing.assert_array_equal(
        np.column_stack([got.trace.column(c) for c in cols]), want.rows)


# ---------------------------------------------------------------------------
# the batch loop against the two loops it replaced
# ---------------------------------------------------------------------------

def _pdg_oracle(problem, x, y, eta1, eta2, stop, x_star, lam, sc=None, gnorms=None):
    """The run_pdg loop as it was: returns (rows, error), rows of (iter,
    grad_evals, dist_x, dist_y, b_t, potential) with NaN for an unmeasured
    column and error an _OracleDivergence or None.  The potential
    is P_t with ``lam``, and with the ScSchedule ``sc`` the R_t that the sc
    path used to write over the finished trace's dist columns, watched like
    P_t.  The gradient norm of every step is appended to ``gnorms``; the
    distance stop reads ``stop.dist_tol``, which postdates this loop and
    defaults to ``stop.tol``."""
    rows = []
    A = problem.coupling
    if x_star is not None:
        y_star = conj_grad(problem, A @ x_star)
    t, p_first, d_first = 0, None, None
    try:
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                ax = A @ x
                gx = problem.grad_f(x) + A.T @ y
                gy = ax - problem.grad_g(y)
                x_next, y_next = x - eta1 * gx, y + eta2 * gy
                gnorm = float(np.sqrt(gx @ gx + gy @ gy))
            if gnorms is not None:
                gnorms.append(gnorm)
            if not np.isfinite(gnorm):
                raise _OracleDivergence(f"non-finite gradient at iteration {t}", t)
            dist = dist_y = pot = None
            if x_star is not None:
                dist = float(np.linalg.norm(x - x_star))
                dist_y = float(np.linalg.norm(y - y_star))
                if d_first is None:
                    d_first = dist
                if dist > BLOWUP_FACTOR * (1.0 + d_first):
                    raise _OracleDivergence(
                        f"distance blew up at iteration {t}: {dist:.3e}", t)
            stopping = (t >= stop.max_iters or gnorm <= stop.tol
                        or (dist is not None and dist <= stop.dist_tol))
            gs = problem.conj_grad_g(ax)
            b_t = float(np.linalg.norm(y - gs))
            if lam is not None and dist is not None:
                pot = lam * dist + b_t
            if sc is not None and dist is not None:
                # array squares, as over the dist columns
                pot = float(sc.eta2 * np.square(dist) + sc.eta1 * np.square(dist_y))
            if pot is not None:
                if p_first is None:
                    p_first = pot
            rows.append([t, float(t), dist, dist_y, b_t, pot])
            if pot is not None and pot > BLOWUP_FACTOR * max(p_first, 1e-300):
                raise _OracleDivergence(
                    f"potential blew up at iteration {t}: {pot:.3e} "
                    f"vs initial {p_first:.3e}", t)
            if stopping:
                break
            x, y = x_next, y_next
            t += 1
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise _OracleDivergence(f"non-finite iterate at iteration {t}", t)
        error = None
    except _OracleDivergence as exc:
        error = exc
    return np.array(rows, dtype=float).reshape(-1, 6), error


def _gd_oracle(problem, x, eta, stop, x_star, gnorms=None):
    """The run_primal_gd loop as it was; returns and records like
    _pdg_oracle."""
    rows = []
    A = problem.coupling
    t, d_first = 0, None
    try:
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                ystar = problem.conj_grad_g(A @ x)
                g = problem.grad_f(x) + A.T @ ystar
                gnorm = float(np.linalg.norm(g))
            if gnorms is not None:
                gnorms.append(gnorm)
            if not np.isfinite(gnorm):
                raise _OracleDivergence(f"non-finite gradient at iteration {t}", t)
            dist = None
            if x_star is not None:
                dist = float(np.linalg.norm(x - x_star))
                if d_first is None:
                    d_first = dist
            stopping = (t >= stop.max_iters or gnorm <= stop.tol
                        or (dist is not None and dist <= stop.dist_tol))
            rows.append([t, float(t), dist, None, None, None])
            if dist is not None and dist > BLOWUP_FACTOR * (1.0 + d_first):
                raise _OracleDivergence(f"distance blew up at iteration {t}: {dist:.3e}", t)
            if stopping:
                break
            with np.errstate(over="ignore", invalid="ignore"):
                x = x - eta * g
            t += 1
            if not np.all(np.isfinite(x)):
                raise _OracleDivergence(f"non-finite iterate at iteration {t}", t)
        error = None
    except _OracleDivergence as exc:
        error = exc
    return np.array(rows, dtype=float).reshape(-1, 6), error


def _batch_problems():
    quad = random_quadratic(11, 5, 7)
    inst = make_smoothed_l1(40, 12, cov="exp_decay", decay=2.0, seed=5)
    l1 = smoothed_l1_saddle(inst).aggregate
    return {
        "quadratic": (quad, reference_solution(quad, "direct")[0]),
        "smoothed_l1": (l1, smoothed_l1_minimizer(inst)),
    }


BATCH_PROBLEMS = _batch_problems()
# a run to the iteration cap, and one that stops on dist_x (or the gradient)
STOPS = {"cap": StoppingRule(120, 1e-9), "tol": StoppingRule(5000, 1e-4)}
# multiples of the theory steps: 1e3 and 1e8 trip the distance guard (with
# x_star) or overflow the gradient, 1e200 the gradient, 1e308 the iterate
SCALES = (1.0, 1.8, 1e3, 1e8, 1e200, 1e308)


def _run(fn):
    try:
        return fn(), None
    except DivergenceError as exc:
        return exc.trace, exc
    except ValueError as exc:
        return None, exc


def _old(fn):
    """An old loop's (rows, error); an error an oracle raised comes as
    (None, that error)."""
    try:
        return fn()
    except ValueError as exc:
        return None, exc


def _columns(trace):
    return np.column_stack([trace.column(c) for c in
                            ("iter", "grad_evals", "dist_x", "dist_y", "b_t", "potential")])


def _assert_matches(trace, error, want, want_error, *, tripping_row_allowed):
    if want is None:  # an oracle raised: the same error, with no trace
        assert type(error) is type(want_error) and str(error) == str(want_error)
        return
    got = _columns(trace)
    if want_error is None:
        assert error is None
    else:
        assert error is not None and error.iteration == want_error.iteration
        # the potential message no longer quotes the initial value
        assert str(error) == str(want_error).split(" vs initial")[0]
        if (tripping_row_allowed and str(error).startswith("distance blew up")
                and len(got) == len(want) + 1):
            # PDG used to raise before appending the row that tripped the guard
            assert got[-1, 2] > BLOWUP_FACTOR * (1.0 + got[0, 2])
            got = got[:-1]
    np.testing.assert_array_equal(got, want)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", sorted(BATCH_PROBLEMS))
@pytest.mark.parametrize("with_x_star", [True, False], ids=["x_star", "no_x_star"])
@pytest.mark.parametrize("stop", sorted(STOPS))
def test_primal_gd_matches_old_loop(name, scale, with_x_star, stop):
    problem, x_star = BATCH_PROBLEMS[name]
    x_star = x_star if with_x_star else None
    eta = scale * primal_step(problem.params)
    stop = STOPS[stop]
    x0 = np.linspace(-1.0, 1.0, problem.d1)
    trace, error = _run(lambda: run_primal_gd(problem, x0, eta=eta, stop=stop,
                                              x_star=x_star))
    want, want_error = _gd_oracle(problem, x0.copy(), eta, stop, x_star)
    _assert_matches(trace, error, want, want_error, tripping_row_allowed=False)


# "dual_x1e3": the schedule with eta2 1e3 times larger trips the P_t guard
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("steps", ("schedule", "dual_x1e3", *SCALES))
@pytest.mark.parametrize("name", sorted(BATCH_PROBLEMS))
@pytest.mark.parametrize("with_x_star", [True, False], ids=["x_star", "no_x_star"])
@pytest.mark.parametrize("stop", sorted(STOPS))
def test_pdg_matches_old_loop(name, steps, with_x_star, stop):
    problem, x_star = BATCH_PROBLEMS[name]
    x_star = x_star if with_x_star else None
    sched = pdg_schedule(problem.params)
    stop = STOPS[stop]
    init = Iterate(np.linspace(-1.0, 1.0, problem.d1), np.linspace(0.5, -0.5, problem.d2))
    if isinstance(steps, str):
        boost = 1e3 if steps == "dual_x1e3" else 1.0
        eta1, eta2, lam = sched.eta1, boost * sched.eta2, sched.lambda_
        kw = {"schedule": replace(sched, eta2=eta2)}
    else:
        eta1, eta2, lam = steps * sched.eta1, steps * sched.eta2, None
        kw = {"eta1": eta1, "eta2": eta2}
    trace, error = _run(lambda: run_pdg(problem, init, stop=stop, x_star=x_star, **kw))
    want, want_error = _pdg_oracle(problem, init.x.copy(), init.y.copy(), eta1,
                                   eta2, stop, x_star, lam)
    _assert_matches(trace, error, want, want_error, tripping_row_allowed=True)


# "sc_dual_x1e3": eta2 1e3 times larger trips the R_t guard
@pytest.mark.parametrize("boost", [1.0, 1e3], ids=["sc_schedule", "sc_dual_x1e3"])
@pytest.mark.parametrize("stop", sorted(STOPS))
def test_pdg_under_sc_schedule_matches_old_loop(boost, stop):
    problem = random_quadratic(11, 5, 7, strongly_convex=True)
    x_star = reference_solution(problem, "direct")[0]
    eig, p = np.linalg.eigvalsh(problem.quadratic_parts[0]), problem.params
    sc = sc_schedule(float(eig[0]), float(eig[-1]), p.alpha, p.beta, p.sigma_max)
    sc = replace(sc, eta2=boost * sc.eta2)
    stop = STOPS[stop]
    init = Iterate(np.linspace(-1.0, 1.0, problem.d1), np.linspace(0.5, -0.5, problem.d2))
    trace, error = _run(lambda: run_pdg(problem, init, schedule=sc, stop=stop,
                                        x_star=x_star))
    want, want_error = _pdg_oracle(problem, init.x.copy(), init.y.copy(), sc.eta1,
                                   sc.eta2, stop, x_star, None, sc)
    _assert_matches(trace, error, want, want_error, tripping_row_allowed=False)
    assert trace.potential_kind == "R_t"
    assert (error is None) == (boost == 1.0)


def _past_overflow(size):
    """Equal entries just large enough that their squares sum past the float
    range, so the distance of such an iterate to a small reference is inf."""
    return np.full(size, 1.1 * np.sqrt(np.finfo(float).max / size))


# finite starts whose squared distance to the reference overflows, in x, in
# y (PDG only), or in x at 1e155; the distance cannot prove them finite.  At
# "ax_max" A x overflows too: the quadratic's Cholesky conjugate map refuses
# it, in primal GD's step, and PDG must not reach it
OVERFLOW_STARTS = {
    "x": lambda p: (_past_overflow(p.d1), np.linspace(0.5, -0.5, p.d2)),
    "y": lambda p: (np.linspace(-1.0, 1.0, p.d1), _past_overflow(p.d2)),
    "x_1e155": lambda p: (np.full(p.d1, 1e155), np.linspace(0.5, -0.5, p.d2)),
    "ax_max": lambda p: (np.full(p.d1, np.finfo(float).max), np.linspace(0.5, -0.5, p.d2)),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name", ["quadratic", "smoothed_l1"])
@pytest.mark.parametrize("start", sorted(OVERFLOW_STARTS))
def test_batch_runs_from_overflowed_distance_match_old_loops(name, start):
    problem, x_star = BATCH_PROBLEMS[name]
    x0, y0 = OVERFLOW_STARTS[start](problem)
    sched, stop = pdg_schedule(problem.params), STOPS["cap"]
    trace, error = _run(lambda: run_pdg(problem, Iterate(x0, y0), schedule=sched,
                                        stop=stop, x_star=x_star))
    want, want_error = _pdg_oracle(problem, x0.copy(), y0.copy(), sched.eta1,
                                   sched.eta2, stop, x_star, sched.lambda_)
    _assert_matches(trace, error, want, want_error, tripping_row_allowed=True)
    if start != "y":
        eta = primal_step(problem.params)
        trace, error = _run(lambda: run_primal_gd(problem, x0, eta=eta, stop=stop,
                                                  x_star=x_star))
        want, want_error = _old(lambda: _gd_oracle(problem, x0.copy(), eta, stop, x_star))
        _assert_matches(trace, error, want, want_error, tripping_row_allowed=False)
        if start == "ax_max" and name == "quadratic":
            assert isinstance(error, ValueError)


# ---------------------------------------------------------------------------
# the batch loop's blocks: stops and failures at and inside their edges
# ---------------------------------------------------------------------------

C = _BLOCK_ROWS


def _rule(max_iters, tol=1e-300, dist_tol=None):
    """A StoppingRule; a max_iters of 0, which the rule refuses, is set past
    its check, and both loops then stop at row 0."""
    rule = StoppingRule(max(max_iters, 1), tol, dist_tol)
    object.__setattr__(rule, "max_iters", max_iters)
    return rule


def _check_batch(solver, problem, x_star, stop, eta1, eta2=None, schedule=None,
                 lam=None, gnorms=None):
    """Run ``solver`` (with ``schedule`` if given, else the steps eta1 and
    eta2) and its old loop from the shared starts, assert that they agree,
    and return the old loop's (rows, error)."""
    x0 = np.linspace(-1.0, 1.0, problem.d1)
    if solver == "primal_gd":
        trace, error = _run(lambda: run_primal_gd(problem, x0, eta=eta1, stop=stop,
                                                  x_star=x_star))
        want, want_error = _old(lambda: _gd_oracle(problem, x0.copy(), eta1, stop,
                                                   x_star, gnorms))
    else:
        y0 = np.linspace(0.5, -0.5, problem.d2)
        kw = {"schedule": schedule} if schedule is not None else {"eta1": eta1, "eta2": eta2}
        trace, error = _run(lambda: run_pdg(problem, Iterate(x0, y0), stop=stop,
                                            x_star=x_star, **kw))
        sc = schedule if schedule is not None and lam is None else None
        want, want_error = _old(lambda: _pdg_oracle(
            problem, x0.copy(), y0.copy(), eta1, eta2, stop, x_star, lam, sc, gnorms))
    _assert_matches(trace, error, want, want_error,
                    tripping_row_allowed=solver == "pdg")
    return want, want_error


def _steps(solver, problem, scale=1.0):
    """(eta1, eta2) at ``scale`` times the theory steps."""
    if solver == "primal_gd":
        return scale * primal_step(problem.params), None
    sched = pdg_schedule(problem.params)
    return scale * sched.eta1, scale * sched.eta2


@pytest.mark.parametrize("max_iters", [0, 1, C - 1, C, C + 1, 2 * C])
@pytest.mark.parametrize("name", sorted(BATCH_PROBLEMS))
@pytest.mark.parametrize("with_x_star", [True, False], ids=["x_star", "no_x_star"])
@pytest.mark.parametrize("solver", ["pdg", "primal_gd"])
def test_batch_run_to_max_iters_matches_old_loop(solver, name, with_x_star, max_iters):
    problem, x_star = BATCH_PROBLEMS[name]
    want, error = _check_batch(solver, problem, x_star if with_x_star else None,
                               _rule(max_iters), *_steps(solver, problem))
    assert error is None and len(want) == max_iters + 1


@pytest.mark.parametrize("by", ["dist_tol", "tol"])
@pytest.mark.parametrize("solver", ["pdg", "primal_gd"])
def test_batch_stop_inside_a_block_matches_old_loop(solver, by):
    """A tolerance at a new running minimum of dist_x (or of the gradient
    norm) on a row inside a block past the first stops the run at that row."""
    problem, x_star = BATCH_PROBLEMS["smoothed_l1"]
    steps, gnorms = _steps(solver, problem), []
    rows, _ = _check_batch(solver, problem, x_star, _rule(80 * C), *steps, gnorms=gnorms)
    values = rows[:, 2] if by == "dist_tol" else np.array(gnorms)
    k = min(k for k in range(C + 1, len(values))
            if k % C not in (0, C - 1) and values[k] < values[:k].min())
    stop = _rule(10**6, 1e-300, values[k]) if by == "dist_tol" else _rule(10**6, values[k],
                                                                           1e-300)
    rows, error = _check_batch(solver, problem, x_star, stop, *steps)
    assert error is None and len(rows) == k + 1


def _drift_problem(limit):
    """f(x) = -sum(x), g(y) = |y|^2/2 and A = 1e-160 I: the gradient in x
    stays near -1, so a step of 1e307 drifts x to overflow at row 18.  Its
    conjugate map, like a factorized one, refuses an input outside
    [-limit, limit]."""
    def conj(z):
        if not np.all(np.abs(z) <= limit):
            raise ValueError(f"conjugate map input out of range at {np.abs(z).max():.3e}")
        return z + 0.0

    return SaddleProblem(lambda x: np.full(x.shape, -1.0), lambda y: y,
                         1e-160 * np.eye(2), rho=0.0, alpha=1.0, beta=1.0,
                         conj_grad_g=conj)


# name: (solver, problem, with x_star, scale of the theory steps (the step
# itself on a drift problem) or None, boost of a schedule's eta2 or None, the
# start of the expected error and its row); the problems are BATCH_PROBLEMS,
# the strongly convex quadratic and _drift_problem at a limit
FAILURES = {
    # the distance guard inside the first and third blocks, and on the
    # first block's last row
    "gd_distance": ("primal_gd", "quadratic", True, 2.05, None, "distance blew up", 25),
    "gd_distance_last_row": ("primal_gd", "quadratic", True, 1.9, None,
                             "distance blew up", 31),
    "pdg_distance": ("pdg", "quadratic", True, 2.0, None, "distance blew up", 79),
    "gd_gradient": ("primal_gd", "quadratic", False, 10.0, None,
                    "non-finite gradient", 139),
    "pdg_gradient": ("pdg", "quadratic", False, 10.0, None, "non-finite gradient", 152),
    # the P_t guard under a PdgSchedule with eta2 doubled, the R_t guard under
    # an ScSchedule with eta2 50 times larger
    "pdg_P_t": ("pdg", "quadratic", True, None, 2.0, "potential blew up", 67),
    "pdg_R_t": ("pdg", "sc_quadratic", True, None, 50.0, "potential blew up", 55),
    # x overflows at row 18; the step that primal GD takes there calls the
    # conjugate map on an infinite A x, which refuses it
    "gd_iterate": ("primal_gd", "drift", False, 1e307, None, "non-finite iterate", 18),
    "pdg_iterate": ("pdg", "drift", False, 1e307, None, "non-finite iterate", 18),
    # the conjugate map refuses A x at row 11: in primal GD's step, in PDG's b_t
    "gd_oracle": ("primal_gd", "drift_1.05e148", False, 1e307, None,
                  "conjugate map input out of range", 11),
    "pdg_oracle": ("pdg", "drift_1.05e148", False, 1e307, None,
                   "conjugate map input out of range", 11),
}


def _failure_problem(name):
    if name == "sc_quadratic":
        problem = random_quadratic(11, 5, 7, strongly_convex=True)
        return problem, reference_solution(problem, "direct")[0]
    if name.startswith("drift"):
        limit = float(name.split("_")[1]) if "_" in name else np.finfo(float).max
        return _drift_problem(limit), None
    return BATCH_PROBLEMS[name]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_batch_failure_inside_a_block_matches_old_loop(case):
    solver, name, with_x_star, scale, boost, what, row = FAILURES[case]
    problem, x_star = _failure_problem(name)
    x_star = x_star if with_x_star else None
    stop = _rule(10**4)
    if boost is None:
        eta1, eta2 = (scale, 1.0) if name.startswith("drift") else _steps(solver, problem,
                                                                           scale)
        want, error = _check_batch(solver, problem, x_star, stop, eta1, eta2)
    elif name == "sc_quadratic":
        eig, p = np.linalg.eigvalsh(problem.quadratic_parts[0]), problem.params
        sc = sc_schedule(float(eig[0]), float(eig[-1]), p.alpha, p.beta, p.sigma_max)
        sc = replace(sc, eta2=boost * sc.eta2)
        want, error = _check_batch(solver, problem, x_star, stop, sc.eta1, sc.eta2,
                                   schedule=sc)
    else:
        sched = pdg_schedule(problem.params)
        sched = replace(sched, eta2=boost * sched.eta2)
        want, error = _check_batch(solver, problem, x_star, stop, sched.eta1, sched.eta2,
                                   schedule=sched, lam=sched.lambda_)
    assert str(error).startswith(what)
    if isinstance(error, _OracleDivergence):
        assert error.iteration == row
    else:
        # the refused input is row's A x, about row * 1e147
        assert want is None and str(error).endswith(f"at {row * 1e147:.3e}")
