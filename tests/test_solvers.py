import csv
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pdsaddle import (
    DivergenceError,
    Iterate,
    StoppingRule,
    SvrgConfig,
    Trace,
    iteration_budget,
    pdg_schedule,
    pdg_step,
    potential_P,
    reference_solution,
    run_pdg,
    run_pdsvrg,
    run_primal_gd,
    sc_schedule,
)
from pdsaddle.instances import random_quadratic, split_quadratic
from pdsaddle.problems import SaddleProblem
from pdsaddle.solvers import TRACE_COLUMNS
from pdsaddle.theory import primal_step


def test_pdg_step_zero_f(unit_problem):
    out = pdg_step(unit_problem, Iterate(np.array([1.0]), np.array([0.0])), 0.1, 0.1)
    assert out.x == pytest.approx(1.0)
    assert out.y == pytest.approx(0.1)
    assert out.iter == 1 and out.grad_evals == 1


def test_pdg_step_hand_example(scalar_problem):
    out = pdg_step(scalar_problem, Iterate(np.array([2.0]), np.array([3.0])), 0.1, 0.1)
    assert out.x == pytest.approx(1.5)
    assert out.y == pytest.approx(2.9)


def test_pdg_step_simultaneous():
    # both updates must read the pre-step iterate
    problem = random_quadratic(2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(problem.d1)
    y = rng.standard_normal(problem.d2)
    eta1, eta2 = 0.03, 0.07
    out = pdg_step(problem, Iterate(x, y), eta1, eta2)
    x_exp = x - eta1 * (problem.grad_f(x) + problem.coupling.T @ y)
    y_exp = y + eta2 * (problem.coupling @ x - problem.grad_g(y))
    np.testing.assert_array_equal(out.x, x_exp)
    np.testing.assert_array_equal(out.y, y_exp)


def test_pdg_step_fixed_point():
    problem = random_quadratic(14)
    x_star, y_star, _ = reference_solution(problem, "direct")
    s = pdg_schedule(problem.params)
    out = pdg_step(problem, Iterate(x_star, y_star), s.eta1, s.eta2)
    scale = 1e-12 * (1 + np.linalg.norm(x_star) + np.linalg.norm(y_star))
    assert np.max(np.abs(out.x - x_star)) <= scale
    assert np.max(np.abs(out.y - y_star)) <= scale


def test_pdg_step_rejects_bad_steps(scalar_problem):
    with pytest.raises(ValueError):
        pdg_step(scalar_problem, Iterate(np.zeros(1), np.zeros(1)), 0.0, 0.1)


@pytest.mark.parametrize("run", [
    lambda p: run_pdg(p, eta1=-0.1, eta2=0.1),
    lambda p: run_pdg(p, eta1=0.1, eta2=0.0),
    lambda p: run_pdg(p, schedule=SimpleNamespace(eta1=0.1, eta2=-1.0)),
    lambda p: run_primal_gd(p, eta=-0.1),
], ids=["pdg_eta1", "pdg_eta2", "pdg_schedule", "primal_gd"])
def test_batch_runs_reject_nonpositive_steps(scalar_problem, run):
    with pytest.raises(ValueError, match="step sizes must be positive"):
        run(scalar_problem)


def test_run_pdg_initial_row_when_converged():
    problem = random_quadratic(6)
    x_star, y_star, _ = reference_solution(problem, "direct")
    trace = run_pdg(problem, Iterate(x_star, y_star),
                    schedule=pdg_schedule(problem.params),
                    stop=StoppingRule(100, 1e-8), x_star=x_star)
    assert len(trace) == 1
    assert trace.iters.tolist() == [0]


def test_run_pdg_reaches_tolerance_within_budget():
    problem = random_quadratic(16)
    x_star, _, _ = reference_solution(problem, "direct")
    s = pdg_schedule(problem.params)
    p0 = potential_P(problem, np.zeros(problem.d1), np.zeros(problem.d2), x_star, s.lambda_)
    budget = iteration_budget(p0, 1e-6, s, problem.params)
    trace = run_pdg(problem, schedule=s, stop=StoppingRule(budget, 1e-7),
                    x_star=x_star)
    reached = [i for i, d in zip(trace.iters, trace.dist_x) if d is not None and d <= 1e-6]
    assert reached and reached[0] <= budget


def test_run_pdg_potential_contracts():
    for seed in (61, 62, 63):
        problem = random_quadratic(seed)
        x_star, _, _ = reference_solution(problem, "direct")
        s = pdg_schedule(problem.params)
        trace = run_pdg(problem, schedule=s, stop=StoppingRule(200, 1e-300), x_star=x_star)
        P = trace.column("potential")
        assert np.all(P[1:] <= s.rate * P[:-1] + 1e-12 * P[0])


def test_run_pdg_under_sc_schedule_records_r_t():
    # R_t is recorded in the run, equal bit for bit to the value once
    # computed over the finished trace's dist columns
    problem = random_quadratic(8, 4, 6, strongly_convex=True)
    x_star, _, _ = reference_solution(problem, "direct")
    eig, p = np.linalg.eigvalsh(problem.quadratic_parts[0]), problem.params
    sc = sc_schedule(float(eig[0]), float(eig[-1]), p.alpha, p.beta, p.sigma_max)
    trace = run_pdg(problem, schedule=sc, stop=StoppingRule(150, 1e-300), x_star=x_star)
    assert trace.potential_kind == "R_t"
    dx, dy = trace.column("dist_x"), trace.column("dist_y")
    np.testing.assert_array_equal(trace.column("potential"),
                                  sc.eta2 * dx**2 + sc.eta1 * dy**2)


def test_run_pdg_divergence():
    problem = random_quadratic(18)
    x_star, _, _ = reference_solution(problem, "direct")
    # oracle: the linear update map at these steps is expanding
    eta = 1e3
    b_sym, _, c_sym, _ = problem.quadratic_parts
    A = problem.coupling
    d1, d2 = problem.d1, problem.d2
    top = np.hstack([np.eye(d1) - eta * b_sym, -eta * A.T])
    bottom = np.hstack([eta * A, np.eye(d2) - eta * c_sym])
    spectral_radius = np.max(np.abs(np.linalg.eigvals(np.vstack([top, bottom]))))
    assert spectral_radius > 1
    with pytest.raises(DivergenceError) as err:
        run_pdg(problem, eta1=eta, eta2=eta, stop=StoppingRule(5000, 1e-12),
                x_star=x_star)
    assert err.value.trace is not None and len(err.value.trace) >= 1


@pytest.mark.parametrize("bad", ["x_inf", "y_inf", "y_nan"])
@pytest.mark.parametrize("with_x_star", [True, False], ids=["x_star", "no_x_star"])
def test_batch_runs_reject_a_non_finite_start(bad, with_x_star):
    # with x_star a finite distance stands in for the entrywise check, so a
    # non-finite y must be caught by its distance too
    problem = random_quadratic(4)
    x_star = reference_solution(problem, "direct")[0] if with_x_star else None
    x, y = np.ones(problem.d1), np.ones(problem.d2)
    {"x_inf": x, "y_inf": y, "y_nan": y}[bad][1] = np.nan if bad == "y_nan" else np.inf
    s = pdg_schedule(problem.params)
    runs = [lambda: run_pdg(problem, Iterate(x, y), schedule=s, x_star=x_star)]
    if bad == "x_inf":
        runs.append(lambda: run_primal_gd(problem, x, eta=s.eta1, x_star=x_star))
    for run in runs:
        with pytest.raises(DivergenceError, match="^non-finite iterate at iteration 0$") as err:
            run()
        assert len(err.value.trace) == 0


def test_run_pdg_deterministic():
    problem = random_quadratic(19)
    x_star, _, _ = reference_solution(problem, "direct")
    s = pdg_schedule(problem.params)
    t1 = run_pdg(problem, schedule=s, stop=StoppingRule(50, 1e-300), x_star=x_star)
    t2 = run_pdg(problem, schedule=s, stop=StoppingRule(50, 1e-300), x_star=x_star)
    np.testing.assert_array_equal(t1.column("dist_x"), t2.column("dist_x"))
    np.testing.assert_array_equal(t1.column("potential"), t2.column("potential"))


def test_run_primal_gd_single_step(unit_problem):
    trace = run_primal_gd(unit_problem, np.array([2.0]), eta=0.5,
                          stop=StoppingRule(1, 1e-300), x_star=np.zeros(1))
    assert trace.dist_x.tolist() == [pytest.approx(2.0), pytest.approx(1.0)]
    assert trace.grad_evals.tolist() == [0.0, 1.0]


def test_run_primal_gd_monotone_distance():
    problem = random_quadratic(23)
    x_star, _, _ = reference_solution(problem, "direct")
    p = problem.params
    eta = 2.0 / (p.rho + p.sigma_max**2 / p.alpha + p.sigma_min**2 / p.beta)
    trace = run_primal_gd(problem, np.ones(problem.d1), eta=eta,
                          stop=StoppingRule(200, 1e-300), x_star=x_star)
    d = trace.column("dist_x")
    assert np.all(d[1:] <= d[:-1] + 1e-12)


def test_run_primal_gd_stays_at_minimizer():
    problem = random_quadratic(24)
    x_star, _, _ = reference_solution(problem, "direct")
    trace = run_primal_gd(problem, x_star, eta=0.1, stop=StoppingRule(5, 1e-300),
                          x_star=x_star)
    assert max(trace.dist_x) <= 1e-10


def test_reference_solution_trivial(scalar_problem, shifted_problem):
    x, y, res = reference_solution(scalar_problem, "direct")
    assert x == pytest.approx(0.0) and y == pytest.approx(0.0)
    x, y, res = reference_solution(shifted_problem, "direct")
    assert x == pytest.approx(-1.0) and y == pytest.approx(0.0, abs=1e-14)
    assert max(res) <= 1e-12


def test_reference_solution_modes_agree():
    for seed in range(70, 80):
        problem = random_quadratic(seed)
        xd, yd, _ = reference_solution(problem, "direct")
        xi, yi, res = reference_solution(problem, "iterate")
        assert np.linalg.norm(xd - xi) <= 1e-9
        assert np.linalg.norm(yd - yi) <= 1e-9
        assert max(res) <= 1e-10


def test_reference_solution_requires_quadratic_for_direct():
    problem = SaddleProblem(
        grad_f=lambda x: np.tanh(x),
        grad_g=lambda y: y,
        coupling=np.eye(2),
        rho=1.0, alpha=1.0, beta=1.0, conj_grad_g=lambda z: z,
    )
    with pytest.raises(ValueError, match="quadratic"):
        reference_solution(problem, "direct")
    with pytest.raises(ValueError, match="mode"):
        reference_solution(problem, "nonsense")


def test_trace_invariants_and_csv(tmp_path):
    trace = Trace(potential_kind="P_t")
    trace.append(0, 0.0, 1.0, None, 0.5, 2.0, elapsed=0.0)
    trace.append(1, 1.0, 0.5, None, 0.25, 1.0, elapsed=0.1)
    with pytest.raises(ValueError):
        trace.append(1, 2.0)
    with pytest.raises(ValueError):
        trace.append(2, 0.5)
    assert trace.units_to_target(0.6) == 1.0
    assert trace.units_to_target(0.1) is None
    path = tmp_path / "t.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,grad_evals,dist_x,dist_y,b_t,potential,elapsed_seconds"
    assert lines[1].split(",")[3] == ""  # missing dist_y written empty
    assert math.isnan(trace.dist_y[0]) and None not in trace.potential


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(max_iters=0)
    with pytest.raises(ValueError):
        StoppingRule(tol=0.0)


def test_stopping_rule_dist_tol_defaults_to_tol():
    assert StoppingRule(10, 1e-5).dist_tol == 1e-5
    assert StoppingRule(10, 1e-5) == StoppingRule(10, 1e-5, dist_tol=1e-5)
    assert StoppingRule(10, 1e-5, dist_tol=1e-2).dist_tol == 1e-2


@pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan])
def test_stopping_rule_dist_tol_must_be_positive(bad):
    with pytest.raises(ValueError, match="dist_tol must be > 0"):
        StoppingRule(10, 1e-5, dist_tol=bad)


@pytest.mark.parametrize("solver", ["pdg", "primal_gd"])
def test_batch_run_stops_on_dist_tol_and_on_the_gradient_norm_at_tol(solver):
    problem = random_quadratic(16)
    x_star, _, _ = reference_solution(problem, "direct")
    s = pdg_schedule(problem.params)

    def run(stop, x_star=x_star):
        if solver == "pdg":
            return run_pdg(problem, eta1=s.eta1, eta2=s.eta2, stop=stop, x_star=x_star)
        return run_primal_gd(problem, eta=primal_step(problem.params), stop=stop,
                             x_star=x_star)

    cap, target = 20_000, 1e-6
    full = run(StoppingRule(cap, 1e-300))
    hit = int(np.flatnonzero(full.column("dist_x") <= target)[0])
    # distance: the run ends at the first row within dist_tol, a prefix of
    # the run that goes on
    short = run(StoppingRule(cap, 1e-300, dist_tol=target))
    assert len(short) == hit + 1
    np.testing.assert_array_equal(short.column("dist_x"), full.column("dist_x")[:hit + 1])
    # gradient norm: tol alone ends the run, at the row it ends a run that
    # measures no distance
    by_grad = run(StoppingRule(cap, 1e-3, dist_tol=1e-300))
    assert len(by_grad) == len(run(StoppingRule(cap, 1e-3), x_star=None)) < hit + 1


# ---------------------------------------------------------------------------
# packed trace columns against the list-based writer they replaced
# ---------------------------------------------------------------------------

def _list_csv(rows, path):
    """The CSV writer over one Python list per column that the packed
    columns replaced, fed the rows as the solver passed them."""
    iters, grad_evals, dist_x, dist_y, b_t, potential, elapsed = map(list, zip(*rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for i in range(len(iters)):
            writer.writerow([
                iters[i],
                repr(float(grad_evals[i])),
                *("" if math.isnan(v) else repr(float(v))
                  for v in (dist_x[i], dist_y[i], b_t[i], potential[i])),
                f"{elapsed[i]:.6f}",
            ])


def _csv_case(name):
    problem = random_quadratic(16)
    x_star, _, _ = reference_solution(problem, "direct")
    s = pdg_schedule(problem.params)
    if name == "pdg":
        return run_pdg(problem, schedule=s, stop=StoppingRule(300, 1e-300), x_star=x_star)
    if name == "primal_gd":
        return run_primal_gd(problem, eta=primal_step(problem.params),
                             stop=StoppingRule(300, 1e-300), x_star=x_star)
    if name == "pdsvrg":
        cfg = SvrgConfig(eta1=0.01, eta2=0.01, inner_iters=24, epochs=20, mu=1.5)
        return run_pdsvrg(split_quadratic(problem, 12, seed=1), cfg=cfg, x_star=x_star)
    with pytest.raises(DivergenceError) as info:
        run_pdg(problem, eta1=50 * s.eta1, eta2=50 * s.eta2,
                stop=StoppingRule(10_000, 1e-300), x_star=x_star)
    return info.value.trace


@pytest.mark.differential
@pytest.mark.parametrize("name", ["pdg", "primal_gd", "pdsvrg", "diverged_pdg"])
def test_packed_csv_matches_the_list_writer(name, tmp_path, monkeypatch):
    rows, append, extend = [], Trace.append, Trace.extend

    def teed(self, it, grad_evals, dist_x=None, dist_y=None, b_t=None,
             potential=None, elapsed=0.0):
        append(self, it, grad_evals, dist_x, dist_y, b_t, potential, elapsed)
        rows.append((it, grad_evals,
                     *(math.nan if v is None else v for v in (dist_x, dist_y, b_t, potential)),
                     elapsed))

    def teed_block(self, iters, elapsed, **columns):
        # a batch run adds its rows a block at a time
        extend(self, iters, elapsed, **columns)
        for j, it in enumerate(iters):
            rows.append((it, float(it), *(columns[c][j] if c in columns else math.nan
                                          for c in ("dist_x", "dist_y", "b_t", "potential")),
                         elapsed))

    monkeypatch.setattr(Trace, "append", teed)
    monkeypatch.setattr(Trace, "extend", teed_block)
    trace = _csv_case(name)
    assert len(rows) == len(trace) > 2
    trace.to_csv(tmp_path / "packed.csv")
    _list_csv(rows, tmp_path / "lists.csv")
    assert (tmp_path / "packed.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()


def test_trace_row_costs_at_most_64_bytes():
    rows = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = Trace("P_t")
        for k in range(rows):
            trace.append(k, float(k), 1.0 / (k + 1), 2.0 / (k + 1), 3.0 / (k + 1),
                         4.0 / (k + 1), elapsed=1e-4 * k)
        per_row = (tracemalloc.get_traced_memory()[0] - before) / rows
    finally:
        tracemalloc.stop()
    assert len(trace) == rows
    assert per_row <= 64, f"{per_row:.1f} bytes per row"
