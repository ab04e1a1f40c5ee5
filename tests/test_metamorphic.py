"""Metamorphic tests: a transformation of a problem under which a solver's
trace must stay the same, checked against the untransformed run instead of
an oracle."""

import numpy as np
import pytest

from pdsaddle import StoppingRule, pdg_schedule, reference_solution, run_pdg, run_primal_gd
from pdsaddle.instances import QuadraticSaddleProblem, random_quadratic

# set before the test was first run: the rotated data, the schedule's
# singular values and the reference solution differ from the original ones
# by roundoff, which 200 contracting steps do not amplify this far
RTOL = 1e-9
STEPS = 200
COLUMNS = ("dist_x", "dist_y", "b_t", "potential")


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _rotated(problem, Q, U):
    """``problem`` in the variables x' = Q x and y' = U y: f'(x') = f(Q^T x'),
    g'(y') = g(U^T y') and the coupling U A Q^T."""
    b_sym, b_lin, c_sym, c_lin = problem.quadratic_parts
    return QuadraticSaddleProblem(Q @ b_sym @ Q.T, Q @ b_lin, U @ problem.coupling @ Q.T,
                                  U @ c_sym @ U.T, U @ c_lin)


@pytest.mark.parametrize("c", [1e-3, 10.0, 1e3])
@pytest.mark.parametrize("seed", range(5))
def test_positive_rescaling_keeps_the_schedule_and_the_traces(seed, c):
    """Scaling f, g and A by c > 0 scales L by c: the saddle point stays,
    every curvature constant scales by c, so lambda_ and the rate stay and
    both steps scale by 1/c.  The PDG step, and with it every distance, b_t
    and P_t, is then the same.  The tolerances were set before the test was
    first run: the schedule is formulas of singular values, the traces go
    through the scaled data's roundoff as in the orthogonal case."""
    problem = random_quadratic(seed)
    b_sym, b_lin, c_sym, c_lin = problem.quadratic_parts
    scaled = QuadraticSaddleProblem(c * b_sym, c * b_lin, c * problem.coupling,
                                    c * c_sym, c * c_lin)
    want_sched, got_sched = pdg_schedule(problem.params), pdg_schedule(scaled.params)
    for name in ("rate", "lambda_"):
        np.testing.assert_allclose(getattr(got_sched, name), getattr(want_sched, name),
                                   rtol=1e-12)
    stop = StoppingRule(STEPS, 1e-300)
    want, got = (run_pdg(p, schedule=s, stop=stop, x_star=reference_solution(p, "direct")[0])
                 for p, s in ((problem, want_sched), (scaled, got_sched)))
    assert len(got.iters) == len(want.iters) == STEPS + 1
    assert want.potential_kind == got.potential_kind == "P_t"
    for name in COLUMNS:
        np.testing.assert_allclose(got.column(name), want.column(name), rtol=RTOL)


@pytest.mark.parametrize("seed", range(5))
def test_orthogonal_change_of_variables_keeps_the_traces(seed):
    """Distances, b_t and the potential are invariant under orthogonal maps
    of x and y, and so are the schedule's constants, so PDG under its theory
    schedule and primal GD at the schedule's eta1 (PDG's ghost step) trace
    the same columns from the origin, which both maps fix.  GD runs at the
    ghost step because at its safe step 2/(gamma + delta) it reaches
    dist_x ~ 1e-7 within 15-23 steps, where roundoff of about 1e-16 times
    |x*| is already 1e-9 of the distance."""
    problem = random_quadratic(seed)
    rng = np.random.default_rng(100 + seed)
    rotated = _rotated(problem, _orthogonal(rng, problem.d1), _orthogonal(rng, problem.d2))
    stop = StoppingRule(STEPS, 1e-300)
    runs = []
    for p in (problem, rotated):
        x_star = reference_solution(p, "direct")[0]
        sched = pdg_schedule(p.params)
        runs.append((run_pdg(p, schedule=sched, stop=stop, x_star=x_star),
                     run_primal_gd(p, eta=sched.eta1, stop=stop, x_star=x_star)))
    for want, got in zip(*runs):
        assert len(got.iters) == len(want.iters) == STEPS + 1
        assert np.isfinite(want.column("dist_x")).all()
        for name in COLUMNS:
            np.testing.assert_allclose(got.column(name), want.column(name), rtol=RTOL)
