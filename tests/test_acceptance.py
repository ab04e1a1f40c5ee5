"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line (run with -s to see them).  The last test reproduces the
full-scale regression experiment (d=200, n=500, three covariance cases) and
takes a few minutes; everything else is seconds."""

import json
import math
import time

import numpy as np
import pytest
from test_golden import GOLDEN, ROOT, host  # pytest puts this directory on sys.path

from pdsaddle import (
    StoppingRule,
    check_gradients,
    full_grad,
    iteration_budget,
    pdg_schedule,
    potential_P,
    reference_solution,
    run_pdg,
    vr_grad,
)
from pdsaddle.harness import (
    ExperimentConfig,
    _run_point,
    build_instance,
    cmd_verify,
    fitted_slope,
    grid_search,
    measure_units_to_target,
)
from pdsaddle.instances import (
    make_smoothed_l1,
    mspbe_minimizer,
    mspbe_saddle,
    random_mspbe,
    random_quadratic,
    smoothed_l1_saddle,
    split_quadratic,
)

CONTRACTION_SEED = 1000  # criteria 1 and 2 share this instance family

# criterion 7's cases: the experiment config that defines each one
CONFIG_DIR = ROOT / "configs"
CASES = {"identity": "experiment_identity", "exp_decay(2)": "experiment_decay2",
         "exp_decay(10)": "experiment_decay10"}

# criterion 7's outputs per case, on the host that tests/golden.json records
PINNED = {
    "identity": {
        "units_gd": 124.0, "units_pdg": 243.0, "units_svrg": 460.0,
        "slope_pdg": -0.023706168521730308, "slope_svrg": -0.014116383680564339,
        "tuned": {"primal_gd": {"eta": 0.6825540974755161},
                  "pdg": {"eta1": 0.34127704873775805, "eta2": 500.0},
                  "pdsvrg": {"eta1": 0.0023047693017111373, "eta2": 0.5,
                             "inner_iters": 1000.0, "mu": 1.0}},
    },
    "exp_decay(2)": {
        "units_gd": 1150.0, "units_pdg": 2474.0, "units_svrg": 1630.0,
        "slope_pdg": -0.002413505507713549, "slope_svrg": -0.003537641356862538,
        "tuned": {"primal_gd": {"eta": 0.2630390308729293},
                  "pdg": {"eta1": 0.12140262963365968, "eta2": 250.0},
                  "pdsvrg": {"eta1": 0.0018009990304437933, "eta2": 0.5,
                             "inner_iters": 1000.0, "mu": 1.0}},
    },
    "exp_decay(10)": {
        "units_gd": 23520.0, "units_pdg": 50942.0, "units_svrg": 13420.0,
        "slope_pdg": -0.00026975761915009315, "slope_svrg": -0.0006828697789014097,
        "tuned": {"primal_gd": {"eta": 0.06288975622229197},
                  "pdg": {"eta1": 0.02902604133336553, "eta2": 250.0},
                  "pdsvrg": {"eta1": 0.0011039847371972001, "eta2": 0.5,
                             "inner_iters": 1000.0, "mu": 1.0}},
        "units_primal_svrg_deep": 18440.0, "units_gd_deep": 31906.0,
    },
}
# on another numpy or BLAS, relative: a to-target run may end a step or an
# epoch (under 2% of any count above) away and a fit moves with it, while
# another tuned point is a grid value at least 8% away
PINNED_REL = 0.05


def pinned_rel() -> float:
    """The relative tolerance of criterion 7's comparison with PINNED on this
    host: 0 on the host tests/golden.json records."""
    return 0.0 if json.loads(GOLDEN.read_text())["host"] == host() else PINNED_REL


def pinned_mode() -> str:
    """Which comparison criterion 7 runs on this host."""
    if pinned_rel() == 0.0:
        return "exactly"
    return f"to {PINNED_REL:g} relative (not the host tests/golden.json records)"


def _match(got, want, where: str, rel: float):
    """Assert ``got`` equals the pinned ``want``, numbers to ``rel`` relative."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _match(got[key], want[key], f"{where}.{key}", rel)
    else:
        assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0), (where, got, want)


def test_criterion_1_contraction_certificate():
    t0 = time.perf_counter()
    report = cmd_verify("contraction", trials=100, seed=CONTRACTION_SEED)
    elapsed = time.perf_counter() - t0
    assert report["iters"] == 500
    assert report["passes"] == 100, report["failures"]
    assert not report["refuted"]
    assert elapsed < 60.0, f"certificate suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: 100/100 instances, 500 iterations each, "
          f"worst ratio/rate {report['worst_ratio_vs_rate']:.4f}, {elapsed:.1f}s")


def test_criterion_2_iteration_budget():
    violations = []
    margins = []
    for k in range(100):
        problem = random_quadratic(CONTRACTION_SEED + k)
        x_star, _, _ = reference_solution(problem, "direct")
        sched = pdg_schedule(problem.params)
        p0 = potential_P(problem, np.zeros(problem.d1), np.zeros(problem.d2),
                         x_star, sched.lambda_)
        budget = iteration_budget(p0, 1e-6, sched, problem.params)
        trace = run_pdg(problem, schedule=sched,
                        stop=StoppingRule(max(budget, 1), 1e-7), x_star=x_star)
        reached = [i for i, d in zip(trace.iters, trace.dist_x)
                   if d is not None and d <= 1e-6]
        if not reached or reached[0] > budget:
            violations.append(k)
        else:
            margins.append(reached[0] / budget)
    assert not violations, f"budget exceeded on trials {violations}"
    print(f"PASS criterion 2: 100/100 within the certified budget "
          f"(worst usage {max(margins):.2%} of budget)")


def test_criterion_3_both_strongly_convex_certificate():
    report = cmd_verify("sc_contraction", trials=100, seed=5000)
    assert report["iters"] == 300
    assert report["passes"] == 100, report["failures"]
    print(f"PASS criterion 3: 100/100 instances, worst ratio/rate "
          f"{report['worst_ratio_vs_rate']:.4f}")


def test_criterion_4_step_inequalities():
    report = cmd_verify("props", trials=50, seed=7000)
    assert report["iters"] == 200
    assert not report["refuted"]
    for name, counts in report["inequalities"].items():
        assert counts["violations"] == 0, (name, counts)
        assert counts["checked"] == 50 * 200, (name, counts)
    print("PASS criterion 4: four step inequalities, 50 instances x 200 "
          "steps, zero violations")


def test_criterion_5_vr_unbiasedness():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(9000 + k)
        problem = random_quadratic(9000 + k, int(rng.integers(2, 7)),
                                   int(rng.integers(7, 12)))
        n = int(rng.integers(5, 21))
        fsp = split_quadratic(problem, n, seed=9000 + k)
        for _ in range(20):
            x = rng.standard_normal(fsp.d1)
            y = rng.standard_normal(fsp.d2)
            xs = rng.standard_normal(fsp.d1)
            ys = rng.standard_normal(fsp.d2)
            full_snap = full_grad(fsp, xs, ys)
            sx = np.zeros(fsp.d1)
            sy = np.zeros(fsp.d2)
            for i in range(n):
                gx, gy = vr_grad(fsp, i, x, y, xs, ys, full_snap)
                sx += gx
                sy += gy
            fx, fy = full_grad(fsp, x, y)
            ex = np.linalg.norm(sx / n - fx) / (1 + np.linalg.norm(fx))
            ey = np.linalg.norm(sy / n - fy) / (1 + np.linalg.norm(fy))
            worst = max(worst, ex, ey)
            assert ex <= 1e-12 and ey <= 1e-12
    print(f"PASS criterion 5: unbiasedness on 20 instances x 20 states, "
          f"worst relative error {worst:.2e}")


def test_criterion_6_epoch_halving_config_exists():
    report = cmd_verify("svrg_halving", trials=3, seed=4242)
    assert (report["seeds"], report["epochs"]) == (30, 10)
    assert not report["refuted"]
    lines = []
    for res in report["results"]:
        cfg = res["config"]
        assert cfg is not None and cfg["max_mean_ratio"] <= 0.5
        lines.append(f"eta1=eta2={cfg['eta1']:.3e}, N={cfg['inner_iters']}, "
                     f"mu={cfg['mu']}, worst mean ratio={cfg['max_mean_ratio']:.3f}")
    print("PASS criterion 6: epoch-halving configs found (n=50, d=10, "
          "30 seeds, 10 epochs):")
    for line in lines:
        print(f"    {line}")


def _reproduce_case(path, compare_primal_stochastic=False):
    """Criterion 7 on the experiment config at ``path``: its instance, seed,
    grids and the budget and tol of the slope runs come from the config; the
    rest of the protocol is fixed here."""
    config = ExperimentConfig.load(path)
    bundle = build_instance(config.instance)
    grids = {spec.name: spec.schedule for spec in config.solvers}
    target = 1e-6

    # the batch solvers: each grid's least grad-units to the target
    tuned = {}
    for solver, budget in (("primal_gd", 200_000), ("pdg", 400_000)):
        result = grid_search(bundle, solver, grids[solver], budget=budget, target=target)
        best = result["best"]
        tuned[solver] = best["units_to_target"], {k: best[k] for k in result["keys"]}
    (u_gd, pt_gd), (u_pdg, pt_pdg) = tuned["primal_gd"], tuned["pdg"]

    # tuned at grid_search's and measure_units_to_target's default seed 0
    svrg_grid = grid_search(bundle, "pdsvrg", grids["pdsvrg"], budget=1000)
    u_svrg, pt_svrg = measure_units_to_target(
        bundle, "pdsvrg", svrg_grid["ranked"], target, max_units=60_000)

    assert None not in (u_gd, u_pdg, u_svrg), (
        f"{path}: some tuned solver never reached {target}")

    # fixed-budget traces with the tuned schedules for the rate fits
    trace_pdg, _ = _run_point(bundle, "pdg", pt_pdg, cap=config.budget, tol=config.tol)
    slope_pdg = fitted_slope(trace_pdg.grad_evals, trace_pdg.column("dist_x"))
    trace_svrg, _ = _run_point(bundle, "pdsvrg", pt_svrg, cap=config.budget, tol=config.tol,
                               seed=config.seed)
    slope_svrg = fitted_slope(trace_svrg.grad_evals, trace_svrg.column("dist_x"))

    out = {
        "units_gd": u_gd, "units_pdg": u_pdg, "units_svrg": u_svrg,
        "slope_pdg": slope_pdg, "slope_svrg": slope_svrg,
        "tuned": {"primal_gd": pt_gd, "pdg": pt_pdg, "pdsvrg": pt_svrg},
    }

    if compare_primal_stochastic:
        # stochastic-vs-batch ordering on the primal side at a deep target:
        # the step scale tuned for the saddle solver carries over (the
        # component smoothness is M^2 in both decompositions)
        deep = 1e-8
        inner = pt_svrg["inner_iters"]
        candidates = [
            {"status": "ok", "eta1": pt_svrg["eta1"], "inner_iters": inner},
            {"status": "ok", "eta1": 0.5 * pt_svrg["eta1"], "inner_iters": inner},
        ]
        u_psvrg, _ = measure_units_to_target(
            bundle, "primal_svrg", candidates, deep, max_units=120_000, seed=config.seed)
        gd_trace, _ = _run_point(bundle, "primal_gd", pt_gd, cap=500_000, tol=deep * 1e-3,
                                 dist_tol=deep)
        u_gd_deep = gd_trace.units_to_target(deep)
        assert u_psvrg is not None and u_gd_deep is not None
        out["units_primal_svrg_deep"] = u_psvrg
        out["units_gd_deep"] = u_gd_deep
    return out


@pytest.mark.slow
def test_criterion_7_full_scale_reproduction():
    results = {}
    for label, stem in CASES.items():
        t0 = time.perf_counter()
        res = _reproduce_case(CONFIG_DIR / f"{stem}.json",
                              compare_primal_stochastic=(label == "exp_decay(10)"))
        res["seconds"] = time.perf_counter() - t0
        results[label] = res

    lines = []
    rel = pinned_rel()
    for label, res in results.items():
        _match({k: v for k, v in res.items() if k != "seconds"}, PINNED[label], label, rel)
        # (i) linear convergence: negative fitted log-slope for both methods
        assert res["slope_pdg"] < 0, (label, res)
        assert res["slope_svrg"] < 0, (label, res)
        # (ii) tuned saddle method costs more than tuned primal descent,
        # but by a bounded factor
        ratio = res["units_pdg"] / res["units_gd"]
        assert 1.0 < ratio <= 10.0, (label, res)
        flag = "  [>3x, above the reported factor]" if ratio > 3.0 else ""
        lines.append(
            f"{label}: gd={res['units_gd']:.0f}u  pdg={res['units_pdg']:.0f}u "
            f"(x{ratio:.2f}{flag})  pdsvrg={res['units_svrg']:.0f}u  "
            f"slopes=({res['slope_pdg']:.2e}, {res['slope_svrg']:.2e})  "
            f"[{res['seconds']:.0f}s]"
        )
    # (iii) in the hardest-conditioned case the stochastic method wins,
    # on the saddle side (target 1e-6) and on the primal side (target 1e-8)
    hard = results["exp_decay(10)"]
    assert hard["units_svrg"] < hard["units_pdg"], hard
    assert hard["units_primal_svrg_deep"] < hard["units_gd_deep"], hard

    print("PASS criterion 7: full-scale reproduction (d=200, n=500, "
          "target 1e-6):")
    for line in lines:
        print(f"    {line}")
    print(f"    exp_decay(10) primal side to 1e-8: "
          f"svrg={hard['units_primal_svrg_deep']:.0f}u < "
          f"gd={hard['units_gd_deep']:.0f}u")


def test_criterion_8_oracle_cross_checks():
    # reference solutions: dense solve vs iterative descent
    worst_gap = 0.0
    for k in range(50):
        problem = random_quadratic(3000 + k)
        xd, yd, _ = reference_solution(problem, "direct")
        xi, yi, _ = reference_solution(problem, "iterate")
        gap = max(np.linalg.norm(xd - xi), np.linalg.norm(yd - yi))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9

    # saddle solution of the policy-evaluation family vs its closed form
    worst_mspbe = 0.0
    for k in range(5):
        inst = random_mspbe(40, 6, gamma=0.9, seed=500 + k)
        x_star, _, _ = reference_solution(mspbe_saddle(inst), "direct")
        oracle = mspbe_minimizer(inst)
        err = np.linalg.norm(x_star - oracle) / (1 + np.linalg.norm(oracle))
        worst_mspbe = max(worst_mspbe, err)
        assert err <= 1e-9

    # finite differences against every oracle family
    worst_fd = 0.0
    for k in range(5):
        report = check_gradients(random_quadratic(600 + k), tol=1e-6,
                                 num_points=10, seed=k)
        assert report.passed, report
        worst_fd = max(worst_fd, report.max_rel_error_f, report.max_rel_error_g)
    mspbe_problem = mspbe_saddle(random_mspbe(30, 5, seed=77))
    report = check_gradients(mspbe_problem, tol=1e-6, num_points=50, seed=1)
    assert report.passed, report
    worst_fd = max(worst_fd, report.max_rel_error_f, report.max_rel_error_g)
    l1 = smoothed_l1_saddle(make_smoothed_l1(25, 10, seed=3)).aggregate
    report = check_gradients(l1, tol=1e-6, num_points=50, seed=2)
    assert report.passed, report
    worst_fd = max(worst_fd, report.max_rel_error_f, report.max_rel_error_g)

    print(f"PASS criterion 8: reference modes agree (worst {worst_gap:.2e}), "
          f"policy-evaluation solution matches closed form "
          f"(worst {worst_mspbe:.2e}), finite differences "
          f"(worst {worst_fd:.2e})")
