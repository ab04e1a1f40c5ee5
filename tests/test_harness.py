import json
from pathlib import Path

import numpy as np
import pytest

from pdsaddle import cli, harness
from pdsaddle.harness import (
    ConfigError,
    ExperimentConfig,
    build_instance,
    cmd_estimate,
    cmd_grid,
    cmd_solve,
    cmd_verify,
    fitted_slope,
    grid_search,
    measure_units_to_target,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _quad_instance_spec(seed=3, d1=5, d2=7):
    return {"family": "random_quadratic", "d1": d1, "d2": d2, "seed": seed}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_requires_solvers():
    with pytest.raises(ConfigError, match="config.solvers"):
        ExperimentConfig.from_dict({"instance": _quad_instance_spec(), "solvers": []})


def test_config_reports_field_paths():
    with pytest.raises(ConfigError, match=r"config\.solvers\[0\]\.name"):
        ExperimentConfig.from_dict({
            "instance": _quad_instance_spec(),
            "solvers": [{"name": "nesterov"}],
        })
    with pytest.raises(ConfigError, match=r"config\.stopping"):
        ExperimentConfig.from_dict({
            "instance": _quad_instance_spec(),
            "solvers": [{"name": "pdg"}],
            "stopping": {"max_iters": 0},
        })
    with pytest.raises(ConfigError, match=r"config\.instance\.family"):
        build_instance({"family": "sudoku"})


def test_config_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.load(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_cmd_solve_writes_traces_and_summary(tmp_path):
    config = ExperimentConfig.from_dict({
        "seed": 1,
        "stopping": {"max_iters": 200, "tol": 1e-12},
        "instance": _quad_instance_spec(),
        "solvers": [
            {"name": "pdg", "schedule": {"source": "theory"}},
            {"name": "primal_gd", "schedule": {"source": "theory"}},
            {"name": "pdg", "schedule": {"source": "explicit", "eta1": 1e3, "eta2": 1e3}},
        ],
    })
    out = tmp_path / "out"
    summary = cmd_solve(config, out)
    names = [(s["name"], s["status"]) for s in summary["solvers"]]
    assert names[0] == ("pdg", "ok")
    assert names[1] == ("primal_gd", "ok")
    assert names[2] == ("pdg", "diverged")  # recorded without aborting others

    first = summary["solvers"][0]
    assert first["slope"] < 0
    assert first["potential_kind"] == "P_t"
    csv_lines = (out / first["csv"]).read_text().splitlines()
    assert csv_lines[0] == "iter,grad_evals,dist_x,dist_y,b_t,potential,elapsed_seconds"
    assert len(csv_lines) == first["rows"] + 1
    assert json.loads((out / "summary.json").read_text())


def test_cmd_solve_sc_variant_records_weighted_potential(tmp_path):
    config = ExperimentConfig.from_dict({
        "stopping": {"max_iters": 150, "tol": 1e-13},
        "instance": {"family": "random_quadratic", "d1": 4, "d2": 6,
                     "seed": 8, "strongly_convex": True},
        "solvers": [{"name": "pdg", "schedule": {"source": "theory", "variant": "sc"}}],
    })
    summary = cmd_solve(config, tmp_path / "out")
    entry = summary["solvers"][0]
    assert entry["potential_kind"] == "R_t"
    assert "rate" in entry["schedule"]


def test_cmd_solve_stochastic_repetitions(tmp_path):
    config = ExperimentConfig.from_dict({
        "seed": 5,
        "stopping": {"max_iters": 100, "tol": 1e-13},
        "instance": dict(_quad_instance_spec(seed=21, d1=6, d2=6), splits=10),
        "solvers": [{
            "name": "pdsvrg",
            "schedule": {"source": "explicit", "eta1": 0.02, "eta2": 0.02,
                         "inner_iters": 20, "epochs": 12},
            "repetitions": 5,
        }],
    })
    summary = cmd_solve(config, tmp_path / "out")
    entry = summary["solvers"][0]
    assert entry["repetitions"] == 5
    mean_q = entry["mean_potential_per_epoch"]
    assert len(mean_q) == 13
    assert mean_q[-1] < mean_q[0]


def test_cmd_solve_deterministic_trace_bytes(tmp_path):
    doc = {
        "seed": 9,
        "stopping": {"max_iters": 80, "tol": 1e-13},
        "instance": dict(_quad_instance_spec(seed=2), splits=8),
        "solvers": [
            {"name": "pdg", "schedule": {"source": "theory"}},
            {"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.02,
                                            "eta2": 0.02, "inner_iters": 16,
                                            "epochs": 10}},
        ],
    }
    outs = []
    for sub in ("a", "b"):
        cmd_solve(ExperimentConfig.from_dict(doc), tmp_path / sub)
        rows = []
        for csv_name in ("pdg.csv", "pdsvrg.csv"):
            lines = (tmp_path / sub / csv_name).read_text().splitlines()
            # elapsed_seconds is wall-clock; everything else must be identical
            rows.append([",".join(line.split(",")[:-1]) for line in lines])
        outs.append(rows)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_search_single_point_and_superset(tmp_path):
    bundle = build_instance(_quad_instance_spec(seed=4))
    single = grid_search(bundle, "primal_gd", {"eta": [0.3]}, budget=150)
    assert single["status"] == "ok"
    assert single["best"]["eta"] == pytest.approx(0.3)

    from pdsaddle import pdg_schedule
    sched = pdg_schedule(bundle.problem.params)
    small = grid_search(bundle, "pdg", {"eta1": [sched.eta1], "eta2": [sched.eta2]},
                        budget=400)
    wide = grid_search(
        bundle, "pdg",
        {"eta1": [sched.eta1, sched.eta1 / 10], "eta2": [sched.eta2, sched.eta2 / 10]},
        budget=400,
    )
    assert wide["best"]["final_dist_x"] <= small["best"]["final_dist_x"] + 1e-15


def test_grid_search_all_divergent():
    bundle = build_instance(_quad_instance_spec(seed=6))
    result = grid_search(bundle, "pdg", {"eta1": [1e4], "eta2": [1e4]}, budget=2000)
    assert result["status"] == "no_convergent_schedule"
    assert result["best"] is None


def test_grid_tie_break_prefers_smaller_steps():
    bundle = build_instance(_quad_instance_spec(seed=4))
    result = grid_search(bundle, "pdg", {"eta1": [0.05, 0.02], "eta2": [0.3]},
                         budget=1)
    ranked = result["ranked"]
    assert len(ranked) == 2
    # with a one-step budget both runs stop at the same recorded distance;
    # ranking must fall back to the smaller eta1
    if ranked[0]["final_dist_x"] == ranked[1]["final_dist_x"]:
        assert ranked[0]["eta1"] < ranked[1]["eta1"]


def test_measure_units_to_target_skips_nonconverging_winner():
    bundle = build_instance(_quad_instance_spec(seed=14))
    ranked = [
        {"status": "ok", "eta1": 1e4, "eta2": 1e4},      # diverges when run long
        {"status": "ok", "eta1": 0.05, "eta2": 0.4},
    ]
    units, point = measure_units_to_target(bundle, "pdg", ranked, 1e-6,
                                           max_units=50_000)
    assert units is not None
    assert point["eta1"] == pytest.approx(0.05)


def test_cmd_solve_grid_source_tunes_then_runs(tmp_path):
    config = ExperimentConfig.from_dict({
        "budget": 150,
        "stopping": {"max_iters": 150, "tol": 1e-12},
        "instance": _quad_instance_spec(seed=4),
        "solvers": [
            {"name": "primal_gd",
             "schedule": {"source": "grid", "eta": [1e5, 0.1, 0.3]}},
        ],
    })
    summary = cmd_solve(config, tmp_path / "out")
    entry = summary["solvers"][0]
    assert entry["status"] == "ok" and entry["source"] == "grid"
    assert entry["grid_best"]["eta"] in (0.1, 0.3)
    assert entry["final_dist_x"] < 1e-6


def test_cmd_solve_pinned_instance_path(tmp_path):
    from pdsaddle.instances import QuadraticSaddle, save_instance
    rng = np.random.default_rng(0)
    inst = QuadraticSaddle(
        B=np.zeros((2, 2)), b=rng.standard_normal(2),
        A=np.vstack([np.eye(2) * 1.5, rng.standard_normal((1, 2))]),
        C=np.eye(3) * 0.5, c=rng.standard_normal(3),
    )
    path = tmp_path / "pinned.json"
    save_instance(inst, path)
    config = ExperimentConfig.from_dict({
        "stopping": {"max_iters": 300, "tol": 1e-11},
        "instance": {"family": "quadratic", "path": str(path)},
        "solvers": [{"name": "pdg", "schedule": {"source": "theory"}}],
    })
    summary = cmd_solve(config, tmp_path / "out")
    assert summary["solvers"][0]["status"] == "ok"


def test_cmd_grid_writes_sweep(tmp_path):
    config = ExperimentConfig.from_dict({
        "budget": 200,
        "instance": _quad_instance_spec(seed=4),
        "solvers": [
            {"name": "pdg", "schedule": {"source": "grid",
                                         "eta1": [0.02, 0.05], "eta2": [0.3]}},
            {"name": "pdg", "schedule": {"source": "theory"}},  # ignored by grid
        ],
    })
    report = cmd_grid(config, tmp_path / "g")
    assert len(report["solvers"]) == 1
    sweep = (tmp_path / "g" / report["solvers"][0]["sweep_csv"]).read_text().splitlines()
    assert sweep[0] == "eta1,eta2,final_dist_x,status"
    assert len(sweep) == 3
    assert (tmp_path / "g" / "best.json").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_cmd_verify_contraction_small():
    report = cmd_verify("contraction", trials=5, seed=100)
    assert report["passes"] == 5 and not report["refuted"]
    assert report["worst_ratio_vs_rate"] <= 1.0


def test_cmd_verify_sc_contraction_small():
    report = cmd_verify("sc_contraction", trials=5, seed=200)
    assert report["passes"] == 5 and not report["refuted"]


def test_cmd_verify_props_small_and_gating():
    report = cmd_verify("props", trials=3, seed=300)
    assert not report["refuted"]
    for counts in report["inequalities"].values():
        assert counts["violations"] == 0 and counts["checked"] > 0

    # primal step at twice its precondition bound: gated inequalities are
    # reported out-of-precondition, not as refutations
    gated = cmd_verify("props", trials=2, seed=300, eta1_scale=2.0)
    assert gated["inequalities"]["ghost_contraction"]["out_of_precondition"] > 0
    assert gated["inequalities"]["ghost_contraction"]["checked"] == 0
    assert gated["inequalities"]["step_length"]["checked"] > 0
    assert not gated["refuted"]


def test_cmd_verify_svrg_halving_small():
    report = cmd_verify("svrg_halving", trials=1, seed=42, seeds=8)
    assert not report["refuted"]
    config = report["results"][0]["config"]
    assert config is not None and config["max_mean_ratio"] <= 0.5


def test_cmd_verify_unknown_suite():
    with pytest.raises(ConfigError, match="suite"):
        cmd_verify("fermat", trials=1)


# ---------------------------------------------------------------------------
# estimate + CLI
# ---------------------------------------------------------------------------

def test_cmd_estimate_unit_quadratic():
    report = cmd_estimate({"family": "quadratic", "data": {
        "family": "quadratic", "B": [[0.0]], "b": [0.0], "A": [[1.0]],
        "C": [[0.5]], "c": [0.0]}})
    assert report["lambda"] == pytest.approx(2.0)
    assert report["eta1"] == pytest.approx(1 / 6)
    assert report["eta2"] == pytest.approx(1.0)
    assert report["rate"] == pytest.approx(11 / 12)


def test_cmd_estimate_diagonal_singular_values():
    report = cmd_estimate({"family": "quadratic", "data": {
        "family": "quadratic",
        "B": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0],
        "A": [[3.0, 0.0], [0.0, 1.0]],
        "C": [[0.5, 0.0], [0.0, 0.5]], "c": [0.0, 0.0]}})
    assert report["sigma_max"] == pytest.approx(3.0)
    assert report["sigma_min"] == pytest.approx(1.0)


def test_cmd_estimate_rank_deficient_diagnostic():
    report = cmd_estimate({"family": "quadratic", "data": {
        "family": "quadratic",
        "B": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0],
        "A": [[1.0, 1.0]],  # wide coupling: rank < d1
        "C": [[0.5]], "c": [0.0]}})
    assert report["status"] == "error"
    assert "full column rank" in report["diagnostic"]


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("experiment_*.json")), ids=lambda p: p.name)
def test_shipped_experiment_instances_build(path):
    # experiment_decay2.json is the exp_decay(2), seed-11 instance whose
    # reference once stalled above tol
    config = ExperimentConfig.load(path)
    bundle = build_instance(config.instance)
    assert np.all(np.isfinite(bundle.x_star))
    assert bundle.meta["reference_residual"] <= 1e-13


def test_cli_end_to_end(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "stopping": {"max_iters": 120, "tol": 1e-12},
        "instance": _quad_instance_spec(seed=31),
        "solvers": [{"name": "pdg", "schedule": {"source": "theory"}}],
    })
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "summary.json").exists()

    assert cli.main(["verify", "--suite", "contraction", "--trials", "2",
                     "--seed", "1", "--out", str(tmp_path / "rep.json")]) == 0
    assert json.loads((tmp_path / "rep.json").read_text())["passes"] == 2

    grid_cfg = _write(tmp_path, "grid.json", {
        "budget": 100,
        "instance": _quad_instance_spec(seed=31),
        "solvers": [{"name": "primal_gd",
                     "schedule": {"source": "grid", "eta": [0.1, 0.3]}}],
    })
    assert cli.main(["grid", "--config", grid_cfg, "--out", str(tmp_path / "g")]) == 0

    est_cfg = _write(tmp_path, "est.json", {"instance": _quad_instance_spec(seed=2)})
    assert cli.main(["estimate", "--config", est_cfg]) == 0

    bad = _write(tmp_path, "bad.json", {"instance": {"family": "nope"}, "solvers": []})
    assert cli.main(["solve", "--config", bad, "--out", str(tmp_path / "x")]) == 1


def test_fitted_slope_behaviour():
    units = np.arange(100, dtype=float)
    decaying = 10.0 ** (-0.05 * units)
    assert fitted_slope(units, decaying) == pytest.approx(-0.05, rel=1e-6)
    assert fitted_slope([0.0], [1.0]) is None
    with_gaps = np.where(units % 7 == 0, np.nan, decaying)
    assert fitted_slope(units, with_gaps) == pytest.approx(-0.05, rel=1e-3)


# ---------------------------------------------------------------------------
# solver table
# ---------------------------------------------------------------------------

def _split_spec():
    return dict(_quad_instance_spec(seed=3), splits=12)


# small grids that converge on _split_spec() within the budgets below
SMALL_GRIDS = {
    "pdg": {"eta1": [0.02, 0.05], "eta2": [0.3]},
    "primal_gd": {"eta": [0.1, 0.3]},
    "pdsvrg": {"eta1": [0.01, 0.03], "eta2": [0.02]},
    "primal_svrg": {"eta1": [0.01, 0.04]},
}


@pytest.mark.parametrize("solver", sorted(harness.SOLVERS))
def test_solver_table_runs_every_solver(solver, tmp_path):
    assert set(SMALL_GRIDS) == set(harness.SOLVERS)
    bundle = build_instance(_split_spec())
    grid = SMALL_GRIDS[solver]
    result = grid_search(bundle, solver, grid, budget=80, seed=2)
    assert result["status"] == "ok"
    assert result["keys"] == list(harness.SOLVERS[solver].keys)
    units, point = measure_units_to_target(bundle, solver, result["ranked"], 1e-4,
                                           max_units=5000, seed=1)
    assert units is not None and units > 0
    assert set(point) <= set(harness.SOLVERS[solver].keys)

    config = ExperimentConfig.from_dict({
        "seed": 4, "budget": 80, "stopping": {"max_iters": 80, "tol": 1e-12},
        "instance": _split_spec(),
        "solvers": [{"name": solver, "schedule": {"source": "grid", **grid}}],
    })
    summary = cmd_solve(config, tmp_path / "out")
    entry = summary["solvers"][0]
    assert entry["status"] == "ok" and entry["source"] == "grid"
    for key in harness.SOLVERS[solver].keys:
        assert entry["schedule"][key] == entry["grid_best"][key]
    # runs start at the origin, so the reference norm is the initial distance
    assert entry["final_dist_x"] < 0.1 * summary["instance"]["reference_norm"]
    assert (tmp_path / "out" / f"{solver}.csv").exists()


def test_solver_table_reaches_runners_through_module_globals(monkeypatch, tmp_path):
    # benchmark tooling wraps these module attributes; every harness path
    # must call the wrapped object, not one captured at import time
    calls = {"run_pdg": 0, "run_pdsvrg": 0}
    for name in calls:
        original = getattr(harness, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)

    bundle = build_instance(_split_spec())
    for solver, name in (("pdg", "run_pdg"), ("pdsvrg", "run_pdsvrg")):
        before = calls[name]
        result = grid_search(bundle, solver, SMALL_GRIDS[solver], budget=40)
        assert calls[name] == before + len(result["ranked"])
        before = calls[name]
        measure_units_to_target(bundle, solver, result["ranked"], 1e-4,
                                max_units=5000)
        assert calls[name] > before

    before = dict(calls)
    config = ExperimentConfig.from_dict({
        "budget": 40, "stopping": {"max_iters": 40, "tol": 1e-12},
        "instance": _split_spec(),
        "solvers": [
            {"name": "pdg", "schedule": {"source": "theory"}},
            {"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.02}},
        ],
    })
    cmd_solve(config, tmp_path / "out")
    assert calls == {k: v + 1 for k, v in before.items()}


# ---------------------------------------------------------------------------
# input errors end as exit 1 with a message
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("instance", [
    {"family": "random_quadratic", "d1": 9, "d2": 4},
    {"family": "random_quadratic", "d1": "3"},
    {"family": "smoothed_l1", "n": 20, "d": 5, "a": "x"},
    {"family": "quadratic", "data": {"family": "quadratic"}},
    {"family": "quadratic", "data": 5},
    {"family": "smoothed_l1", "data": {"family": "smoothed_l1", "A": [[1.0, 0.0], [0.0, 1.0]],
                                       "b": [1.0, 2.0], "a": "x", "lambda_reg": 0.1}},
], ids=["d1_above_d2", "d1_string", "sharpness_string", "data_missing_fields",
        "data_not_object", "data_sharpness_string"])
def test_malformed_instance_fields_exit_1(instance, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "instance": instance,
        "solvers": [{"name": "pdg", "schedule": {"source": "theory"}}],
    })
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.instance")
    assert "Traceback" not in err


_SPLIT = {"family": "random_quadratic", "d1": 5, "d2": 7, "seed": 3, "splits": 12}


@pytest.mark.parametrize("solver,field", [
    ({"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.01,
                                     "inner_iters": 0}}, "schedule.inner_iters"),
    ({"name": "primal_svrg", "schedule": {"source": "explicit", "eta1": 0.01,
                                          "inner_iters": "x"}}, "schedule.inner_iters"),
    ({"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.01, "mu": -1}},
     "schedule.mu"),
    ({"name": "primal_gd", "schedule": {"source": "explicit", "eta": -1}}, "schedule.eta"),
    ({"name": "pdg", "schedule": {"source": "explicit", "eta1": -0.1, "eta2": 0.1}},
     "schedule.eta1"),
    ({"name": "pdg", "label": ["a"]}, "label"),
    ({"name": "pdg", "schedule": {"source": "grid", "eta1": [0.1, -0.1], "eta2": [0.1]}},
     "schedule.eta1"),
], ids=["inner_iters_zero", "inner_iters_string", "mu_negative", "gd_eta_negative",
        "pdg_eta1_negative", "label_list", "grid_value_negative"])
def test_malformed_solver_entries_exit_1(solver, field, tmp_path, capsys):
    # the entry follows a valid one, which must not run either
    cfg = _write(tmp_path, "cfg.json", {"instance": _SPLIT,
                                        "solvers": [{"name": "pdg"}, solver]})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.solvers[1].{field}:")
    assert not (tmp_path / "o").exists()


def test_grid_rejects_nonpositive_step_values():
    bundle = build_instance(_quad_instance_spec())
    with pytest.raises(ConfigError, match="schedule.eta1: grid values must be positive"):
        grid_search(bundle, "pdg", {"eta1": [0.1, -0.1], "eta2": [0.1]}, budget=10)


def test_reference_solver_failure_exits_1(monkeypatch, tmp_path, capsys):
    from pdsaddle import instances

    def stalled(data, **kwargs):
        raise RuntimeError("Newton refinement stalled at gradient norm 4e-13")

    monkeypatch.setattr(instances, "smoothed_l1_minimizer", stalled)
    cfg = _write(tmp_path, "est.json", {
        "instance": {"family": "smoothed_l1", "n": 20, "d": 5, "seed": 1}})
    assert cli.main(["estimate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Newton refinement stalled")


@pytest.mark.parametrize("flag,value", [
    ("--eta1-scale", "-1"), ("--eta1-scale", "0"), ("--eta2-scale", "-0.5")])
def test_verify_props_rejects_nonpositive_step_scale(flag, value, capsys):
    assert cli.main(["verify", "--suite", "props", "--trials", "1", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag[2:].replace('-', '_')}: must be > 0")
    with pytest.raises(ConfigError, match="eta2_scale"):
        cmd_verify("props", trials=1, eta2_scale=0.0)
