import json
import sys
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
from pdsaddle.solvers import Trace

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
            "stopping": {"tol": 0},
        })
    with pytest.raises(ConfigError, match=r"config\.instance\.family"):
        build_instance({"family": "sudoku"})


def test_readme_config_example_reads():
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiment configs\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    config = ExperimentConfig.from_dict(json.loads(example))
    assert [spec.name for spec in config.solvers] == ["primal_gd", "pdg", "pdsvrg"]


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
        "budget": 200, "stopping": {"tol": 1e-12},
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
        "budget": 150, "stopping": {"tol": 1e-13},
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
        # 12 epochs of 1 + 2 * 20 / 10 = 5 grad-units each
        "budget": 60, "stopping": {"tol": 1e-13},
        "instance": dict(_quad_instance_spec(seed=21, d1=6, d2=6), splits=10),
        "solvers": [{
            "name": "pdsvrg",
            "schedule": {"source": "explicit", "eta1": 0.02, "eta2": 0.02,
                         "inner_iters": 20},
            "repetitions": 5,
        }],
    })
    summary = cmd_solve(config, tmp_path / "out")
    entry = summary["solvers"][0]
    assert entry["repetitions"] == 5
    mean_q = entry["mean_potential_per_epoch"]
    assert len(mean_q) == 13
    assert mean_q[-1] < mean_q[0]


def test_summary_json_is_strict_without_a_potential(tmp_path):
    # primal SVRG records no potential, so its repetitions have no mean
    # potential to write; the summary holds no bare NaN
    config = ExperimentConfig.from_dict({
        # 3 epochs of 1 + 2 * 20 / 10 = 5 grad-units each
        "budget": 15,
        "instance": dict(_quad_instance_spec(seed=21, d1=6, d2=6), splits=10),
        "solvers": [{"name": "primal_svrg", "repetitions": 2,
                     "schedule": {"source": "explicit", "eta1": 0.02}}],
    })
    cmd_solve(config, tmp_path / "out")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "out" / "summary.json").read_text()
    entry = json.loads(text, parse_constant=reject)["solvers"][0]
    assert entry["potential_kind"] is None and entry["repetitions"] == 2
    assert "mean_potential_per_epoch" not in entry
    assert len(entry["mean_dist_x_per_epoch"]) == 4


def test_cmd_solve_deterministic_trace_bytes(tmp_path):
    doc = {
        "seed": 9,
        # 10 pdsvrg epochs of 1 + 2 * 16 / 8 = 5 grad-units each
        "budget": 50, "stopping": {"tol": 1e-13},
        "instance": dict(_quad_instance_spec(seed=2), splits=8),
        "solvers": [
            {"name": "pdg", "schedule": {"source": "theory"}},
            {"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.02,
                                            "eta2": 0.02, "inner_iters": 16}},
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
        "stopping": {"tol": 1e-12},
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
        "budget": 300, "stopping": {"tol": 1e-11},
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
    assert sweep[0] == "eta1,eta2,units_to_target,final_dist_x,status"
    assert len(sweep) == 3
    assert (tmp_path / "g" / "best.json").exists()


# primal GD steps on _quad_instance_spec() whose final dist_x at the budget,
# near the roundoff floor, ranks them in another order than their units to
# the tol
UNITS_GRID = {"eta": [0.1, 0.2, 0.3, 0.4, 0.5]}


def test_cli_grid_picks_the_fewest_units_to_the_tol(tmp_path):
    bundle = build_instance(_quad_instance_spec())
    tol = 1e-8
    _, points = harness._grid_points(bundle, "primal_gd", UNITS_GRID)
    units = {p["eta"]: measure_units_to_target(bundle, "primal_gd", [p], tol,
                                               max_units=400)[0] for p in points}
    fewest = min((u, eta) for eta, u in units.items() if u is not None)
    by_final = grid_search(bundle, "primal_gd", UNITS_GRID, budget=400)["best"]["eta"]
    assert by_final != fewest[1]  # the two rules disagree here

    cfg = _write(tmp_path, "cfg.json", {
        "budget": 400, "stopping": {"tol": tol}, "instance": _quad_instance_spec(),
        "solvers": [{"name": "primal_gd", "schedule": {"source": "grid", **UNITS_GRID}}]})
    assert cli.main(["grid", "--config", cfg, "--out", str(tmp_path / "g")]) == 0
    report = json.loads((tmp_path / "g" / "best.json").read_text())
    assert (report["budget"], report["target"]) == (400, tol)
    best = report["solvers"][0]["best"]
    assert (best["units_to_target"], best["eta"]) == fewest
    rows = (tmp_path / "g" / "sweep_primal_gd.csv").read_text().splitlines()[1:]
    # each point runs capped at the fewest units so far; one that misses the
    # tol within its cap has an empty units_to_target
    assert [row.split(",")[1] for row in rows] == [
        "" if units[eta] is None or units[eta] > fewest[0] else repr(units[eta])
        for eta in [float(row.split(",")[0]) for row in rows]]


def test_cli_grid_takes_the_least_positive_tol(tmp_path):
    # tol * 1e-3 underflows to 0; the sweep's gradient floor stays positive
    cfg = _write(tmp_path, "cfg.json", {
        "budget": 30, "stopping": {"tol": 5e-324}, "instance": _quad_instance_spec(),
        "solvers": [{"name": "primal_gd", "schedule": {"source": "grid", "eta": [0.1, 0.3]}},
                    {"name": "pdg", "schedule": {"source": "grid", "eta1": [0.05],
                                                 "eta2": [0.3]}}]})
    assert cli.main(["grid", "--config", cfg, "--out", str(tmp_path / "g")]) == 0
    report = json.loads((tmp_path / "g" / "best.json").read_text())
    assert report["target"] == 5e-324
    assert [entry["status"] for entry in report["solvers"]] == ["ok", "ok"]


@pytest.mark.slow
def test_cli_grid_on_the_identity_experiment_names_the_to_target_minima(tmp_path):
    out = tmp_path / "g"
    assert cli.main(["grid", "--config", str(CONFIG_DIR / "experiment_identity.json"),
                     "--out", str(out)]) == 0
    best = {e["name"]: e["best"] for e in json.loads((out / "best.json").read_text())["solvers"]}
    assert best["primal_gd"]["eta"] == 0.6825540974755161
    assert (best["pdg"]["eta1"], best["pdg"]["eta2"]) == (0.34127704873775805, 500.0)


def test_cmd_solve_names_only_the_csv_files_it_writes(tmp_path):
    config = ExperimentConfig.from_dict({
        "seed": 0, "budget": 40, "stopping": {"tol": 1e-12},
        "instance": {"family": "random_quadratic", "d1": 4, "d2": 6, "seed": 7},
        "solvers": [{"name": "pdg", "schedule": {"source": "grid", "eta1": [1e4],
                                                 "eta2": [1e4]}},
                    {"name": "primal_gd"}]})
    summary = cmd_solve(config, tmp_path / "out")
    pdg, gd = summary["solvers"]
    assert pdg["status"] == "diverged" and "csv" not in pdg
    assert gd["status"] == "ok"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [gd["csv"], "summary.json"]


def _split_pdsvrg_config(seed, repetitions):
    return ExperimentConfig.from_dict({
        "seed": seed, "budget": 400, "stopping": {"tol": 1e-12},
        "instance": {"family": "random_quadratic", "d1": 4, "d2": 6, "seed": 7, "splits": 6},
        "solvers": [{"name": "pdsvrg", "repetitions": repetitions,
                     "schedule": {"source": "explicit", "eta1": 0.35, "eta2": 0.35,
                                  "inner_iters": 12}}]})


@pytest.mark.parametrize("repetitions, status, seed", [(6, "diverged", 2), (1, "ok", None)])
def test_cmd_solve_names_the_seed_whose_repetition_diverged(repetitions, status, seed,
                                                             tmp_path):
    entry = cmd_solve(_split_pdsvrg_config(0, repetitions), tmp_path / "out")["solvers"][0]
    assert (entry["status"], entry.get("seed")) == (status, seed)
    if repetitions == 1:
        return
    # every seed runs: the CSV is seed 2's partial trace, and the means are
    # over the five seeds that ran to the budget, each as it runs alone
    assert entry["diverged_seeds"] == [2] and entry["repetitions"] == 5
    rows = np.genfromtxt(tmp_path / "out" / entry["csv"], delimiter=",", names=True)
    assert len(rows) == entry["rows"] == 57
    alone = []
    for s in (0, 1, 3, 4, 5):
        one = cmd_solve(_split_pdsvrg_config(s, 1), tmp_path / f"seed{s}")["solvers"][0]
        assert one["status"] == "ok" and one["rows"] == 81
        alone.append(np.genfromtxt(tmp_path / f"seed{s}" / one["csv"], delimiter=",",
                                   names=True))
    for key, col in (("mean_dist_x_per_epoch", "dist_x"),
                     ("mean_potential_per_epoch", "potential")):
        np.testing.assert_array_equal(entry[key], np.mean([r[col] for r in alone], axis=0))


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
    assert report["iters"] == 300  # the suite's own step count


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
    report = cmd_verify("svrg_halving", trials=1, seed=42)
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


def test_cmd_estimate_reports_the_component_bound_of_a_split_instance():
    spec = dict(_quad_instance_spec(), splits=9)
    report = cmd_estimate(spec)
    assert report["status"] == "ok"
    assert report["M"] == build_instance(spec).fsp.M


# a wide coupling: rank(A) < d1
_RANK_DEFICIENT = {"family": "quadratic", "data": {
    "family": "quadratic", "B": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0],
    "A": [[1.0, 1.0]], "C": [[0.5]], "c": [0.0]}}


def test_cmd_estimate_rank_deficient_diagnostic():
    # the same ConfigError solve and grid raise, with the paper's reason
    with pytest.raises(ConfigError, match=r"^config\.instance: coupling matrix must have "
                                          r"full column rank \(linear convergence needs "
                                          r"rank\(A\) = d1\)"):
        cmd_estimate(_RANK_DEFICIENT)


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("experiment_*.json")), ids=lambda p: p.name)
def test_shipped_experiment_instances_build(path):
    # experiment_decay2.json is the exp_decay(2), seed-11 instance whose
    # reference once stalled above tol
    config = ExperimentConfig.load(path)
    bundle = build_instance(config.instance)
    assert np.all(np.isfinite(bundle.x_star))
    assert bundle.meta["reference_residual"] <= 1e-13
    # the grids are criterion 7's search space: multiples of 1/gamma for the
    # batch solvers and of 1/M^2 for pdsvrg, on the config's own instance
    p = bundle.problem.params
    gamma = p.rho + p.sigma_max**2 / p.alpha
    n, big_m = bundle.fsp.n, bundle.fsp.M
    want = {
        "primal_gd": {"eta": [s / gamma for s in (0.5, 0.8, 1.2, 1.5, 1.8, 1.95)]},
        "pdg": {"eta1": [s / gamma for s in (0.2, 0.35, 0.5, 0.7, 0.9, 1.1)],
                "eta2": [n / 2, n]},
        "pdsvrg": {"eta1": [c / big_m**2 for c in (0.15, 0.3, 0.6)],
                   "eta2": [0.5, 1.0], "inner_iters": [2 * n]},
    }
    grids = {spec.name: spec.schedule for spec in config.solvers}
    assert sorted(grids) == sorted(want)
    for name, grid in want.items():
        assert grids[name] == {"source": "grid", **{k: pytest.approx(v, rel=1e-12, abs=0)
                                                     for k, v in grid.items()}}, name


def test_cli_end_to_end(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "budget": 120, "stopping": {"tol": 1e-12},
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


def test_cmd_solve_mspbe_generated_and_pinned(tmp_path):
    from pdsaddle.instances import instance_to_json, random_mspbe
    pinned = {"family": "mspbe", "normalize": True,
              "data": instance_to_json(random_mspbe(30, 4, seed=2))}
    for k, instance in enumerate([{"family": "mspbe", "n": 30, "d": 4, "seed": 2},
                                  pinned]):
        config = ExperimentConfig.from_dict({
            "budget": 300, "stopping": {"tol": 1e-9}, "instance": instance,
            "solvers": [{"name": "pdg"}, {"name": "primal_gd"}]})
        summary = cmd_solve(config, tmp_path / f"out{k}")
        assert summary["instance"]["family"] == "mspbe"
        for entry in summary["solvers"]:
            # runs start at the origin, so the reference norm is the initial distance
            assert entry["status"] == "ok" and entry["rows"] > 1
            assert entry["final_dist_x"] < summary["instance"]["reference_norm"]


def test_pinned_smoothed_l1_data_builds_as_its_generator():
    from pdsaddle.instances import instance_to_json, make_smoothed_l1
    spec = {"family": "smoothed_l1", "n": 40, "d": 6, "seed": 3}
    data = make_smoothed_l1(40, 6, seed=3)
    generated = build_instance(spec)
    pinned = build_instance({"family": "smoothed_l1", "data": instance_to_json(data)})
    assert np.array_equal(pinned.x_star, generated.x_star)
    assert pinned.meta == generated.meta
    assert pinned.fsp.M == generated.fsp.M


@pytest.mark.parametrize("instance,message", [
    ({"family": "smoothed_l1", "n": 20, "d": 4, "seed": 1},
     "sc schedule needs a quadratic instance"),
    # seed 0 draws a linear f: no strong convexity
    ({"family": "random_quadratic", "d1": 3, "d2": 4, "seed": 0},
     "sc schedule needs strongly convex f"),
], ids=["smoothed_l1", "f_not_strongly_convex"])
def test_sc_variant_needs_a_strongly_convex_quadratic(instance, message, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "instance": instance,
        "solvers": [{"name": "pdg", "schedule": {"source": "theory", "variant": "sc"}}]})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"config error: config.solvers[0].schedule.variant: "
                                       f"{message}\n")


def test_sc_variant_error_leaves_no_output(tmp_path, capsys):
    # the pdg entry before it would run and write its CSV if the theory
    # points were taken entry by entry
    cfg = _write(tmp_path, "cfg.json", {
        "instance": {"family": "random_quadratic", "seed": 1},
        "solvers": [{"name": "pdg"},
                    {"name": "pdg", "schedule": {"source": "theory", "variant": "sc"}}]})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("config error: config.solvers[1].schedule.variant: "
                                       "sc schedule needs strongly convex f\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,instance,entries", [
    ("solve", {"family": "mspbe", "n": 30, "d": 4, "seed": 2},
     [{"name": "pdg"},
      {"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.01}}]),
    ("grid", _quad_instance_spec(),
     [{"name": "pdg", "schedule": {"source": "grid", "eta1": [0.1], "eta2": [0.1]}},
      {"name": "pdsvrg", "schedule": {"source": "grid", "eta1": [0.01], "eta2": [0.01]}}]),
], ids=["solve", "grid"])
def test_missing_finite_sum_leaves_no_output(tmp_path, capsys, command, instance, entries):
    # the entry before the stochastic one would run and write its file if
    # the finite sums were looked up entry by entry
    cfg = _write(tmp_path, "cfg.json", {"instance": instance, "budget": 20,
                                        "solvers": entries})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"config error: config.instance: family {instance['family']!r} provides no "
        f"finite-sum form (fsp) for a stochastic solver\n")
    assert not (tmp_path / "o").exists()


def test_grid_without_grid_entries_exits_before_building(tmp_path, capsys, monkeypatch):
    def no_build(spec):
        raise AssertionError("instance built")

    monkeypatch.setattr(harness, "build_instance", no_build)
    cfg = _write(tmp_path, "cfg.json", {"instance": _quad_instance_spec(),
                                        "solvers": [{"name": "pdg"}]})
    assert cli.main(["grid", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("config error: config.solvers: no entry has "
                                       "schedule source 'grid'\n")
    assert not (tmp_path / "o").exists()


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
        "seed": 4, "budget": 80, "stopping": {"tol": 1e-12},
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
        "budget": 40, "stopping": {"tol": 1e-12},
        "instance": _split_spec(),
        "solvers": [
            {"name": "pdg", "schedule": {"source": "theory"}},
            {"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.02}},
        ],
    })
    cmd_solve(config, tmp_path / "out")
    assert calls == {k: v + 1 for k, v in before.items()}


def test_batch_to_target_runs_end_at_the_target_row(monkeypatch):
    # a to-target run stops at the row units_to_target reads, not deeper
    traces = []
    for name in ("run_pdg", "run_primal_gd"):
        def keeping(*args, _original=getattr(harness, name), **kwargs):
            traces.append(_original(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(harness, name, keeping)

    bundle = build_instance(_split_spec())
    target = 1e-4
    for solver in ("pdg", "primal_gd"):
        del traces[:]
        result = grid_search(bundle, solver, SMALL_GRIDS[solver], budget=5000, target=target)
        units = result["best"]["units_to_target"]
        reached = [t for t in traces if t.units_to_target(target) is not None]
        assert units is not None and reached
        for trace in reached:
            assert trace.grad_evals[-1] == trace.units_to_target(target)
            assert trace.dist_x[-1] <= target < min(trace.dist_x[:-1])


# three points per solver that all reach 1e-4 on _split_spec() within 5000 units
WIDE_GRIDS = {
    "pdg": {"eta1": [0.02, 0.035, 0.05], "eta2": [0.3]},
    "primal_gd": {"eta": [0.1, 0.2, 0.3]},
    "pdsvrg": {"eta1": [0.01, 0.02, 0.03], "eta2": [0.02]},
    "primal_svrg": {"eta1": [0.01, 0.025, 0.04]},
}


def _units_to_target_past_the_target(bundle, solver, ranked, target, *, max_units, seed):
    """measure_units_to_target with one tolerance per run: a batch row runs
    on until dist_x or its gradient norm is <= target * 1e-3, a stochastic
    one until dist_x <= 0.99 * target."""
    entry = harness.SOLVERS[solver]
    tol = target * 1e-3 if entry.form is None else 0.99 * target
    for row in ranked:
        if row.get("status", "ok") != "ok":
            continue
        point = {k: row[k] for k in entry.keys if k in row}
        try:
            trace, _ = harness._run_point(bundle, solver, point, cap=max_units, tol=tol,
                                          seed=seed)
        except harness.DivergenceError:
            continue
        units = trace.units_to_target(target)
        if units is not None:
            return units, point
    return None, None


# the walk at two solver seeds, over a grid's ranking and its reverse
@pytest.mark.differential
@pytest.mark.parametrize("order", ["ranked", "reversed"])
@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("solver", sorted(harness.SOLVERS))
def test_units_to_target_match_runs_past_the_target(solver, seed, order):
    bundle = build_instance(_split_spec())
    ranked = grid_search(bundle, solver, WIDE_GRIDS[solver], budget=40, seed=1)["ranked"]
    if order == "reversed":
        ranked = ranked[::-1]  # the slowest point first
    for target in (1e-4, 1e-6):
        got = measure_units_to_target(bundle, solver, ranked, target, max_units=5000,
                                      seed=seed)
        assert got[0] is not None
        assert got == _units_to_target_past_the_target(
            bundle, solver, ranked, target, max_units=5000, seed=seed)


# stochastic grids with an epoch-length axis: at the loose target 0.5 one
# epoch of 240 inner steps (41 grad-units) reaches it, past the cap that a
# 12-step point's few units set
EPOCH_GRIDS = {
    "pdsvrg": {"eta1": [0.01, 0.03], "eta2": [0.02], "inner_iters": [12, 240]},
    "primal_svrg": {"eta1": [0.01, 0.04], "inner_iters": [12, 240]},
}


@pytest.mark.differential
@pytest.mark.parametrize("solver, grid", [
    *(pytest.param(s, WIDE_GRIDS[s], id=s) for s in sorted(harness.SOLVERS)),
    *(pytest.param(s, g, id=f"{s}-epochs") for s, g in EPOCH_GRIDS.items())])
def test_tune_to_target_is_the_grid_minimum(solver, grid):
    # the oracle ignores the visiting order: every point alone to max_units,
    # the least units, ties to the earliest point in key order
    bundle = build_instance(_split_spec())
    _, points = harness._grid_points(bundle, solver, grid)
    for target in (0.5, 1e-4, 1e-6):
        runs = [_units_to_target_past_the_target(bundle, solver, [p], target,
                                                 max_units=5000, seed=0) for p in points]
        want = min((r for r in runs if r[0] is not None), key=lambda r: r[0])
        best = grid_search(bundle, solver, grid, budget=5000, target=target)["best"]
        assert (best["units_to_target"], {k: best[k] for k in want[1]}) == want


def test_tune_to_target_caps_each_point_and_keeps_the_earliest_tie(monkeypatch):
    # fake runs: units to the target per eta (None: misses it); the search
    # visits the largest eta first.  A run may reach the target past its cap,
    # as a stochastic run's one epoch can: 0.05 must not replace 0.1
    units = {0.05: 80.0, 0.1: 30.0, 0.2: 30.0, 0.3: None, 0.4: 50.0, 0.5: 60.0}
    caps = []

    def fake(bundle, solver, point, *, cap, tol, dist_tol=None, seed=0):
        caps.append((point["eta"], cap))
        trace = Trace()
        reached = units[point["eta"]]
        if reached is None:
            trace.extend([0], [0.0], 0.0, dist_x=[1.0])
        else:
            trace.extend([0, 1], [0.0, reached], 0.0, dist_x=[1.0, dist_tol])
        return trace, point

    monkeypatch.setattr(harness, "_run_point", fake)
    bundle = build_instance(_quad_instance_spec())
    result = grid_search(bundle, "primal_gd", {"eta": sorted(units)}, budget=1000, target=1e-6)
    assert (result["best"]["eta"], result["best"]["units_to_target"]) == (0.1, 30.0)
    assert caps == [(0.5, 1000), (0.4, 60.0), (0.3, 50.0), (0.2, 50.0), (0.1, 30.0),
                    (0.05, 30.0)]
    # reached points by units, ties in key order, then the miss
    assert [r["eta"] for r in result["ranked"]] == [0.1, 0.2, 0.4, 0.5, 0.05, 0.3]
    missed = grid_search(bundle, "primal_gd", {"eta": [0.3]}, budget=1000, target=1e-6)
    assert missed["status"] == "ok" and missed["best"]["units_to_target"] is None


# WIDE_GRIDS with a step that diverges within the budget below
DIVERGING_GRIDS = {solver: {key: values + [1e3] if key in ("eta", "eta1") else values
                            for key, values in grid.items()}
                   for solver, grid in WIDE_GRIDS.items()}


@pytest.mark.differential
@pytest.mark.parametrize("solver", sorted(harness.SOLVERS))
def test_grid_search_without_a_target_ranks_by_final_dist_x(solver):
    # the oracle: every point alone to the whole budget, sorted stably by
    # final dist_x over the points in key order
    bundle = build_instance(_split_spec())
    entry = harness.SOLVERS[solver]
    _, points = harness._grid_points(bundle, solver, DIVERGING_GRIDS[solver])
    want = []
    for point in points:
        row = dict(point, units_to_target=None)
        stop = harness.StoppingRule(max_iters=40, tol=1e-300)
        try:
            if entry.form is None:
                trace = getattr(harness, entry.runner)(bundle.problem, **point, stop=stop,
                                                       x_star=bundle.x_star)
            else:
                fsp = bundle.finite_sum(entry.form)
                full = harness._filled(point, fsp.n)
                epochs = int(40 / (1.0 + 2.0 * full["inner_iters"] / fsp.n))
                cfg = harness.SvrgConfig(seed=1, epochs=epochs, **full)
                trace = getattr(harness, entry.runner)(fsp, cfg=cfg, x_star=bundle.x_star,
                                                       stop=stop)
            row.update(final_dist_x=trace.final_dist_x(), status="ok")
        except harness.DivergenceError as exc:
            row.update(final_dist_x=float("inf"), status="diverged", error=str(exc))
        want.append(row)
    want.sort(key=lambda row: row["final_dist_x"])
    result = grid_search(bundle, solver, DIVERGING_GRIDS[solver], budget=40, seed=1)
    assert result["ranked"] == want
    assert result["best"] == want[0]
    assert [row["status"] for row in want].count("diverged") == 1


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
    # the budget alone sets a stochastic run's epochs
    ({"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.01, "epochs": 50}},
     "schedule.epochs"),
], ids=["inner_iters_zero", "inner_iters_string", "mu_negative", "gd_eta_negative",
        "pdg_eta1_negative", "label_list", "grid_value_negative", "explicit_epochs"])
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


@pytest.mark.parametrize("flag", ["--eta1-scale", "--eta2-scale"])
def test_verify_props_rejects_an_infinite_step_scale(flag, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["verify", "--suite", "props", "--trials", "1", flag, "inf", "--out", str(report)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == f"config error: {flag[2:].replace('-', '_')}: must be > 0 and finite, got inf\n"
    assert out == "" and not report.exists()


@pytest.mark.parametrize("suite", ["contraction", "sc_contraction", "svrg_halving"])
@pytest.mark.parametrize("flag", ["--eta1-scale", "--eta2-scale"])
def test_verify_step_scale_on_a_suite_without_scales_exits_1(suite, flag, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["verify", "--suite", suite, "--trials", "1", flag, "5", "--out", str(report)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == f"config error: {flag}: the {suite} suite takes no step scale\n"
    assert out == "" and not report.exists()


_QUAD = {"family": "random_quadratic", "d1": 3, "d2": 4}
_SVRG = {"name": "pdsvrg", "schedule": {"source": "explicit", "eta1": 0.01}}
_PDG_GRID = {"name": "pdg", "schedule": {"source": "grid", "eta1": [0.1], "eta2": [0.1]}}


def _doc(instance=_QUAD, solvers=({"name": "pdg"},), **top):
    return {"instance": instance, "solvers": list(solvers),
            "budget": 20, **top}


def _grid_svrg(**grid):
    return {"name": "pdsvrg", "schedule": {"source": "grid", "eta1": [0.01],
                                           "eta2": [0.01], **grid}}


# a valid pinned smoothed-L1 document, and that document with one field replaced
_L1_DATA = {"family": "smoothed_l1", "A": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            "b": [1.0, 2.0, 0.5], "a": 10.0, "lambda_reg": 0.1}


def _pinned_l1(**fields):
    return {"family": "smoothed_l1", "data": dict(_L1_DATA, **fields)}


@pytest.mark.parametrize("doc,path", [
    (_doc({"family": "random_quadratic", "d1": True}), "config.instance.d1"),
    (_doc({"family": "smoothed_l1", "n": 0, "d": 3}), "config.instance.n"),
    (_doc(_SPLIT, [_SVRG], budget=float("inf")), "config.budget"),
    (_doc(solvers=[{"name": "pdg", "repetitions": True}]), "config.solvers[0].repetitions"),
    (_doc(seed=True), "config.seed"),
    (_doc(budget=True), "config.budget"),
    (_doc(solvers=[{"name": "pdg", "schedule": {"variant": "SC"}}]),
     "config.solvers[0].schedule.variant"),
    (_doc(solvers=[{"name": "primal_gd", "schedule": {"variant": "sc"}}]),
     "config.solvers[0].schedule.variant"),
    (_doc(_SPLIT, [{"name": "pdsvrg", "schedule": {"variant": "sc"}}]),
     "config.solvers[0].schedule.variant"),
    (dict(_doc(), stoping={"tol": 1e-9}), "config.stoping"),
    (_doc(solvers=[{"name": "pdg", "schedule": {"source": "theory", "eta": 1}}]),
     "config.solvers[0].schedule.eta"),
    (_doc(_SPLIT, [_grid_svrg(epochs=[-3])]), "config.solvers[0].schedule.epochs"),
    (_doc(solvers=[{"name": "pdg"}, {"name": "pdg", "schedule": {"source": "grid",
                                                                 "eta1": [0.1]}}]),
     "config.solvers[1].schedule.eta2"),
    (_doc(_SPLIT, [_grid_svrg(inner_iters=[6.5])]), "config.solvers[0].schedule.inner_iters"),
    (_doc({"family": "quadratic", "path": 5}), "config.instance.path"),
    (_doc({"family": "smoothed_l1", "n": 10, "d": 3, "density": 2}), "config.instance.density"),
    (_doc(solvers=[{"name": "primal_gd", "schedule": {"source": "explicit",
                                                      "eta": float("inf")}}]),
     "config.solvers[0].schedule.eta"),
    (_doc({"family": "mspbe", "data": {"family": "quadratic", "B": [[0.0]], "b": [0.0],
                                       "A": [[1.0]], "C": [[0.5]], "c": [0.0]}}),
     "config.instance.data.family"),
    (_doc(solvers=[{"name": "pdg", "label": "../escaped"}]), "config.solvers[0].label"),
    (_doc(_pinned_l1(a=True)), "config.instance.data.a"),
    (_doc(_pinned_l1(lambda_reg=float("inf"))), "config.instance.data.lambda_reg"),
    (_doc(_pinned_l1(A=[[1.0, 0.0], [0.0, float("nan")], [1.0, 1.0]])),
     "config.instance.data.A"),
    (_doc({**_pinned_l1(), "path": "elsewhere.json"}), "config.instance.path"),
    (_doc(solvers=[{"name": "pdg", "repetitions": 5}]), "config.solvers[0].repetitions"),
    (_doc({"family": "smoothed_l1", "n": 10, "d": 3, "decay": 2}), "config.instance.decay"),
    (_doc({"family": "random_quadratic", "d1": 9, "d2": 4}), "config.instance.d2"),
], ids=["d1_bool", "n_zero", "budget_inf", "repetitions_bool", "seed_bool", "budget_bool",
        "variant_case", "variant_on_primal_gd", "variant_on_pdsvrg", "misspelt_stopping",
        "eta_in_theory", "epochs_in_grid", "grid_missing_eta2", "grid_inner_iters_fraction",
        "path_int", "density_above_1", "eta_inf", "pinned_family_mismatch",
        "label_escapes_out_dir", "pinned_sharpness_bool", "pinned_lambda_inf",
        "pinned_entry_nan", "data_and_path", "repetitions_on_batch_entry",
        "decay_without_exp_decay", "d1_above_d2"])
def test_malformed_documents_exit_1_before_any_output(doc, path, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc,argv,path", [
    (_doc(solvers=[_PDG_GRID]), ["grid", "--budget", "inf"], "config.budget"),
    (_doc(solvers=[_PDG_GRID]), ["grid", "--budget", "nan"], "config.budget"),
    (_doc(solvers=[_PDG_GRID]), ["grid", "--budget", "-5"], "config.budget"),
    (_doc(solvers=[_PDG_GRID]), ["grid", "--seed", "-1"], "config.seed"),
    (_doc(_SPLIT, [_SVRG]), ["solve", "--seed", "-1"], "config.seed"),
], ids=["grid_budget_inf", "grid_budget_nan", "grid_budget_negative", "grid_seed_negative",
        "solve_seed_negative"])
def test_cli_flags_are_checked_as_config_fields(doc, argv, path, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", doc)
    command, *flags = argv
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc,command,least", [
    (_doc(solvers=[{"name": "pdg"}], budget=0.5), "solve", "one step of pdg (1.0"),
    (_doc(_SPLIT, [_SVRG], budget=4.9), "solve", "one epoch of pdsvrg (5.0"),
    (_doc(_SPLIT, [{"name": "primal_svrg", "schedule": {"source": "explicit", "eta1": 0.01,
                                                        "inner_iters": 30}}], budget=5),
     "solve", "one epoch of primal_svrg (6.0"),
    # a grid is refused at its longest epoch, though a shorter one fits
    (_doc(_SPLIT, [_grid_svrg(inner_iters=[6, 60])], budget=10), "grid",
     "one epoch of pdsvrg (11.0"),
], ids=["pdg_half_step", "pdsvrg_default_epoch", "primal_svrg_explicit_epoch",
        "pdsvrg_grid_longest_epoch"])
def test_budget_below_one_step_or_epoch_exits_1_before_any_output(doc, command, least,
                                                                  tmp_path, capsys):
    # such a run used to take one step or epoch anyway, past its budget
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.budget: must cover {least} grad-units)")
    assert not (tmp_path / "o").exists()
    doc["budget"] = float(least.split("(")[1])  # exactly one epoch or step runs
    cfg = _write(tmp_path, "cfg.json", doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_cli_flags_override_the_document(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _doc(solvers=[_PDG_GRID], budget=7, seed=1))
    assert ExperimentConfig.load(cfg, seed=None, budget=None).budget == 7.0
    config = ExperimentConfig.load(cfg, seed=3, budget=12.0)
    assert (config.seed, config.budget) == (3, 12.0)
    assert cli.main(["grid", "--config", cfg, "--out", str(tmp_path / "g"),
                     "--budget", "12"]) == 0
    assert json.loads((tmp_path / "g" / "best.json").read_text())["budget"] == 12.0


def test_verify_rejects_a_negative_seed(capsys):
    assert cli.main(["verify", "--suite", "contraction", "--trials", "1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("config error: seed: must be >= 0")


def test_estimate_rejects_a_non_object_document(tmp_path, capsys):
    cfg = _write(tmp_path, "est.json", [1, 2])
    assert cli.main(["estimate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: config.instance: expected dict")


_DEEP = "[" * 995 + "]" * 995

# every fault in what the CLI reads, run through each command that reads it:
# (name, commands, config document (None: no file; a str: its text), extra
# flags, the field path of the error)
_READERS = ("solve", "grid", "estimate")
_INPUT_FAULTS = [
    ("missing_file", _READERS, None, [], "--config"),
    ("invalid_json", _READERS, "{not json", [], "--config"),
    ("missing_path", _READERS, _doc({"family": "quadratic", "path": "absent.json"},
                                    [_PDG_GRID]), [], "config.instance.path"),
    ("unknown_data_field", _READERS, _doc(_pinned_l1(lamda_reg=5.0), [_PDG_GRID]), [],
     "config.instance.data.lamda_reg"),
    ("unknown_path_field", _READERS, _doc({"family": "smoothed_l1", "path": "l1.json"},
                                          [_PDG_GRID]), [], "config.instance.path.lamda_reg"),
    # JSON nested past the recursion limit, as the config and as a document
    ("deep_json", _READERS, _DEEP, [], "--config"),
    ("deep_path", _READERS, _doc({"family": "smoothed_l1", "path": "deep.json"},
                                 [_PDG_GRID]), [], "config.instance.path"),
    ("rank_deficient", _READERS, _doc(_RANK_DEFICIENT, [_PDG_GRID]), [], "config.instance"),
    ("d2_above_default", _READERS, _doc({"family": "random_quadratic", "d1": 21},
                                        [_PDG_GRID]), [], "config.instance.d2"),
    # a missing d1 is drawn from [2, 12]: d2 5 is refused at every seed
    ("d2_below_default", _READERS, _doc({"family": "random_quadratic", "d2": 5, "seed": 0},
                                        [_PDG_GRID]), [], "config.instance.d2"),
    ("no_grid_entry", ("grid",), _doc(), [], "config.solvers"),
    ("bad_flag", ("solve", "grid", "verify"), _doc(solvers=[_PDG_GRID]), ["--seed", "abc"],
     "--seed"),
    ("bad_trials", ("verify",), None, ["--trials", "abc"], "--trials"),
    ("unknown_flag", ("estimate",), _doc(), ["--budget", "5"], "pdsaddle"),
    ("no_flags", _READERS, None, None, "pdsaddle {command}"),
]


@pytest.mark.parametrize("command,doc,flags,path", [
    pytest.param(command, doc, flags, path, id=f"{name}-{command}")
    for name, commands, doc, flags, path in _INPUT_FAULTS for command in commands])
def test_input_faults_exit_1_with_a_config_error(command, doc, flags, path, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "l1.json", dict(_L1_DATA, lamda_reg=5.0))
    (tmp_path / "deep.json").write_text(_DEEP)
    if isinstance(doc, str):
        (tmp_path / "cfg.json").write_text(doc)
    elif doc is not None:
        _write(tmp_path, "cfg.json", doc)
    source = ["--suite", "contraction"] if command == "verify" else ["--config", "cfg.json"]
    argv = [command] if flags is None else [command, *source, *flags, "--out", "o"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {path.format(command=command)}: "), err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


# a valid pinned document of every family that has one
_DOCUMENTS = {
    "quadratic": {"family": "quadratic", "B": [[0.0]], "b": [0.0], "A": [[1.0]],
                  "C": [[0.5]], "c": [0.0]},
    "smoothed_l1": _L1_DATA,
    "mspbe": {"family": "mspbe", "phi": [[1.0], [0.5]], "phi_next": [[0.5], [1.0]],
              "rewards": [1.0, 0.0], "gamma": 0.9},
}


def _document_faults():
    """(id, family, broken document, field) for each field of each family's
    pinned document, dropped or given a value of another JSON type, and for
    an unknown field."""
    for family, doc in _DOCUMENTS.items():
        fields = {"family": harness._Field(str), **harness._FAMILIES[family].document_fields}
        yield f"{family}-unknown", family, dict(doc, zz_unknown=1), "zz_unknown"
        for key, field in fields.items():
            yield f"{family}-{key}-missing", family, {k: doc[k] for k in doc if k != key}, key
            wrong = 5 if field.kind is str else "x" if field.kind == harness._ARRAY else "1"
            yield f"{family}-{key}-wrong_type", family, dict(doc, **{key: wrong}), key


def test_every_family_with_a_document_has_a_valid_one():
    assert sorted(_DOCUMENTS) == sorted(name for name, record in harness._FAMILIES.items()
                                        if record.document is not None)
    for family, doc in _DOCUMENTS.items():
        assert build_instance({"family": family, "data": doc}).family == family


@pytest.mark.parametrize("family,doc,field", [
    pytest.param(*case, id=name) for name, *case in _document_faults()])
def test_pinned_document_faults_exit_1_at_their_field(family, doc, field, tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _doc({"family": family, "data": doc}))
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.instance.data.{field}: "), err
    assert not (tmp_path / "o").exists()


def test_array_fields_are_walked_without_recursion():
    deep = [float("nan")]
    for _ in range(5 * sys.getrecursionlimit()):
        deep = [deep]
    with pytest.raises(ConfigError, match=r"^config\.instance\.data\.A: must be a nested "
                                          r"list of finite numbers, got nan"):
        build_instance(_pinned_l1(A=deep))


# an --out that cannot be written: a report file in a missing directory, an
# output directory under a file
@pytest.mark.parametrize("command,out,where", [
    ("verify", "/nonexistent/r.json", "no directory '/nonexistent'"),
    ("estimate", "/nonexistent/r.json", "no directory '/nonexistent'"),
    ("solve", "cfg.json/o", "no directory '{tmp}/cfg.json'"),
    ("grid", "cfg.json/o", "no directory '{tmp}/cfg.json'"),
], ids=["verify", "estimate", "solve", "grid"])
def test_unwritable_out_exits_1_before_any_work(command, out, where, tmp_path,
                                                monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError(f"cmd_{command} ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, f"cmd_{command}", ran)
    _write(tmp_path, "cfg.json", _doc(solvers=[_PDG_GRID]))
    source = (["--suite", "contraction", "--trials", "20"] if command == "verify"
              else ["--config", "cfg.json"])
    assert cli.main([command, *source, "--out", out]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"config error: --out: {where.format(tmp=tmp_path)}\n"


def test_out_directory_is_made_under_its_nearest_existing_ancestor(tmp_path):
    cfg = str(CONFIG_DIR / "demo_quadratic.json")
    out = tmp_path / "a" / "b"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    report = tmp_path / "r.json"
    assert cli.main(["estimate", "--config", cfg, "--out", str(report)]) == 0
    assert json.loads(report.read_text())["status"] == "ok"


def _pinned_quadratic(coupling):
    return {"family": "quadratic", "data": {"family": "quadratic", "B": [[0.0]], "b": [0.0],
                                            "A": [[coupling]], "C": [[0.5]], "c": [0.0]}}


# finite instances whose curvature constants break the theory formulas: the
# rate rounds to 1, sigma_min^4 overflows, sigma_min^2 underflows to 0
_EXTREME_INSTANCES = {
    "rate_rounds_to_1": {"family": "smoothed_l1", "n": 5, "d": 2, "a": 1e300, "seed": 1},
    "coupling_1e150": _pinned_quadratic(1e150),
    "coupling_1e-200": _pinned_quadratic(1e-200),
}


@pytest.mark.parametrize("command", ["estimate", "solve"])
@pytest.mark.parametrize("instance", sorted(_EXTREME_INSTANCES))
def test_extreme_curvature_constants_exit_1_before_any_output(instance, command, tmp_path,
                                                             capsys):
    cfg = _write(tmp_path, "cfg.json", _doc(_EXTREME_INSTANCES[instance]))
    out_dir = tmp_path / "o"
    extra = ["--out", str(out_dir)] if command == "solve" else []
    assert cli.main([command, "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.instance: no theory step"), err
    assert not out_dir.exists()


def test_verify_report_stays_strict_json_when_a_potential_underflows(monkeypatch, capsys):
    def underflowing(fsp, cfg, x_star):
        trace = Trace("Q_t")
        for k, pot in enumerate([1e-320, 1.0]):
            trace.extend([k], [float(k)], 0.0, potential=[pot])
        return trace

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    monkeypatch.setattr(harness, "run_pdsvrg", underflowing)
    assert cli.main(["verify", "--suite", "svrg_halving", "--trials", "1"]) == 2
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    tried = report["results"][0]["tried"]
    assert tried and all(point["max_ratio"] is None for point in tried)


def test_direct_grid_search_reads_the_grid_through_the_schema():
    bundle = build_instance(_quad_instance_spec())
    with_source = grid_search(bundle, "pdg", {"source": "grid", "eta1": [0.05],
                                               "eta2": [0.3]}, budget=10)
    assert with_source["ranked"] == grid_search(bundle, "pdg", {"eta1": [0.05],
                                                                "eta2": [0.3]},
                                                budget=10)["ranked"]
    for grid, path in [({"eta1": [0.05]}, "schedule.eta2"),
                       ({"eta1": [0.05], "eta2": [True]}, "schedule.eta2"),
                       ({"eta1": [0.05], "eta2": [0.3], "mu": [1.0]}, "schedule.mu")]:
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            grid_search(bundle, "pdg", grid, budget=10)


def test_svrg_halving_searches_longer_epochs():
    # trial 75 of the default run (seed 0): no point up to N = 8n halves
    # every epoch, N = 16n at the largest step does
    report = cmd_verify("svrg_halving", trials=1, seed=17 * 75)
    assert not report["refuted"]
    found = report["results"][0]["config"]
    assert found["inner_iters"] == 16 * report["n"] and found["max_mean_ratio"] <= 0.5
