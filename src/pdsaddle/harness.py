"""Experiment harness: JSON-configured solver runs, certificate suites,
step-size grid search, and parameter estimation.

Commands (exposed through the CLI):

* solve    -- run the configured solvers on an instance, write one trace CSV
              per solver plus a JSON summary with final distances and the
              fitted log10(dist_x)-vs-grad-units slope.
* verify   -- sample random instances and check the contraction certificates
              (potential decrease, step-to-step inequalities, or the
              epoch-halving property of the stochastic solver).
* grid     -- sweep step-size grids to a fixed grad-unit budget and pick the
              best-performing point.
* estimate -- report the curvature constants of an instance and the
              theoretical schedule they imply.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import instances as inst_mod
from .problems import Iterate, SaddleProblem, conj_grad, grad_primal
# the four runners are module globals that SOLVERS names
from .solvers import (
    DivergenceError,
    StoppingRule,
    pdg_step,
    reference_solution,
    run_pdg,
    run_primal_gd,
)
from .svrg import (
    DenseSum,
    RowSum,
    SvrgConfig,
    default_svrg_config,
    run_pdsvrg,
    run_primal_svrg,
)
from .theory import ghost_step, pdg_schedule, primal_step, sc_schedule

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "InstanceBundle",
    "build_instance",
    "fitted_slope",
    "cmd_solve",
    "cmd_verify",
    "cmd_grid",
    "cmd_estimate",
    "grid_search",
    "measure_units_to_target",
]


@dataclass(frozen=True)
class SolverEntry:
    """How the harness runs one solver: the step parameters a grid sweeps
    (in sweep order), the InstanceBundle field holding the finite sum it runs
    on (None: the aggregate problem), and the name of the module global that
    runs it, looked up at call time so that a wrapper installed on this
    module sees every run."""

    keys: tuple[str, ...]
    form: str | None
    runner: str


SOLVERS = {
    "pdg": SolverEntry(("eta1", "eta2"), None, "run_pdg"),
    "primal_gd": SolverEntry(("eta",), None, "run_primal_gd"),
    "pdsvrg": SolverEntry(("eta1", "eta2", "inner_iters", "mu"), "fsp", "run_pdsvrg"),
    "primal_svrg": SolverEntry(("eta1", "inner_iters"), "primal_fsp", "run_primal_svrg"),
}


class ConfigError(ValueError):
    """Configuration problem, reported as '<path>: <message>'."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _get(doc: dict, key: str, path: str, kind=None, default=..., choices=None):
    if key not in doc:
        if default is ...:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if not isinstance(kind, tuple) else "/".join(
            k.__name__ for k in kind
        )
        raise ConfigError(f"{path}.{key}", f"expected {names}, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}.{key}", f"must be one of {sorted(choices)}, got {value!r}")
    return value


def _check_steps(solver: str, schedule: dict, path: str):
    """Reject an explicit schedule whose step fields are not positive numbers
    (inner_iters and epochs: positive integers).  A batch solver needs all
    its keys; a stochastic one needs eta1, and _svrg_point fills in the
    rest."""
    batch = SOLVERS[solver].form is None
    keys = SOLVERS[solver].keys if batch else ("eta1", "eta2", "inner_iters", "mu", "epochs")
    for key in keys:
        value = _get(schedule, key, path,
                     int if key in ("inner_iters", "epochs") else (int, float),
                     default=... if batch or key == "eta1" else None)
        if value is not None and not value > 0:
            raise ConfigError(f"{path}.{key}", f"must be > 0, got {value!r}")


def _check_grid_values(values, path: str):
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(path, "grid values must be a nonempty list")
    if not all(isinstance(v, (int, float)) and v > 0 for v in values):
        raise ConfigError(path, f"grid values must be positive numbers, got {values!r}")


@dataclass
class SolverSpec:
    name: str
    schedule: dict
    repetitions: int = 1
    label: str = ""


@dataclass
class ExperimentConfig:
    instance: dict
    solvers: list[SolverSpec]
    stopping: StoppingRule
    budget: float
    seed: int
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config", "top level must be a JSON object")
        instance = _get(doc, "instance", "config", dict)
        solver_docs = _get(doc, "solvers", "config", list)
        if not solver_docs:
            raise ConfigError("config.solvers", "need at least one solver")
        solvers = []
        for i, sd in enumerate(solver_docs):
            path = f"config.solvers[{i}]"
            if not isinstance(sd, dict):
                raise ConfigError(path, "each solver entry must be an object")
            name = _get(sd, "name", path, str, choices=set(SOLVERS))
            schedule = _get(sd, "schedule", path, dict, default={"source": "theory"})
            source = _get(schedule, "source", f"{path}.schedule", str,
                          default="theory", choices={"theory", "explicit", "grid"})
            if source == "explicit":
                _check_steps(name, schedule, f"{path}.schedule")
            if source == "grid":
                for key in SOLVERS[name].keys:
                    if key in schedule:
                        _check_grid_values(schedule[key], f"{path}.schedule.{key}")
            reps = _get(sd, "repetitions", path, int, default=1)
            if reps < 1:
                raise ConfigError(f"{path}.repetitions", f"must be >= 1, got {reps}")
            solvers.append(SolverSpec(name=name, schedule=schedule, repetitions=reps,
                                      label=_get(sd, "label", path, str, default="")))
        stop_doc = _get(doc, "stopping", "config", dict, default={})
        try:
            stopping = StoppingRule(
                max_iters=_get(stop_doc, "max_iters", "config.stopping", int, default=2000),
                tol=float(_get(stop_doc, "tol", "config.stopping", (int, float), default=1e-10)),
            )
        except ValueError as exc:
            raise ConfigError("config.stopping", str(exc)) from exc
        budget = float(_get(doc, "budget", "config", (int, float), default=2000))
        if budget <= 0:
            raise ConfigError("config.budget", f"must be positive, got {budget}")
        seed = _get(doc, "seed", "config", int, default=0)
        return cls(instance=instance, solvers=solvers, stopping=stopping,
                   budget=budget, seed=seed, raw=doc)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON ({exc})") from exc
        return cls.from_dict(doc)


@dataclass
class InstanceBundle:
    """Everything the solvers need for one instance: the saddle problem, its
    finite-sum forms when available, and a certified reference solution."""

    family: str
    problem: SaddleProblem
    fsp: RowSum | DenseSum | None = None
    primal_fsp: RowSum | DenseSum | None = None
    x_star: np.ndarray | None = None
    y_star: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def finite_sum(self, form: str):
        """The finite-sum form ``form`` ("fsp" or "primal_fsp")."""
        fsp = getattr(self, form)
        if fsp is None:
            raise ConfigError(
                "config.instance",
                f"family {self.family!r} provides no finite-sum form ({form}) "
                f"for a stochastic solver",
            )
        return fsp


def _load_data(spec: dict, path: str):
    if "data" in spec:
        return inst_mod.instance_from_json(_get(spec, "data", path, dict))
    if "path" in spec:
        return inst_mod.load_instance(spec["path"])
    return None


def build_instance(spec: dict, *, splits: int | None = None) -> InstanceBundle:
    """Construct an InstanceBundle from a config instance spec.

    Families: "quadratic" (inline data or path, optionally split into
    ``splits`` components), "random_quadratic" (seeded generator),
    "smoothed_l1" (generator parameters or pinned data), "mspbe" (pinned data
    or seeded generator).  A field of the wrong type, or data a builder
    rejects, is a ConfigError; a reference solver that misses its tolerance
    raises RuntimeError.
    """
    if not isinstance(spec, dict):
        raise ConfigError("config.instance", "must be an object")
    try:
        return _build_family(spec, splits)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("config.instance", str(exc)) from exc


def _build_family(spec: dict, splits: int | None) -> InstanceBundle:
    path = "config.instance"
    family = _get(spec, "family", path, str)
    seed = _get(spec, "seed", path, int, default=0)
    number = (int, float)

    if family in ("quadratic", "random_quadratic"):
        if family == "quadratic":
            data = _load_data(spec, path)
            if data is None:
                raise ConfigError(path, "quadratic family needs 'data' or 'path'")
            if not isinstance(data, inst_mod.QuadraticSaddle):
                raise ConfigError(path, "pinned instance is not a quadratic saddle")
            problem = data.to_problem()
        else:
            problem = inst_mod.random_quadratic(
                seed,
                _get(spec, "d1", path, int, default=None),
                _get(spec, "d2", path, int, default=None),
                strongly_convex=_get(spec, "strongly_convex", path, bool, default=False),
            )
        n_split = splits if splits is not None else _get(spec, "splits", path, int,
                                                           default=None)
        fsp = primal = None
        if n_split:
            fsp = inst_mod.split_quadratic(problem, int(n_split), seed=seed)
            primal = inst_mod.split_quadratic_primal(problem, int(n_split), seed=seed)
        x_star, y_star, _ = reference_solution(problem, "direct")
        return InstanceBundle(family=family, problem=problem, fsp=fsp,
                              primal_fsp=primal, x_star=x_star, y_star=y_star,
                              meta={"spec": spec})

    if family == "smoothed_l1":
        data = _load_data(spec, path)
        if data is None:
            n = _get(spec, "n", path, int)
            d = _get(spec, "d", path, int)
            cov = _get(spec, "covariance", path, str, default="identity",
                       choices={"identity", "exp_decay"})
            decay = _get(spec, "decay", path, number, default=None)
            if cov == "exp_decay" and decay is None:
                raise ConfigError(f"{path}.decay", "required for exp_decay covariance")
            data = inst_mod.make_smoothed_l1(
                n, d, cov=cov, decay=decay,
                a=float(_get(spec, "a", path, number, default=10.0)),
                lambda_reg=_get(spec, "lambda_reg", path, number, default=None),
                noise=float(_get(spec, "noise", path, number, default=0.01)),
                density=float(_get(spec, "density", path, number, default=0.1)),
                seed=seed,
            )
        elif not isinstance(data, inst_mod.SmoothedL1Regression):
            raise ConfigError(path, "pinned instance is not a smoothed-L1 regression")
        fsp = inst_mod.smoothed_l1_saddle(data)  # a row sum: both forms
        x_star = inst_mod.smoothed_l1_minimizer(data)
        y_star = conj_grad(fsp.aggregate, fsp.aggregate.coupling @ x_star)
        # ||grad P(x_star)||, recomputed through the saddle oracles
        residual = float(np.linalg.norm(grad_primal(fsp.aggregate, x_star)))
        return InstanceBundle(family=family, problem=fsp.aggregate, fsp=fsp,
                              primal_fsp=fsp, x_star=x_star, y_star=y_star,
                              meta={"spec": spec, "instance": data,
                                    "reference_residual": residual})

    if family == "mspbe":
        data = _load_data(spec, path)
        if data is None:
            data = inst_mod.random_mspbe(
                _get(spec, "n", path, int),
                _get(spec, "d", path, int),
                gamma=float(_get(spec, "gamma", path, number, default=0.9)),
                seed=seed,
            )
        elif not isinstance(data, inst_mod.MspbeInstance):
            raise ConfigError(path, "pinned instance is not an MSPBE instance")
        problem = inst_mod.mspbe_saddle(
            data, normalize=_get(spec, "normalize", path, bool, default=False))
        x_star, y_star, _ = reference_solution(problem, "direct")
        return InstanceBundle(family=family, problem=problem, x_star=x_star,
                              y_star=y_star, meta={"spec": spec, "instance": data})

    raise ConfigError(f"{path}.family", f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# trace post-processing
# ---------------------------------------------------------------------------

def fitted_slope(grad_evals, dist_x, burn_in: float = 0.1) -> float | None:
    """OLS slope of log10(dist_x) against grad-units, after dropping the
    first ``burn_in`` fraction of rows.  None when fewer than two usable rows
    remain."""
    u = np.asarray(grad_evals, dtype=float)
    d = np.asarray(dist_x, dtype=float)
    keep = np.isfinite(u) & np.isfinite(d) & (d > 0)
    u, d = u[keep], d[keep]
    skip = int(math.ceil(burn_in * len(u)))
    u, d = u[skip:], d[skip:]
    if len(u) < 2 or np.ptp(u) == 0:
        return None
    logd = np.log10(np.maximum(d, 1e-300))
    slope = np.polyfit(u, logd, 1)[0]
    return float(slope)


def _run_sc(problem: SaddleProblem, stop: StoppingRule, x_star):
    """PDG under the both-strongly-convex schedule, with R_t written into the
    trace's potential column; returns (schedule, trace)."""
    parts = getattr(problem, "quadratic_parts", None)
    if parts is None:
        raise ConfigError("config", "sc schedule needs a quadratic instance")
    eig = np.linalg.eigvalsh(parts[0])
    if eig[0] <= 0:
        raise ConfigError("config", "sc schedule needs strongly convex f")
    p = problem.params
    sc = sc_schedule(float(eig[0]), float(eig[-1]), p.alpha, p.beta, p.sigma_max)
    trace = run_pdg(problem, eta1=sc.eta1, eta2=sc.eta2, stop=stop, x_star=x_star)
    dx, dy = trace.column("dist_x"), trace.column("dist_y")
    trace.potential = list(sc.eta2 * dx**2 + sc.eta1 * dy**2)
    trace.potential_kind = "R_t"
    return sc, trace


def _svrg_epochs(budget: float, n: int, inner: int) -> int:
    return max(1, int(budget / (1.0 + 2.0 * inner / n)))


def _svrg_point(point: dict, n: int, cap: float) -> dict:
    """A stochastic step point with its defaults filled in (eta2 = eta1,
    inner_iters = 2n, mu = 1) and, unless it fixes them, the epochs that
    ``cap`` grad-units afford; the keys are SvrgConfig's."""
    eta1 = float(_get(point, "eta1", "schedule", (int, float)))
    inner = int(point.get("inner_iters", 2 * n))
    return {"eta1": eta1, "eta2": float(point.get("eta2", eta1)),
            "inner_iters": inner, "mu": float(point.get("mu", 1.0)),
            "epochs": int(point.get("epochs", _svrg_epochs(cap, n, inner)))}


def _run_point(bundle: InstanceBundle, solver: str, point: dict, *,
               cap: float, tol: float, seed: int = 0):
    """One run of ``solver`` from the step ``point``, capped at ``cap``
    grad-units and stopped once dist_x <= tol.  A batch point holds the
    runner's step arguments; a stochastic one is completed by _svrg_point."""
    entry = SOLVERS[solver]
    run = globals()[entry.runner]
    stop = StoppingRule(max_iters=max(1, int(cap)), tol=tol)
    if entry.form is None:
        return run(bundle.problem, **point, stop=stop, x_star=bundle.x_star)
    fsp = bundle.finite_sum(entry.form)
    cfg = SvrgConfig(seed=seed, **_svrg_point(point, fsp.n, cap))
    return run(fsp, cfg=cfg, x_star=bundle.x_star, stop=stop)


def _run_one(bundle: InstanceBundle, spec: SolverSpec, schedule: dict,
             stop: StoppingRule, budget: float, base_seed: int,
             repetitions: int = 1):
    """Run one solver entry; returns (trace, info dict, list of rep traces).

    The stopping rule's max_iters caps a batch run and ``budget`` a
    stochastic one; only stochastic entries repeat, over seeds base_seed + r.
    """
    problem = bundle.problem
    entry = SOLVERS[spec.name]
    source = schedule.get("source", "theory")
    info: dict = {"name": spec.name, "source": source}
    if source == "grid":
        result = grid_search(bundle, spec.name, schedule, budget=budget,
                             seed=base_seed)
        if result["status"] != "ok":
            raise DivergenceError(
                "no convergent schedule in the grid", 0, None
            )
        info["grid_best"] = schedule = result["best"]
        source = "explicit"

    if entry.form is not None:
        n = bundle.finite_sum(entry.form).n
        if source == "theory":
            base = default_svrg_config(bundle.finite_sum("fsp"))
            schedule = dict(schedule, eta1=base.eta1, eta2=base.eta2,
                            inner_iters=base.inner_iters, mu=base.mu)
        point = info["schedule"] = _svrg_point(schedule, n, budget)
        traces = [_run_point(bundle, spec.name, point, cap=budget, tol=stop.tol,
                             seed=base_seed + r)
                  for r in range(repetitions)]
        return traces[0], info, traces

    if source == "explicit":
        point = {k: float(_get(schedule, k, "schedule", (int, float)))
                 for k in entry.keys}
        info["schedule"] = point
    elif spec.name == "primal_gd":
        point = info["schedule"] = {"eta": primal_step(problem.params)}
    elif schedule.get("variant", "pdg") == "sc":
        sc, trace = _run_sc(problem, stop, bundle.x_star)
        info["schedule"] = {"eta1": sc.eta1, "eta2": sc.eta2, "rate": sc.rate}
        return trace, info, [trace]
    else:
        sched = pdg_schedule(problem.params)
        point = {"schedule": sched}
        info["schedule"] = {"eta1": sched.eta1, "eta2": sched.eta2,
                            "lambda": sched.lambda_, "rate": sched.rate}
    trace = _run_point(bundle, spec.name, point, cap=stop.max_iters, tol=stop.tol)
    return trace, info, [trace]


def _unique_stem(name: str, used: set) -> str:
    """``name``, or ``name_2``, ``name_3``, ... if already in ``used``."""
    stem, k = name, 2
    while stem in used:
        stem = f"{name}_{k}"
        k += 1
    used.add(stem)
    return stem


def cmd_solve(config: ExperimentConfig, out_dir) -> dict:
    """Run every configured solver, write one trace CSV per solver plus
    summary.json.  A diverging solver is recorded in the summary without
    aborting the others."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = build_instance(config.instance)

    used = set()
    summary: dict = {"instance": {"family": bundle.family}, "solvers": []}
    if bundle.x_star is not None:
        summary["instance"]["reference_norm"] = float(np.linalg.norm(bundle.x_star))

    for spec in config.solvers:
        stem = _unique_stem(spec.label or spec.name, used)
        entry: dict = {"name": spec.name, "csv": f"{stem}.csv"}
        try:
            trace, info, reps = _run_one(
                bundle, spec, spec.schedule, config.stopping, config.budget,
                config.seed, spec.repetitions,
            )
            entry.update(info)
            entry["status"] = "ok"
        except DivergenceError as exc:
            entry["status"] = "diverged"
            entry["error"] = str(exc)
            trace = exc.trace
            reps = [trace] if trace is not None else []
        if trace is not None:
            trace.to_csv(out / entry["csv"])
            entry["rows"] = len(trace)
            entry["final_dist_x"] = trace.final_dist_x()
            entry["slope"] = fitted_slope(trace.grad_evals, trace.column("dist_x"))
            entry["potential_kind"] = trace.potential_kind
        if len(reps) > 1:
            pots = [t.column("potential") for t in reps]
            rows = min(len(p) for p in pots)
            entry["mean_potential_per_epoch"] = list(
                np.mean([p[:rows] for p in pots], axis=0)
            )
            dists = [t.column("dist_x") for t in reps]
            entry["mean_dist_x_per_epoch"] = list(
                np.mean([d[:rows] for d in dists], axis=0)
            )
            entry["repetitions"] = len(reps)
        summary["solvers"].append(entry)

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=_json_default)
    return summary


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def _grid_points(solver: str, grid: dict, n: int | None):
    """Cartesian product of the per-parameter value lists, deterministic order."""
    keys = list(SOLVERS[solver].keys)
    defaults = {"inner_iters": [2 * n] if n else None, "mu": [1.0]}
    lists = []
    for key in keys:
        values = grid.get(key, defaults.get(key))
        if values is None:
            raise ConfigError(f"schedule.{key}", "grid needs a list of values")
        _check_grid_values(values, f"schedule.{key}")
        lists.append([float(v) for v in values])
    points = [{}]
    for key, values in zip(keys, lists):
        points = [dict(p, **{key: v}) for v in values for p in points]
    # deterministic ordering: sort by parameter tuple
    points.sort(key=lambda p: tuple(p[k] for k in keys))
    return keys, points


def grid_search(bundle: InstanceBundle, solver: str, grid: dict, *,
                budget: float, seed: int = 0, stop_tol: float = 1e-300) -> dict:
    """Run every grid point to the grad-unit budget; rank by final dist_x
    (ties broken by smaller eta1 then smaller eta2).

    Returns {"status", "best", "ranked", "rows"}; status is
    "no_convergent_schedule" when every point diverges.
    """
    if bundle.x_star is None:
        raise ConfigError("config", "grid search needs a reference solution")
    form = SOLVERS[solver].form
    keys, points = _grid_points(solver, grid, bundle.finite_sum(form).n if form else None)
    rows = []
    for point in points:
        row = dict(point)
        try:
            trace = _run_point(bundle, solver, point, cap=budget, tol=stop_tol,
                               seed=seed)
            row["final_dist_x"] = trace.final_dist_x()
            row["status"] = "ok"
        except DivergenceError as exc:
            row["final_dist_x"] = math.inf
            row["status"] = "diverged"
            row["error"] = str(exc)
        rows.append(row)

    def rank_key(row):
        fd = row["final_dist_x"]
        return (
            math.inf if fd is None else fd,
            row.get("eta1", row.get("eta", 0.0)),
            row.get("eta2", 0.0),
        )

    ranked = sorted(rows, key=rank_key)
    ok = [r for r in ranked if r["status"] == "ok"]
    if not ok:
        return {"status": "no_convergent_schedule", "best": None,
                "ranked": ranked, "keys": keys}
    return {"status": "ok", "best": ok[0], "ranked": ranked, "keys": keys}


def measure_units_to_target(
    bundle: InstanceBundle, solver: str, ranked: list[dict], target: float, *,
    max_units: float, seed: int = 0, try_top: int = 1,
) -> tuple[float | None, dict | None]:
    """Grad-units needed to reach ``dist_x <= target`` with the tuned steps.

    Walks the ranked grid points, measures up to ``try_top`` of them that
    converge, and returns the fastest (units, point).  Walking past the
    winner guards against near-boundary points that led at the tuning budget
    but never converge; measuring a few points smooths out ranking noise
    among configurations that all hit the numeric floor before the budget
    ended.  Later candidates only run as long as the incumbent's units."""
    entry = SOLVERS[solver]
    # a batch run also stops on the gradient norm, so its tolerance sits well
    # below the target; a stochastic run checks dist_x once per epoch
    tol = target * 1e-3 if entry.form is None else 0.99 * target
    best: tuple[float, dict] | None = None
    measured = 0
    for row in ranked:
        if measured >= try_top:
            break
        if row.get("status") != "ok":
            continue
        point = {k: row[k] for k in entry.keys if k in row}
        cap = max_units if best is None else best[0]
        try:
            trace = _run_point(bundle, solver, point, cap=cap, tol=tol, seed=seed)
        except DivergenceError:
            continue
        units = trace.units_to_target(target)
        if units is not None:
            measured += 1
            if best is None or units < best[0]:
                best = (units, point)
    return best if best is not None else (None, None)


def cmd_grid(config: ExperimentConfig, out_dir, budget: float | None = None) -> dict:
    """Grid-search each solver entry whose schedule source is 'grid'; write a
    sweep CSV per solver and best.json with the selected points."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = build_instance(config.instance)
    budget = float(budget if budget is not None else config.budget)

    report: dict = {"budget": budget, "solvers": []}
    used = set()
    for spec in config.solvers:
        if spec.schedule.get("source") != "grid":
            continue
        stem = _unique_stem(spec.label or spec.name, used)
        result = grid_search(bundle, spec.name, spec.schedule, budget=budget,
                             seed=config.seed)
        sweep_path = out / f"sweep_{stem}.csv"
        keys = result["keys"]
        with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*keys, "final_dist_x", "status"])
            for row in result["ranked"]:
                writer.writerow([
                    *(repr(row[k]) for k in keys),
                    "" if row["final_dist_x"] is None else repr(float(row["final_dist_x"])),
                    row["status"],
                ])
        report["solvers"].append({
            "name": spec.name,
            "sweep_csv": sweep_path.name,
            "status": result["status"],
            "best": result["best"],
        })
    with open(out / "best.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=_json_default)
    return report


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(instance_spec: dict) -> dict:
    """Curvature constants of the instance plus the theoretical schedule."""
    try:
        bundle = build_instance(instance_spec)
    except ValueError as exc:
        if "full column rank" in str(exc):
            return {
                "status": "error",
                "diagnostic": (
                    "coupling matrix is rank deficient; linear convergence "
                    "requires full column rank (rank(A) = d1), so no schedule "
                    "exists for this instance"
                ),
                "detail": str(exc),
            }
        raise
    p = bundle.problem.params
    sched = pdg_schedule(p)
    out = {
        "status": "ok",
        "family": bundle.family,
        "d1": bundle.problem.d1,
        "d2": bundle.problem.d2,
        "rho": p.rho,
        "alpha": p.alpha,
        "beta": p.beta,
        "sigma_max": p.sigma_max,
        "sigma_min": p.sigma_min,
        "lambda": sched.lambda_,
        "eta1": sched.eta1,
        "eta2": sched.eta2,
        "rate": sched.rate,
    }
    if bundle.fsp is not None:
        out["M"] = bundle.fsp.M
    return out


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _verify_contraction(trials: int, seed: int, iters: int = 500, *,
                        strongly_convex: bool = False) -> dict:
    """Check the per-step contraction of the certified potential on random
    quadratics: P_t under pdg_schedule, or with ``strongly_convex`` R_t under
    sc_schedule on instances whose f is strongly convex."""
    passes = 0
    failures = []
    worst = 0.0
    for k in range(trials):
        problem = inst_mod.random_quadratic(seed + k, strongly_convex=strongly_convex)
        x_star, _, _ = reference_solution(problem, "direct")
        stop = StoppingRule(iters, 1e-300)
        if strongly_convex:
            sched, trace = _run_sc(problem, stop, x_star)
        else:
            sched = pdg_schedule(problem.params)
            trace = run_pdg(problem, schedule=sched, stop=stop, x_star=x_star)
        P = trace.column("potential")
        bad = np.sum(P[1:] > sched.rate * P[:-1] + 1e-12 * P[0])
        with np.errstate(invalid="ignore", divide="ignore"):
            prev = np.where(P[:-1] > 1e-8 * P[0], P[:-1], np.nan)
            ratio = np.nanmax(P[1:] / prev) if np.any(np.isfinite(prev)) else 0.0
        worst = max(worst, float(ratio) / sched.rate)
        if bad:
            failures.append({"trial": k, "violations": int(bad)})
        else:
            passes += 1
    return {
        "suite": "sc_contraction" if strongly_convex else "contraction",
        "trials": trials, "iters": iters,
        "passes": passes, "failures": failures,
        "worst_ratio_vs_rate": worst,
        "refuted": bool(failures),
    }


def _verify_props(trials: int, seed: int, iters: int = 200,
                  eta1_scale: float | None = None,
                  eta2_scale: float | None = None) -> dict:
    """Check the four step-to-step inequalities behind the contraction proof.

    By default the theoretical schedule is used, which satisfies every
    precondition.  ``eta1_scale``/``eta2_scale`` instead set the step size to
    that multiple of the respective precondition bound (2/(gamma+delta) for
    the primal, 2/(alpha+beta) for the dual); inequalities whose precondition
    then fails are reported as out_of_precondition rather than checked, and a
    diverging run ends the trial early without counting as a refutation.
    """
    for name, scale in (("eta1_scale", eta1_scale), ("eta2_scale", eta2_scale)):
        if scale is not None and not scale > 0:
            raise ConfigError(name, f"must be > 0, got {scale}")
    counts = {p: {"checked": 0, "violations": 0, "out_of_precondition": 0}
              for p in ("ghost_contraction", "primal_decrease",
                        "step_length", "dual_decrease")}

    def tally(name, applies, violated):
        """Count one check of ``name``; ``violated`` runs only if it applies."""
        c = counts[name]
        if not applies:
            c["out_of_precondition"] += 1
        else:
            c["checked"] += 1
            c["violations"] += int(violated())

    diverged_trials = 0
    for k in range(trials):
        problem = inst_mod.random_quadratic(seed + k)
        x_star, _, _ = reference_solution(problem, "direct")
        p = problem.params
        sched = pdg_schedule(p)
        gamma = p.rho + p.sigma_max**2 / p.alpha
        delta = p.sigma_min**2 / p.beta
        bound1 = primal_step(p)
        bound2 = 2.0 / (p.alpha + p.beta)
        eta1 = sched.eta1 if eta1_scale is None else eta1_scale * bound1
        eta2 = sched.eta2 if eta2_scale is None else eta2_scale * bound2
        pre1 = eta1 <= bound1 * (1 + 1e-12)
        pre2 = eta2 <= bound2 * (1 + 1e-12)

        it = Iterate(np.zeros(problem.d1), np.zeros(problem.d2))
        for _ in range(iters):
            a_t = float(np.linalg.norm(it.x - x_star))
            b_t = float(np.linalg.norm(
                it.y - conj_grad(problem, problem.coupling @ it.x)))
            slack = 1e-12 * (1.0 + a_t + b_t)

            tally("ghost_contraction", pre1, lambda: np.linalg.norm(
                ghost_step(problem, it.x, eta1) - x_star) > (1 - delta * eta1) * a_t + slack)
            try:
                nxt = pdg_step(problem, it, eta1, eta2)
            except DivergenceError:
                diverged_trials += 1
                break
            a_n = float(np.linalg.norm(nxt.x - x_star))
            b_n = float(np.linalg.norm(
                nxt.y - conj_grad(problem, problem.coupling @ nxt.x)))

            tally("primal_decrease", pre1, lambda: a_n > (
                (1 - delta * eta1) * a_t + p.sigma_max * eta1 * b_t + slack))
            tally("step_length", True, lambda: np.linalg.norm(nxt.x - it.x) > (
                gamma * eta1 * a_t + p.sigma_max * eta1 * b_t + slack))
            coef_b = 1 - p.alpha * eta2 + p.sigma_max**2 / p.alpha * eta1
            coef_a = p.sigma_max / p.alpha * gamma * eta1
            tally("dual_decrease", pre2,
                  lambda: b_n > coef_b * b_t + coef_a * a_t + slack)
            it = nxt

    total_viol = sum(c["violations"] for c in counts.values())
    return {
        "suite": "props", "trials": trials, "iters": iters,
        "eta1_scale": eta1_scale, "eta2_scale": eta2_scale,
        "diverged_trials": diverged_trials,
        "inequalities": counts,
        "refuted": total_viol > 0,
    }


def _verify_svrg_halving(trials: int, seed: int, *, n: int = 50, d: int = 10,
                         seeds: int = 30, epochs: int = 10) -> dict:
    """Find, per random instance, a stochastic config whose seed-averaged
    epoch potential at least halves every epoch."""
    results = []
    refuted = False
    for k in range(trials):
        problem = inst_mod.random_quadratic(seed + 17 * k, d, d)
        fsp = inst_mod.split_quadratic(problem, n, seed=seed + 17 * k + 1)
        x_star, _, _ = reference_solution(problem, "direct")
        base = problem.params.alpha / fsp.M**2
        found = None
        tried = []
        for c_eta in (0.5, 0.25, 0.125):
            for n_mult in (4, 8, 2):
                eta = c_eta * base
                inner = n_mult * n
                ratios = _halving_ratio(fsp, x_star, eta, inner, seeds, epochs)
                tried.append({"eta": eta, "inner_iters": inner,
                              "max_ratio": ratios})
                if ratios is not None and ratios <= 0.5:
                    found = {"eta1": eta, "eta2": eta, "inner_iters": inner,
                             "mu": 1.0, "max_mean_ratio": ratios}
                    break
            if found:
                break
        if found is None:
            refuted = True
        results.append({"trial": k, "config": found, "tried": tried})
    return {
        "suite": "svrg_halving", "trials": trials, "n": n, "d": d,
        "seeds": seeds, "epochs": epochs,
        "results": results, "refuted": refuted,
    }


def _halving_ratio(fsp, x_star, eta, inner, seeds, epochs) -> float | None:
    pots = []
    for s in range(seeds):
        cfg = SvrgConfig(eta1=eta, eta2=eta, inner_iters=inner,
                         epochs=epochs, seed=s, mu=1.0)
        try:
            trace = run_pdsvrg(fsp, cfg=cfg, x_star=x_star)
        except DivergenceError:
            return None
        pots.append(trace.column("potential"))
    mean = np.mean(pots, axis=0)
    if np.any(mean <= 0):
        return None
    return float(np.max(mean[1:] / mean[:-1]))


def cmd_verify(suite: str, trials: int, seed: int = 0, **kw) -> dict:
    """Dispatch a certificate suite; the report carries a 'refuted' flag."""
    if trials < 1:
        raise ConfigError("trials", f"must be >= 1, got {trials}")
    if suite == "contraction":
        return _verify_contraction(trials, seed, **kw)
    if suite == "sc_contraction":
        return _verify_contraction(trials, seed, **{"iters": 300, **kw},
                                   strongly_convex=True)
    if suite == "props":
        return _verify_props(trials, seed, **kw)
    if suite == "svrg_halving":
        return _verify_svrg_halving(trials, seed, **kw)
    raise ConfigError(
        "suite",
        f"unknown suite {suite!r}; expected contraction, sc_contraction, props "
        f"or svrg_halving",
    )
