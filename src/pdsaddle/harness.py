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
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

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
from .svrg import DenseSum, RowSum, SvrgConfig, run_pdsvrg, run_primal_svrg
from .theory import PdgSchedule, _b_t, ghost_step, pdg_schedule, primal_step, sc_schedule

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


class ConfigError(ValueError):
    """Configuration problem, reported as '<path>: <message>'."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SolverEntry:
    """How the harness runs one solver: the step parameters a grid sweeps
    (in sweep order), the InstanceBundle field holding the finite sum it runs
    on (None: the aggregate problem), the name of the module global that
    runs it, looked up at call time so that a wrapper installed on this
    module sees every run, and its theory step points on an instance, by
    the variant a theory schedule names (the first is the default; None: the
    solver has one, and a schedule names none)."""

    keys: tuple[str, ...]
    form: str | None
    runner: str
    theory: dict[str | None, Callable[[InstanceBundle], dict]]


def _sc_schedule(problem: SaddleProblem):
    """The both-strongly-convex schedule of a quadratic instance whose f is
    strongly convex."""
    parts = getattr(problem, "quadratic_parts", None)
    if parts is None:
        raise ConfigError("config", "sc schedule needs a quadratic instance")
    eig = np.linalg.eigvalsh(parts[0])
    if eig[0] <= 0:
        raise ConfigError("config", "sc schedule needs strongly convex f")
    p = problem.params
    return sc_schedule(float(eig[0]), float(eig[-1]), p.alpha, p.beta, p.sigma_max)


def _svrg_theory(bundle: InstanceBundle) -> dict:
    """The saddle sum's conservative step alpha/(10 M^2), for both stochastic
    solvers; _filled defaults the other keys."""
    fsp = bundle.finite_sum("fsp")
    return {"eta1": fsp.aggregate.params.alpha / (10.0 * fsp.M**2)}


SOLVERS = {
    "pdg": SolverEntry(("eta1", "eta2"), None, "run_pdg", {
        "pdg": lambda b: {"schedule": pdg_schedule(b.problem.params)},
        "sc": lambda b: {"schedule": _sc_schedule(b.problem)}}),
    "primal_gd": SolverEntry(("eta",), None, "run_primal_gd",
                             {None: lambda b: {"eta": primal_step(b.problem.params)}}),
    "pdsvrg": SolverEntry(("eta1", "eta2", "inner_iters", "mu"), "fsp", "run_pdsvrg",
                          {None: _svrg_theory}),
    "primal_svrg": SolverEntry(("eta1", "inner_iters"), "primal_fsp", "run_primal_svrg",
                               {None: _svrg_theory}),
}


# ---------------------------------------------------------------------------
# the config format: every field, declared once
# ---------------------------------------------------------------------------

class _Field(NamedTuple):
    """A config field: its JSON type (a Python type or tuple of them, [type]
    for a grid: a nonempty list of positive values, or _ARRAY), its default
    (``...``: required) and its bound, a pair (what the value must be, test)."""
    kind: type | tuple | list
    default: object = ...
    bound: tuple | None = None


_NUMBER = (int, float)
_SEED = _Field(int, 0, (">= 0", lambda v: v >= 0))


# a choice bound; tests read the choices back from its test's __self__
def _one_of(*choices):
    return (f"one of {sorted(choices)}", choices.__contains__)


def _positive(kind, default=...) -> _Field:
    """A count (int) or a step-like number (finite), > 0."""
    if kind is int:
        return _Field(int, default, ("> 0", lambda v: v > 0))
    return _Field(kind, default, ("finite and > 0", lambda v: 0 < v < math.inf))


_CONFIG = {"instance": _Field(dict), "solvers": _Field(list, ..., ("nonempty", bool)),
           "stopping": _Field(dict, {}), "budget": _positive(_NUMBER, 2000), "seed": _SEED}
_STOPPING = {"tol": _positive(_NUMBER, 1e-10)}
_ENTRY = {"name": _Field(str, ..., _one_of(*SOLVERS)), "schedule": _Field(dict, {}),
          # the stem of the entry's output files, inside the output directory
          "label": _Field(str, "", ("a plain file name (no '/', not '.' or '..')",
                                    lambda v: "/" not in v and v not in (".", "..")))}
_PIN = {"data": _Field(dict, None), "path": _Field(str, None)}
# a quadratic's finite-sum split, and the seed of the split (and generator)
_SPLITS = {"splits": _positive(int, None), "seed": _SEED}
_GAMMA = ("in (0, 1)", lambda v: 0 < v < 1)
# the kind of an array field of a pinned document: a nested list of finite
# numbers (a bool is not one)
_ARRAY = "nested list of finite numbers"


def _arrays(*names) -> dict:
    return {name: _Field(_ARRAY) for name in names}


# ---------------------------------------------------------------------------
# instance families: one record each
# ---------------------------------------------------------------------------

def _solved(problem, **parts) -> dict:
    """The bundle fields of the quadratic saddle ``problem``, its finite-sum
    ``parts`` and its direct reference solution."""
    x_star, y_star, _ = reference_solution(problem, "direct")
    return {"problem": problem, "x_star": x_star, "y_star": y_star, **parts}


def _build_quadratic(v: dict, data) -> dict:
    """The quadratic pinned as ``data``, else a random one, split into
    ``splits`` components when given."""
    if data is None:
        if "d2" not in v and v.get("d1", 0) > 20:  # the default draws d2 <= 20
            raise ConfigError("config.instance.d2", "required when d1 > 20")
        if v.get("d1", 12) > v.get("d2", math.inf):  # the default draws d1 <= 12
            raise ConfigError("config.instance.d2", "full column rank needs d2 >= d1"
                              + ("" if "d1" in v else ", and d1 is drawn up to 12"))
        problem = inst_mod.random_quadratic(v["seed"], v.get("d1"), v.get("d2"),
                                            strongly_convex=v["strongly_convex"])
    else:
        problem = data.to_problem()
    if "splits" not in v:
        return _solved(problem)
    return _solved(problem, fsp=inst_mod.split_quadratic(problem, v["splits"], seed=v["seed"]),
                   primal_fsp=inst_mod.split_quadratic_primal(problem, v["splits"],
                                                              seed=v["seed"]))


def _build_smoothed_l1(v: dict, data) -> dict:
    """The regression pinned as ``data``, else a generated one; its row sum
    is both finite-sum forms, and its reference the Newton minimizer."""
    if data is None:
        if (v["covariance"] == "exp_decay") != ("decay" in v):
            raise ConfigError("config.instance.decay", "only for exp_decay covariance"
                              if "decay" in v else "required for exp_decay covariance")
        data = inst_mod.make_smoothed_l1(
            v["n"], v["d"], cov=v["covariance"], decay=v.get("decay"), a=float(v["a"]),
            lambda_reg=v.get("lambda_reg"), noise=float(v["noise"]),
            density=float(v["density"]), seed=v["seed"],
        )
    fsp = inst_mod.smoothed_l1_saddle(data)
    x_star = inst_mod.smoothed_l1_minimizer(data)
    y_star = conj_grad(fsp.aggregate, fsp.aggregate.coupling @ x_star)
    # ||grad P(x_star)||, recomputed through the saddle oracles
    residual = float(np.linalg.norm(grad_primal(fsp.aggregate, x_star)))
    return {"problem": fsp.aggregate, "fsp": fsp, "primal_fsp": fsp, "x_star": x_star,
            "y_star": y_star, "meta": {"reference_residual": residual}}


def _build_mspbe(v: dict, data) -> dict:
    """The transitions pinned as ``data``, else random ones."""
    if data is None:
        data = inst_mod.random_mspbe(v["n"], v["d"], gamma=float(v["gamma"]), seed=v["seed"])
    return _solved(inst_mod.mspbe_saddle(data, normalize=v["normalize"]))


class _Family(NamedTuple):
    """An instance family: the fields of a generated instance and of one
    pinned by data or path (None where it cannot be built that way), the
    class of its pinned document and that document's fields but family, and
    its build(values, the pinned instance or None) -> bundle fields."""
    generated: dict | None
    pinned: dict | None
    document: type | None
    document_fields: dict
    build: Callable[[dict, object], dict]


_FAMILIES = {
    "quadratic": _Family(None, {**_PIN, **_SPLITS}, inst_mod.QuadraticSaddle,
                         _arrays("B", "b", "A", "C", "c"), _build_quadratic),
    "random_quadratic": _Family({"d1": _positive(int, None), "d2": _positive(int, None),
                                 "strongly_convex": _Field(bool, False), **_SPLITS},
                                None, None, {}, _build_quadratic),
    "smoothed_l1": _Family(
        {"n": _positive(int), "d": _positive(int),
         "covariance": _Field(str, "identity", _one_of("identity", "exp_decay")),
         "decay": _positive(_NUMBER, None), "a": _positive(_NUMBER, 10.0),
         "lambda_reg": _positive(_NUMBER, None),
         "noise": _Field(_NUMBER, 0.01, ("finite and >= 0", lambda v: 0 <= v < math.inf)),
         "density": _Field(_NUMBER, 0.1, ("in (0, 1]", lambda v: 0 < v <= 1)),
         "seed": _SEED},
        _PIN, inst_mod.SmoothedL1Regression,
        {**_arrays("A", "b"), "a": _positive(_NUMBER), "lambda_reg": _positive(_NUMBER)},
        _build_smoothed_l1),
    "mspbe": _Family({"n": _positive(int), "d": _positive(int),
                      "gamma": _Field(_NUMBER, 0.9, _GAMMA),
                      "normalize": _Field(bool, False), "seed": _SEED},
                     {**_PIN, "normalize": _Field(bool, False)}, inst_mod.MspbeInstance,
                     {**_arrays("phi", "phi_next", "rewards"),
                      "gamma": _Field(_NUMBER, ..., _GAMMA)},
                     _build_mspbe),
}
_FAMILY = _Field(str, ..., _one_of(*_FAMILIES))


def _is(value, kind) -> bool:
    """Whether ``value`` has JSON type ``kind``; a bool is never an int or a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def load_json(file, path: str):
    """The JSON document in ``file``; ConfigError at ``path``, the field or
    flag that named the file, when it cannot be read or holds no JSON."""
    try:
        with open(file, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read {str(file)!r}: {exc.strerror}") from exc
    # JSONDecodeError, bytes that are not UTF-8, or nesting past the
    # recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(path, f"invalid JSON in {str(file)!r} ({exc})") from exc


def _read(doc, fields: dict, path: str) -> dict:
    """``doc``'s value for each of ``fields``, defaults other than None filled
    in; ConfigError at the first non-object, missing required field, wrong
    JSON type, value out of bound or unknown field."""
    if not _is(doc, dict):
        raise ConfigError(path, f"expected dict, got {type(doc).__name__}")
    out = {}
    for key, (kind, default, bound) in fields.items():
        where, value = f"{path}.{key}", doc.get(key, default)
        if key not in doc:
            if default is ...:
                raise ConfigError(where, "missing required field")
        elif kind is _ARRAY:
            stack = [value]  # walked without recursion: JSON may nest deep
            while stack:
                item = stack.pop()
                if _is(item, list):
                    stack.extend(reversed(item))
                elif not (_is(item, _NUMBER) and abs(item) <= sys.float_info.max):
                    raise ConfigError(where, f"must be a {_ARRAY}, got {item!r}")
        elif isinstance(kind, list):
            if not (_is(value, list) and value
                    and all(_is(v, kind[0]) and 0 < v < math.inf for v in value)):
                noun = "integers" if kind[0] is int else "finite numbers"
                raise ConfigError(where, f"grid values must be positive {noun} in a "
                                         f"nonempty list, got {value!r}")
        elif not _is(value, kind):
            names = "/".join(k.__name__ for k in kind) if kind is _NUMBER else kind.__name__
            raise ConfigError(where, f"expected {names}, got {type(value).__name__}")
        elif bound is not None and not bound[1](value):
            raise ConfigError(where, f"must be {bound[0]}, got {value!r}")
        if value is not None:
            out[key] = value
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{path}.{key}", "unknown field")
    return out


def _entry_fields(name) -> dict:
    """The fields of a solver entry named ``name``; only a stochastic
    solver's entry may repeat its run (SolverSpec.repetitions)."""
    if name in tuple(SOLVERS) and SOLVERS[name].form is not None:
        return {**_ENTRY, "repetitions": _positive(int, None)}
    return _ENTRY


def _schedule_fields(solver: str, source) -> dict:
    """The fields of a ``source`` schedule for ``solver``, from its SOLVERS
    entry: a theory schedule has none but its variant, if the solver has
    several; an explicit one needs every key (a stochastic one only eta1);
    a grid needs a list per key but inner_iters and mu, which _filled
    defaults."""
    entry = SOLVERS[solver]
    stochastic = entry.form is not None
    fields = {"source": _Field(str, "theory", _one_of("theory", "explicit", "grid"))}
    if source == "theory" and None not in entry.theory:
        fields["variant"] = _Field(str, next(iter(entry.theory)), _one_of(*entry.theory))
    for key in entry.keys:
        kind = int if key == "inner_iters" else _NUMBER
        if source == "explicit":
            fields[key] = _positive(kind, None if stochastic and key != "eta1" else ...)
        elif source == "grid":
            fields[key] = _Field([kind], None if key in ("inner_iters", "mu") else ...)
    return fields


def _read_instance(spec) -> dict:
    """The field values of an instance spec, as its family declares them."""
    family = spec.get("family") if _is(spec, dict) else None
    fields = {}
    # a tuple, not the dict: the family may be any JSON value, a list included
    if family in tuple(_FAMILIES):
        record = _FAMILIES[family]
        pinned = record.pinned is not None and ("data" in spec or "path" in spec)
        fields = record.pinned if pinned or record.generated is None else record.generated
    values = _read(spec, {"family": _FAMILY, **fields}, "config.instance")
    if "data" in values and "path" in values:
        raise ConfigError("config.instance.path", "must not be given together with data")
    return values


@dataclass
class SolverSpec:
    name: str
    schedule: dict
    label: str
    repetitions: int = 1


@dataclass
class ExperimentConfig:
    instance: dict
    solvers: list[SolverSpec]
    # the grad-units that cap every run, and the tolerance that ends one
    budget: float
    tol: float
    seed: int

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """Read a config document; every field, the instance spec's and the
        grid lists included, is checked before anything is built or run."""
        top = _read(doc, _CONFIG, "config")
        _read_instance(top["instance"])
        solvers = []
        for i, entry_doc in enumerate(top["solvers"]):
            path = f"config.solvers[{i}]"
            name = entry_doc.get("name") if _is(entry_doc, dict) else None
            entry = _read(entry_doc, _entry_fields(name), path)
            fields = _schedule_fields(entry["name"], entry["schedule"].get("source", "theory"))
            entry["schedule"] = _read(entry["schedule"], fields, f"{path}.schedule")
            solvers.append(SolverSpec(**entry))
        stop = _read(top["stopping"], _STOPPING, "config.stopping")
        return cls(instance=top["instance"], solvers=solvers, budget=float(top["budget"]),
                   tol=float(stop["tol"]), seed=top["seed"])

    @classmethod
    def load(cls, path, **overrides) -> "ExperimentConfig":
        """Read the config file at ``path`` (--config); each override that is
        not None replaces that top-level field before the document is read."""
        doc = load_json(path, "--config")
        if isinstance(doc, dict):
            doc.update((k, v) for k, v in overrides.items() if v is not None)
        return cls.from_dict(doc)


@dataclass
class InstanceBundle:
    """Everything the solvers need for one instance: the saddle problem, its
    finite-sum forms when available, and a certified reference solution."""

    family: str
    problem: SaddleProblem
    x_star: np.ndarray
    fsp: RowSum | DenseSum | None = None
    primal_fsp: RowSum | DenseSum | None = None
    # nothing reads y_star; deleting it waits for the fix to perfbench's
    # reference loop (ROADMAP item 1), whose timing its 4 KB array moves
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


def build_instance(spec: dict) -> InstanceBundle:
    """Construct an InstanceBundle from a config instance spec, by the
    _FAMILIES record of its family.  A malformed field, pinned-document
    fields included, or data a builder rejects, is a ConfigError; a
    reference solver that misses its tolerance raises RuntimeError.
    """
    values = _read_instance(spec)
    try:
        return _build_family(values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("config.instance", str(exc)) from exc


def _build_family(v: dict) -> InstanceBundle:
    """The bundle of the read spec ``v``; a pinned document is read through
    its family's document fields, at the field that holds it."""
    family = _FAMILIES[v["family"]]
    data = None
    for key in ("data", "path"):  # _read_instance allows one at most
        if key in v:
            where = f"config.instance.{key}"
            doc = v[key] if key == "data" else load_json(v[key], where)
            values = _read(doc, {"family": _Field(str, ..., _one_of(v["family"])),
                                 **family.document_fields}, where)
            del values["family"]
            data = family.document(**values)
    if data is None and family.generated is None:
        raise ConfigError("config.instance", f"{v['family']} family needs 'data' or 'path'")
    return InstanceBundle(family=v["family"], **family.build(v, data))


# ---------------------------------------------------------------------------
# trace post-processing
# ---------------------------------------------------------------------------

def fitted_slope(grad_evals, dist_x) -> float | None:
    """OLS slope of log10(dist_x) against grad-units, after dropping the
    first tenth of the rows.  None when fewer than two usable rows remain."""
    u = np.asarray(grad_evals, dtype=float)
    d = np.asarray(dist_x, dtype=float)
    keep = np.isfinite(u) & np.isfinite(d) & (d > 0)
    u, d = u[keep], d[keep]
    skip = int(math.ceil(0.1 * len(u)))
    u, d = u[skip:], d[skip:]
    if len(u) < 2 or np.ptp(u) == 0:
        return None
    logd = np.log10(np.maximum(d, 1e-300))
    slope = np.polyfit(u, logd, 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# from a step point to a run
# ---------------------------------------------------------------------------

def _filled(point: dict, n: int) -> dict:
    """SvrgConfig's step keys, in its order, from a stochastic step point on
    an n-component sum, with defaults for the keys it leaves out:
    eta2 = eta1, inner_iters = 2n, mu = 1."""
    eta1 = float(point["eta1"])
    return {"eta1": eta1, "eta2": float(point.get("eta2", eta1)),
            "inner_iters": int(point.get("inner_iters", 2 * n)),
            "mu": float(point.get("mu", 1.0))}


def _run_point(bundle: InstanceBundle, solver: str, point: dict, *,
               cap: float, tol: float, dist_tol: float | None = None, seed: int = 0):
    """One run of ``solver`` from the step ``point``, capped at ``cap``
    grad-units (a batch step costs 1, an epoch 1 + 2N/n) and stopped once a
    batch run's gradient norm drops to tol or dist_x to dist_tol (default:
    tol); returns the trace and the runner's step arguments.  A batch point
    holds those already; a stochastic one is completed here, the one place
    that does so: _filled's defaults and the epochs ``cap`` affords."""
    entry = SOLVERS[solver]
    run = globals()[entry.runner]
    stop = StoppingRule(max_iters=max(1, int(cap)), tol=tol, dist_tol=dist_tol)
    if entry.form is None:
        return run(bundle.problem, **point, stop=stop, x_star=bundle.x_star), point
    fsp = bundle.finite_sum(entry.form)
    full = _filled(point, fsp.n)
    full["epochs"] = max(1, int(cap / (1.0 + 2.0 * full["inner_iters"] / fsp.n)))
    return run(fsp, cfg=SvrgConfig(seed=seed, **full), x_star=bundle.x_star, stop=stop), full


def _shown(point: dict) -> dict:
    """Runner step arguments as summary.json shows them: a certified
    schedule by its steps, its lambda (a PdgSchedule's) and its rate."""
    sched = point.get("schedule")
    if sched is None:
        return point
    lam = {"lambda": sched.lambda_} if isinstance(sched, PdgSchedule) else {}
    return {"eta1": sched.eta1, "eta2": sched.eta2, **lam, "rate": sched.rate}


def _theory(make, *args):
    """``make(*args)``, a schedule or step of the theory.  Finite but extreme
    curvature constants can overflow its formulas, divide by an underflowed
    sigma_min^2 or give a rate outside (0, 1): that is a ConfigError at the
    instance."""
    try:
        return make(*args)
    except ConfigError:
        raise
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigError("config.instance",
                          f"no theory step for its curvature constants: {exc}") from exc


def _theory_point(bundle: InstanceBundle, spec: SolverSpec) -> dict | None:
    """The step point of a theory entry on ``bundle``; None for the other
    sources."""
    if spec.schedule["source"] != "theory":
        return None
    return _theory(SOLVERS[spec.name].theory[spec.schedule.get("variant")], bundle)


def _run_one(bundle: InstanceBundle, spec: SolverSpec, point: dict | None,
             config: ExperimentConfig):
    """Run one solver entry; returns (trace, info dict, list of rep traces).

    The step point is ``point``, the entry's theory point, or else its
    explicit steps or the best point of its grid.  Each run is capped at the
    config's budget; a stochastic entry runs ``spec.repetitions`` times,
    over seeds seed + r."""
    entry = SOLVERS[spec.name]
    schedule = spec.schedule
    info: dict = {"name": spec.name, "source": schedule["source"]}
    if point is None:
        if schedule["source"] == "grid":
            result = grid_search(bundle, spec.name, schedule, budget=config.budget,
                                 seed=config.seed)
            if result["status"] != "ok":
                raise DivergenceError("no convergent schedule in the grid", 0, None)
            info["grid_best"] = schedule = result["best"]
        point = {k: float(schedule[k]) for k in entry.keys if k in schedule}
    runs = [_run_point(bundle, spec.name, point, cap=config.budget, tol=config.tol,
                       seed=config.seed + r) for r in range(spec.repetitions)]
    info["schedule"] = _shown(runs[0][1])
    traces = [trace for trace, _ in runs]
    return traces[0], info, traces


def _unique_stem(name: str, used: set) -> str:
    """``name``, or ``name_2``, ``name_3``, ... if already in ``used``."""
    stem, k = name, 2
    while stem in used:
        stem = f"{name}_{k}"
        k += 1
    used.add(stem)
    return stem


def _prepared(config: ExperimentConfig, specs: list[SolverSpec]):
    """The built instance and the theory point of each of ``specs``, the
    entries a command will run, with the finite sum of each stochastic one
    looked up, before the command makes its output directory: an instance
    that refuses one (an sc variant on an f that is not strongly convex, a
    stochastic solver on a family without a finite sum) exits with nothing
    written.  So is a ``budget`` below one batch step (1 grad-unit) or below
    one epoch, 1 + 2N/n, at the largest inner_iters N an entry may run."""
    bundle = build_instance(config.instance)
    points = [_theory_point(bundle, spec) for spec in specs]
    for spec, point in zip(specs, points):
        least, what = 1.0, "step"
        if SOLVERS[spec.name].form is not None:
            n = bundle.finite_sum(SOLVERS[spec.name].form).n
            inner = (point or spec.schedule).get("inner_iters", 2 * n)
            least, what = 1.0 + 2.0 * int(np.max(inner)) / n, "epoch"
        if config.budget < least:
            raise ConfigError("config.budget", f"must cover one {what} of {spec.name} "
                                               f"({least!r} grad-units), got {config.budget!r}")
    return bundle, points


def cmd_solve(config: ExperimentConfig, out_dir) -> dict:
    """Run every configured solver, write one trace CSV per solver plus
    summary.json.  A diverging solver is recorded in the summary without
    aborting the others.  An error that needs the instance is found before
    anything is written (_prepared)."""
    bundle, points = _prepared(config, config.solvers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    used = set()
    summary: dict = {"instance": {"family": bundle.family,
                                  "reference_norm": float(np.linalg.norm(bundle.x_star))},
                     "solvers": []}

    for spec, point in zip(config.solvers, points):
        stem = _unique_stem(spec.label or spec.name, used)
        entry: dict = {"name": spec.name, "csv": f"{stem}.csv"}
        try:
            trace, info, reps = _run_one(bundle, spec, point, config)
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
            entry["slope"] = fitted_slope(trace.column("grad_evals"), trace.column("dist_x"))
            entry["potential_kind"] = trace.potential_kind
        if len(reps) > 1:
            rows = min(len(t) for t in reps)
            if trace.potential_kind is not None:
                pots = [t.column("potential")[:rows] for t in reps]
                entry["mean_potential_per_epoch"] = list(np.mean(pots, axis=0))
            dists = [t.column("dist_x")[:rows] for t in reps]
            entry["mean_dist_x_per_epoch"] = list(np.mean(dists, axis=0))
            entry["repetitions"] = len(reps)
        summary["solvers"].append(entry)

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
    return summary


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def _grid_points(solver: str, grid: dict, n: int | None):
    """The keys of ``solver``'s grid and its points, sorted by value: the
    Cartesian product of the value lists of a grid read through
    _schedule_fields, with a stochastic point's defaults (_filled) on an
    n-component sum for the keys the grid leaves out."""
    keys = list(SOLVERS[solver].keys)
    points = [{}]
    for key in (k for k in keys if k in grid):
        points = [dict(p, **{key: v}) for v in grid[key] for p in points]
    if n is not None:
        points = [_filled(p, n) for p in points]
    points = [{k: float(p[k]) for k in keys} for p in points]
    points.sort(key=lambda p: tuple(p[k] for k in keys))
    return keys, points


def grid_search(bundle: InstanceBundle, solver: str, grid: dict, *,
                budget: float, seed: int = 0) -> dict:
    """Run every grid point to the grad-unit budget; rank by final dist_x.
    The sort is stable over points _grid_points sorted by their key tuple,
    so ties keep that order.

    Returns {"status", "best", "ranked", "keys"}; status is
    "no_convergent_schedule" when every point diverges.
    """
    form = SOLVERS[solver].form
    grid = _read(grid, _schedule_fields(solver, "grid"), "schedule")
    keys, points = _grid_points(solver, grid, bundle.finite_sum(form).n if form else None)
    rows = []
    for point in points:
        row = dict(point)
        try:
            trace, _ = _run_point(bundle, solver, point, cap=budget, tol=1e-300, seed=seed)
            row["final_dist_x"] = trace.final_dist_x()
            row["status"] = "ok"
        except DivergenceError as exc:
            row["final_dist_x"] = math.inf
            row["status"] = "diverged"
            row["error"] = str(exc)
        rows.append(row)

    ranked = sorted(rows, key=lambda row: row["final_dist_x"])
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
    ended.  Later candidates only run as long as the incumbent's units.

    Every candidate runs with dist_tol = target and a gradient-norm floor of
    tol = target * 1e-3 (only batch runs check it), so it ends at the first
    row with dist_x <= target, the row Trace.units_to_target reads, or at
    the floor or the cap.  Such a run is a prefix of one that goes on to
    dist_x <= target * 1e-3, so the units and the point are the ones that
    longer run gives, with one exception: a run that reaches the target and
    diverges later counts here, where the longer run was skipped."""
    entry = SOLVERS[solver]
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
            trace, _ = _run_point(bundle, solver, point, cap=cap, tol=target * 1e-3,
                                  dist_tol=target, seed=seed)
        except DivergenceError:
            continue
        units = trace.units_to_target(target)
        if units is not None:
            measured += 1
            if best is None or units < best[0]:
                best = (units, point)
    return best if best is not None else (None, None)


def cmd_grid(config: ExperimentConfig, out_dir) -> dict:
    """Grid-search each solver entry whose schedule source is 'grid' to the
    config's budget; write a sweep CSV per solver and best.json with the
    selected points.  A config without a grid entry, or an error that needs
    the instance (_prepared), is found before anything is written."""
    specs = [spec for spec in config.solvers if spec.schedule["source"] == "grid"]
    if not specs:
        raise ConfigError("config.solvers", "no entry has schedule source 'grid'")
    bundle, _ = _prepared(config, specs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    report: dict = {"budget": config.budget, "solvers": []}
    used = set()
    for spec in specs:
        stem = _unique_stem(spec.label or spec.name, used)
        result = grid_search(bundle, spec.name, spec.schedule, budget=config.budget,
                             seed=config.seed)
        sweep_path = out / f"sweep_{stem}.csv"
        keys = result["keys"]
        with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*keys, "final_dist_x", "status"])
            for row in result["ranked"]:
                writer.writerow([
                    *(repr(row[k]) for k in keys), repr(row["final_dist_x"]), row["status"],
                ])
        report["solvers"].append({"name": spec.name, "sweep_csv": sweep_path.name,
                                  "status": result["status"], "best": result["best"]})
    with open(out / "best.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
    return report


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(instance_spec: dict) -> dict:
    """Curvature constants of the instance plus the theoretical schedule."""
    bundle = build_instance(instance_spec)
    p = bundle.problem.params
    sched = _theory(pdg_schedule, p)
    # the curvature constants, rho to sigma_min, in SmoothnessParams order
    out = {"status": "ok", "family": bundle.family, "d1": bundle.problem.d1,
           "d2": bundle.problem.d2, **vars(p), "lambda": sched.lambda_,
           "eta1": sched.eta1, "eta2": sched.eta2, "rate": sched.rate}
    if bundle.fsp is not None:
        out["M"] = bundle.fsp.M
    return out


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _verify_contraction(trials: int, seed: int, *, strongly_convex: bool = False) -> dict:
    """Check the per-step contraction of the certified potential on random
    quadratics over 500 steps: P_t under pdg_schedule, or with
    ``strongly_convex`` R_t under sc_schedule, over 300 steps, on instances
    whose f is strongly convex."""
    iters = 300 if strongly_convex else 500
    passes = 0
    failures = []
    worst = 0.0
    for k in range(trials):
        problem = inst_mod.random_quadratic(seed + k, strongly_convex=strongly_convex)
        x_star, _, _ = reference_solution(problem, "direct")
        sched = _sc_schedule(problem) if strongly_convex else pdg_schedule(problem.params)
        trace = run_pdg(problem, schedule=sched, stop=StoppingRule(iters, 1e-300),
                        x_star=x_star)
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


def _verify_props(trials: int, seed: int, eta1_scale: float | None = None,
                  eta2_scale: float | None = None) -> dict:
    """Check the four step-to-step inequalities behind the contraction proof
    at each of 200 steps.

    By default the theoretical schedule is used, which satisfies every
    precondition.  ``eta1_scale``/``eta2_scale`` instead set the step size to
    that multiple of the respective precondition bound (2/(gamma+delta) for
    the primal, 2/(alpha+beta) for the dual); inequalities whose precondition
    then fails are reported as out_of_precondition rather than checked, and a
    diverging run ends the trial early without counting as a refutation.
    """
    for name, scale in (("eta1_scale", eta1_scale), ("eta2_scale", eta2_scale)):
        if scale is not None and not 0 < scale < math.inf:
            raise ConfigError(name, f"must be > 0 and finite, got {scale}")
    iters = 200
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
        bound2 = sched.eta2
        eta1 = sched.eta1 if eta1_scale is None else eta1_scale * bound1
        eta2 = sched.eta2 if eta2_scale is None else eta2_scale * bound2
        pre1 = eta1 <= bound1 * (1 + 1e-12)
        pre2 = eta2 <= bound2 * (1 + 1e-12)

        it = Iterate(np.zeros(problem.d1), np.zeros(problem.d2))
        for _ in range(iters):
            a_t = float(np.linalg.norm(it.x - x_star))
            b_t = _b_t(problem, it.x, it.y)
            slack = 1e-12 * (1.0 + a_t + b_t)

            tally("ghost_contraction", pre1, lambda: np.linalg.norm(
                ghost_step(problem, it.x, eta1) - x_star) > (1 - delta * eta1) * a_t + slack)
            try:
                nxt = pdg_step(problem, it, eta1, eta2)
            except DivergenceError:
                diverged_trials += 1
                break
            a_n = float(np.linalg.norm(nxt.x - x_star))
            b_n = _b_t(problem, nxt.x, nxt.y)

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


# (step scale x alpha/M^2, epoch length x n) in search order; the 16n points
# rescue instances that need long epochs at every step scale tried
_HALVING_SEARCH = [(c, m) for c in (0.5, 0.25, 0.125) for m in (4, 8, 2)] + [
    (0.5, 16), (0.25, 16), (0.125, 16)]
# the suite's finite sums: n components of a d x d quadratic; each point runs
# this many epochs over this many seeds
_HALVING_N, _HALVING_D = 50, 10
_HALVING_SEEDS, _HALVING_EPOCHS = 30, 10


def _verify_svrg_halving(trials: int, seed: int) -> dict:
    """Find, per random instance, a stochastic config whose seed-averaged
    epoch potential at least halves every epoch."""
    results = []
    refuted = False
    for k in range(trials):
        problem = inst_mod.random_quadratic(seed + 17 * k, _HALVING_D, _HALVING_D)
        fsp = inst_mod.split_quadratic(problem, _HALVING_N, seed=seed + 17 * k + 1)
        x_star, _, _ = reference_solution(problem, "direct")
        base = problem.params.alpha / fsp.M**2
        found = None
        tried = []
        for c_eta, n_mult in _HALVING_SEARCH:
            point = _filled({"eta1": c_eta * base, "inner_iters": n_mult * fsp.n}, fsp.n)
            ratios = _halving_ratio(fsp, x_star, point)
            tried.append({"eta": point["eta1"], "inner_iters": point["inner_iters"],
                          "max_ratio": ratios})
            if ratios is not None and ratios <= 0.5:
                found = {**point, "max_mean_ratio": ratios}
                break
        if found is None:
            refuted = True
        results.append({"trial": k, "config": found, "tried": tried})
    return {
        "suite": "svrg_halving", "trials": trials, "n": _HALVING_N, "d": _HALVING_D,
        "seeds": _HALVING_SEEDS, "epochs": _HALVING_EPOCHS,
        "results": results, "refuted": refuted,
    }


def _halving_ratio(fsp, x_star, point) -> float | None:
    pots = []
    for s in range(_HALVING_SEEDS):
        cfg = SvrgConfig(**point, epochs=_HALVING_EPOCHS, seed=s)
        try:
            trace = run_pdsvrg(fsp, cfg=cfg, x_star=x_star)
        except DivergenceError:
            return None
        pots.append(trace.column("potential"))
    mean = np.mean(pots, axis=0)
    if np.any(mean <= 0):
        return None
    # an underflowed potential gives an infinite ratio: no point found
    with np.errstate(over="ignore"):
        ratio = float(np.max(mean[1:] / mean[:-1]))
    return ratio if math.isfinite(ratio) else None


class _Suite(NamedTuple):
    """A verify suite: its check, called as (trials, seed, **options), and
    the options it takes (the CLI's step-scale flags)."""
    check: Callable[..., dict]
    options: tuple[str, ...] = ()


_SUITES = {
    "contraction": _Suite(_verify_contraction),
    "sc_contraction": _Suite(functools.partial(_verify_contraction, strongly_convex=True)),
    "props": _Suite(_verify_props, ("eta1_scale", "eta2_scale")),
    "svrg_halving": _Suite(_verify_svrg_halving),
}


def cmd_verify(suite: str, trials: int, seed: int = 0, **kw) -> dict:
    """Run the certificate suite ``suite`` of _SUITES; the report carries a
    'refuted' flag."""
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if value < least:
            raise ConfigError(name, f"must be >= {least}, got {value}")
    if suite not in _SUITES:
        raise ConfigError("suite", f"must be one of {sorted(_SUITES)}, got {suite!r}")
    return _SUITES[suite].check(trials, seed, **kw)
