"""The two benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as set-up),
then ``run_part`` runs one of its two parts and returns the part's grad-units
to target, the grad-units its solver runs spent (the base of the part's time
per grad-unit) and its outputs; a pass is part a then part b.  Every pass of
a run sees the same inputs, so the outputs must repeat exactly from pass to
pass; ``Outcome`` collects the operation counts and every failed output
check.

Parts, per workload (see spec.json for why each workload exists):

* batch_l1:      a = primal_gd, b = pdg; each is the criterion-7 grid_search
                 followed by measure_units_to_target to dist_x <= 1e-6.
* stochastic_l1: a = primal_svrg, b = pdsvrg, each run to dist_x <= 1e-6
                 through measure_units_to_target over R solver seeds.

Functions are called through their module attributes (``harness.x``), so the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import sys

from pdsaddle import harness

TARGET = 1e-6
# Solver seeds per pass of stochastic_l1 (seed, seed + 1, ...), as the
# ``repetitions`` of a config use them.
STOCHASTIC_REPEATS = 2


class Outcome:
    """Operations attempted and failed, plus failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: failed operation: {what}", file=sys.stderr)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
            print(f"perfbench: wrong output: {what}", file=sys.stderr)
        return ok


def smoothed_l1_spec(seed: int, cov: str, decay=None) -> dict:
    spec = {"family": "smoothed_l1", "n": 500, "d": 200,
            "covariance": cov, "seed": seed}
    if decay is not None:
        spec["decay"] = decay
    return spec


class Workload:
    name = ""

    def __init__(self, seed: int, outcome: Outcome, recorder):
        self.seed = seed
        self.outcome = outcome
        self.recorder = recorder
        self.first = {}        # part -> outputs of its first run
        # reference-solution stalls among the set-up builds (criterion-7
        # context builds that the timed passes do not use)
        self.reference_failures = 0
        self.builds = 0

    def build(self, spec: dict, *, used: bool):
        """Build an instance; a failure of one the passes use is a failed
        operation, a failure of a context build is a reference failure."""
        self.builds += 1
        try:
            bundle = harness.build_instance(spec)
        except RuntimeError as exc:
            label = spec.get("covariance") + str(spec.get("decay") or "")
            print(f"perfbench: {label} build at seed {spec['seed']}: {exc}",
                  file=sys.stderr)
            self.reference_failures += 1
            if used:
                self.outcome.op(False, f"build {label}")
            return None
        if used:
            self.outcome.op(True, "build")
        return bundle

    def run_part(self, part: int):
        """Run part 0 (a) or 1 (b) once; returns (grad-units to target,
        grad-units spent, outputs)."""
        raise NotImplementedError

    def spent_since(self, before: float) -> float:
        """Grad-units every solver run since ``before`` spent."""
        return self.recorder.solver_units - before

    def same_as_first(self, part: int, outputs):
        first = self.first.setdefault(part, outputs)
        self.outcome.check(outputs == first,
                           f"{self.name} part {part}: outputs differ between "
                           f"passes: {outputs!r} vs {first!r}")

    def micro_context(self):
        """(aggregate problem, finite-sum saddle, finite-sum primal) that the
        per-layer microbenchmarks run on."""
        raise NotImplementedError


class BatchL1(Workload):
    name = "batch_l1"

    def setup(self):
        # criterion 7 builds all three covariance cases; the passes time the
        # worst-conditioned one
        self.build(smoothed_l1_spec(self.seed, "identity"), used=False)
        self.build(smoothed_l1_spec(self.seed, "exp_decay", 2), used=False)
        self.bundle = self.build(smoothed_l1_spec(self.seed, "exp_decay", 10),
                                 used=True)
        if self.bundle is None:
            return False
        p = self.bundle.problem.params
        gamma = p.rho + p.sigma_max**2 / p.alpha
        n = self.bundle.fsp.n
        self.plans = (
            ("primal_gd", {"eta": [s / gamma for s in (0.5, 0.8, 1.2, 1.5, 1.8, 1.95)]},
             2000, 200_000),
            ("pdg", {"eta1": [s / gamma for s in (0.2, 0.35, 0.5, 0.7, 0.9, 1.1)],
                     "eta2": [n / 2, n]},
             6000, 400_000),
        )
        return True

    def run_part(self, part: int):
        solver, grid, budget, max_units = self.plans[part]
        before = self.recorder.solver_units
        result = harness.grid_search(self.bundle, solver, grid, budget=budget)
        u = pt = None
        if self.outcome.op(result["status"] == "ok", f"grid_search {solver}"):
            u, pt = harness.measure_units_to_target(
                self.bundle, solver, result["ranked"], TARGET, max_units=max_units)
        self.outcome.op(u is not None, f"{solver} to {TARGET}")
        return u, self.spent_since(before), (
            u, pt, [(r["status"], r["final_dist_x"]) for r in result["ranked"]])

    def micro_context(self):
        return self.bundle.problem, self.bundle.fsp, self.bundle.primal_fsp


class StochasticL1(Workload):
    name = "stochastic_l1"

    def setup(self):
        self.bundle = self.build(smoothed_l1_spec(self.seed, "identity"), used=True)
        if self.bundle is None:
            return False
        fsp = self.bundle.fsp
        eta1 = 0.6 / fsp.M**2
        inner = 2 * fsp.n
        # the criterion-7 grid winner for pdsvrg; primal SVRG at the same scale
        self.plans = (
            ("primal_svrg", {"status": "ok", "eta1": eta1, "inner_iters": inner}),
            ("pdsvrg", {"status": "ok", "eta1": eta1, "eta2": 0.5,
                        "inner_iters": inner, "mu": 1.0}),
        )
        return True

    def run_part(self, part: int):
        solver, point = self.plans[part]
        before = self.recorder.solver_units
        got = [harness.measure_units_to_target(
                   self.bundle, solver, [point], TARGET, max_units=60_000,
                   seed=self.seed + r)[0]
               for r in range(STOCHASTIC_REPEATS)]
        for r, u in enumerate(got):
            self.outcome.op(u is not None, f"{solver} seed {self.seed + r} to {TARGET}")
        ok = [u for u in got if u is not None]
        return (sum(ok) / len(ok) if ok else None), self.spent_since(before), got

    def micro_context(self):
        return self.bundle.problem, self.bundle.fsp, self.bundle.primal_fsp


WORKLOADS = {w.name: w for w in (BatchL1, StochasticL1)}
