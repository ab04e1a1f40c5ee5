"""One workload in one process: set up, run timed passes, check outputs.

Started by run.py, never by hand.  Prints ``READY <seconds>`` once set-up is
done, with the CPU time the process has used since it started (interpreter
start, imports, instance builds).  With ``--setup-only`` it exits there;
otherwise it runs passes for ``--seconds`` and prints ``RESULT <json>`` as its
last line.

Times that end-to-end metrics come from are CPU time of the process's one
thread (BLAS is pinned to one thread): unlike wall time it leaves out the
time a shared host runs other work on this CPU.  Wall time is kept beside it
in every sample.  In an untraced run the reference loop of ``reference.py``
runs in step with every part; a part's end-to-end metric is its median CPU
time per grad-unit over the passes, divided by the median CPU time of one
iteration of the loop while that part ran.

Without ``--trace`` no span wrapper is installed and the pass medians are the
end-to-end metrics.  With ``--trace`` the spans and layer microbenchmarks give
the per-layer metrics, and untraced and traced passes alternate so that the
tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    """Interpreter, numpy, BLAS and thread settings of this process."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_passes(workload, seconds: float, rec, traced: bool):
    """Passes until the next one would end more than half a pass past the
    deadline.  In a traced run passes alternate untraced / traced, starting
    untraced, and at least one of each runs."""
    import reference

    samples = {"untraced": [], "traced": []}
    start = time.perf_counter()
    k = 0
    while True:
        trace_this = traced and k % 2 == 1
        sample = {}
        for part, label in enumerate("ab"):
            rec.enabled = trace_this
            rec.phase = "pass" if trace_this else ""
            with reference.Interleaved(rec, active=not traced) as ref:
                t0, c0 = time.perf_counter(), rec.own_cpu_s()
                units, spent, outputs = workload.run_part(part)
                sample[f"part_{label}_cpu_s"] = rec.own_cpu_s() - c0
                sample[f"part_{label}_s"] = time.perf_counter() - t0
            rec.enabled = False
            sample[f"part_{label}_ref_chunks_s"] = ref.chunks_s
            sample[f"part_{label}_units"] = units
            sample[f"part_{label}_spent_units"] = spent
            workload.outcome.check(spent > 0, f"part {label} spent no grad-units")
            workload.same_as_first(part, outputs)
        sample["wall_s"] = sample["part_a_s"] + sample["part_b_s"]
        samples["traced" if trace_this else "untraced"].append(sample)
        k += 1
        if traced and k < 2:
            continue
        if time.perf_counter() - start + 0.5 * sample["wall_s"] >= seconds:
            return samples


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def cpu_us_per_unit(samples, label) -> float:
    """Median over passes of a part's CPU time per grad-unit spent."""
    return statistics.median(
        s[f"part_{label}_cpu_s"] / s[f"part_{label}_spent_units"] * 1e6 for s in samples)


def ref_per_unit(samples, label) -> float:
    """A part's CPU time per grad-unit spent, in CPU times of one iteration
    of the reference loop run in step with it."""
    import reference

    chunks = [c for s in samples for c in s[f"part_{label}_ref_chunks_s"]]
    return (cpu_us_per_unit(samples, label) * 1e-6
            / (statistics.median(chunks) / reference.CHUNK_ITERS))


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import pdsaddle.cli  # noqa: F401  (the package as the CLI loads it)
    import_s = time.perf_counter() - t0

    import tracing
    from workloads import WORKLOADS, Outcome

    rec = tracing.Recorder()
    tracing.install(rec, spans=bool(args.trace))
    outcome = Outcome()
    workload = WORKLOADS[args.workload](args.seed, outcome, rec)
    rec.enabled = bool(args.trace)
    rec.phase = "setup"
    ready = workload.setup()
    rec.enabled = False
    print(f"READY {time.process_time()!r}", flush=True)
    if args.setup_only:
        return 0
    if not ready:
        print("perfbench: set-up failed, nothing to time", file=sys.stderr)
        return 1

    samples = run_passes(workload, args.seconds, rec, bool(args.trace))
    untraced = samples["untraced"]
    outcome.check(not rec.violations, "; ".join(rec.violations[:3]))

    env = environment()
    if args.trace:
        import layers

        micro = layers.microbenchmarks(*workload.micro_context())
        traced = samples["traced"]
        metrics = {"cli.import_s": import_s,
                   "instances.builds": workload.builds,
                   "instances.reference_failures": workload.reference_failures}
        metrics.update(layers.setup_metrics(rec))
        metrics.update(micro)
        metrics.update(layers.span_metrics(rec, len(traced), micro))
        untraced_wall = median_of(untraced, "wall_s")
        metrics["trace.overhead"] = median_of(traced, "wall_s") / untraced_wall - 1
        metrics["trace.overhead_est"] = (
            metrics["trace.spans"] * layers.span_cost_us() * 1e-6 / untraced_wall)
        metrics["harness.ops_attempted"] = outcome.attempted
        metrics["harness.ops_failed"] = outcome.failed
        spans = rec.to_json()
    else:
        metrics = {f"part_{label}_ref_per_unit": ref_per_unit(untraced, label)
                   for label in "ab"}
        for key in ("part_a_units", "part_b_units",
                    "part_a_spent_units", "part_b_spent_units"):
            # passes repeat their outputs exactly (checked), so any pass will do
            metrics[key] = untraced[0][key] if untraced[0][key] is not None else 0.0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spans = None
        # the plain CPU times, for the record
        for label in "ab":
            env[f"part_{label}_cpu_us_per_unit"] = cpu_us_per_unit(untraced, label)

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "samples": samples,
        "spans": spans,
        "env": env,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
