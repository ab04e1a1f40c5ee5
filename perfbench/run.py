"""Benchmark entry point.

    python3 perfbench/run.py --workload batch_l1 --seed 11 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads, metrics and the reasons for them are in ``BENCHMARK.json`` and
``perfbench/spec.json``.

Each run starts one worker process for the timed workload, preceded by
set-up-only workers: set-up time is the median over all of them of the CPU
time each worker used from its start to its READY line.  Workers run one
after another, never side by side, with every BLAS/OpenMP pool pinned to one
thread in their environment.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records the
environment.  The full result, with per-pass samples and (traced runs) the
spans, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import selfcheck  # noqa: E402

SETUP_RUNS = 5          # set-up samples per run, the timed worker included
DEADLINE_S = 170.0      # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="pdsaddle benchmark")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in selfcheck.benchmark()["workloads"]])
    p.add_argument("--seed", type=int, default=selfcheck.spec()["default_seed"])
    p.add_argument("--seconds", type=float, default=selfcheck.benchmark()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(args, deadline: float, setup_only: bool):
    """Run one worker to its end, killing it at the run deadline.

    Returns (set-up seconds, result dict, exit code); the first two are None
    when the worker did not print them."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    setup_s = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("READY ") and setup_s is None:
                setup_s = float(line[len("READY "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    return setup_s, result, code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pdsaddle").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    setups = []
    # a traced run reports no set-up time, so it needs no extra set-up samples
    for _ in range(0 if args.trace else SETUP_RUNS - 1):
        setup_s, _, code = run_worker(args, deadline, setup_only=True)
        if code != 0 or setup_s is None:
            print(f"perfbench: set-up worker failed (exit {code})", file=sys.stderr)
            return 1
        setups.append(setup_s)
    setup_s, result, code = run_worker(args, deadline, setup_only=False)
    if code != 0 or result is None or setup_s is None:
        print(f"perfbench: worker failed (exit {code})", file=sys.stderr)
        return 1
    setups.append(setup_s)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    kind = "per_layer" if args.trace else "end_to_end"
    emitted = {name: {"value": value, "unit": selfcheck.unit_of(name)}
               for name, value in metrics.items()}
    problems = selfcheck.check_emitted(kind, emitted)
    if problems:
        for p in problems:
            print(f"perfbench: self-check: {p}", file=sys.stderr)
        return 1

    env = dict(result["env"], nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), git_rev=git_rev(),
               src_sha256=source_digest(), workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace,
               setup_samples_s=setups)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {"provenance": env, "metrics": emitted, "samples": result["samples"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "spans": result["spans"]}
    out_file.write_text(json.dumps(full) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(env))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": emitted}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
