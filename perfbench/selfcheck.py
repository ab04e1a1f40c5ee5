"""Self-check of the benchmark definition and of what a run emits.

    python3 perfbench/selfcheck.py          # static checks of the definition
    python3 perfbench/selfcheck.py --run    # also run every workload briefly,
                                            # untraced and traced

Static checks: every metric and workload name matches [A-Za-z0-9_.-]+, every
unit listed in BENCHMARK.json is the unit the benchmark code gives that
metric, and spec.json describes exactly the workloads and metrics of
BENCHMARK.json (every per-layer metric has a place in the interaction map).
run.py applies ``check_emitted`` to every result before it
prints it: each run must emit every metric of its kind, each with its unit,
and nothing else.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@cache
def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@cache
def spec() -> dict:
    return json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def unit_of(name: str) -> str:
    """The unit the benchmark code reports ``name`` in, from its last part."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ref_per_unit"):
        return "ref/grad-unit"
    if last.endswith("_us") or last.startswith("us_per_"):
        return "us"
    if last.endswith("_s") or last.startswith("s_per_"):
        return "s"
    if last.endswith("_mb"):
        return "MB"
    if last.endswith("units"):
        return "grad-units"
    if last.endswith(("share", "ratio", "overhead", "overhead_est")):
        return "ratio"
    return "count"


def check_emitted(kind: str, emitted: dict) -> list[str]:
    """Problems with the metrics of one run; empty when all is well."""
    listed = {m["name"]: m["unit"] for m in benchmark()[kind]}
    problems = []
    for name, unit in listed.items():
        if name not in emitted:
            problems.append(f"{kind} metric {name} not emitted")
        elif emitted[name]["unit"] != unit:
            problems.append(f"{name} emitted in {emitted[name]['unit']}, "
                            f"BENCHMARK.json says {unit}")
    for name, entry in emitted.items():
        if name not in listed:
            problems.append(f"{name} emitted but not listed as {kind}")
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or value != value:
            problems.append(f"{name} has no numeric value: {value!r}")
    return problems


def check_definition() -> list[str]:
    bench, sp = benchmark(), spec()
    problems = []
    workloads = [w["name"] for w in bench["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            if not NAME.fullmatch(m["name"]):
                problems.append(f"bad metric name {m['name']!r}")
            if m["unit"] != unit_of(m["name"]):
                problems.append(f"{m['name']}: unit {m['unit']} in BENCHMARK.json, "
                                f"{unit_of(m['name'])} in the code")
    for name in workloads:
        if not NAME.fullmatch(name):
            problems.append(f"bad workload name {name!r}")
    if sorted(workloads) != sorted(sp["workloads"]):
        problems.append("spec.json and BENCHMARK.json list different workloads")
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    for w, doc in sp["workloads"].items():
        if set(doc["metrics"]) != e2e:
            problems.append(f"spec.json: {w} does not describe every end-to-end metric")
    mapped = {name for entry in sp["interactions"] for name in entry["layer_metrics"]}
    for name in sorted(mapped ^ layer):
        problems.append(f"spec.json interactions and BENCHMARK.json per_layer "
                        f"disagree on {name}")
    for entry in sp["interactions"] + sp["predictions"]:
        for name in entry["moves"] + entry.get("no_move", []):
            metric, _, workload = name.partition("@")
            if metric not in e2e or workload not in workloads:
                problems.append(f"spec.json interaction names unknown {name}")
    return problems


def run_all() -> list[str]:
    problems = []
    for w in benchmark()["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if out.returncode != 0:
                problems.append(f"{w['name']} trace={trace}: exit {out.returncode}: "
                                f"{out.stderr.strip()[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{w['name']} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']}")
            print(f"{w['name']} trace={trace}: {len(result['metrics'])} metrics ok")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    problems = check_definition()
    if not problems and "--run" in argv:
        problems = run_all()
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
