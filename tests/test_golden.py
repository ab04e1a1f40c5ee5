"""Golden outputs: every file the CLI writes on a fixed set of small inputs,
verify reports included.

``tests/golden.json`` holds, for each case, the exit code, the SHA-256 of
each output file and the JSON outputs themselves.  A CSV is hashed without
its ``elapsed_seconds`` column, the one wall-clock value it holds.  On a
host with the numpy version, BLAS and BLAS thread settings recorded there
the digests must match exactly.  On any other host the JSON outputs are
compared instead: integers and strings exactly, floats to 1e-9 relative.
The pytest header says which mode ran.

A change that alters an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md why the bytes changed.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pdsaddle import cli
from pdsaddle.instances import (
    QuadraticSaddle,
    instance_to_json,
    make_smoothed_l1,
    random_mspbe,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
REL_TOL = 1e-9


# the thread-count settings of the BLAS builds numpy may use: a BLAS may sum
# in another order under another thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host() -> dict:
    """The numpy version, the BLAS and its thread settings (None when unset)
    that produced the outputs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        name = "unknown"
    return {"numpy": np.__version__, "blas": name,
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def mode() -> str:
    """Which comparison runs on this host."""
    recorded = json.loads(GOLDEN.read_text())["host"]
    if recorded == host():
        return "exact digests"
    return (f"JSON numbers to {REL_TOL:g} relative (recorded on {recorded}, "
            f"this host is {host()})")


def _pinned():
    """A small pinned document of each family that has one."""
    rng = np.random.default_rng(5)
    quadratic = QuadraticSaddle(B=np.diag(rng.uniform(0.0, 1.0, 3)),
                                b=rng.standard_normal(3), A=rng.standard_normal((4, 3)),
                                C=np.eye(4), c=rng.standard_normal(4))
    return {"quadratic": instance_to_json(quadratic),
            "smoothed_l1": instance_to_json(make_smoothed_l1(30, 5, seed=2)),
            "mspbe": instance_to_json(random_mspbe(30, 4, seed=2))}


# one generated instance of each family that has a generator; _cases adds
# each pinned document, by data and by path
_GENERATED = {
    "random_quadratic": {"family": "random_quadratic", "d1": 3, "d2": 5, "seed": 4,
                         "splits": 6},
    "smoothed_l1": {"family": "smoothed_l1", "n": 30, "d": 5, "seed": 2},
    "mspbe": {"family": "mspbe", "n": 30, "d": 4, "seed": 2, "normalize": True},
}


def _small(name: str) -> dict:
    """A shipped config with a budget of 50 grad-units."""
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["budget"] = 50
    return doc


# each verify suite on few trials, by its CLI flags; props also with a primal
# step past its precondition bound
_VERIFY = {
    "contraction": ["--suite", "contraction", "--trials", "2"],
    "sc_contraction": ["--suite", "sc_contraction", "--trials", "2"],
    "props": ["--suite", "props", "--trials", "2"],
    "props-eta1_scale_2": ["--suite", "props", "--trials", "2", "--eta1-scale", "2"],
    "svrg_halving": ["--suite", "svrg_halving", "--trials", "1"],
}


def _cases() -> dict:
    """case name -> (command, config document, or a verify case's flags)."""
    cases = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        for command in ("solve", "grid"):
            cases[f"{command}-{path.stem}"] = (command, _small(path.stem))
    cases["estimate-demo_quadratic"] = ("estimate",
                                        json.loads((ROOT / "configs" /
                                                    "demo_quadratic.json").read_text()))
    instances = {f"generated-{name}": spec for name, spec in _GENERATED.items()}
    for family in _pinned():
        instances[f"data-{family}"] = {"family": family, "data": family}
        instances[f"path-{family}"] = {"family": family, "path": family}
    for name, instance in instances.items():
        cases[f"solve-{name}"] = ("solve", {"instance": instance, "solvers": [{"name": "pdg"}],
                                            "budget": 50})
    for name, flags in _VERIFY.items():
        cases[f"verify-{name}"] = ("verify", flags)
    return cases


CASES = _cases()


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows and "elapsed_seconds" in rows[0]:
            k = rows[0].index("elapsed_seconds")
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(r[:k] + r[k + 1:] for r in rows)
            data = buf.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, tmp: Path) -> dict:
    """Exit code, output digests and JSON outputs of case ``name``, run in
    ``tmp``."""
    command, doc = CASES[name]
    out = tmp / ("out" if command in ("solve", "grid") else "out.json")
    if command == "verify":
        argv = [command, *doc]
    else:
        doc = json.loads(json.dumps(doc))
        instance = doc.get("instance", {})
        pinned = _pinned()
        if "data" in instance:
            instance["data"] = pinned[instance["data"]]
        if "path" in instance:
            (tmp / "pinned.json").write_text(json.dumps(pinned[instance["path"]]))
            instance["path"] = str(tmp / "pinned.json")
        (tmp / "cfg.json").write_text(json.dumps(doc))
        argv = [command, "--config", str(tmp / "cfg.json")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    files = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
    return {"exit": code,
            "files": {f.name: _digest(f) for f in files},
            "json": {f.name: json.loads(f.read_text()) for f in files if f.suffix == ".json"}}


def _close(got, want, where: str):
    """Assert ``got`` equals ``want``, floats to REL_TOL relative."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (where, got, want)
    elif isinstance(want, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden_file(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert name in golden["cases"], f"no golden for {name}; regenerate with {REGENERATE}"
    want, got = golden["cases"][name], run_case(name, tmp_path)
    hint = f"outputs of {name} differ from tests/golden.json; regenerate with {REGENERATE}"
    if golden["host"] == host():
        assert (got["exit"], got["files"]) == (want["exit"], want["files"]), hint
    else:
        assert got["exit"] == want["exit"] and sorted(got["files"]) == sorted(want["files"]), hint
        _close(got["json"], want["json"], name)


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())["cases"]) == sorted(CASES), (
        f"regenerate with {REGENERATE}")


if __name__ == "__main__":
    results = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            results[case] = run_case(case, Path(tmp))
        print(case, results[case]["exit"], file=sys.stderr)
    GOLDEN.write_text(json.dumps({"regenerate": REGENERATE, "host": host(), "cases": results},
                                 indent=1, sort_keys=True) + "\n")
