"""Schema-driven fuzzing of the experiment-config reader.

The strategies walk the harness's field table (``harness._CONFIG`` and the
tables it leads to), so a field added to the format is fuzzed without
touching this file.  Valid documents use tiny random-quadratic instances and
budgets and run end to end through the CLI; every single-field mutation of
one must be refused as ``config error: <path of that field>`` before any
output is written.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from pdsaddle import cli, harness
from pdsaddle.harness import ConfigError, ExperimentConfig

pytestmark = pytest.mark.fuzz

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
FAMILY = "random_quadratic"
# caps that keep every valid document tiny: dimensions, splits, and the
# grad-unit budget of each run
CAPS = {"d1": 4, "d2": 4, "splits": 6, "budget": 50, "seed": 1000}
INT_CAP = 6  # any other count: inner_iters, repetitions
UNKNOWN = "zz_unknown"


# Hypothesis caches the constants it finds in local modules under its home
# directory, ./.hypothesis unless set, even without an example database; its
# pytest plugin does so while collecting, so the home is set at import
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


def _choices(field):
    """The allowed values of a choice field, else None (a choice bound's test
    is the ``__contains__`` of its tuple of choices)."""
    choices = getattr(field.bound[1], "__self__", None) if field.bound else None
    return choices if isinstance(choices, tuple) else None


def _scalar(field, key):
    """Valid values of a scalar or grid field, drawn inside its bound."""
    kind, _, bound = field
    if isinstance(kind, list):
        return st.lists(_scalar(harness._positive(kind[0]), key), min_size=1, max_size=2)
    if _choices(field) is not None:
        return st.sampled_from(_choices(field))
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.sampled_from(["", "a", "run_b"])
    if kind is int:
        values = st.integers(0, CAPS.get(key, INT_CAP))
    else:
        values = st.floats(1e-3, CAPS.get(key, 2.0)) | st.integers(1, CAPS.get(key, 2))
    return values.filter(bound[1]) if bound else values


@st.composite
def _object(draw, fields, fixed=None):
    """A valid object of ``fields``: each optional field kept or left out,
    each field in ``fixed`` set to the strategy given there."""
    fixed = fixed or {}
    doc = {}
    for key, field in fields.items():
        if key not in fixed and field.default is not ... and draw(st.booleans()):
            continue
        doc[key] = draw(fixed[key] if key in fixed else _scalar(field, key))
    return doc


@st.composite
def _entry(draw):
    name = draw(st.sampled_from(_choices(harness._ENTRY["name"])))
    source = draw(st.sampled_from(_choices(harness._schedule_fields(name, None)["source"])))
    schedule = _object(harness._schedule_fields(name, source),
                       {"source": st.just(source)})
    return draw(_object(harness._entry_fields(name),
                        {"name": st.just(name), "schedule": schedule}))


def _always(fields, *keys):
    """Strategies that set ``keys`` of ``fields`` in every document."""
    return {key: _scalar(fields[key], key) for key in keys}


def _full_rank(instance):
    """The instance with d1 <= d2, which the builder needs."""
    d1, d2 = sorted((instance["d1"], instance["d2"]))
    return dict(instance, d1=d1, d2=d2)


def documents():
    """Valid documents; ``splits`` always, so every solver has its finite-sum
    form."""
    family = {"family": harness._FAMILY, **harness._FAMILIES[FAMILY].generated}
    instance = _object(family, {"family": st.just(FAMILY),
                                **_always(family, "d1", "d2", "splits")})
    return _object(harness._CONFIG, {
        "instance": instance.map(_full_rank),
        "solvers": st.lists(_entry(), min_size=1, max_size=3),
        "stopping": _object(harness._STOPPING),
        **_always(harness._CONFIG, "budget"),
    })


def _tables(doc):
    """(path, object, its field table) for every object of a valid document."""
    yield "config", doc, harness._CONFIG
    instance = doc["instance"]
    yield "config.instance", instance, {"family": harness._FAMILY,
                                        **harness._FAMILIES[instance["family"]].generated}
    yield "config.stopping", doc["stopping"], harness._STOPPING
    for i, entry in enumerate(doc["solvers"]):
        path = f"config.solvers[{i}]"
        yield path, entry, harness._entry_fields(entry["name"])
        schedule = entry["schedule"]
        yield (f"{path}.schedule", schedule,
               harness._schedule_fields(entry["name"], schedule["source"]))


def _wrong_type(field):
    """A JSON value of another type than ``field``'s."""
    kind = field.kind
    if isinstance(kind, list) or kind is dict:
        return "x"
    if kind is str:
        return 5
    if kind is bool:
        return 1
    return 1.5 if kind is int else "1"


def _out_of_bound(field):
    """Values just outside ``field``'s bound, or [] when it has none."""
    kind, _, bound = field
    if isinstance(kind, list):
        return [[], [0], [-1], [2.5] if kind[0] is int else [math.inf]]
    if _choices(field) is not None:
        return ["bogus"]
    if bound is None:
        return []
    if kind is list:
        return [[]]
    if kind is str:
        return [v for v in ("/", "../escaped", ".", "..") if not bound[1](v)]
    probes = [0, -1, 2] if kind is int else [0, -1.0, 1.5, math.inf, math.nan]
    return [v for v in probes if not bound[1](v)]


@st.composite
def mutations(draw):
    """(document, path of the one field that breaks it)."""
    doc = draw(documents())
    # a solver entry that is not an object breaks the entry itself
    targets = [("wrong_type", "config.solvers", doc["solvers"], i, harness._Field(dict))
               for i in range(len(doc["solvers"]))]
    for path, obj, fields in _tables(doc):
        targets.append(("unknown", path, obj, UNKNOWN, None))
        for key, field in fields.items():
            if key in obj:
                targets.append(("wrong_type", path, obj, key, field))
                if field.kind in (int, harness._NUMBER) or isinstance(field.kind, list):
                    targets.append(("bool", path, obj, key, field))
                if _out_of_bound(field):
                    targets.append(("bound", path, obj, key, field))
                if field.default is ...:
                    targets.append(("missing", path, obj, key, field))
    # the document picks its target: Hypothesis draws an index of 0 so often
    # that most mutations would hit the first target
    pick = zlib.crc32(json.dumps(doc, sort_keys=True).encode())
    kind, path, obj, key, field = targets[pick % len(targets)]
    if kind == "unknown":
        obj[key] = 1
    elif kind == "wrong_type":
        obj[key] = _wrong_type(field)
    elif kind == "bool":
        obj[key] = [True] if isinstance(field.kind, list) else draw(st.booleans())
    elif kind == "bound":
        obj[key] = draw(st.sampled_from(_out_of_bound(field)))
    else:
        del obj[key]
    return doc, f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _solve(doc, tmp):
    """(exit code, stderr, output directory) of ``solve`` on ``doc``; an
    exception escaping the CLI, which would print a traceback, fails the test."""
    cfg = os.path.join(tmp, "cfg.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = os.path.join(tmp, "out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["solve", "--config", cfg, "--out", out])
    return code, stderr.getvalue(), out


@settings(FUZZ, max_examples=100)
@given(documents())
def test_valid_documents_run(doc):
    ExperimentConfig.from_dict(doc)  # the strategies stay inside the table
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = _solve(doc, tmp)
        # 1: the sc variant on an instance whose f is not strongly convex
        assert code in (0, 1), err
        if code == 0:
            assert os.path.exists(os.path.join(out, "summary.json"))
        else:
            assert err.startswith("config error: config"), err


@settings(FUZZ, max_examples=400)
@given(mutations())
def test_single_field_mutations_are_config_errors(case):
    doc, path = case
    with pytest.raises(ConfigError) as info:  # reading alone finds it
        ExperimentConfig.from_dict(doc)
    assert info.value.path == path
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = _solve(doc, tmp)
        assert code == 1
        assert err.startswith(f"config error: {path}:"), (path, err)
        assert not os.path.exists(out)
