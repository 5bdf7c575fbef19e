"""Wrong-typed and non-finite JSON values end in a ValidationError (exit
2) with an `error:` line, never in a traceback or a RuntimeWarning."""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (Agent, AggregateOrlicz, LinearUtility, ScenarioModel,
                           ValidationError, weighted_lp_norm)
from robust_orlicz.cli import main

MODEL = {"atoms": ["a", "b", "c", "d"],
         "priors": [{"label": "P1", "masses": [0.4, 0.3, 0.2, 0.1]},
                    {"label": "P2", "masses": [0.1, 0.2, 0.3, 0.4]},
                    {"label": "P3", "masses": [0.25, 0.25, 0.5, 0.0]}]}
FAMILIES = [
    {"per_prior": {
        "P1": {"kind": "exponential", "beta": 1.3},
        "P2": {"kind": "scaled", "inner": {"kind": "power", "p": 2.5},
               "theta": 1.5, "one_plus_gamma": 1.2},
        "P3": {"kind": "piecewise_linear", "breakpoints": [0.0, 1.0],
               "slopes": [0.5, 2.0], "bound": 3.0}}},
    {"joint": {"kind": "power", "p": 1.5}, "theta": {"P1": 1.0, "P2": 1.5, "P3": 0.7},
     "gamma": {"P1": 0.0, "P2": 0.5, "P3": 1.0}},
    {"uniform": {"kind": "ess_sup"}},
]
AGENTS = {"agents": [
    {"utility": {"kind": "cara", "beta": 1.5}, "priors": ["P1", "P2", "P3"],
     "penalty": {"P1": 0.0, "P2": 0.5, "P3": 1.0}, "name": "cara"},
    {"utility": {"kind": "linear", "slope": 1.0}, "priors": ["P2", "P3"],
     "penalty": {"P2": 0.0, "P3": 0.2}},
    {"utility": {"kind": "piecewise_linear", "knots": [0.0], "slopes": [1.0, 0.5]},
     "priors": ["P1"], "penalty": {"P1": 0.0}}]}
POWER2 = {"uniform": {"kind": "power", "p": 2}}


def run(argv):
    """main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")

    def write(name, doc):
        path = root / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    write.model = write("model.json", MODEL)
    write.family = write("family.json", POWER2)
    return write


def _family_argv(path, files):
    return ["norm", "--model", files.model, "--family", path, "--x=1,2,3,4"]


def _model_argv(path, files):
    return ["norm", "--model", path, "--family", files.family, "--x=1,2"]


def _agents_argv(path, files):
    return ["aggregate", "--model", files.model, "--agents", path, "--samples", "5"]


def _linear_agent(penalty):
    return {"utility": {"kind": "linear"}, "priors": ["P1", "P2", "P3"],
            "penalty": penalty}


PROBES = {
    "power-p-text": (_family_argv, {"uniform": {"kind": "power", "p": "abc"}}),
    "power-p-list": (_family_argv, {"uniform": {"kind": "power", "p": [2]}}),
    "power-p-null": (_family_argv, {"uniform": {"kind": "power", "p": None}}),
    "breakpoints-number": (_family_argv, {"uniform": {
        "kind": "piecewise_linear", "breakpoints": 5, "slopes": [1.0]}}),
    "bound-text": (_family_argv, {"uniform": {
        "kind": "piecewise_linear", "breakpoints": [0.0], "slopes": [1.0], "bound": "zz"}}),
    "per-prior-list": (_family_argv, {"per_prior": [1, 2]}),
    "theta-text": (_family_argv, {"joint": {"kind": "power", "p": 2}, "theta": {"P1": "x"}}),
    "masses-text": (_model_argv, {"atoms": ["a", "b"], "priors": [{"masses": "ab"}]}),
    "masses-null": (_model_argv, {"atoms": ["a", "b"], "priors": [{"masses": [0.5, None]}]}),
    "prior-number": (_model_argv, {"atoms": ["a", "b"], "priors": [5]}),
    "atoms-number": (_model_argv, {"atoms": 7, "priors": [{"masses": [1.0]}]}),
    "beta-text": (_agents_argv, {"agents": [{"utility": {"kind": "cara", "beta": "x"},
                                             "priors": ["P1"], "penalty": {"P1": 0}}]}),
    "penalty-list": (_agents_argv, {"agents": [{"utility": {"kind": "linear"},
                                                "priors": ["P1"], "penalty": [0]}]}),
    "knots-number": (_agents_argv, {"agents": [{
        "utility": {"kind": "piecewise_linear", "knots": 3, "slopes": [1, 1]},
        "priors": ["P1"], "penalty": {"P1": 0}}]}),
    "agents-number": (_agents_argv, {"agents": 5}),
    # JSON's Infinity and NaN literals, which Python's json module accepts
    "penalty-inf": (_agents_argv, '{"agents": [%s]}' % json.dumps(
        _linear_agent({"P1": 0, "P2": math.inf, "P3": 0}))),
    "penalty-nan": (_agents_argv, '{"agents": [%s]}' % json.dumps(
        _linear_agent({"P1": 0, "P2": math.nan, "P3": 0}))),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_exits_2_with_an_error_line(name, files):
    argv_of, doc = PROBES[name]
    rc, out, err = run(argv_of(files(f"{name}.json", doc), files))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err


def test_penalty_errors_are_up_front(files):
    for name in ("penalty-inf", "penalty-nan"):
        argv_of, doc = PROBES[name]
        rc, _, err = run(argv_of(files(f"{name}.json", doc), files))
        assert rc == 2
        assert err == "error: penalties must be finite and nonnegative\n"


# -- fuzz: one node of a valid document replaced by a wrong-typed value ----


def _kind(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object", type(None): "null"}[type(v)]


def _paths(doc, prefix=()):
    """Paths of every node below the root."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    _get(out, path[:-1])[path[-1]] = value
    return out


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.sampled_from(["inf", "-inf", "nan", "1e999", "0", "-1"]),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))


@st.composite
def _mutants(draw, docs):
    doc = draw(st.sampled_from(docs))
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _kind(_get(doc, path))
    value = draw(_JSON_VALUES.filter(lambda v: _kind(v) != old))
    return _replaced(doc, path, value)


def _assert_clean(argv):
    rc, _, err = run(argv)
    assert rc in (0, 2, 3), (rc, err)
    if rc:
        assert err.startswith(("error: ", "inconsistency: ")), err


@settings(max_examples=80, deadline=None)
@given(doc=_mutants([MODEL]))
def test_fuzzed_model(doc, files):
    path = files("fuzz-model.json", doc)
    _assert_clean(["norm", "--model", path, "--family", files.family, "--x=1,2,3,4"])
    _assert_clean(["dominate", "--model", path, "--family", files.family])


@settings(max_examples=80, deadline=None)
@given(doc=_mutants(FAMILIES))
def test_fuzzed_family(doc, files):
    path = files("fuzz-family.json", doc)
    _assert_clean(["norm", "--model", files.model, "--family", path, "--x=1,2,3,4"])
    # validate reports each failed check on stdout
    rc, out, err = run(["validate", "--model", files.model, "--family", path])
    assert (rc, err) in ((0, ""), (2, "")) and (rc == 0) == (": fail" not in out)


@settings(max_examples=80, deadline=None)
@given(doc=_mutants([AGENTS]))
def test_fuzzed_agents(doc, files):
    _assert_clean(_agents_argv(files("fuzz-agents.json", doc), files))


def test_unmutated_documents_are_valid(files):
    for i, fam in enumerate(FAMILIES):
        assert run(_family_argv(files(f"family{i}.json", fam), files))[0] == 0
    assert run(_agents_argv(files("agents.json", AGENTS), files))[0] == 0


# -- library contracts -----------------------------------------------------


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_agent_refuses_bad_penalty(bad):
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        Agent(LinearUtility(), ["P1", "P2"], {"P1": 0.0, "P2": bad})


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.5])
def test_aggregate_refuses_bad_divisor(bad):
    with pytest.raises(ValidationError, match="finite and >= 1"):
        AggregateOrlicz([(LinearUtility(), 1.0), (LinearUtility(), bad)])


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_weighted_lp_refuses_bad_p(p):
    model = ScenarioModel(["a", "b"], [[0.5, 0.5]])
    with pytest.raises(ValidationError, match="at least 1"):
        weighted_lp_norm(model, [1.0, 2.0], p, {"P1": 1.0})


def test_weighted_lp_at_the_float_range_edge():
    # |X|**3 overflows; the kernel's closed form rescales by max|X|
    model = ScenarioModel(["a", "b"], [[0.5, 0.5], [0.2, 0.8]])
    theta = {"P1": 1.0, "P2": 2.0}
    value = weighted_lp_norm(model, [1e200, 1.0], 3.0, theta)
    expected = max(1.0 * (0.5 + 0.5e-600) ** (1 / 3), 2.0 * 0.2 ** (1 / 3)) * 1e200
    assert value == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(value)


def test_weighted_lp_matches_its_formula():
    # the closed form, evaluated here without the kernel, is the reference
    rng = np.random.default_rng(7)
    model = ScenarioModel(["a", "b", "c"], [[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
    theta = {"P1": 0.7, "P2": 1.3}
    for _ in range(20):
        x = rng.normal(size=3) * 3.0
        p = float(rng.uniform(1.0, 4.0))
        expected = max(t * float(np.dot(prior, np.abs(x) ** p)) ** (1 / p)
                       for t, prior in zip(theta.values(), model.priors))
        assert weighted_lp_norm(model, x, p, theta) == pytest.approx(expected, rel=1e-12)
        ess = max(t * float(np.max(np.abs(x)[prior > 0]))
                  for t, prior in zip(theta.values(), model.priors))
        assert weighted_lp_norm(model, x, math.inf, theta) == pytest.approx(ess, rel=1e-15)
