"""Input contracts of the projection path: a negative seed, a tolerance
that is not finite and positive, a restart count that is not an integer
>= 0, a sample count below 1 and a basis whose vectors do not match the
model's atoms are refused with a ValidationError (exit 2), never a
traceback, a silently changed solve or a report drawn from no targets."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from robust_orlicz import OrliczFamily, Power, ScenarioModel, ValidationError
from robust_orlicz.cli import main
from robust_orlicz.spanning import (OptionBasis, option_basis, project_onto_span,
                                    spanning_report)
from test_projection_solver import _assert_certified

MODEL = {"atoms": ["a", "b", "c", "d"],
         "priors": [{"label": "P1", "masses": [0.4, 0.3, 0.2, 0.1]},
                    {"label": "P2", "masses": [0.1, 0.2, 0.3, 0.4]}]}
POWER2 = {"uniform": {"kind": "power", "p": 2}}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("projection")
    out = {}
    for name, doc in (("model", MODEL), ("power2", POWER2)):
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = str(path)
    return out


def run(argv):
    """main(argv) in-process: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.fixture
def instance():
    """A 4-atom, 2-prior model, Power(2), and a claim that repeats a
    value, so that the projection runs SLSQP."""
    model = ScenarioModel(["a", "b", "c", "d"], [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
    family = OrliczFamily.uniform(model, Power(2.0))
    return model, family, option_basis(model, [0.0, 1.0, 1.0, 2.0]), [1.0, -1.0, 3.0, 4.0]


class TestSeed:
    @pytest.mark.parametrize("command, extra", [
        ("project", ["--x=0,1,1,2", "--y=1,-1,3,4"]),
        ("span", ["--x=0,1,1,2"]),
        ("verify-l1", []),
    ])
    def test_cli_exits_2(self, files, command, extra):
        rc, err = run([command, "--model", files["model"], "--family", files["power2"],
                       "--seed", "-1"] + extra)
        assert rc == 2, (rc, err)
        assert err.startswith("error: ") and "--seed" in err, err

    def test_projection_refuses(self, instance):
        model, family, basis, y = instance
        with pytest.raises(ValidationError, match="seed"):
            project_onto_span(model, y, basis, family, seed=-1)

    def test_projection_refuses_when_no_random_start_is_drawn(self):
        # an injective claim: the first start is exact, no random start is built
        model = ScenarioModel(["a", "b", "c"], [[0.2, 0.3, 0.5]])
        family = OrliczFamily.uniform(model, Power(2.0))
        with pytest.raises(ValidationError, match="seed"):
            project_onto_span(model, [1.0, 0.0, 2.0], option_basis(model, [0.0, 1.0, 2.0]),
                              family, seed=-1)

    def test_spanning_report_refuses(self, instance):
        model, family, _, _ = instance
        with pytest.raises(ValidationError, match="seed"):
            spanning_report(model, [0.0, 1.0, 1.0, 2.0], family, n_samples=1, seed=-1)


class TestRestarts:
    @pytest.mark.parametrize("bad", [2.5, -1, "2", None])
    def test_projection_refuses(self, instance, bad):
        model, family, basis, y = instance
        with pytest.raises(ValidationError, match="n_restarts"):
            project_onto_span(model, y, basis, family, n_restarts=bad)

    def test_spanning_report_refuses(self, instance):
        model, family, _, _ = instance
        with pytest.raises(ValidationError, match="n_restarts"):
            spanning_report(model, [0.0, 1.0, 1.0, 2.0], family, n_samples=1, n_restarts=-1)

    def test_numpy_integer_is_accepted(self, instance):
        model, family, basis, y = instance
        res = project_onto_span(model, y, basis, family, n_restarts=np.int64(1))
        _assert_certified(res.residual_norm, res.lower_bound)


class TestTol:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_projection_refuses(self, instance, bad):
        model, family, basis, y = instance
        with pytest.raises(ValidationError, match="tol"):
            project_onto_span(model, y, basis, family, tol=bad)

    def test_spanning_report_refuses(self, instance):
        model, family, _, _ = instance
        with pytest.raises(ValidationError, match="tol"):
            spanning_report(model, [0.0, 1.0, 1.0, 2.0], family, tol=math.nan, n_samples=1)


class TestSamples:
    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_spanning_report_refuses(self, instance, bad):
        model, family, _, _ = instance
        with pytest.raises(ValidationError, match="n_samples"):
            spanning_report(model, [0.0, 1.0, 1.0, 2.0], family, n_samples=bad)


class TestBasisShape:
    @pytest.mark.parametrize("vectors", [
        np.ones((2, 3)),
        np.ones((2, 5)),
        np.ones(4),
    ])
    def test_projection_refuses(self, instance, vectors):
        model, family, basis, y = instance
        broken = OptionBasis(claim=basis.claim, strikes=basis.strikes, vectors=vectors,
                             dimension=basis.dimension)
        with pytest.raises(ValidationError, match="atoms"):
            project_onto_span(model, y, broken, family)
