"""Non-finite grid parameters, non-finite claims and counts below 1 are
refused with a ValidationError (exit 2), never a traceback, an
inconsistency (exit 3) or an empty report (exit 0)."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from robust_orlicz import (OrliczFamily, Power, ScenarioModel, ValidationError,
                           aggregate_family, Agent, LinearUtility, luxemburg_norm,
                           single_prior_luxemburg)
from robust_orlicz.cli import main
from robust_orlicz.diagnostics import discretise_standard_normal, moment_growth
from robust_orlicz.duality import verify_l1_reduction
from robust_orlicz.preferences import verify_extension_bound
from robust_orlicz.spanning import OptionBasis, option_basis, project_onto_span

MODEL = {"atoms": ["a", "b", "c", "d"],
         "priors": [{"label": "P1", "masses": [0.4, 0.3, 0.2, 0.1]},
                    {"label": "P2", "masses": [0.1, 0.2, 0.3, 0.4]}]}
EXPONENTIAL = {"uniform": {"kind": "exponential", "beta": 1.3}}
POWER2 = {"uniform": {"kind": "power", "p": 2}}
AGENTS = {"agents": [{"utility": {"kind": "linear"}, "priors": ["P1", "P2"],
                      "penalty": {"P1": 0.0, "P2": 0.5}}]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    out = {}
    for name, doc in (("model", MODEL), ("exponential", EXPONENTIAL), ("power2", POWER2),
                      ("agents", AGENTS)):
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


def assert_refused(argv):
    rc, err = run(argv)
    assert rc == 2, (rc, err)
    assert err.startswith("error: "), err


class TestGaussianGrid:
    @pytest.mark.parametrize("T, h", [(10.0, math.nan), (math.nan, 0.5), (math.inf, 0.5),
                                      (10.0, math.inf), (10.0, -0.1), (1.0, 1.0)])
    def test_library_refuses(self, T, h):
        with pytest.raises(ValidationError, match="0 < h < T"):
            discretise_standard_normal(T=T, h=h)

    @pytest.mark.parametrize("extra", [["--h", "nan"], ["--T", "inf", "--h", "0.5"],
                                       ["--T", "nan"]])
    def test_moments_exits_2(self, extra):
        assert_refused(["moments"] + extra)

    def test_membership_exits_2(self):
        assert_refused(["membership", "--gaussian-ladder", "3", "--h", "nan"])


class TestNonFiniteClaims:
    def test_option_basis_refuses(self):
        model = ScenarioModel(["a", "b", "c", "d"], [[0.25] * 4])
        with pytest.raises(ValidationError, match="finite claim"):
            option_basis(model, [1.0, math.inf, 3.0, 4.0])

    def test_projection_refuses_before_any_solve(self):
        model = ScenarioModel(["a", "b", "c"], [[0.2, 0.3, 0.5]])
        family = OrliczFamily.uniform(model, Power(2.0))
        basis = option_basis(model, [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="finite target"):
            project_onto_span(model, [1.0, -math.inf, 0.0], basis, family)
        broken = OptionBasis(claim=basis.claim, strikes=basis.strikes,
                             vectors=np.array([[1.0, 1.0, 1.0], [0.0, math.inf, 2.0]]),
                             dimension=basis.dimension)
        with pytest.raises(ValidationError, match="finite basis"):
            project_onto_span(model, [1.0, 0.0, 2.0], broken, family)

    @pytest.mark.parametrize("command", ["span", "project"])
    def test_cli_exits_2(self, files, command):
        assert_refused([command, "--model", files["model"], "--family", files["power2"],
                        "--x=1,inf,3,4", "--y=1,2,3,4"])


class TestCountsBelowOne:
    def test_max_iter(self, files):
        model = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        family = OrliczFamily.uniform(model, Power(2.0))
        for bad in (0, -3):
            with pytest.raises(ValidationError, match="max_iter"):
                luxemburg_norm(model, [1.0, 2.0], family, max_iter=bad)
            with pytest.raises(ValidationError, match="max_iter"):
                single_prior_luxemburg(np.array([0.5, 0.5]), Power(2.0), [1.0, 2.0],
                                       max_iter=bad)
        # on a family whose norm is root-found, not reported as an inconsistency
        assert_refused(["norm", "--model", files["model"], "--family", files["exponential"],
                        "--x=1,2,3,4", "--max-iter", "0"])

    def test_n_max(self):
        values, probs = discretise_standard_normal(T=4.0, h=0.01)
        with pytest.raises(ValidationError, match="n_max"):
            moment_growth(values, probs, n_max=0)
        assert_refused(["moments", "--T", "4", "--h", "0.01", "--n-max", "0"])

    def test_sample_size(self, files):
        model = ScenarioModel(["a", "b"], [[0.5, 0.5], [0.2, 0.8]])
        family = OrliczFamily.uniform(model, Power(2.0))
        agents = [Agent(LinearUtility(), ["P1", "P2"], {"P1": 0.0, "P2": 0.5})]
        for bad in (0, -1):
            with pytest.raises(ValidationError, match="sample_size"):
                verify_l1_reduction(model, family, sample_size=bad)
            with pytest.raises(ValidationError, match="sample_size"):
                verify_extension_bound(model, agents, aggregate_family(model, agents),
                                       sample_size=bad)
        assert_refused(["verify-l1", "--model", files["model"], "--family", files["power2"],
                        "--samples", "-1"])
        assert_refused(["aggregate", "--model", files["model"], "--agents", files["agents"],
                        "--samples", "0"])
