"""Input contract at the norm entry points: malformed input is a
ValidationError (CLI exit 2), never a ConsistencyError (exit 3)."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (Exponential, OrliczFamily, PiecewiseLinear, Power,
                           Scaled, ScenarioModel, ValidationError, canonicalise,
                           luxemburg_norm, penalised_norm, single_prior_luxemburg)
from robust_orlicz.cli import main

INF = math.inf
NAN = math.nan
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def model():
    return ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])


class TestNonFiniteInputs:
    def test_nan_in_x_rejected(self, model):
        fam = OrliczFamily.uniform(model, Exponential(1.0))
        with pytest.raises(ValidationError):
            canonicalise(model, [NAN, 1.0])
        with pytest.raises(ValidationError):
            luxemburg_norm(model, [1.0, NAN], fam)

    def test_nan_in_x_exits_2(self, tmp_path):
        mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
        mpath.write_text(json.dumps({"atoms": ["a", "b"],
                                     "priors": [{"label": "P1", "masses": [0.5, 0.5]}]}))
        fpath.write_text(json.dumps({"uniform": {"kind": "exponential", "beta": 1.0}}))
        assert main(["norm", "--model", str(mpath), "--family", str(fpath),
                     "--x=nan,1"]) == 2
        assert main(["norm", "--model", str(mpath), "--family", str(fpath),
                     "--x=1,2", "--tol", "nan"]) == 2

    @pytest.mark.parametrize("tol", [NAN, INF, -1.0])
    def test_tol_must_be_finite_and_positive(self, model, tol):
        fam = OrliczFamily.uniform(model, Exponential(1.0))
        with pytest.raises(ValidationError):
            luxemburg_norm(model, [1.0, 2.0], fam, tol=tol)
        with pytest.raises(ValidationError):
            penalised_norm(model, [1.0, 2.0], Power(1), {"P1": 0.0, "P2": 0.0}, tol=tol)
        with pytest.raises(ValidationError):
            single_prior_luxemburg(np.array([0.5, 0.5]), Exponential(1.0), [1.0, 2.0], tol=tol)

    def test_nan_penalty_rejected(self, model):
        with pytest.raises(ValidationError):
            penalised_norm(model, [1.0, 2.0], Power(1), {"P1": NAN, "P2": 0.0})

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_prior_masses_must_be_finite(self, bad):
        with pytest.raises(ValidationError):
            ScenarioModel(["a", "b"], [[bad, 0.5]])

    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_orlicz_parameters_must_be_finite(self, bad):
        with pytest.raises(ValidationError):
            Power(bad)
        with pytest.raises(ValidationError):
            Exponential(bad)

    def test_infinite_x_gives_infinite_norm(self, model):
        for phi in (Exponential(1.0), Power(2.0)):
            res = luxemburg_norm(model, [INF, 1.0], OrliczFamily.uniform(model, phi))
            assert res.value == INF


class TestFloatRange:
    def test_no_false_infinity_near_float_max(self, model):
        fam = OrliczFamily.uniform(model, Exponential(1.0))
        res = luxemburg_norm(model, [1e308, 1.0], fam)
        assert res.value == pytest.approx(1e308 / math.log(2.0), rel=1e-9)

    def test_homogeneity_at_large_scales(self, model):
        fam = OrliczFamily.uniform(model, Exponential(1.0))
        x = np.array([0.3, 1.7])
        base = luxemburg_norm(model, x, fam).value
        for t in (1e100, 1e200, 1e300):
            assert luxemburg_norm(model, t * x, fam).value == pytest.approx(t * base, rel=1e-9)

    def test_power_closed_form_overflow(self, model):
        fam = OrliczFamily.uniform(model, Power(2.0))
        x = np.array([0.3, 1.7])
        base = luxemburg_norm(model, x, fam).value
        with np.errstate(over="ignore"):
            big = luxemburg_norm(model, 1e200 * x, fam).value
        assert big == pytest.approx(1e200 * base, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-300.0, 300.0), st.floats(0.01, 1.0), st.integers(0, 2))
    def test_homogeneity_across_scales(self, exponent, ratio, kind):
        model = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
        phi = [Exponential(1.0), PiecewiseLinear([0.2, 0.5], [1.0, 3.0]),
               PiecewiseLinear([0.1], [2.0], bound=3.0)][kind]
        fam = OrliczFamily.uniform(model, phi)
        x = np.array([1.0, ratio])
        c = 10.0 ** exponent
        base = luxemburg_norm(model, x, fam).value
        assert luxemburg_norm(model, c * x, fam).value == pytest.approx(c * base, rel=1e-9)


class TestPowerOverflow:
    """Power values past the float range are inf, with no numpy warning."""

    def test_overflow_is_quiet(self, model):
        fam = OrliczFamily.uniform(model, Power(2.0))
        base = luxemburg_norm(model, [1.0, 10.0], fam).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = luxemburg_norm(model, [1e200, 1e201], fam).value
            assert Power(2.0).conjugate_array([1e300])[0] == INF
            assert Power(2.0).conjugate(1e300) == INF
            assert Scaled(Power(2.0), 0.5, 1.0).conjugate(1e300) == INF
        assert big == pytest.approx(1e200 * base, rel=1e-12)

    def test_cli_norm_leaves_stderr_empty(self, tmp_path):
        mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
        mpath.write_text(json.dumps({"atoms": ["a", "b"], "priors": [
            {"label": "P1", "masses": [0.5, 0.5]}, {"label": "P2", "masses": [1.0, 0.0]}]}))
        fpath.write_text(json.dumps({"uniform": {"kind": "power", "p": 2}}))
        out = subprocess.run(
            [sys.executable, "-m", "robust_orlicz.cli", "norm", "--model", str(mpath),
             "--family", str(fpath), "--x", "1e200,1e201"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120)
        assert out.returncode == 0
        assert out.stderr == ""


class TestPiecewiseLinearContract:
    @pytest.mark.parametrize("bad", [NAN, INF])
    def test_non_finite_parts_rejected(self, bad):
        with pytest.raises(ValidationError, match="breakpoints must be finite"):
            PiecewiseLinear([0.5, bad], [1.0, 2.0])
        with pytest.raises(ValidationError, match="slopes must be finite"):
            PiecewiseLinear([0.5, 1.0], [1.0, bad])
        with pytest.raises(ValidationError, match="bound must be finite"):
            PiecewiseLinear([0.5], [1.0], bound=bad)

    def test_nan_bound_exits_2(self, tmp_path, capsys):
        mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
        mpath.write_text(json.dumps({"atoms": ["a", "b"],
                                     "priors": [{"label": "P1", "masses": [0.5, 0.5]}]}))
        fpath.write_text(json.dumps({"uniform": {"kind": "piecewise_linear", "breakpoints": [0.5],
                                                 "slopes": [1.0], "bound": NAN}}))
        assert main(["norm", "--model", str(mpath), "--family", str(fpath), "--x", "1,2"]) == 2
        assert "bound must be finite" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys, robust_orlicz.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"
