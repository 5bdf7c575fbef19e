"""The operator norm that weights a prior in the dominating measure,
sup{x : phi(x) <= 1} = 1 / ||1||_phi, and `Scaled`'s closed form, theta
times the inner closed form under the masses divided by the divisor."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from robust_orlicz import (EssSupIndicator, Exponential, OrliczFamily, OrliczFunction,
                           PiecewiseLinear, Power, Scaled, ScenarioModel,
                           ValidationError, dominating_measure, kothe_dual_norm,
                           prior_norm_bound, single_prior_luxemburg)

from conftest import random_phi, random_prior

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class Cube(OrliczFunction):
    """A user class with only the required members and a closed form."""

    domain_bound = math.inf

    def _eval_array(self, x):
        return x ** 3

    def luxemburg_closed_form(self, weights, abs_x):
        return float(np.dot(weights, abs_x ** 3) ** (1.0 / 3.0))


class RootFoundCube(OrliczFunction):
    domain_bound = math.inf

    def _eval_array(self, x):
        return x ** 3


class TestPriorNormBound:
    def test_is_the_dual_norm_of_the_prior_itself(self):
        # ||P||_* = sup{E_P|X| : ||X||_{L^phi(P)} <= 1}, on both routes
        rng = np.random.default_rng(77)
        for _ in range(300):
            phi = random_phi(rng)
            prior = random_prior(rng, int(rng.integers(1, 7)))
            bound = prior_norm_bound(phi)
            assert bound == pytest.approx(kothe_dual_norm(prior, prior, phi), rel=1e-13)
            assert bound == pytest.approx(
                kothe_dual_norm(prior, prior, phi, method="brute"), rel=1e-9)

    def test_level_one_point_to_a_few_ulp(self):
        assert prior_norm_bound(Power(1)) == 1.0
        assert prior_norm_bound(Power(2.5)) == 1.0
        assert prior_norm_bound(Exponential(2.0)) == pytest.approx(math.log(2.0) / 2.0,
                                                                   rel=4e-16)
        # phi = 2 x - 1 past 0.5 reaches 1 at 1
        assert prior_norm_bound(PiecewiseLinear([0.5], [2.0])) == pytest.approx(1.0, rel=4e-16)

    @pytest.mark.parametrize("phi, bound", [
        (EssSupIndicator(), 1.0),
        (PiecewiseLinear([0.0], [0.25], bound=0.8), 0.8),
        (Scaled(EssSupIndicator(), 4.0, 3.0), 0.25),
    ])
    def test_domain_bound_where_phi_stays_below_one(self, phi, bound):
        assert prior_norm_bound(phi) == bound

    def test_extreme_scales(self):
        tiny = prior_norm_bound(Scaled(Exponential(1.0), 1e305))
        assert tiny == pytest.approx(math.log(2.0) / 1e305, rel=1e-15)
        assert prior_norm_bound(Scaled(Power(2.0), 1e-305)) == pytest.approx(1e305, rel=1e-15)
        # ||1|| = 1e-305 / ln 2 sits above the kernel's smallest lam, 2**-1023
        huge = prior_norm_bound(Scaled(Exponential(1.0), 1e-305))
        assert huge == pytest.approx(math.log(2.0) * 1e305, rel=1e-10)
        # ||1|| above the kernel's largest lam
        with pytest.raises(ValidationError):
            prior_norm_bound(Scaled(Exponential(1.0), 1e308))

    def test_dominating_measure_at_an_extreme_scale(self):
        m = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
        rep = dominating_measure(m, OrliczFamily.uniform(m, Scaled(Exponential(1.0), 1e305)))
        # both bounds are below 1, so the weights are 2^-n renormalised
        assert rep.weights == {"P1": 2.0 / 3.0, "P2": 1.0 / 3.0}

    @pytest.mark.parametrize("theta, code", [(1e305, 0), (1e308, 2)])
    def test_cli_dominate_at_extreme_scales(self, tmp_path, theta, code):
        mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
        mpath.write_text(json.dumps({"atoms": ["a", "b"], "priors": [
            {"label": "P1", "masses": [0.5, 0.5]}, {"label": "P2", "masses": [1.0, 0.0]}]}))
        fpath.write_text(json.dumps({"uniform": {
            "kind": "scaled", "inner": {"kind": "exponential", "beta": 1.0},
            "theta": theta, "one_plus_gamma": 1.0}}))
        out = subprocess.run(
            [sys.executable, "-m", "robust_orlicz.cli", "dominate", "--model", str(mpath),
             "--family", str(fpath)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr


class TestScaledClosedForm:
    W = np.array([0.3, 0.7])
    Y = np.array([0.4, 1.0])

    @pytest.mark.parametrize("inner", [
        Power(1.0), Power(2.5), EssSupIndicator(), Cube(),
        # bounded and below 1 at the bound under w / d: the domain-bound rule
        PiecewiseLinear([0.0], [0.25], bound=0.8),
        Scaled(Power(3.0), 2.0, 3.0),
        Scaled(PiecewiseLinear([0.2], [1.0], bound=0.5), 0.5, 2.0),
    ])
    @pytest.mark.parametrize("theta, d", [(1.7, 2.5), (0.5, 1.0), (3.0, 0.4)])
    def test_theta_times_the_inner_one_under_w_over_d(self, inner, theta, d):
        base = inner.luxemburg_closed_form(self.W / d, self.Y)
        assert base is not None
        assert Scaled(inner, theta, d).luxemburg_closed_form(self.W, self.Y) == theta * base

    @pytest.mark.parametrize("inner", [
        Exponential(1.0), PiecewiseLinear([0.5], [2.0]), RootFoundCube(),
        PiecewiseLinear([0.0], [10.0], bound=0.8),
    ])
    def test_none_where_the_inner_one_is_none(self, inner):
        assert inner.luxemburg_closed_form(self.W / 2.5, self.Y) is None
        assert Scaled(inner, 1.7, 2.5).luxemburg_closed_form(self.W, self.Y) is None

    def test_user_class_with_a_closed_form(self):
        phi = Scaled(Cube(), 1.7, 2.5)
        assert phi.luxemburg_closed_form(self.W, self.Y) == 1.1222393122835337
        assert single_prior_luxemburg(self.W, phi, self.Y, with_steps=True) == (
            1.1222393122835337, 0)
        root_found = single_prior_luxemburg(self.W, Scaled(RootFoundCube(), 1.7, 2.5), self.Y,
                                            tol=1e-13, with_steps=True)
        assert root_found[1] > 0
        assert root_found[0] == pytest.approx(1.1222393122835337, rel=1e-13)

    def test_domain_bound_rule_under_scaling(self):
        # phi stays below 1 up to its bound under every prior: the norm sits there
        rng = np.random.default_rng(11)
        for _ in range(50):
            inner = PiecewiseLinear([0.0], [float(rng.uniform(0.05, 0.9))],
                                    bound=float(rng.uniform(0.5, 1.0)))
            phi = Scaled(inner, float(rng.uniform(0.2, 5.0)), float(rng.uniform(1.0, 3.0)))
            w = random_prior(rng, 4, allow_zeros=False)
            y = rng.uniform(0.0, 1.0, size=4)
            closed = phi.luxemburg_closed_form(w, y)
            assert closed == pytest.approx(float(np.max(y)) / phi.domain_bound, rel=1e-15)


def test_package_import_loads_every_traced_module():
    code = ("import sys, robust_orlicz; print(all(f'robust_orlicz.{m}' in sys.modules for m in "
            "('model', 'orlicz', 'scalar', 'norms', 'duality', 'domination', 'diagnostics', "
            "'spanning', 'preferences', 'serialization')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == "True"
