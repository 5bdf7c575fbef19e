"""The power closed form's log route: on at least `_LOG_ROUTE_MIN_SIZE`
atoms, sum w x**p is taken as sum w exp(p log x), with log x computed once
per support class and shared by every power closed form on it."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from robust_orlicz import (ConsistencyError, Exponential, OrliczFamily, OrliczFunction,
                           PiecewiseLinear, Power, Scaled, ScenarioModel, gaussian_power_ladder,
                           luxemburg_norm, single_prior_luxemburg)
from robust_orlicz.orlicz import _LOG_ROUTE_MIN_SIZE, Magnitudes

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
N = 2 * _LOG_ROUTE_MIN_SIZE
EXPONENTS = [1.0, 1.5, 2.0, 7.0, 30.0, 200.0]
SCALES = [2.0 ** -1000, 2.0 ** -300, 1.0, 2.0 ** 300, 2.0 ** 1000]


def _power_formula(w, abs_x, p):
    """(sum w abs_x**p)**(1/p) by `**`, on abs_x / max abs_x."""
    top = float(np.max(abs_x))
    return top * float(np.dot(w, (abs_x / top) ** p) ** (1.0 / p))


def _x(rng, scale, zeros):
    x = np.exp(rng.normal(size=N)) * scale
    x[:3] = [5e-324, 1e-310, 2.2e-308]  # subnormal entries
    if zeros:
        x[rng.choice(N, N // 10, replace=False)] = 0.0
    return x * rng.choice([-1.0, 1.0], size=N)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("scale", SCALES)
def test_single_prior_norm_matches_the_power_formula(rng, p, scale):
    w = rng.dirichlet(np.ones(N))
    x = _x(rng, scale, zeros=True)
    want = _power_formula(w, np.abs(x), p)
    assert single_prior_luxemburg(w, Power(p), x) == pytest.approx(want, rel=2e-13, abs=0.0)
    theta, d = 0.75, 1.6
    assert single_prior_luxemburg(w, Scaled(Power(p), theta, d), x) == pytest.approx(
        theta * want / d ** (1.0 / p), rel=2e-13, abs=0.0)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("scale", SCALES)
def test_kernel_norms_match_the_power_formula(rng, p, scale):
    priors = [rng.dirichlet(np.ones(N)) for _ in range(3)]
    m = ScenarioModel([f"w{i}" for i in range(N)], priors + [priors[0]])
    theta, d = 0.75, 1.6
    # one support class: the four blocks share one log
    fam = OrliczFamily({"P1": Power(p), "P2": Scaled(Power(p), theta, d),
                        "P3": Power(p + 0.5), "P4": Scaled(Power(p), 2.0, 1.0)})
    x = _x(rng, scale, zeros=False)
    res = luxemburg_norm(m, x, fam)
    abs_x = np.abs(x)
    want = {"P1": _power_formula(priors[0], abs_x, p),
            "P2": theta * _power_formula(priors[1], abs_x, p) / d ** (1.0 / p),
            "P3": _power_formula(priors[2], abs_x, p + 0.5),
            "P4": 2.0 * _power_formula(priors[0], abs_x, p)}
    for label, value in want.items():
        assert res.per_prior_norms[label] == pytest.approx(value, rel=2e-13, abs=0.0)


def test_kernel_norms_equal_the_single_prior_route_on_the_log_route(rng):
    for _ in range(10):
        priors = [rng.dirichlet(np.ones(N)) for _ in range(3)]
        m = ScenarioModel([f"w{i}" for i in range(N)], priors + priors[:2])
        fam = OrliczFamily({l: Power(float(rng.uniform(1.0, 12.0)))
                            for l in m.prior_labels})
        x = rng.normal(size=N) * rng.choice([1e-3, 1.0, 1e3])
        x[x == 0.0] = 1.0
        res = luxemburg_norm(m, x, fam)
        for label, prior in zip(m.prior_labels, m.priors):
            assert res.per_prior_norms[label] == single_prior_luxemburg(prior, fam.phi(label), x)


def test_one_log_per_support_class(monkeypatch):
    t = gaussian_power_ladder(12)
    assert t.model.n_atoms >= _LOG_ROUTE_MIN_SIZE and len(t.model.support_classes) == 1
    inner, computed = Magnitudes.log_of, []

    def counted(abs_x):
        if getattr(abs_x, "_log", None) is None:
            computed.append(abs_x.size)
        return inner(abs_x)

    monkeypatch.setattr(Magnitudes, "log_of", staticmethod(counted))
    luxemburg_norm(t.model, t.x, t.family)
    # every power closed form of the ladder on one log
    assert computed == [t.model.n_atoms]


@pytest.mark.parametrize("n", [12, N])
def test_view_only_for_closed_forms_that_read_the_log(monkeypatch, rng, n):
    m = ScenarioModel([f"w{i}" for i in range(n)], [rng.dirichlet(np.ones(n)) for _ in range(5)])
    fam = OrliczFamily({"P1": Power(3.0), "P2": Scaled(Power(1.5), 2.0, 1.5),
                        "P3": Exponential(0.7), "P4": PiecewiseLinear([0.5], [1.0], bound=40.0),
                        "P5": Power(1.0)})
    seen = {}
    for cls in (Power, Scaled, OrliczFunction):
        inner = cls.luxemburg_closed_form

        def spy(self, w, abs_x, inner=inner):
            seen.setdefault(type(self).__name__, set()).add(type(abs_x))
            return inner(self, w, abs_x)

        monkeypatch.setattr(cls, "luxemburg_closed_form", spy)
    luxemburg_norm(m, np.exp(rng.normal(size=n)), fam)
    # a view only on a class where the power closed form reads the log
    power = Magnitudes if n >= _LOG_ROUTE_MIN_SIZE else np.ndarray
    assert seen == {"Power": {power}, "Scaled": {power}, "Exponential": {np.ndarray},
                    "PiecewiseLinear": {np.ndarray}}


def test_log_of_zero_is_quiet():
    w = np.full(N, 1.0 / N)
    x = np.zeros(N)
    x[::3] = 2.0
    # RuntimeWarnings are errors in this suite
    share = np.count_nonzero(x) / N
    assert Power(3.5).luxemburg_closed_form(w, x) == pytest.approx(
        2.0 * share ** (1.0 / 3.5), rel=1e-13)
    assert Magnitudes.log_of(np.zeros(4)).tolist() == [-math.inf] * 4


def test_certificate_does_not_read_the_shared_log(monkeypatch, rng):
    m = ScenarioModel([f"w{i}" for i in range(N)], [rng.dirichlet(np.ones(N)) for _ in range(2)])
    fam = OrliczFamily.uniform(m, Power(3.0))
    x = np.exp(rng.normal(size=N) * 2.0)
    luxemburg_norm(m, x, fam)
    inner = Magnitudes.log_of

    def corrupted(abs_x):
        return inner(abs_x) * (1.0 + 1e-6)

    monkeypatch.setattr(Magnitudes, "log_of", staticmethod(corrupted))
    with pytest.raises(ConsistencyError):
        luxemburg_norm(m, x, fam)


def test_cli_stderr_stays_clean_on_the_log_route(tmp_path):
    import json

    rng = np.random.default_rng(5)
    labels = ["P1", "P2"]
    model = {"atoms": [f"w{i}" for i in range(N)],
             "priors": [{"label": l, "masses": rng.dirichlet(np.ones(N)).tolist()} for l in labels]}
    family = {"per_prior": {"P1": {"kind": "power", "p": 2.5},
                            "P2": {"kind": "scaled", "inner": {"kind": "power", "p": 4.0},
                                   "theta": 1.5, "one_plus_gamma": 2.0}}}
    x = rng.normal(size=N)
    x[::7] = 0.0
    (tmp_path / "m.json").write_text(json.dumps(model))
    (tmp_path / "f.json").write_text(json.dumps(family))
    (tmp_path / "x.json").write_text(json.dumps(x.tolist()))
    for argv in (["norm", "--model", str(tmp_path / "m.json"), "--family", str(tmp_path / "f.json"),
                  "--x", f"@{tmp_path / 'x.json'}"],
                 ["tails", "--gaussian-ladder", "6", "--levels", "1,2,3"]):
        out = subprocess.run([sys.executable, "-m", "robust_orlicz.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""


@pytest.mark.parametrize("scale", [2.0 ** -990, 2.0 ** 990])
def test_tiny_tol_certifies_at_extreme_scales(rng, scale):
    # log x itself would be off by about |log x| ulp there, more than the
    # certificate's 0.45 tol = 4.5e-15 relative; log(x / max x) is not
    m = ScenarioModel([f"w{i}" for i in range(N)], [rng.dirichlet(np.ones(N)) for _ in range(2)])
    for p in (1.001, 1.3):
        for _ in range(5):
            x = np.exp(rng.normal(size=N)) * scale
            res = luxemburg_norm(m, x, OrliczFamily.uniform(m, Power(p)), tol=1e-14)
            assert res.bracket[0] <= res.value <= res.bracket[1]
