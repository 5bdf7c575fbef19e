"""The conjugate-route Köthe dual norm: batched bracket search on log2 k,
vectorised convex conjugates, and the input contract of `dual-norm`."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from robust_orlicz import (EssSupIndicator, Exponential, PiecewiseLinear, Power,
                           ValidationError, kothe_dual_norm)
from robust_orlicz import orlicz
from robust_orlicz.cli import main
from robust_orlicz.preferences import AggregateOrlicz, CARAUtility, LinearUtility

from conftest import random_prior

INF = math.inf
NAN = math.nan
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HALF = np.array([0.5, 0.5])


def _random_measure(rng):
    n = int(rng.integers(2, 9))
    prior = random_prior(rng, n)
    mu = rng.exponential(size=n) * rng.choice([0.01, 1.0, 30.0])
    mu[prior == 0] = 0.0
    return mu, prior


class TestClosedFormOracles:
    """Dual norms with a closed form that does not use any conjugate."""

    @pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 3.5])
    def test_power_dual_is_conjugate_exponent_norm(self, p):
        rng = np.random.default_rng(int(10 * p))
        for _ in range(25):
            mu, prior = _random_measure(rng)
            pos = prior > 0
            z = mu[pos] / prior[pos]
            if p == 1.0:
                want = float(np.max(z))
            else:
                q = p / (p - 1.0)
                want = float(np.dot(prior[pos], z ** q) ** (1.0 / q))
            assert kothe_dual_norm(mu, prior, Power(p)) == pytest.approx(want, rel=1e-10)

    def test_ess_sup_dual_is_total_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            mu, prior = _random_measure(rng)
            got = kothe_dual_norm(mu, prior, EssSupIndicator())
            assert got == pytest.approx(float(mu.sum()), rel=1e-10)

    @pytest.mark.parametrize("phi", [Power(2.0), Exponential(1.0), EssSupIndicator(),
                                     PiecewiseLinear([0.2, 0.5], [1.0, 3.0], bound=2.0)],
                             ids=repr)
    def test_few_conjugate_calls(self, phi, monkeypatch):
        calls = []
        cls = type(phi)
        inner = cls.conjugate_array

        def counting(self, y):
            calls.append(np.size(y))
            return inner(self, y)

        monkeypatch.setattr(cls, "conjugate_array", counting)
        rng = np.random.default_rng(11)
        for _ in range(5):
            mu, prior = _random_measure(rng)
            calls.clear()
            kothe_dual_norm(mu, prior, phi)
            # the ess-sup's dual norm is the k -> inf limit, with no conjugate
            assert len(calls) == (0 if isinstance(phi, EssSupIndicator) else 1)


class TestHomogeneity:
    @pytest.mark.parametrize("phi", [Power(1.0), Power(2.0), Exponential(1.0),
                                     EssSupIndicator(),
                                     PiecewiseLinear([0.2, 0.5], [1.0, 3.0], bound=2.0)],
                             ids=repr)
    def test_scales_with_the_measure(self, phi):
        rng = np.random.default_rng(23)
        mu, prior = _random_measure(rng)
        base = kothe_dual_norm(mu, prior, phi)
        for c in (1e-300, 1e-100, 1e-30, 1e30, 1e100, 1e300):
            assert kothe_dual_norm(c * mu, prior, phi) == pytest.approx(c * base, rel=1e-12)


class TestInputContract:
    @pytest.mark.parametrize("phi", [Power(2.0), Exponential(1.0),
                                     PiecewiseLinear([0.5], [1.0], bound=2.0)], ids=repr)
    def test_nan_mass_rejected(self, phi):
        with pytest.raises(ValidationError, match="finite"):
            kothe_dual_norm([NAN, 0.5], HALF, phi)

    def test_infinite_mass_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            kothe_dual_norm([INF, 0.5], HALF, Exponential(1.0))

    @pytest.mark.parametrize("mu", [[0.5], [0.5, 0.5, 0.5]])
    def test_shape_mismatch_rejected(self, mu):
        with pytest.raises(ValidationError, match="shape"):
            kothe_dual_norm(mu, HALF, Power(2.0))

    # mu = (1e308, 1e308) is 2e308 P, and ||P||_* is E_P[X] at the constant
    # X = phi^{-1}(1): 1, ln 2, 1 and 1.5
    @pytest.mark.parametrize("phi, want", [
        (Power(2.0), INF), (Exponential(1.0), 1e308 * (2.0 * math.log(2.0))),
        (EssSupIndicator(), INF), (PiecewiseLinear([0.5], [1.0], bound=2.0), INF)], ids=repr)
    def test_density_past_float_range_is_quiet(self, phi, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kothe_dual_norm([1e308, 1e308], HALF, phi) == pytest.approx(want, rel=1e-12)

    def test_density_past_float_range_finite_norm(self):
        # Z = (2e308, 0) overflows, ||Z||_{L^2(P)} = sqrt(2) 1e308 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kothe_dual_norm([1e308, 0.0], HALF, Power(2.0))
        assert got == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-12)

    @pytest.mark.parametrize("family, mu", [
        ({"kind": "power", "p": 2}, "nan,0.5"),
        ({"kind": "exponential", "beta": 1.0}, "nan,0.5"),
        ({"kind": "piecewise_linear", "breakpoints": [0.5], "slopes": [1.0], "bound": 2.0},
         "nan,0.5"),
        ({"kind": "exponential", "beta": 1.0}, "inf,0.5"),
        ({"kind": "power", "p": 2}, "0.5,0.5,0.5"),
    ])
    def test_cli_dual_norm_exits_2(self, tmp_path, capsys, family, mu):
        mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
        mpath.write_text(json.dumps({"atoms": ["a", "b"],
                                     "priors": [{"label": "P1", "masses": [0.5, 0.5]}]}))
        fpath.write_text(json.dumps({"uniform": family}))
        assert main(["dual-norm", "--model", str(mpath), "--family", str(fpath),
                     f"--mu={mu}"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _knot_loop_conjugate(phi, y):
    """phi*(y) for a PiecewiseLinear phi, one knot at a time."""
    if phi.bound is None and y > phi.slopes[-1]:
        return INF
    best = 0.0
    for x in phi.breakpoints:
        best = max(best, x * y - phi(x))
    if phi.bound is not None:
        best = max(best, phi.bound * y - phi(phi.bound))
    return best


class TestPiecewiseLinearConjugate:
    PHIS = [PiecewiseLinear([0.2, 0.5], [1.0, 3.0]),
            PiecewiseLinear([0.0, 1.0], [0.5, 2.0], bound=3.0),
            PiecewiseLinear([0.1], [2.0], bound=3.0),
            PiecewiseLinear([0.0], [1.5]),
            PiecewiseLinear([0.3, 0.7, 1.9], [0.2, 1.1, 4.0], bound=2.5)]

    @pytest.mark.parametrize("phi", PHIS, ids=repr)
    def test_matches_knot_loop_bit_for_bit(self, phi):
        rng = np.random.default_rng(3)
        last = phi.slopes[-1]
        ys = np.concatenate([[0.0, last, np.nextafter(last, INF), 2.0 * last, 1e6],
                             phi.slopes, rng.exponential(size=40) * last])
        want = np.array([_knot_loop_conjugate(phi, float(y)) for y in ys])
        got = phi.conjugate_array(ys)
        assert got.shape == ys.shape
        assert np.array_equal(got, want)
        grid = ys[:42].reshape(6, 7)
        assert np.array_equal(phi.conjugate_array(grid), want[:42].reshape(6, 7))
        assert [phi.conjugate(float(y)) for y in ys] == list(want)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            self.PHIS[0].conjugate_array([1.0, -0.5])
        with pytest.raises(ValidationError):
            self.PHIS[1].conjugate(-1.0)


def _grid_conjugate(phi, y, slope_at_inf):
    """sup_x x*y - phi(x) on a coarse then a fine grid; inf past the
    asymptotic slope of phi."""
    if y > slope_at_inf:
        return INF
    xs = np.linspace(0.0, 40.0, 200_001)
    g = xs * y - phi(xs)
    i = int(np.argmax(g))
    fine = np.linspace(xs[max(i - 2, 0)], xs[min(i + 2, xs.size - 1)], 200_001)
    return max(float(np.max(fine * y - phi(fine))), float(g[i]))


class TestNumericConjugate:
    """The lockstep numeric route of the base class, on aggregated
    preference functions (which have no closed-form conjugate)."""

    CASES = [
        (AggregateOrlicz([(CARAUtility.normalised(1.0), 1.0)]), INF),
        (AggregateOrlicz([(CARAUtility.normalised(2.5), 1.0),
                          (LinearUtility(1.0), 1.5)]), INF),
        (AggregateOrlicz([(LinearUtility(1.0), 1.0)]), 1.0),
        (AggregateOrlicz([(LinearUtility(1.0), 1.25), (LinearUtility(1.0), 2.0)]), 0.8),
    ]

    @pytest.mark.parametrize("phi, slope_at_inf", CASES)
    def test_matches_dense_grid(self, phi, slope_at_inf):
        rng = np.random.default_rng(17)
        ys = np.concatenate([[0.0, 0.3, 0.79, 1.5, 4.0], rng.uniform(0.0, 6.0, size=15)])
        want = np.array([_grid_conjugate(phi, float(y), slope_at_inf) for y in ys])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phi.conjugate_array(ys)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            fin = np.isfinite(want)
            assert np.allclose(got[fin], want[fin], rtol=0.0, atol=1e-9)
            assert np.array_equal(phi.conjugate_array(ys.reshape(4, 5)), got.reshape(4, 5))
            assert phi.conjugate(float(ys[3])) == got[3]
            assert phi.conjugate_array([INF])[0] == INF

    def test_bounded_domain(self):
        # the numeric route of a function with a finite domain bound
        class Bounded(orlicz.OrliczFunction):
            domain_bound = 2.0

            def _eval_array(self, x):
                return np.where(x <= 2.0, x * x, INF)

        ys = np.array([0.0, 1.0, 3.9, 4.0, 6.0, 100.0])
        # sup over [0, 2] of x y - x^2: y^2/4 up to y = 4, then 2 y - 4
        want = np.where(ys <= 4.0, ys * ys / 4.0, 2.0 * ys - 4.0)
        assert np.allclose(Bounded().conjugate_array(ys), want, rtol=1e-12, atol=1e-12)


def test_dual_commands_leave_scipy_out(tmp_path):
    mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
    mpath.write_text(json.dumps({"atoms": ["a", "b", "c"], "priors": [
        {"label": "P1", "masses": [0.2, 0.3, 0.5]},
        {"label": "P2", "masses": [0.6, 0.4, 0.0]}]}))
    fpath.write_text(json.dumps({"uniform": {"kind": "exponential", "beta": 1.0}}))
    code = ("import sys\n"
            "from robust_orlicz.cli import main\n"
            "m, f = sys.argv[1:]\n"
            "rc = [main(['dual-witness', '--model', m, '--family', f, '--x', '1,2,3']),\n"
            "      main(['verify-l1', '--model', m, '--family', f, '--samples', '5'])]\n"
            "print(rc, 'scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, str(mpath), str(fpath)],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[0, 0] False"
