"""Exact Köthe dual norms: each Orlicz class supplies the k at which the
conjugate objective (1 + E_P[phi*(kZ)]) / k attains or approaches its
infimum, and the dual norm evaluates the objective there once. Classes
without that closed form keep the bracket search, whose numeric
conjugate stops at phi's asymptotic slope."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (EssSupIndicator, Exponential, OrliczFamily,
                           PiecewiseLinear, Power, Scaled, ScenarioModel,
                           dual_witness, kothe_dual_norm, single_prior_luxemburg)
from robust_orlicz.preferences import (AggregateOrlicz, CARAUtility, LinearUtility,
                                       PiecewiseLinearUtility)

from conftest import random_prior

INF = math.inf

BASE = [
    Power(1.0), Power(1.0 + 1e-7), Power(1.5), Power(2.0), Power(3.7),
    Exponential(0.4), Exponential(1.0), Exponential(3.0),
    PiecewiseLinear([0.2, 0.5], [1.0, 3.0]),
    PiecewiseLinear([0.0, 1.0, 1.5], [0.5, 0.5, 2.0]),
    PiecewiseLinear([0.2, 0.5], [1.0, 3.0], bound=2.0),
    PiecewiseLinear([0.0, 1.0], [0.5, 2.0], bound=3.0),
    # phi(bound) = 0.2 < 1: the infimum is approached as k -> inf
    PiecewiseLinear([0.0], [0.1], bound=2.0),
    EssSupIndicator(),
]
HOOKED = BASE + [Scaled(phi, theta, c) for phi, theta, c in
                 zip(BASE, [0.5, 1.7, 0.8, 1.3, 2.0, 0.6, 1.1, 1.9, 0.7, 1.4, 0.9, 1.2, 1.6, 0.55],
                     [1.0, 2.5, 1.3, 1.0, 3.0, 1.7, 1.0, 2.2, 1.5, 1.0, 2.8, 1.1, 1.9, 3.0])]


def _measure(rng):
    """A prior with some zeros and a measure on it with some zero
    densities, at a scale between 1e-300 and 1e300."""
    n = int(rng.integers(1, 9))
    prior = random_prior(rng, n)
    mu = prior * rng.exponential(size=n)
    mu[rng.random(n) < 0.25] = 0.0
    if not np.any(mu > 0):
        mu[int(np.argmax(prior))] = prior.max()
    return mu * 10.0 ** rng.uniform(-300.0, 300.0), prior


def _searched(mu, prior, phi, monkeypatch):
    """The dual norm by the bracket search, with every hook switched off."""
    with monkeypatch.context() as mp:
        for cls in {type(phi), type(getattr(phi, "inner", phi))}:
            mp.setattr(cls, "conjugate_minimisers", lambda self, *a, **k: None)
        return kothe_dual_norm(mu, prior, phi)


def _record_minimisers(phi, monkeypatch):
    """The k that phi's class hands the dual norm, one array per call."""
    found = []
    cls = type(phi)
    inner = cls.conjugate_minimisers

    def recording(self, *args, **kwargs):
        found.append(inner(self, *args, **kwargs))
        return found[-1]

    monkeypatch.setattr(cls, "conjugate_minimisers", recording)
    return found


def _count_conjugate_calls(phi, monkeypatch):
    calls = []
    cls = type(phi)
    inner = cls.conjugate_array

    def counting(self, y):
        calls.append(np.size(y))
        return inner(self, y)

    monkeypatch.setattr(cls, "conjugate_array", counting)
    return calls


class TestHookMatchesSearch:
    @pytest.mark.parametrize("phi", HOOKED, ids=repr)
    def test_within_1e12_and_never_above(self, phi, monkeypatch):
        rng = np.random.default_rng(zlib.crc32(repr(phi).encode()))
        for _ in range(8):
            mu, prior = _measure(rng)
            exact = kothe_dual_norm(mu, prior, phi)
            search = _searched(mu, prior, phi, monkeypatch)
            assert exact == pytest.approx(search, rel=1e-12, abs=0.0)
            assert exact <= search * (1.0 + 1e-15)

    def test_seeded_sweep(self, monkeypatch):
        rng = np.random.default_rng(20261018)
        for _ in range(240):
            mu, prior = _measure(rng)
            phi = HOOKED[int(rng.integers(0, len(HOOKED)))]
            exact = kothe_dual_norm(mu, prior, phi)
            search = _searched(mu, prior, phi, monkeypatch)
            assert exact == pytest.approx(search, rel=1e-12, abs=0.0), (phi, mu, prior)
            assert exact <= search * (1.0 + 1e-15), (phi, mu, prior)


class TestOneConjugateCall:
    @pytest.mark.parametrize("phi", HOOKED, ids=repr)
    def test_hooked_class_evaluates_once(self, phi, monkeypatch):
        calls = _count_conjugate_calls(phi, monkeypatch)
        found = _record_minimisers(phi, monkeypatch)
        rng = np.random.default_rng(5)
        for _ in range(6):
            mu, prior = _measure(rng)
            calls.clear()
            found.clear()
            kothe_dual_norm(mu, prior, phi)
            # the k -> inf limit b E_P[Z] takes no conjugate at all
            [k] = found
            assert len(calls) == (0 if k[0] == INF else 1)
        if isinstance(getattr(phi, "inner", phi), EssSupIndicator):
            assert list(k) == [INF]

    def test_aggregate_takes_the_search(self, monkeypatch):
        phi = AggregateOrlicz([(CARAUtility.normalised(1.0), 1.0)])
        assert phi.conjugate_minimisers(np.array([1.0]), np.array([1.0])) is None
        calls = _count_conjugate_calls(phi, monkeypatch)
        kothe_dual_norm([0.2, 0.5, 0.1], [0.5, 0.3, 0.2], phi)
        assert len(calls) > 1


class TestClosedForms:
    def test_power_minimiser_is_stationary(self):
        # p**-q k**q E[z**q] = 1 at the minimiser; the power q = 1e7 + 1
        # magnifies the rounding of k to ~1e-9
        w, z = np.array([0.2, 0.3, 0.5]), np.array([1.0, 0.25, 0.5])
        for p in (1.0 + 1e-7, 1.5, 2.0, 4.0):
            q = p / (p - 1.0)
            (k,) = Power(p).conjugate_minimisers(w, z)
            assert (k / p) ** q * np.dot(w, z ** q) == pytest.approx(1.0, rel=1e-8)

    def test_exponential_minimiser_solves_the_level_equation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            w = rng.dirichlet(np.ones(n))
            z = rng.exponential(size=n)
            z[rng.random(n) < 0.3] = 0.0
            z[0] = 1.0
            z /= z.max()
            beta, level = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.5, 3.0))
            (k,) = Exponential(beta).conjugate_minimisers(w, z, level)
            assert np.dot(w, np.maximum(0.0, k * z / beta - 1.0)) == pytest.approx(level,
                                                                                 rel=1e-12)

    def test_piecewise_linear_minimiser_is_a_kink(self):
        phi = PiecewiseLinear([0.2, 0.5], [1.0, 3.0])
        w, z = np.array([0.5, 0.5]), np.array([1.0, 0.5])
        kinks = {s / zj for s in phi.slopes for zj in z}
        assert phi.conjugate_minimisers(w, z)[0] in kinks

    def test_bound_below_level_goes_toward_infinity(self):
        phi = PiecewiseLinear([0.0], [0.1], bound=2.0)
        w, z = np.array([0.5, 0.5]), np.array([1.0, 0.5])
        # past every step the objective exceeds 2 sum w z by 1 / k
        assert list(phi.conjugate_minimisers(w, z)) == [INF]
        # sup{mu X : X <= 2} = 2 mu(Omega)
        assert kothe_dual_norm([0.5, 0.25], [0.5, 0.5], phi) == pytest.approx(1.5, rel=1e-15)

    # mu = delta on an atom of prior mass 1e-40: the dual norm is
    # sup{X : 1e-40 phi(X) <= 1} = phi^{-1}(1e40), with the optimal k near
    # 1e40 / max Z, far outside the bracket search's range (which gives
    # 8.27e15 for Exponential, EssSupIndicator and the bounded function)
    @pytest.mark.parametrize("phi, want", [
        (Power(2.0), 1e20), (Power(1.0), 1e40), (Exponential(1.0), math.log1p(1e40)),
        (EssSupIndicator(), 1.0), (PiecewiseLinear([0.2, 0.5], [1.0, 3.0], bound=2.0), 2.0),
        (PiecewiseLinear([0.0], [0.5]), 2e40), (Scaled(EssSupIndicator(), 4.0, 3.0), 0.25),
        (Scaled(Exponential(2.0), 0.5, 3.0), math.log1p(3e40))], ids=repr)
    def test_tiny_prior_mass(self, phi, want):
        prior = np.array([1.0 - 1e-40, 1e-40])
        assert kothe_dual_norm([0.0, 1.0], prior, phi) == pytest.approx(want, rel=1e-12)

    @pytest.mark.xfail(strict=True,
                       reason="Z = mu / P overflows where P is subnormal, and inf is returned")
    def test_subnormal_prior_mass(self):
        # ||delta||_* = (1 / P)**(1/2) = 2.12e156 for phi = x**2
        prior = np.array([1.0, 2.2250738585e-313])
        got = kothe_dual_norm([0.0, 1.0], prior, Power(2.0))
        assert got == pytest.approx(2.2250738585e-313 ** -0.5, rel=1e-12)

    def test_scaled_rescales_the_inner_minimisers(self):
        w, z = np.array([0.4, 0.6]), np.array([1.0, 0.3])
        inner = Exponential(1.3)
        got = Scaled(inner, 0.7, 2.5).conjugate_minimisers(w, z)
        want = inner.conjugate_minimisers(w, z, 2.5) * (0.7 / 2.5)
        assert np.array_equal(got, want)
        assert Scaled(AggregateOrlicz([(LinearUtility(1.0), 1.0)]), 2.0).conjugate_minimisers(
            w, z) is None


class TestAsymptoticSlope:
    def test_linear_aggregate_dual_norm(self, monkeypatch):
        phi = AggregateOrlicz([(LinearUtility(1.0), 1.0)])
        calls = []
        inner = AggregateOrlicz._eval_array

        def counting(self, x):
            calls.append(1)
            return inner(self, x)

        monkeypatch.setattr(AggregateOrlicz, "_eval_array", counting)
        got = kothe_dual_norm([0.2, 0.5, 0.1], [0.5, 0.3, 0.2], phi)
        assert got == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert len(calls) <= 2000

    def test_slopes_of_the_utilities(self):
        assert AggregateOrlicz([(LinearUtility(2.0), 4.0)]).asymptotic_slope == 0.5
        assert AggregateOrlicz([(LinearUtility(1.0), 1.25), (LinearUtility(1.0), 2.0),
                                (PiecewiseLinearUtility([0.0], [1.5, 0.5]), 1.0)]
                               ).asymptotic_slope == 1.5
        assert AggregateOrlicz([(LinearUtility(1.0), 1.0),
                                (CARAUtility.normalised(1.0), 3.0)]).asymptotic_slope == INF

    def test_conjugate_is_infinite_above_the_slope_at_once(self, monkeypatch):
        phi = AggregateOrlicz([(LinearUtility(1.0), 1.25), (LinearUtility(1.0), 2.0)])
        calls = []
        inner = AggregateOrlicz._eval_array

        def counting(self, x):
            calls.append(1)
            return inner(self, x)

        monkeypatch.setattr(AggregateOrlicz, "_eval_array", counting)
        assert list(phi.conjugate_array([0.81, 5.0, INF])) == [INF, INF, INF]
        assert not calls
        assert phi.conjugate(0.8) == pytest.approx(0.0, abs=1e-12)
        assert len(calls) <= 100


# the hooked classes the witness route reaches through a one-prior family
WITNESS_PHIS = [Power(1.0), Power(1.5), Power(2.0), Power(3.0), Exponential(0.5),
                Exponential(2.0), PiecewiseLinear([0.2, 0.5], [1.0, 3.0]),
                PiecewiseLinear([0.0, 1.0], [0.5, 2.0], bound=3.0), EssSupIndicator(),
                Scaled(Power(2.0), 1.4, 1.5), Scaled(Exponential(1.0), 0.8, 2.0),
                Scaled(PiecewiseLinear([0.2, 0.5], [1.0, 3.0]), 1.2, 1.3)]

# masses are 0 or at least 1e-12: near-subnormal prior masses overflow
# Z = mu / P, and the dual norm is then inf (test_subnormal_prior_mass);
# tiny ones have their own test
_masses = st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 10.0)), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(phi=st.sampled_from(WITNESS_PHIS), prior=_masses, x=_masses, mu=_masses,
       scale=st.floats(-6.0, 6.0))
def test_hoelder_and_witness_equality(phi, prior, x, mu, scale):
    n = min(len(prior), len(x), len(mu))
    prior = np.asarray(prior[:n])
    if not prior.sum() > 0:
        return
    prior = prior / prior.sum()
    x = np.asarray(x[:n]) * 10.0 ** scale
    mu = np.where(prior > 0, np.asarray(mu[:n]), 0.0)
    norm_x = single_prior_luxemburg(prior, phi, x)
    if np.any(mu > 0) and math.isfinite(norm_x):
        dual = kothe_dual_norm(mu, prior, phi)
        assert float(np.dot(mu, np.abs(x))) <= norm_x * dual * (1.0 + 1e-9)
    if not 0.0 < norm_x < INF:
        return
    model = ScenarioModel([f"w{i}" for i in range(n)], [prior])
    w = dual_witness(model, x, OrliczFamily.uniform(model, phi))
    assert w.pairing == pytest.approx(norm_x * w.dual_norm, rel=1e-8)
