"""The scale hook `OrliczFunction._eval_scaled(x, s)` = phi(s x): the form
the norm kernels evaluate, with s folded into each stock class's rates."""

import math

import numpy as np
import pytest

from robust_orlicz import (EssSupIndicator, Exponential, OrliczFamily, OrliczFunction,
                           PiecewiseLinear, Power, Scaled, ScenarioModel, luxemburg_norm, modular,
                           single_prior_luxemburg)
from robust_orlicz.norms import single_prior_modular
from robust_orlicz.preferences import (AggregateOrlicz, CARAUtility, LinearUtility,
                                       PiecewiseLinearUtility)

INF = math.inf

STOCK = [
    Power(1.0),
    Power(2.5),
    Exponential(0.8),
    EssSupIndicator(),
    PiecewiseLinear([0.0, 1.0, 2.5], [0.5, 1.0, 3.0]),
    PiecewiseLinear([0.5, 1.5], [1.0, 2.0], bound=3.0),
    Scaled(Scaled(Exponential(1.3), 0.7, 1.5), 2.0, 1.2),
    Scaled(Scaled(Power(2.5), 3.0, 2.0), 0.25, 1.1),
    AggregateOrlicz([(LinearUtility(1.0), 1.5), (CARAUtility.normalised(1.2), 1.0),
                     (PiecewiseLinearUtility([-1.0], [2.0, 0.5]), 1.3)]),
]


def _within_argument_ulps(phi, z, got, want, ulps):
    """got and want within `ulps` ulp of phi's argument z: ulps ulp of
    want, times the relative condition number z phi'(z) / phi(z) where
    it is above 1 (a nested rate rounds in another order than z)."""
    if not np.array_equal(got == INF, want == INF):
        return False
    finite = want < INF
    z, got, want = z[finite], got[finite], want[finite]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cond = np.nan_to_num(z * phi.derivative_array(z) / want, nan=1.0, posinf=1.0)
    return np.all(np.abs(got - want) <= ulps * np.maximum(cond, 1.0) * np.spacing(want))


@pytest.mark.parametrize("phi", STOCK, ids=lambda phi: type(phi).__name__)
def test_scaled_evaluation_equals_evaluation_of_the_scaled_argument(phi, rng):
    for k in range(-60, 61):
        s = 2.0 ** (k + float(rng.random()))
        # phi's argument x s spread over [0, 8], past every bound of STOCK
        x = np.concatenate([[0.0], rng.random(40) * 8.0, 10.0 ** rng.uniform(-6, 0.9, 40)]) / s
        with np.errstate(over="ignore"):
            got, want = phi._eval_scaled(x, s), phi._eval_array(x * s)
        assert got.shape == want.shape
        assert _within_argument_ulps(phi, x * s, got, want, 4), (s, got, want)


@pytest.mark.parametrize("phi", [EssSupIndicator(), PiecewiseLinear([0.5, 1.5], [1.0, 2.0], bound=3.0),
                                 Scaled(Scaled(EssSupIndicator(), 0.7, 1.5), 2.0, 1.2)],
                         ids=lambda phi: type(phi).__name__)
def test_scaled_evaluation_is_inf_past_the_domain_bound(phi):
    bound = phi.domain_bound
    for k in range(-60, 61, 4):
        s = 2.0 ** k * 1.37
        inside, past = phi._eval_scaled(np.array([0.0, bound / s * (1 - 1e-9), bound / s * (1 + 1e-9)]), s)[1:]
        assert inside < INF and past == INF


def test_ess_sup_modular_is_zero_at_the_ess_sup(rng):
    # x * (1 / lam) <= 1 for every x <= lam, whatever lam's last bits (1 /
    # (1 / lam) may round below lam): the modular at lam = max|X| is 0
    ess = EssSupIndicator()
    for _ in range(400):
        n = int(rng.integers(1, 10))
        m = ScenarioModel([f"w{i}" for i in range(n)],
                          [rng.dirichlet(np.ones(n)) for _ in range(2)])
        x = rng.normal(size=n) * 2.0 ** float(rng.uniform(-60.0, 60.0))
        abs_x = np.abs(x)
        lam = float(np.max(abs_x))
        assert modular(m, x, lam, OrliczFamily.uniform(m, ess)) == 0.0
        assert single_prior_modular(m.priors[0], ess, abs_x, lam) == 0.0
        assert single_prior_modular(m.priors[0], ess, abs_x, lam * (1.0 - 1e-12)) == INF


@pytest.mark.parametrize("phi", [Exponential(0.8), Scaled(Exponential(1.3), 0.7, 1.5),
                                 Scaled(Power(2.5), 3.0, 2.0), STOCK[-1]],
                         ids=lambda phi: type(phi).__name__)
def test_folded_rate_that_leaves_the_float_range(phi):
    # the folded rate underflows to 0 (or overflows to inf): no 0 * inf
    # NaN at x = inf (or x = 0), the unfolded product instead
    x = np.array([0.0, 1.0, INF])
    for s in (2.0 ** -1074, 2.0 ** 1023):
        with np.errstate(over="ignore"):
            got, want = phi._eval_scaled(x, s), phi._eval_array(x * s)
        assert not np.isnan(got).any()
        assert np.array_equal(got, want)


class _ExpmOnly(OrliczFunction):
    """expm1(beta x) through `_eval_array` alone: the documented minimum."""

    def __init__(self, beta):
        self.beta = beta

    @property
    def domain_bound(self):
        return INF

    def _eval_array(self, x):
        return np.expm1(self.beta * x)


def test_subclass_with_only_eval_array_keeps_its_norms(rng):
    assert _ExpmOnly._eval_scaled is OrliczFunction._eval_scaled
    for _ in range(20):
        n = int(rng.integers(2, 40))
        m = ScenarioModel([f"w{i}" for i in range(n)],
                          [rng.dirichlet(np.ones(n)) for _ in range(3)])
        beta = float(rng.uniform(0.2, 3.0))
        x = rng.normal(size=n) * rng.choice([1e-2, 1.0, 1e2])
        fam = OrliczFamily.uniform(m, _ExpmOnly(beta))
        res = luxemburg_norm(m, x, fam)
        stock = luxemburg_norm(m, x, OrliczFamily.uniform(m, Exponential(beta)))
        assert res.value == pytest.approx(stock.value, rel=1e-10, abs=0.0)
        # the certified bracket holds on the modular written out in numpy
        lo, hi = res.bracket
        abs_x = np.abs(x)
        with np.errstate(over="ignore"):
            at = lambda lam: max(float(np.dot(p, np.expm1(beta * (abs_x / lam)))) for p in m.priors)
        assert at(hi) <= 1.0 < at(lo)
        for label, prior in zip(m.prior_labels, m.priors):
            assert res.per_prior_norms[label] == single_prior_luxemburg(prior, fam.phi(label), x)
