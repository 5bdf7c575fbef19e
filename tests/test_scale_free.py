"""The scale rule of the norm kernel: every single-prior norm is taken on
y = |X| / max|X| and scaled back by max|X|, so norms of X and of 2**k X
agree bit for bit and the certificate holds at tiny tol at any scale."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (EssSupIndicator, Exponential, OrliczFamily, PiecewiseLinear,
                           Power, Scaled, ScenarioModel, kothe_dual_norm, luxemburg_norm)

from conftest import random_model, random_prior

BASE = [Power(1.0), Power(1.4), Power(2.0), Power(3.7), Exponential(0.7), Exponential(3.0),
        PiecewiseLinear([0.2, 0.5], [1.0, 3.0]),
        PiecewiseLinear([0.0, 1.0], [0.5, 2.0], bound=3.0),
        EssSupIndicator()]
PHIS = BASE + [Scaled(phi, 1.3, 1.7) for phi in BASE]

_entries = st.lists(st.floats(2.0 ** -20, 1.0), min_size=1, max_size=8)


def test_power_certifies_at_tiny_tol_far_from_one():
    # raised "joint modular 1.0000000000000178 > 1" where the `**` route of
    # the power closed form read |X| itself
    rng = np.random.default_rng(5)
    n = 50
    m = ScenarioModel([f"w{i}" for i in range(n)], [rng.dirichlet(np.ones(n)) for _ in range(3)])
    x = rng.uniform(0.0, 1.0, size=n) * 2.0 ** 600
    res = luxemburg_norm(m, x, OrliczFamily.uniform(m, Power(1.4)), tol=1e-14)
    assert res.bracket[0] <= res.value <= res.bracket[1]


def test_power_sweep_certifies_at_tiny_tol():
    for s in range(200):
        rng = np.random.default_rng([53, s])
        n = int(rng.integers(3, 60))
        priors = [rng.dirichlet(np.ones(n)) for _ in range(int(rng.integers(1, 4)))]
        m = ScenarioModel([f"w{i}" for i in range(n)], priors)
        phi = Power(float(rng.uniform(1.0, 8.0)))
        x = rng.uniform(0.0, 1.0, size=n) * 2.0 ** int(rng.integers(-900, 901))
        # raises ConsistencyError where the certificate refuses the norm
        luxemburg_norm(m, x, OrliczFamily.uniform(m, phi), tol=1e-14)


@settings(max_examples=400, deadline=None)
@given(phi=st.sampled_from(PHIS), x=_entries, k=st.integers(-900, 900),
       seed=st.integers(0, 2 ** 32 - 1))
def test_norm_scales_by_powers_of_two_bit_for_bit(phi, x, k, seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_atoms=len(x))
    x = np.array(x) * rng.choice([-1.0, 1.0], size=len(x))
    fam = OrliczFamily.uniform(m, phi)
    value = luxemburg_norm(m, x, fam).value
    assert luxemburg_norm(m, np.ldexp(x, k), fam).value == math.ldexp(value, k)


@settings(max_examples=400, deadline=None)
@given(phi=st.sampled_from(PHIS), x=_entries, k=st.integers(-900, 900),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dual_norm_scales_by_powers_of_two_bit_for_bit(phi, x, k, seed):
    prior = random_prior(np.random.default_rng(seed), len(x))
    mu = np.where(prior > 0.0, x, 0.0)
    value = kothe_dual_norm(mu, prior, phi)
    assert kothe_dual_norm(np.ldexp(mu, k), prior, phi) == math.ldexp(value, k)
