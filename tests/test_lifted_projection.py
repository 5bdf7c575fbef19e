"""Projections that the SLSQP-on-norms solver got wrong, solved by the
lifted program: seeded sweep instances whose restarts disagreed beyond
the spread tolerance (ConsistencyError), and targets and claims scaled
far from 1, where the residual must scale with Y and not move with X."""

import math

import numpy as np
import pytest

from robust_orlicz import (Exponential, OrliczFamily, Power, ScenarioModel, option_basis,
                           project_onto_span)
from test_projection_solver import (_assert_certified, _lp_residual, _non_injective_instance,
                                    _sweep_phis)

# (kind, s) of `_non_injective_instance` at rng [11, s] with n_restarts=2
FORMER_SPREADS = [("piecewise_linear_bounded", s) for s in (4, 12, 32, 64, 66)]
FORMER_SPREADS += [("ess_sup", 90), ("mixed", 93)]


@pytest.mark.parametrize("kind, s", FORMER_SPREADS, ids=lambda v: str(v))
def test_former_spread_instances(kind, s):
    m, fam, x, y = _non_injective_instance(np.random.default_rng([11, s]), _sweep_phis(kind))
    basis = option_basis(m, x)
    res = project_onto_span(m, y, basis, fam, n_restarts=2)
    _assert_certified(res.residual_norm, res.lower_bound)
    assert 0.0 < res.residual_norm < math.inf
    if kind == "ess_sup":
        oracle = _lp_residual(m, fam, basis, y)
        assert abs(res.residual_norm - oracle) <= 1e-9 * max(1.0, oracle)


SCALE_MODEL = ScenarioModel(["a", "b", "c", "d"], [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
SCALE_X = np.array([0.0, 1.0, 1.0, 2.0])
SCALE_Y = np.array([1.0, -1.0, 3.0, 4.0])
# the residuals at scale 1
UNSCALED = {"power2": (Power(2.0), 1.41421356), "exponential1": (Exponential(1.0), 1.82047845)}


def _residual(phi, x, y):
    family = OrliczFamily.uniform(SCALE_MODEL, phi)
    return project_onto_span(SCALE_MODEL, y, option_basis(SCALE_MODEL, x), family).residual_norm


@pytest.mark.parametrize("name", sorted(UNSCALED))
@pytest.mark.parametrize("scaled, c", [("y", 1e8), ("y", 1e20), ("y", 1e300), ("y", 1e-20),
                                       ("x", 1e-20)])
def test_residual_scales_with_the_target_only(name, scaled, c):
    phi, expected = UNSCALED[name]
    rho = _residual(phi, SCALE_X, SCALE_Y)
    assert rho == pytest.approx(expected, rel=1e-8)
    if scaled == "y":
        assert _residual(phi, SCALE_X, c * SCALE_Y) == pytest.approx(c * rho, rel=1e-9)
    else:
        assert _residual(phi, c * SCALE_X, SCALE_Y) == pytest.approx(rho, rel=1e-9)


@pytest.mark.parametrize("s", [39, 63, 108])
def test_steep_exponential(s):
    # SLSQP tries points where expm1(beta u / t) overflows: the rows cap
    # phi and phi' there, under one error state for the whole solve
    rng = np.random.default_rng([99, s])
    beta = float(rng.uniform(1.0, 60.0))
    m, fam, x, y = _non_injective_instance(rng, lambda r, k: [Exponential(beta)] * k)
    y = y * float(10.0 ** rng.uniform(-3.0, 3.0))
    res = project_onto_span(m, y, option_basis(m, x), fam, n_restarts=8, seed=s)
    _assert_certified(res.residual_norm, res.lower_bound)
    assert 0.0 < res.residual_norm < math.inf


@pytest.mark.parametrize("name", sorted(UNSCALED))
@pytest.mark.parametrize("c", [1e8, 1e20])
def test_claim_scaled_far_above_1(name, c):
    # the random fallback starts are drawn in the solver's units, c_Y / c_B
    phi, expected = UNSCALED[name]
    family = OrliczFamily.uniform(SCALE_MODEL, phi)
    res = project_onto_span(SCALE_MODEL, SCALE_Y, option_basis(SCALE_MODEL, c * SCALE_X), family)
    assert res.residual_norm == pytest.approx(_residual(phi, SCALE_X, SCALE_Y), rel=1e-9)
    assert res.residual_norm == pytest.approx(expected, rel=1e-8)
    _assert_certified(res.residual_norm, res.lower_bound)
