import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (EssSupIndicator, OrliczFamily, Power, Scaled,
                           ScenarioModel, ValidationError, canonicalise,
                           expectation, luxemburg_norm, modular,
                           penalised_norm, prior_norm_bound, risk_measure,
                           single_prior_luxemburg, weighted_lp_norm)

from robust_orlicz import norms

from conftest import random_family, random_model, random_x

INF = math.inf
TOL = 1e-10


class TestModular:
    def test_uniform_power1(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(1))
        assert modular(uniform2_model, [1, 1], 2.0, fam) == pytest.approx(0.5)

    def test_sup_over_priors(self, delta_model):
        fam = OrliczFamily.uniform(delta_model, Power(1))
        assert modular(delta_model, [1, 3], 1.0, fam) == pytest.approx(3.0)

    def test_ess_sup_jump(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, EssSupIndicator())
        assert modular(uniform2_model, [2, 2], 1.0, fam) == INF
        assert modular(uniform2_model, [2, 2], 2.0, fam) == 0.0

    def test_rejects_nonpositive_scale(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(1))
        with pytest.raises(ValidationError):
            modular(uniform2_model, [1, 1], 0.0, fam)

    @pytest.mark.parametrize("lam", [math.nan, -1.0, -INF])
    def test_rejects_scale_that_is_not_positive(self, uniform2_model, lam):
        fam = OrliczFamily.uniform(uniform2_model, Power(1))
        with pytest.raises(ValidationError):
            modular(uniform2_model, [1, 2], lam, fam)
        with pytest.raises(ValidationError):
            norms.single_prior_modular(np.array([0.5, 0.5]), Power(1),
                                       np.array([1.0, 2.0]), lam)


class TestLuxemburgNorm:
    def test_zero_variable(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(2))
        assert luxemburg_norm(uniform2_model, [0, 0], fam).value == 0.0

    def test_l2_closed_form(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(2))
        res = luxemburg_norm(uniform2_model, [1, 3], fam)
        assert res.value == pytest.approx(math.sqrt(5.0), rel=1e-9)
        assert res.bracket[1] - res.bracket[0] <= TOL * max(1.0, res.bracket[1])
        assert res.modular_at_value <= 1.0 + 1e-12

    def test_ess_sup_family_independent_of_penalty(self, delta_model):
        for gamma in [0.0, 1.0, 7.0]:
            fam = OrliczFamily.additively_penalised(
                delta_model, EssSupIndicator(), {"P1": gamma, "P2": gamma})
            res = luxemburg_norm(delta_model, [1, 3], fam)
            assert res.value == pytest.approx(3.0, rel=1e-9)

    def test_polar_atoms_ignored(self):
        m = ScenarioModel(["a", "b", "c"], [[0.5, 0.5, 0.0]])
        fam = OrliczFamily.uniform(m, Power(1))
        res = luxemburg_norm(m, [1, 1, 100], fam)
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_per_prior_consistency(self, rng):
        for _ in range(20):
            m = random_model(rng)
            fam = random_family(rng, m)
            x = random_x(rng, m.n_atoms)
            res = luxemburg_norm(m, x, fam)
            sup = max(res.per_prior_norms.values())
            if math.isfinite(res.value):
                assert abs(res.value - sup) <= 2 * TOL * max(1.0, res.value)

    def test_infinite_norm_is_first_class(self):
        # an atom with positive mass where phi is identically infinite
        from robust_orlicz import PiecewiseLinear
        m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        phi = PiecewiseLinear([0.0], [0.0], bound=1.0)  # ess-sup-like
        fam = OrliczFamily.uniform(m, Scaled(phi, 1.0))
        res = luxemburg_norm(m, [1.0, 2.0], fam)
        assert math.isfinite(res.value)  # scaling always fixes it here

    def test_rejects_bad_tol(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(1))
        with pytest.raises(ValidationError):
            luxemburg_norm(uniform2_model, [1, 1], fam, tol=0.0)


class TestNormAxiomsSample:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_homogeneity_triangle_monotone(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        fam = random_family(rng, m)
        x = random_x(rng, m.n_atoms)
        y = random_x(rng, m.n_atoms)
        nx = luxemburg_norm(m, x, fam).value
        ny = luxemburg_norm(m, y, fam).value
        if not (math.isfinite(nx) and math.isfinite(ny)):
            return
        t = float(rng.uniform(0.5, 4.0))
        ntx = luxemburg_norm(m, t * np.asarray(x), fam).value
        assert ntx == pytest.approx(t * nx, rel=10 * TOL, abs=10 * TOL)
        nxy = luxemburg_norm(m, np.asarray(x) + np.asarray(y), fam).value
        assert nxy <= nx + ny + 10 * TOL * max(1.0, nx + ny)
        nax = luxemburg_norm(m, np.abs(np.asarray(x)), fam).value
        assert nax == pytest.approx(nx, rel=10 * TOL, abs=10 * TOL)

    def test_definiteness(self, rng):
        m = random_model(rng)
        fam = random_family(rng, m)
        zero = np.zeros(m.n_atoms)
        assert luxemburg_norm(m, zero, fam).value == 0.0
        x = np.abs(random_x(rng, m.n_atoms)) + 0.01
        xc = canonicalise(m, x).values
        assert luxemburg_norm(m, xc, fam).value > 0.0

    def test_prior_functional_bound(self, rng):
        for _ in range(15):
            m = random_model(rng)
            fam = random_family(rng, m)
            x = random_x(rng, m.n_atoms)
            res = luxemburg_norm(m, x, fam)
            if not math.isfinite(res.value):
                continue
            abs_x = np.abs(canonicalise(m, x).values)
            for label, prior in zip(m.prior_labels, m.priors):
                bound = prior_norm_bound(fam.phi(label))
                assert expectation(prior, abs_x) <= bound * res.value * (1 + 1e-9) + 1e-12

    def test_modular_at_slightly_larger_scale(self, rng):
        for _ in range(10):
            m = random_model(rng)
            fam = random_family(rng, m)
            x = random_x(rng, m.n_atoms)
            res = luxemburg_norm(m, x, fam)
            if not (0 < res.value < INF):
                continue
            assert modular(m, x, res.value * (1 + 10 * TOL), fam) <= 1.0 + 1e-9


class TestPenalisedNorm:
    def test_two_atom_hand_case(self, delta_model):
        res = penalised_norm(delta_model, [0, 4], Power(1), {"P1": 0.0, "P2": 1.0})
        assert res.value == pytest.approx(2.0, rel=1e-9)

    def test_uniform_hand_case(self, uniform2_model):
        res = penalised_norm(uniform2_model, [1, 1], Power(1), {"P1": 3.0})
        assert res.value == pytest.approx(0.25, rel=1e-9)

    def test_zero_penalty_reduces_to_plain_norm(self, rng):
        m = random_model(rng)
        phi = Power(float(rng.uniform(1.0, 3.0)))
        gamma = {l: 0.0 for l in m.prior_labels}
        x = random_x(rng, m.n_atoms)
        a = penalised_norm(m, x, phi, gamma).value
        b = luxemburg_norm(m, x, OrliczFamily.uniform(m, phi)).value
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_negative_penalty_rejected(self, uniform2_model):
        with pytest.raises(ValidationError):
            penalised_norm(uniform2_model, [1, 1], Power(1), {"P1": -0.5})


class TestWeightedLp:
    def test_p1_enumeration(self, delta_model):
        theta = {"P1": 1.0, "P2": 1.0}
        assert weighted_lp_norm(delta_model, [1, 3], 1.0, theta) == pytest.approx(3.0)

    def test_homogeneity_in_theta(self, uniform2_model):
        theta = {"P1": 2.0}
        v = weighted_lp_norm(uniform2_model, [1, 3], 2.0, theta)
        assert v == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-12)

    def test_p_infinity(self, delta_model):
        theta = {"P1": 1.0, "P2": 1.0}
        assert weighted_lp_norm(delta_model, [1, 3], INF, theta) == 3.0

    def test_agrees_with_scaled_family(self, rng):
        m = random_model(rng)
        p = float(rng.uniform(1.0, 3.0))
        theta = {l: float(rng.uniform(0.5, 2.0)) for l in m.prior_labels}
        x = random_x(rng, m.n_atoms)
        closed = weighted_lp_norm(m, x, p, theta)
        fam = OrliczFamily.multiplicatively_weighted(m, Power(p), theta)
        bis = luxemburg_norm(m, x, fam).value
        assert closed == pytest.approx(bis, rel=1e-9, abs=1e-12)

    def test_rejects_small_p(self, uniform2_model):
        with pytest.raises(ValidationError):
            weighted_lp_norm(uniform2_model, [1, 1], 0.5, {"P1": 1.0})


class TestRiskMeasure:
    def test_zero_penalty(self, uniform2_model):
        assert risk_measure(uniform2_model, [1, 1], {"P1": 0.0}) == 1.0

    def test_enumeration(self, delta_model):
        assert risk_measure(delta_model, [0, 4], {"P1": 0.0, "P2": 1.0}) == 3.0

    def test_can_be_negative(self, uniform2_model):
        assert risk_measure(uniform2_model, [2, 2], {"P1": 5.0}) == -3.0

    def test_rejects_negative_claim(self, uniform2_model):
        with pytest.raises(ValidationError):
            risk_measure(uniform2_model, [-1, 1], {"P1": 0.0})

    def test_norm_via_risk_level_set(self, delta_model):
        # ||X|| = inf{lam : rho(phi(|X|/lam)) <= 1} with rho the penalised sup
        gamma = {"P1": 0.0, "P2": 1.0}
        phi = Power(1)
        x = np.array([0.0, 4.0])
        target = penalised_norm(delta_model, x, phi, gamma).value

        def rho_at(lam):
            return risk_measure(delta_model, phi(np.abs(x) / lam), gamma)

        assert rho_at(target * (1 + 1e-8)) <= 1.0 + 1e-9
        assert rho_at(target * (1 - 1e-6)) > 1.0


class TestPhiMaxDominance:
    def test_doubly_penalised_bound(self, rng):
        m = random_model(rng, n_atoms=3, n_priors=3)
        phi = Power(2)
        theta = {l: float(rng.uniform(0.5, 2.0)) for l in m.prior_labels}
        gamma = {l: float(rng.uniform(0.0, 2.0)) for l in m.prior_labels}
        fam = OrliczFamily.doubly_penalised(m, phi, theta, gamma)
        c = max(theta.values())
        for x0 in np.linspace(0.1, 5.0, 25):
            assert fam.phi_max(x0) <= phi(c * x0) + 1e-12


class TestSinglePriorFastPaths:
    def test_power_matches_bisection(self, rng):
        prior = rng.exponential(size=4)
        prior /= prior.sum()
        x = np.abs(rng.normal(size=4)) + 0.1
        p = 2.5
        fast = single_prior_luxemburg(prior, Power(p), x)
        m = ScenarioModel([f"a{i}" for i in range(4)], [prior])
        slow = luxemburg_norm(m, x, OrliczFamily.uniform(m, Power(p))).value
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_scaled_power_path(self, rng):
        prior = np.array([0.25, 0.75])
        x = np.array([1.0, 2.0])
        phi = Scaled(Power(2), 2.0, 3.0)
        fast = single_prior_luxemburg(prior, phi, x)
        m = ScenarioModel(["a", "b"], [prior])
        slow = luxemburg_norm(m, x, OrliczFamily.uniform(m, phi)).value
        assert fast == pytest.approx(slow, rel=1e-9)


class TestSinglePriorInputs:
    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]])
    def test_shape_other_than_the_prior(self, x):
        prior = np.array([0.4, 0.6])
        with pytest.raises(ValidationError, match="shape"):
            single_prior_luxemburg(prior, Power(2), x)
        with pytest.raises(ValidationError, match="shape"):
            norms.single_prior_modular(prior, Power(2), np.abs(np.asarray(x)), 1.0)

    def test_nan_variable(self):
        prior = np.array([0.4, 0.6])
        x = np.array([1.0, math.nan])
        with pytest.raises(ValidationError, match="NaN"):
            single_prior_luxemburg(prior, Power(2), x)
        with pytest.raises(ValidationError, match="NaN"):
            norms.single_prior_modular(prior, Power(2), x, 1.0)

    def test_lists_are_accepted(self):
        assert single_prior_luxemburg([0.5, 0.5], Power(1), [1.0, -3.0]) == pytest.approx(2.0)
        assert norms.single_prior_modular([0.5, 0.5], Power(1), [1.0, 3.0], 2.0) == 1.0
