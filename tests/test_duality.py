import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (ConsistencyError, EssSupIndicator, OrliczFamily,
                           Power, ScenarioModel, ValidationError,
                           canonical_projection, dual_witness, kothe_dual_norm,
                           luxemburg_norm, prior_norm_bound, qs_min,
                           verify_l1_reduction)

from conftest import random_family, random_model, random_x

INF = math.inf
TOL = 1e-10


class TestKotheDualNorm:
    def test_power1_self_pairing(self, uniform2_model):
        P = uniform2_model.prior("P1")
        assert kothe_dual_norm(P, P, Power(1)) == pytest.approx(1.0, rel=1e-8)

    def test_power2_self_dual(self, uniform2_model):
        P = uniform2_model.prior("P1")
        assert kothe_dual_norm(P, P, Power(2), method="both") == pytest.approx(1.0, rel=1e-6)

    def test_ess_sup_total_mass(self, uniform2_model):
        P = uniform2_model.prior("P1")
        assert kothe_dual_norm(P, P, EssSupIndicator()) == pytest.approx(1.0, rel=1e-8)

    def test_abs_continuity_required(self, uniform2_model):
        with pytest.raises(ValidationError):
            kothe_dual_norm([1.0, 0.0], np.array([0.0, 1.0]), Power(1))

    def test_zero_measure(self, uniform2_model):
        P = uniform2_model.prior("P1")
        assert kothe_dual_norm(np.zeros(2), P, Power(2)) == 0.0

    def test_routes_agree_on_random_instances(self, rng):
        for _ in range(6):
            m = random_model(rng, n_atoms=int(rng.integers(2, 5)), n_priors=1)
            P = m.priors[0]
            mu = P * rng.uniform(0.2, 2.0, size=m.n_atoms)
            mu[P == 0] = 0.0
            phi = Power(float(rng.uniform(1.0, 3.0)))
            kothe_dual_norm(mu, P, phi, method="both", rng=rng)  # raises on gap


class TestDualWitness:
    def test_delta_priors_power1(self, delta_model):
        fam = OrliczFamily.uniform(delta_model, Power(1))
        w = dual_witness(delta_model, [1, 3], fam)
        np.testing.assert_allclose(w.measure.masses, [0.0, 1.0], atol=1e-9)
        assert w.pairing == pytest.approx(3.0, rel=1e-8)

    def test_uniform_power1_symmetry(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(1))
        w = dual_witness(uniform2_model, [1, 1], fam)
        np.testing.assert_allclose(w.measure.masses, [0.5, 0.5], rtol=1e-8)
        assert w.pairing == pytest.approx(1.0, rel=1e-8)

    def test_l2_self_duality(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(2))
        w = dual_witness(uniform2_model, [1, 3], fam)
        assert w.pairing == pytest.approx(math.sqrt(5.0), rel=1e-8)
        # witness proportional to |X| dP, normalised to dual norm 1
        ratio = w.measure.masses / (np.array([1.0, 3.0]) * 0.5)
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-6)

    def test_ess_sup_kink(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, EssSupIndicator())
        w = dual_witness(uniform2_model, [1, 3], fam)
        assert w.pairing == pytest.approx(3.0, rel=1e-8)
        assert w.measure.masses[0] == 0.0

    def test_zero_variable_rejected(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(1))
        with pytest.raises(ValidationError):
            dual_witness(uniform2_model, [0, 0], fam)

    def test_witness_vanishes_on_polar(self):
        m = ScenarioModel(["a", "b", "c"], [[0.5, 0.5, 0.0]])
        fam = OrliczFamily.uniform(m, Power(2))
        w = dual_witness(m, [1.0, 2.0, 5.0], fam)
        assert w.measure.masses[2] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hoelder_and_gap(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        fam = random_family(rng, m)
        x = random_x(rng, m.n_atoms)
        res = luxemburg_norm(m, x, fam)
        if not (0 < res.value < INF):
            return
        w = dual_witness(m, x, fam, norm_result=res)
        scale = max(1.0, res.value)
        # witness achieves the norm: |gap| small, and Hoelder: gap >= -10 tol
        assert w.gap >= -10 * TOL * scale - 1e-9 * scale
        assert abs(w.gap) <= 1e-6 * scale
        # Hoelder against an unrelated variable
        y = random_x(rng, m.n_atoms)
        resy = luxemburg_norm(m, y, fam)
        if math.isfinite(resy.value):
            pair = float(np.dot(w.measure.masses, np.abs(np.asarray(y, dtype=float))))
            assert pair <= resy.value * w.dual_norm * (1 + 1e-6) + 1e-9


class TestCanonicalProjection:
    def test_restriction(self):
        m = ScenarioModel(["a", "b", "c"], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        out = canonical_projection(m, [1.0, 2.0, 3.0], "P1")
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 0.0])

    def test_full_support_identity(self, uniform2_model):
        out = canonical_projection(uniform2_model, [1.0, 2.0], "P1")
        np.testing.assert_array_equal(out.values, [1.0, 2.0])

    def test_lattice_homomorphism(self, rng):
        for _ in range(20):
            m = random_model(rng)
            label = m.prior_labels[int(rng.integers(0, m.n_priors))]
            x = random_x(rng, m.n_atoms)
            y = random_x(rng, m.n_atoms)
            lhs = canonical_projection(m, qs_min(m, x, y), label).values
            rhs = np.minimum(canonical_projection(m, x, label).values,
                             canonical_projection(m, y, label).values)
            np.testing.assert_array_equal(lhs, rhs)


class TestL1Reduction:
    def test_power1_family(self, delta_model):
        fam = OrliczFamily.uniform(delta_model, Power(1))
        rep = verify_l1_reduction(delta_model, fam, sample_size=40)
        assert rep.applicable
        assert rep.max_rel_gap <= 1e-8
        assert rep.kappa_bound_ok and rep.mass_bound_ok

    def test_ess_sup_family(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, EssSupIndicator())
        rep = verify_l1_reduction(uniform2_model, fam, sample_size=40)
        assert rep.applicable
        assert rep.max_rel_gap <= 1e-6
        # witnesses concentrate on single atoms (ess-sup as sup of evaluations)
        for w in rep.witnesses:
            assert max(w["masses"]) >= 1.0 - 1e-8

    def test_kappa_is_norm_of_one(self, rng):
        m = random_model(rng)
        fam = random_family(rng, m)
        rep = verify_l1_reduction(m, fam, sample_size=15)
        if rep.applicable:
            kappa = luxemburg_norm(m, np.ones(m.n_atoms), fam).value
            assert rep.kappa == pytest.approx(kappa, rel=1e-9)

    def test_totally_infinite_phi_rejected_at_construction(self):
        from robust_orlicz import PiecewiseLinear
        with pytest.raises(ValidationError):
            PiecewiseLinear([0.0], [0.0], bound=0.0)


class TestPriorNormBound:
    def test_power1_bound_is_one(self):
        assert prior_norm_bound(Power(1)) == pytest.approx(1.0, rel=1e-6)

    def test_bound_positive_finite(self, rng):
        from conftest import random_phi
        for _ in range(20):
            b = prior_norm_bound(random_phi(rng))
            assert 0 < b < INF


def test_duality_imports_nothing_from_spanning():
    # the projection builds on the dual norms, not the other way round
    import ast
    import inspect

    from robust_orlicz import duality, spanning

    tree = ast.parse(inspect.getsource(duality))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not any(name and name.split(".")[-1] == "spanning" for name in imported)
    assert spanning._CAP is duality._CAP
