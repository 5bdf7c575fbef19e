import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (EssSupIndicator, Exponential, OrliczFunction,
                           PiecewiseLinear, Power, Scaled, ValidationError,
                           validate_orlicz)

from conftest import random_phi

INF = math.inf


class TestEvaluation:
    def test_power_closed_form(self):
        assert Power(2)(3.0) == 9.0

    def test_power_rejects_small_exponent(self):
        with pytest.raises(ValidationError):
            Power(0.5)

    def test_ess_sup_jump(self):
        phi = EssSupIndicator()
        assert phi(0.999) == 0.0
        assert phi(1.0) == 0.0
        assert phi(1.001) == INF

    def test_scaled_composition(self):
        phi = Scaled(Power(1), 2.0, 4.0)
        assert phi(6.0) == 3.0

    def test_exponential(self):
        phi = Exponential(1.0)
        assert phi(0.0) == 0.0
        assert phi(1.0) == pytest.approx(math.e - 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            Power(2)(-1.0)

    def test_array_evaluation(self):
        out = Power(2)(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [1.0, 4.0, 9.0])

    def test_piecewise_linear_values(self):
        # 0 until 1, slope 1 until 2, slope 3 after
        phi = PiecewiseLinear([1.0, 2.0], [1.0, 3.0])
        assert phi(0.5) == 0.0
        assert phi(1.5) == 0.5
        assert phi(3.0) == 1.0 + 3.0
        phi_b = PiecewiseLinear([0.0], [0.5], bound=2.0)
        assert phi_b(2.0) == 1.0  # left limit at the bound
        assert phi_b(2.1) == INF

    def test_piecewise_linear_rejects_nonconvex(self):
        with pytest.raises(ValidationError):
            PiecewiseLinear([0.0, 1.0], [2.0, 1.0])

    def test_identically_zero_rejected(self):
        with pytest.raises(ValidationError):
            PiecewiseLinear([0.0], [0.0])

    def test_zero_with_finite_bound_is_ess_sup_like(self):
        # jumps to infinity beyond the bound: nonzero in the extended sense
        phi = PiecewiseLinear([0.0], [0.0], bound=1.0)
        assert phi(0.5) == 0.0
        assert phi(2.0) == INF


class TestConjugate:
    def test_power1(self):
        phi = Power(1)
        assert phi.conjugate(0.5) == 0.0
        assert phi.conjugate(1.5) == INF

    def test_ess_sup(self):
        assert EssSupIndicator().conjugate(2.0) == 2.0

    def test_power2(self):
        assert Power(2).conjugate(2.0) == pytest.approx(1.0, rel=1e-12)

    def test_scaled_conjugate_composition(self):
        # phi(x) = (2x)^2 / 4 = x^2, so phi* must match Power(2)*
        phi = Scaled(Power(2), 2.0, 4.0)
        for y in [0.0, 0.5, 1.0, 3.0]:
            assert phi.conjugate(y) == pytest.approx(Power(2).conjugate(y), rel=1e-9)

    def test_numeric_conjugate_matches_closed_form(self):
        # piecewise-linear version of Power(1): conjugate 0 below slope, inf above
        phi = PiecewiseLinear([0.0], [1.0])
        assert phi.conjugate(0.5) == pytest.approx(0.0, abs=1e-9)
        assert phi.conjugate(2.0) == INF

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 5.0))
    def test_fenchel_young(self, seed, y):
        rng = np.random.default_rng(seed)
        phi = random_phi(rng)
        x = float(rng.uniform(0.0, 4.0))
        fx, fy = phi(x), phi.conjugate(y)
        if fx < INF and fy < INF:
            assert x * y <= fx + fy + 1e-9 * max(1.0, fx + fy)

    def test_double_conjugate_piecewise(self):
        phi = PiecewiseLinear([0.5, 1.5], [1.0, 2.0])

        def biconjugate(x):
            # sup_y (x y - phi*(y)); phi* finite only up to the top slope
            ys = np.linspace(0.0, 2.0, 4001)
            vals = [x * y - phi.conjugate(float(y)) for y in ys]
            return max(vals)

        for x in [0.2, 0.5, 1.0, 1.5, 2.5]:
            assert biconjugate(x) == pytest.approx(phi(x), abs=1e-6)


class TestAffineMinorant:
    def test_power1(self):
        m = Power(1).affine_minorant()
        assert m.a == pytest.approx(1.0, rel=1e-6)
        assert m.b == pytest.approx(0.0, abs=1e-6)

    def test_power2_tangent_at_one(self):
        m = Power(2).affine_minorant()
        assert m.a == pytest.approx(2.0, rel=1e-6)
        assert m.b == pytest.approx(-1.0, rel=1e-6)

    def test_ess_sup(self):
        m = EssSupIndicator().affine_minorant()
        assert m.a == pytest.approx(1.0, rel=1e-9)
        assert m.b == pytest.approx(-1.0, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_minorant_below_phi_on_grid(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_phi(rng)
        m = phi.affine_minorant()
        assert m.a > 0 and m.b <= 0
        bound = phi.domain_bound
        hi = bound if math.isfinite(bound) else 50.0
        grid = np.linspace(0.0, hi, 10_000)
        vals = phi(grid)
        line = m.a * grid + m.b
        assert np.all(line <= vals + 1e-12 * np.maximum(1.0, np.abs(vals)))


class TestConvexity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 0.99))
    def test_interpolation_bound(self, seed, t):
        rng = np.random.default_rng(seed)
        phi = random_phi(rng)
        bound = phi.domain_bound
        hi = bound if math.isfinite(bound) else 10.0
        x, z = sorted(rng.uniform(0.0, hi, size=2))
        y = t * x + (1 - t) * z
        fy = phi(y)
        interp = t * phi(x) + (1 - t) * phi(z)
        if math.isfinite(interp) and math.isfinite(fy):
            assert fy <= interp + 1e-12 * max(1.0, abs(interp))

    def test_validate_passes_stock_kinds(self):
        for phi in [Power(1), Power(2.5), Exponential(0.7), EssSupIndicator(),
                    PiecewiseLinear([0.0, 1.0], [0.5, 2.0]),
                    Scaled(Power(2), 1.5, 2.0)]:
            validate_orlicz(phi)


class TestPowerAffineMinorant:
    def test_closed_form_equals_numeric_route(self):
        rng = np.random.default_rng(504)
        exponents = [1, 1.0, 2, 40.0] + [float(p) for p in rng.uniform(1.0, 40.0, size=200)]
        for p in exponents:
            phi = Power(p)
            closed = phi.affine_minorant()
            assert closed == OrliczFunction.affine_minorant(phi)
            assert type(closed.a) is float and type(closed.b) is float
