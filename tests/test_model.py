import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_orlicz import (MeasureVector, RandomVariable, ScenarioModel,
                           ValidationError, canonicalise, expectation, qs_max,
                           qs_min, qs_order)

from conftest import random_model


class TestScenarioModel:
    def test_polar_set_two_deltas(self):
        m = ScenarioModel(["w1", "w2", "w3"], [[1, 0, 0], [0, 1, 0]])
        assert m.polar_set() == {"w3"}

    def test_polar_empty_for_full_support(self):
        m = ScenarioModel(["w1", "w2"], [[0.5, 0.5]])
        assert m.polar_set() == frozenset()

    def test_polar_single_prior(self):
        m = ScenarioModel(["w1", "w2", "w3"], [[0.5, 0.5, 0.0]])
        assert m.polar_set() == {"w3"}

    def test_probability_renormalisation(self):
        drift = 1e-10
        m = ScenarioModel(["a", "b"], [[0.5 + drift, 0.5]])
        assert float(m.priors[0].sum()) == pytest.approx(1.0, abs=1e-15)

    def test_bad_mass_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioModel(["a", "b"], [[0.5, 0.4]])
        with pytest.raises(ValidationError):
            ScenarioModel(["a", "b"], [[1.5, -0.5]])

    def test_needs_a_prior(self):
        with pytest.raises(ValidationError):
            ScenarioModel(["a"], [])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioModel(["a", "b"], [[1, 0], [0, 1]], ["P", "P"])

    @staticmethod
    def _per_prior_reference(n_atoms, priors):
        """The checks one prior at a time: the first fault's message, or
        the renormalised priors."""
        out = []
        for p in priors:
            v = np.asarray(p, dtype=float)
            if v.shape != (n_atoms,):
                return "prior length does not match atom count"
            if not np.all(np.isfinite(v)):
                return "prior masses must be finite"
            if np.any(v < 0):
                return "prior has negative mass"
            s = float(v.sum())
            if abs(s - 1.0) > 1e-9:
                return f"prior mass {s!r} deviates from 1 beyond tolerance"
            out.append(v / s if abs(s - 1.0) > 1e-12 else v)
        return out or "a model needs at least one prior"

    def test_stacked_checks_match_a_per_prior_loop(self, rng):
        # one fault at most per input, given as lists, float arrays, a
        # C-ordered or a Fortran-ordered 2-D array
        for _ in range(300):
            n, k = int(rng.integers(1, 300)), int(rng.integers(1, 5))
            priors = rng.dirichlet(np.ones(n), size=k)
            r = int(rng.integers(0, k))
            priors[r] *= 1.0 + rng.choice([0.0, 5e-13, 4e-12, -3e-10, 2e-9])
            fault = rng.choice(["none", "nan", "inf", "neg", "len", "empty"])
            rows = [list(v) for v in priors]
            if fault in ("nan", "inf", "neg"):
                rows[r][0] = {"nan": math.nan, "inf": math.inf, "neg": -1e-3}[fault]
            rows = {"len": rows[:r] + [rows[r] + [0.0]] + rows[r + 1:], "empty": []}.get(fault, rows)
            want = self._per_prior_reference(n, rows)
            forms = [rows, [np.array(v) for v in rows]]
            if fault not in ("len", "empty"):
                forms += [np.array(rows), np.asfortranarray(rows)]
            for form in forms:
                if isinstance(want, str):
                    with pytest.raises(ValidationError) as err:
                        ScenarioModel([f"w{i}" for i in range(n)], form)
                    assert str(err.value) == want
                else:
                    got = ScenarioModel([f"w{i}" for i in range(n)], form).priors
                    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_a_float_array_prior_is_not_copied(self, rng):
        p = rng.dirichlet(np.ones(5))
        assert all(v is p for v in ScenarioModel(list("abcde"), [p] * 3).priors)
        stacked = rng.dirichlet(np.ones(5), size=3)
        assert all(v.base is stacked for v in ScenarioModel(list("abcde"), stacked).priors)

    def test_a_float_2d_prior_array_is_made_read_only(self):
        a = np.array([[0.5, 0.5], [1.0, 0.0]])
        m = ScenarioModel(["x", "y"], a)
        with pytest.raises(ValueError):
            a[0, 0] = 0.9
        np.testing.assert_array_equal(m.priors[0], [0.5, 0.5])

    def test_a_rejected_model_leaves_the_prior_array_writable(self):
        a = np.array([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            ScenarioModel(["x", "y"], a, prior_labels=["p", "p"])
        a[0, 0] = 0.9

    def test_prior_lookup(self):
        m = ScenarioModel(["a", "b"], [[1, 0], [0, 1]])
        np.testing.assert_array_equal(m.prior("P2"), [0, 1])
        with pytest.raises(ValidationError):
            m.prior("nope")


class TestCanonicalisation:
    def test_idempotent(self, rng):
        m = random_model(rng)
        x = rng.normal(size=m.n_atoms)
        once = canonicalise(m, x)
        twice = canonicalise(m, once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_zeroes_polar(self):
        m = ScenarioModel(["a", "b", "c"], [[0.5, 0.5, 0.0]])
        c = canonicalise(m, [1.0, 2.0, 9.0])
        np.testing.assert_array_equal(c.values, [1.0, 2.0, 0.0])

    def test_length_mismatch(self):
        m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        with pytest.raises(ValidationError):
            canonicalise(m, [1.0, 2.0, 3.0])


class TestQsOrder:
    def test_le(self):
        m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        assert qs_order(m, [1, 2], [2, 3]) == "le"

    def test_comparison_only_on_support(self):
        m = ScenarioModel(["a", "b"], [[1.0, 0.0]])
        assert qs_order(m, [1, 5], [2, 3]) == "le"

    def test_eq_after_canonicalisation(self):
        m = ScenarioModel(["a", "b"], [[1.0, 0.0]])
        assert qs_order(m, [1, 7], [1, -4]) == "eq"

    def test_incomparable(self):
        m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        assert qs_order(m, [0, 1], [1, 0]) == "incomparable"

    def test_lattice_ops(self):
        m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        np.testing.assert_array_equal(qs_min(m, [1, 5], [2, 3]).values, [1, 3])
        np.testing.assert_array_equal(qs_max(m, [1, 5], [2, 3]).values, [2, 5])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_partial_order(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        xs = [rng.normal(size=m.n_atoms) for _ in range(3)]
        # reflexivity
        assert qs_order(m, xs[0], xs[0]) == "eq"
        # antisymmetry on canonical forms
        a, b = xs[0], xs[1]
        if qs_order(m, a, b) == "le" and qs_order(m, b, a) == "le":
            assert qs_order(m, a, b) == "eq"
        # transitivity via constructed chain
        lo = qs_min(m, qs_min(m, xs[0], xs[1]), xs[2])
        hi = qs_max(m, qs_max(m, xs[0], xs[1]), xs[2])
        assert qs_order(m, lo, xs[0]) in ("le", "eq")
        assert qs_order(m, xs[0], hi) in ("le", "eq")


class TestExpectation:
    def test_uniform(self):
        assert expectation([0.5, 0.5], [2.0, 4.0]) == 3.0

    def test_zero_mass_kills_infinity(self):
        assert expectation([1.0, 0.0], [5.0, math.inf]) == 5.0

    def test_positive_mass_infinity(self):
        assert expectation([0.5, 0.5], [5.0, math.inf]) == math.inf

    def test_signed_rejected(self):
        with pytest.raises(ValidationError):
            expectation([0.5, -0.5], [1.0, 1.0])

    def test_linearity_and_monotonicity(self, rng):
        w = rng.exponential(size=5)
        w /= w.sum()
        g = rng.normal(size=5)
        h = g + np.abs(rng.normal(size=5))
        a, b = 2.0, -3.0
        lhs = expectation(w, a * g + b * h)
        rhs = a * expectation(w, g) + b * expectation(w, h)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert expectation(w, g) <= expectation(w, h)


class TestMeasureVector:
    def test_total_variation_and_abs(self):
        mu = MeasureVector([0.5, -0.25])
        assert mu.total_variation == 0.75
        assert mu.total_mass == 0.25
        assert mu.abs().is_nonnegative()

    def test_absolute_continuity(self):
        mu = MeasureVector([0.0, 0.3])
        assert mu.absolutely_continuous_wrt(np.array([0.0, 1.0]))
        assert not mu.absolutely_continuous_wrt(np.array([1.0, 0.0]))


class TestRandomVariable:
    def test_abs(self):
        rv = RandomVariable([-1.0, 2.0])
        np.testing.assert_array_equal(abs(rv).values, [1.0, 2.0])

    def test_values_frozen(self):
        rv = RandomVariable([1.0, 2.0])
        with pytest.raises(ValueError):
            rv.values[0] = 5.0
