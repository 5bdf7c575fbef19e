import json
import math

import numpy as np
import pytest

from robust_orlicz import (OrliczFamily, Power, ScenarioModel, Truncation,
                           ValidationError, discretise_standard_normal,
                           gaussian_abs_moment, gaussian_power_ladder,
                           gaussian_uniform_family_ladder, membership_classify,
                           mixture_witness, moment_growth, tail_membership)
from robust_orlicz.cli import main

# coarse grid keeps unit tests fast; the acceptance suite runs the fine one
T_COARSE, H_COARSE = 8.0, 0.01


@pytest.fixture(scope="module")
def coarse_normal():
    return discretise_standard_normal(T_COARSE, H_COARSE)


class TestDiscretisation:
    def test_mass_and_symmetry(self, coarse_normal):
        v, p = coarse_normal
        assert p.sum() == pytest.approx(1.0, abs=1e-14)
        assert float(np.dot(p, v)) == pytest.approx(0.0, abs=1e-12)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            discretise_standard_normal(T=1.0, h=2.0)


class TestMomentGrowth:
    def test_closed_form_oracle(self):
        assert gaussian_abs_moment(1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
        assert gaussian_abs_moment(2) == pytest.approx(1.0, rel=1e-12)
        assert gaussian_abs_moment(4) == pytest.approx(3.0, rel=1e-12)
        assert gaussian_abs_moment(6) == pytest.approx(15.0, rel=1e-12)

    def test_roots_against_oracle(self, coarse_normal):
        v, p = coarse_normal
        rep = moment_growth(v, p, 12)
        assert rep.roots[0] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-3)
        assert rep.roots[1] == pytest.approx(1.0, rel=1e-3)
        assert not any(rep.hard_flags)

    def test_nondecreasing(self, coarse_normal):
        v, p = coarse_normal
        rep = moment_growth(v, p, 15)
        assert all(b >= a for a, b in zip(rep.roots, rep.roots[1:]))

    def test_orders_past_the_float_range(self):
        # E|U|^n leaves the float range at n = 302 and |v|^n from n = 309
        v, p = discretise_standard_normal(10.0, 1e-3)
        rep = moment_growth(v, p, 400)
        assert all(map(math.isfinite, rep.roots + rep.oracle_roots))
        assert all(b >= a for a, b in zip(rep.roots, rep.roots[1:]))
        assert rep.roots[-1] < 10.0 < rep.oracle_roots[-1]
        assert gaussian_abs_moment(301) < math.inf == gaussian_abs_moment(302)
        assert math.log(rep.oracle_roots[-1]) == pytest.approx(
            (0.5 * 400 * math.log(2.0) + math.lgamma(200.5) - 0.5 * math.log(math.pi)) / 400,
            rel=1e-14)

    def test_cli_moments_past_the_float_range(self, capsys):
        assert main(["moments", "--n-max", "400"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)

    def test_first_exceeds_two_at_eleven(self):
        # closed-form untruncated values: the root sequence crosses 2
        # between n = 10 and n = 11
        assert gaussian_abs_moment(10) ** 0.1 < 2.0
        assert gaussian_abs_moment(11) ** (1 / 11) > 2.0


class TestTailMembership:
    def test_bounded_variable_convergent(self):
        m = ScenarioModel(["a", "b", "c"], [[0.3, 0.3, 0.4]])
        fam = OrliczFamily.uniform(m, Power(2))
        t = Truncation(model=m, x=np.array([1.0, 2.0, 3.0]), family=fam,
                       label="finite")
        prof = tail_membership([t], levels=[1.0, 2.0, 3.0, 4.0, 5.0])
        assert prof.verdict == "convergent"
        assert prof.tail_norms[-1] == 0.0  # exactly 0 beyond max |X|
        assert prof.tail_norms[-2] == 0.0

    def test_gaussian_power2_convergent(self):
        ladder = gaussian_uniform_family_ladder(Power(2), [5.0, 6.5, T_COARSE],
                                                h=H_COARSE)
        prof = tail_membership(ladder, levels=list(range(1, 9)))
        assert prof.verdict == "convergent"
        assert prof.slope < -0.1

    def test_gaussian_ladder_divergent(self):
        ladder = [gaussian_power_ladder(n, T=T_COARSE, h=H_COARSE)
                  for n in (15, 20, 25)]
        prof = tail_membership(ladder, levels=list(range(1, 8)))
        assert prof.verdict == "divergent"

    def test_tail_norms_nonincreasing_in_level(self):
        ladder = [gaussian_power_ladder(10, T=T_COARSE, h=H_COARSE)]
        prof = tail_membership(ladder, levels=[1.0, 2.0, 3.0, 4.0])
        assert all(b <= a + 1e-12 for a, b in
                   zip(prof.tail_norms, prof.tail_norms[1:]))

    def test_levels_must_ascend(self):
        ladder = [gaussian_power_ladder(3, T=T_COARSE, h=H_COARSE)]
        with pytest.raises(ValidationError):
            tail_membership(ladder, levels=[2.0, 1.0])


class TestMembershipClassify:
    def test_finite_model_in_LPhi(self, rng):
        from conftest import random_family, random_model
        m = random_model(rng)
        fam = OrliczFamily.uniform(m, Power(2))
        t = Truncation(model=m, x=rng.normal(size=m.n_atoms), family=fam)
        assert membership_classify(t) == "in_LPhi"

    def test_gaussian_ladder_frakL_only(self):
        ladder = [gaussian_power_ladder(n, T=T_COARSE, h=H_COARSE)
                  for n in (10, 18, 26)]
        assert membership_classify(ladder) == "in_frakL_only"

    def test_stabilising_ladder_in_LPhi(self):
        ladder = gaussian_uniform_family_ladder(Power(2), [6.0, 7.0, T_COARSE],
                                                h=H_COARSE)
        assert membership_classify(ladder) == "in_LPhi"

    def test_outside_frakL(self):
        from robust_orlicz import PiecewiseLinear, Scaled
        m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        # phi infinite beyond 1 and X unbounded relative to every scaling
        phi = PiecewiseLinear([0.0], [0.5], bound=1.0)
        fam = OrliczFamily.uniform(m, phi)
        t = Truncation(model=m, x=np.array([1.0, 2.0]), family=fam)
        # every alpha = 2^-k eventually renders the modular finite here, so
        # this stays in frakL; to land outside we need an infinite value at
        # every scaling, impossible on finite models with nonzero bound
        assert membership_classify(t) in ("in_LPhi", "in_frakL_only")


class TestMixtureWitness:
    def test_gaussian_ladder_witness(self):
        t = gaussian_power_ladder(30, T=T_COARSE, h=H_COARSE)
        rep = mixture_witness(t.model, t.x, t.family)
        assert rep.constructible
        assert rep.rule == "increasing-subsequence"
        assert rep.modular_lower_bound > 1e6
        assert rep.mixture.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bounded_variable_not_constructible(self, delta_model):
        fam = OrliczFamily.uniform(delta_model, Power(1))
        rep = mixture_witness(delta_model, [0.5, 0.5], fam)
        assert not rep.constructible

    def test_single_prior_degenerates(self, uniform2_model):
        fam = OrliczFamily.uniform(uniform2_model, Power(2))
        rep = mixture_witness(uniform2_model, [1.0, 2.0], fam)
        assert rep.constructible
        assert rep.rule == "degenerate-single-prior"
        np.testing.assert_allclose(rep.mixture.masses, [0.5, 0.5])

    def test_lower_bound_matches_contributions(self):
        t = gaussian_power_ladder(12, T=T_COARSE, h=H_COARSE)
        rep = mixture_witness(t.model, t.x, t.family)
        assert rep.modular_lower_bound == pytest.approx(sum(rep.contributions))

    @pytest.mark.parametrize("priors", [[[0.5, 0.5]], [[0.5, 0.5], [0.2, 0.8]]],
                             ids=["one-prior", "two-priors"])
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_alpha_that_is_not_finite_positive(self, priors, alpha):
        # with two priors fewer than three qualify, so no mixture is built
        model = ScenarioModel(["a", "b"], priors)
        fam = OrliczFamily.uniform(model, Power(2))
        with pytest.raises(ValidationError):
            mixture_witness(model, [1.0, 2.0], fam, alpha=alpha)
