"""Masses checked where they enter: a prior given by itself, a dominating
measure, and masses or values that are not real numbers."""

import math

import numpy as np
import pytest

from robust_orlicz import (OrliczFamily, Power, ScenarioModel, ValidationError,
                           kothe_dual_norm, luxemburg_norm, single_prior_luxemburg,
                           uniform_integrability_report)
from robust_orlicz.norms import single_prior_modular

BAD_PRIORS = [[math.nan, 1.0], [math.inf, 1.0], [1.5, -0.5]]


@pytest.mark.parametrize("prior", BAD_PRIORS)
def test_single_prior_luxemburg_checks_the_prior(prior):
    with pytest.raises(ValidationError, match="prior masses"):
        single_prior_luxemburg(prior, Power(2.0), [1.0, 1.0])


@pytest.mark.parametrize("prior", BAD_PRIORS)
def test_single_prior_modular_checks_the_prior(prior):
    with pytest.raises(ValidationError, match="prior masses"):
        single_prior_modular(np.array(prior), Power(2.0), np.array([1.0, 1.0]), 1.0)


@pytest.mark.parametrize("prior", BAD_PRIORS)
def test_kothe_dual_norm_checks_the_prior(prior):
    with pytest.raises(ValidationError, match="prior masses"):
        kothe_dual_norm([1.0, 1.0], prior, Power(2.0))


def test_single_atoms_need_not_sum_to_one():
    # the definition route takes norms of single atoms of a prior
    assert single_prior_luxemburg([0.25], Power(2.0), [1.0]) == 0.5


@pytest.mark.parametrize("pstar, message", [
    ([1.0], "length"),
    ([0.5, 0.25, 0.25], "length"),
    ([1.5, -0.5], "nonnegative"),
    ([math.nan, 1.0], "finite"),
    ([math.inf, 1.0], "finite"),
])
def test_uniform_integrability_report_checks_pstar(pstar, message):
    m = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(ValidationError, match=message):
        uniform_integrability_report(m, pstar, [0.0, 1.0])


@pytest.mark.parametrize("priors", [[["x"]], [[1j]], [[0.5, "y"]], [[1.0], ["x"]]])
def test_model_masses_must_be_real_numbers(priors):
    atoms = ["a", "b"][:len(priors[0])]
    with pytest.raises(ValidationError):
        ScenarioModel(atoms, priors)


@pytest.mark.parametrize("x", [["a", 1.0], [1j, 1.0]])
def test_random_variable_values_must_be_real_numbers(x):
    m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
    with pytest.raises(ValidationError, match="real numbers"):
        luxemburg_norm(m, x, OrliczFamily.uniform(m, Power(2.0)))
