"""Masses checked where they enter: a prior given by itself, a dominating
measure, and masses or values that are not real numbers."""

import math

import numpy as np
import pytest

from robust_orlicz import (OrliczFamily, Power, ScenarioModel, Truncation, ValidationError,
                           expectation, kothe_dual_norm, luxemburg_norm, modular,
                           penalised_norm, risk_measure, single_prior_luxemburg,
                           tail_membership, uniform_integrability_report, weighted_lp_norm)
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


M2 = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
LADDER = [Truncation(model=M2, x=np.array([1.0, 2.0]), family=OrliczFamily.uniform(M2, Power(2.0)))]


@pytest.mark.parametrize("call, what", [
    (lambda: single_prior_luxemburg(["x", 1.0], Power(2.0), [1.0, 1.0]), "prior masses"),
    (lambda: single_prior_luxemburg([0.5, 0.5], Power(2.0), [1j, 1.0]), "random variable values"),
    (lambda: single_prior_modular(["x", 1.0], Power(2.0), [1.0, 1.0], 1.0), "prior masses"),
    (lambda: kothe_dual_norm(["x", 1], [0.5, 0.5], Power(2.0)), "measure masses"),
    (lambda: kothe_dual_norm([1.0, 1.0], [0.5, "y"], Power(2.0)), "prior masses"),
    (lambda: uniform_integrability_report(M2, [0.5, 0.5], ["x"]), "c_grid"),
    (lambda: uniform_integrability_report(M2, ["x", 0.5], [1.0]), "dominating measure masses"),
    (lambda: tail_membership(LADDER, [0.5, "x"]), "levels"),
    (lambda: expectation(["x", 0.5], [1.0, 1.0]), "measure masses"),
    (lambda: expectation([0.5, 0.5], [1.0, [2.0]]), "random variable values"),
    (lambda: OrliczFamily.additively_penalised(M2, Power(2.0), {"P1": "x", "P2": 0}), "gamma"),
    (lambda: OrliczFamily.multiplicatively_weighted(M2, Power(2.0), {"P1": 1, "P2": 1j}),
     "theta"),
    (lambda: OrliczFamily.doubly_penalised(M2, Power(2.0), {"P1": 1, "P2": 1},
                                           {"P1": 0, "P2": None}), "gamma"),
    (lambda: penalised_norm(M2, [1.0, 2.0], Power(2.0), {"P1": "x", "P2": 0}), "gamma"),
    (lambda: risk_measure(M2, [1.0, 2.0], {"P1": 0, "P2": "x"}), "gamma"),
    (lambda: weighted_lp_norm(M2, [1.0, 2.0], 2.0, {"P1": "x", "P2": 1}), "theta"),
], ids=["luxemburg-prior", "luxemburg-x", "modular-prior", "dual-mu", "dual-prior",
        "ui-c-grid", "ui-pstar", "tails-levels", "expectation-weights", "expectation-g",
        "additive-gamma", "weighted-theta", "doubly-gamma", "penalised-gamma", "risk-gamma",
        "weighted-lp-theta"])
def test_entry_points_want_real_numbers(call, what):
    with pytest.raises(ValidationError, match=f"^{what} must be real numbers$"):
        call()


FAM2 = OrliczFamily.uniform(M2, Power(2.0))


@pytest.mark.parametrize("call, message", [
    (lambda: luxemburg_norm(M2, [1.0, 2.0], FAM2, tol="x"), "tol must be finite and positive"),
    (lambda: luxemburg_norm(M2, [1.0, 2.0], FAM2, tol=1j), "tol must be finite and positive"),
    (lambda: luxemburg_norm(M2, [1.0, 2.0], FAM2, max_iter="x"), "max_iter must be at least 1"),
    (lambda: single_prior_luxemburg([1.0], Power(2.0), [1.0], max_iter=None),
     "max_iter must be at least 1"),
    (lambda: modular(M2, [1.0, 2.0], "x", FAM2), "modular scale must be positive"),
    (lambda: single_prior_modular([1.0], Power(2.0), [1.0], [2.0]),
     "modular scale must be positive"),
], ids=["tol-str", "tol-complex", "max-iter-str", "max-iter-none", "lam-str", "lam-list"])
def test_kernel_scalars_want_real_numbers(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()
