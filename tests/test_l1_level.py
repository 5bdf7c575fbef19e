"""The level alpha = min_P sup{x : phi_P(x) <= 1} of the weighted-L1 form,
exact from the kernel's norm of a unit atom, and the kernel's range of
lam, [2**-1023, 2**1023] in units of max|X|, that makes it exact at
every scale a float can hold."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from robust_orlicz import (EssSupIndicator, Exponential, OrliczFamily, Power, Scaled,
                           ScenarioModel, prior_norm_bound, single_prior_luxemburg,
                           verify_l1_reduction)

from conftest import random_family, random_model, random_phi

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LN2 = math.log(2.0)


@pytest.fixture
def model2():
    return ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])


def test_alpha_is_the_least_level_of_the_family():
    rng = np.random.default_rng(3)
    for _ in range(30):
        model = random_model(rng)
        family = random_family(rng, model)
        alpha = verify_l1_reduction(model, family, sample_size=1).alpha
        assert alpha == min(map(prior_norm_bound, family.functions.values()))
        assert family.phi_max(alpha * (1.0 - 1e-12)) <= 1.0 < family.phi_max(alpha * (1.0 + 1e-9))


def test_alpha_reads_the_priors_of_the_model_alone():
    model = ScenarioModel(["a", "b"], [[0.5, 0.5]])
    family = OrliczFamily({"P1": Power(2.0), "Q": Scaled(Power(2.0), 100.0)})
    rep = verify_l1_reduction(model, family, sample_size=5)
    assert rep.alpha == 1.0 and rep.kappa == 1.0


def test_kappa_is_the_reciprocal_of_alpha():
    rng = np.random.default_rng(7)
    for _ in range(150):
        model = random_model(rng)
        rep = verify_l1_reduction(model, random_family(rng, model), sample_size=1)
        assert rep.applicable
        assert rep.kappa * rep.alpha == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("phi, alpha", [
    (Scaled(Power(2.0), 1e61), 1e-61),
    (Scaled(Exponential(1.0), 1e70), LN2 * 1e-70),
    (Scaled(Exponential(1.0), 1e-305), LN2 * 1e305),
    # the cases a scan of alpha over 2**-k, k < 200, read as 0, 2**-4 and 2**-50
    (Scaled(EssSupIndicator(), 2.0 ** 300), 2.0 ** -300),
    (Exponential(8.0), LN2 / 8.0),
    (Scaled(Power(3.0), 2.0 ** 50), 2.0 ** -50),
])
def test_exact_alpha_at_extreme_scales(model2, phi, alpha):
    rep = verify_l1_reduction(model2, OrliczFamily.uniform(model2, phi), sample_size=20)
    assert rep.applicable
    assert rep.alpha == pytest.approx(alpha, rel=1e-12)
    assert rep.kappa == pytest.approx(1.0 / alpha, rel=1e-9)
    assert rep.max_rel_gap <= 1e-9
    assert rep.mass_bound_ok and rep.kappa_bound_ok


def test_a_unit_atom_below_the_old_floor_of_lam():
    # ||1|| = 1e-305 / ln 2 is below 1e-300 and above 2**-1023
    phi = Scaled(Exponential(1.0), 1e-305)
    assert single_prior_luxemburg([1.0], phi, [1.0]) == pytest.approx(1e-305 / LN2, rel=1e-10)
    assert prior_norm_bound(phi) == pytest.approx(LN2 * 1e305, rel=1e-12)


def test_cli_verify_l1_below_the_old_floor_of_lam(tmp_path):
    mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
    mpath.write_text(json.dumps({"atoms": ["a", "b"], "priors": [
        {"label": "P1", "masses": [0.5, 0.5]}, {"label": "P2", "masses": [1.0, 0.0]}]}))
    fpath.write_text(json.dumps({"uniform": {
        "kind": "scaled", "inner": {"kind": "exponential", "beta": 1.0},
        "theta": 1e-305, "one_plus_gamma": 1.0}}))
    out = subprocess.run(
        [sys.executable, "-m", "robust_orlicz.cli", "verify-l1", "--model", str(mpath),
         "--family", str(fpath), "--samples", "10"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_witness_mass_bound_is_relative(scale):
    # the masses sit within rounding of 1 / alpha, which at 1e200 is far
    # more than any absolute slack
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = random_model(rng)
        family = OrliczFamily({l: Scaled(random_phi(rng), scale) for l in model.prior_labels})
        rep = verify_l1_reduction(model, family, sample_size=10)
        assert rep.mass_bound_ok
        assert all(w["theta"] <= (1.0 + 1e-8) / rep.alpha for w in rep.witnesses)
