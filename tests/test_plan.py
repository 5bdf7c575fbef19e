"""One block plan per public call: `norms._plan` groups the priors into
blocks once, from the model and family alone, and the sup, the
certificate, the modular, the projection's objective and the diagnostics'
rung norms all walk that plan."""

import sys

import numpy as np
import pytest

from robust_orlicz import (Exponential, OrliczFamily, Power, ScenarioModel,
                           gaussian_power_ladder, luxemburg_norm, membership_classify,
                           mixture_witness, modular, option_basis, penalised_norm,
                           project_onto_span, tail_membership, weighted_lp_norm)
from robust_orlicz import ConsistencyError, norms, spanning

from conftest import random_family, random_model, random_x


def _count_plans(monkeypatch) -> list:
    """Count `norms._plan` calls wherever the package binds it."""
    calls, inner = [], norms._plan

    def counted(model, family):
        calls.append(model)
        return inner(model, family)

    for name, module in list(sys.modules.items()):
        if name.startswith("robust_orlicz") and hasattr(module, "_plan"):
            monkeypatch.setattr(module, "_plan", counted)
    return calls


def test_one_plan_per_norm_and_two_per_penalised_norm(monkeypatch, rng):
    calls = _count_plans(monkeypatch)
    for _ in range(20):
        m = random_model(rng)
        fam = random_family(rng, m)
        x = random_x(rng, m.n_atoms)
        gamma = {l: float(rng.uniform(0.0, 2.0)) for l in m.prior_labels}
        del calls[:]
        luxemburg_norm(m, x, fam)
        assert len(calls) == 1
        del calls[:]
        # the norm of the scaled family, and the certificate on the
        # penalised modular under the uniform family
        penalised_norm(m, x, Exponential(1.0), gamma)
        assert len(calls) == 2


def test_one_plan_for_an_infinite_norm_and_its_certificate(monkeypatch):
    m = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
    calls = _count_plans(monkeypatch)
    res = luxemburg_norm(m, [np.inf, 1.0], OrliczFamily.uniform(m, Exponential(1.0)))
    assert res.value == np.inf and len(calls) == 1


def test_one_plan_per_modular_witness_and_weighted_norm(monkeypatch, rng):
    m = ScenarioModel([f"w{i}" for i in range(4)],
                      [rng.dirichlet(np.ones(4)) for _ in range(4)])
    fam = OrliczFamily.power_ladder(m)
    x = [1.0, 3.0, 9.0, 27.0]
    calls = _count_plans(monkeypatch)
    for call in (lambda: modular(m, x, 2.0, fam),
                 lambda: mixture_witness(m, x, fam),
                 lambda: weighted_lp_norm(m, x, 2.0, dict.fromkeys(m.prior_labels, 1.0))):
        del calls[:]
        call()
        assert len(calls) == 1


MODEL = ScenarioModel(["a", "b", "c", "d"], [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
FAMILY = OrliczFamily.uniform(MODEL, Power(2.0))
BASIS = option_basis(MODEL, [0.0, 1.0, 1.0, 2.0])
Y = np.array([1.0, -1.0, 3.0, 4.0])


@pytest.mark.parametrize("n_restarts", [0, 4])
def test_one_plan_per_projection_whatever_the_starts(monkeypatch, n_restarts):
    project_onto_span(MODEL, Y, BASIS, FAMILY)
    calls = _count_plans(monkeypatch)
    project_onto_span(MODEL, Y, BASIS, FAMILY, n_restarts=n_restarts)
    assert len(calls) == 1
    # solves that never certify: every start runs and is normed on the plan
    starts = []

    def lifted_solver(*args):
        def solve(a0, f0):
            starts.append(a0)
            return a0, 0.0, None
        return solve

    monkeypatch.setattr(spanning, "_lifted_solver", lifted_solver)
    del calls[:]
    with pytest.raises(ConsistencyError):
        project_onto_span(MODEL, Y, BASIS, FAMILY, n_restarts=n_restarts)
    assert len(starts) == 3 + n_restarts and len(calls) == 1


def test_one_plan_per_rung_in_the_diagnostics(monkeypatch):
    ladder = [gaussian_power_ladder(n, T=4.0, h=0.01) for n in (2, 3, 4)]
    calls = _count_plans(monkeypatch)
    assert membership_classify(ladder) == "in_frakL_only"
    assert calls == [t.model for t in ladder]
    # tail_membership reads the last two rungs, at every level on one plan each
    for rungs in (ladder[-1:], ladder[-2:]):
        del calls[:]
        tail_membership(rungs, [0.5, 1.0, 2.0, 3.0])
        assert calls == [t.model for t in rungs]
