"""The duality-gap certificate of `project_onto_span`: the separating
measure each solve returns is orthogonal to the span and pays on the
target, a start that does not certify makes the loop go on, and where no
start certifies (or a bound lies above the residual) ConsistencyError
names the residual, the bound and the gate. The LP path keeps prior
masses far below HiGHS's default matrix threshold."""

import numpy as np
import pytest
from scipy import optimize

from robust_orlicz import (ConsistencyError, OrliczFamily, PiecewiseLinear, Power,
                           ScenarioModel, option_basis, project_onto_span, spanning)
from test_projection_solver import (_KIND_NAMES, _assert_certified, _non_injective_instance,
                                    _sweep_phis)


@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_measure_separates_the_target_from_the_span(kind):
    # a non-injective claim: some mu orthogonal to every basis vector
    # pays <mu, Y> > 0, and its bound certifies the residual
    rng = np.random.default_rng([12, _KIND_NAMES.index(kind)])
    for _ in range(5):
        m, fam, x, y = _non_injective_instance(rng, _sweep_phis(kind))
        B = option_basis(m, x).vectors
        solve = spanning._lifted_solver(m, y, B, fam, 1e-9, optimize)
        rho = project_onto_span(m, y, option_basis(m, x), fam).residual_norm
        _, lower, mu = solve(np.zeros(B.shape[0]), 10.0 * rho)
        assert np.all(np.abs(B @ mu) <= 1e-12 * np.abs(mu).sum())
        assert mu @ y > 0.0
        assert np.all(mu[~m.support_mask] == 0.0)
        _assert_certified(rho, lower)


MODEL = ScenarioModel(["a", "b", "c", "d"], [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
FAMILY = OrliczFamily.uniform(MODEL, Power(2.0))
BASIS = option_basis(MODEL, [0.0, 1.0, 1.0, 2.0])
Y = np.array([1.0, -1.0, 3.0, 4.0])


def _replace_solver(monkeypatch, solution):
    """Make every solve return solution(a0, f0) and count the solves."""
    calls = []

    def lifted_solver(*args):
        def solve(a0, f0):
            calls.append(a0)
            return solution(a0, f0)
        return solve

    monkeypatch.setattr(spanning, "_lifted_solver", lifted_solver)
    return calls


def test_no_certified_start_names_residual_bound_and_gate(monkeypatch):
    # every solve ends where it started, with no bound: all 3 + 2 starts run
    best = project_onto_span(MODEL, Y, BASIS, FAMILY)
    calls = _replace_solver(monkeypatch, lambda a0, f0: (best.coefficients, 0.0, None))
    with pytest.raises(ConsistencyError) as err:
        project_onto_span(MODEL, Y, BASIS, FAMILY, n_restarts=2)
    assert len(calls) == 5
    message = str(err.value)
    assert f"residual norm {best.residual_norm!r}" in message
    assert "lower bound 0.0" in message and "gate 1e-06" in message


def test_a_later_start_that_certifies_is_returned(monkeypatch):
    best = project_onto_span(MODEL, Y, BASIS, FAMILY)
    bounds = iter([0.5 * best.residual_norm, best.residual_norm])
    calls = _replace_solver(
        monkeypatch, lambda a0, f0: (best.coefficients, next(bounds), None))
    res = project_onto_span(MODEL, Y, BASIS, FAMILY)
    assert len(calls) == 2 and len(res.restart_values) == 2
    assert res.lower_bound == best.residual_norm
    assert res.residual_norm == best.residual_norm


def test_bound_above_the_residual_raises(monkeypatch):
    best = project_onto_span(MODEL, Y, BASIS, FAMILY)
    _replace_solver(monkeypatch,
                    lambda a0, f0: (best.coefficients, 1.01 * best.residual_norm, None))
    with pytest.raises(ConsistencyError, match="above the residual norm"):
        project_onto_span(MODEL, Y, BASIS, FAMILY)


def test_injective_claim_needs_no_solve(monkeypatch):
    calls = _replace_solver(monkeypatch, lambda a0, f0: pytest.fail("solved"))
    res = project_onto_span(MODEL, Y, option_basis(MODEL, [0.0, 1.0, 2.0, 3.0]), FAMILY)
    assert not calls and len(res.restart_values) == 1
    assert res.lower_bound == res.residual_norm <= 1e-9


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_lp_keeps_a_light_atom(eps):
    # phi = max(0, x - 1/2). The fit is exact on atom a; on the level set
    # {b, c} the best constant k is where phi(k / rho) starts to rise on b,
    # k = rho / 2, and eps ((1/eps - k) / rho - 1/2) = 1 gives 1 / (1 + eps).
    # At HiGHS's defaults the LP returned 0.99999999499 for eps = 1e-8.
    m = ScenarioModel(["a", "b", "c"], [[0.5, 0.5 - eps, eps]])
    family = OrliczFamily.uniform(m, PiecewiseLinear([0.5], [1.0]))
    res = project_onto_span(m, [0.0, 0.0, 1.0 / eps], option_basis(m, [0.0, 1.0, 1.0]), family)
    assert res.residual_norm == pytest.approx(1.0 / (1.0 + eps), rel=1e-9)
    _assert_certified(res.residual_norm, res.lower_bound)
