"""The projection solver: the lifted convex program of the worst-case norm.

Regression instances, an LP oracle for the piecewise-linear families
(Power(1), ess-sup), a certificate sweep over the other Orlicz kinds,
and the CLI `project` contract. The evaluation-count guard is in
test_lifted_rows.py.
"""

import json
import math

import numpy as np
import pytest
from scipy import optimize

from robust_orlicz import (ConsistencyError, EssSupIndicator, Exponential,
                           OrliczFamily, PiecewiseLinear, Power, Scaled,
                           ScenarioModel, ValidationError, option_basis,
                           project_onto_span)
from robust_orlicz.cli import main


def _model(priors):
    return ScenarioModel([f"w{i}" for i in range(len(priors[0]))], priors)


def _assert_certified(rho, lower, tol=1e-10):
    """The duality-gap certificate of `project_onto_span`: the lower bound
    is within the gate below the residual norm, and above it by at most a
    quarter of the kernel's bracket width tol (0.125 tol at most in this
    suite; the projection itself raises only beyond tol)."""
    assert rho - lower <= max(1e-6, 50.0 * tol) * max(1.0, rho)
    assert lower <= rho + 0.25 * tol * max(1.0, rho)


# -- regression instances ---------------------------------------------------

# two non-injective instances whose restarts used to disagree beyond the
# spread tolerance (ConsistencyError on every attempt)
SPREAD_CASES = {
    "three_priors_p1.22": dict(
        priors=[[0.027441439479593276, 0.20831643176972514, 0.024827864282216842,
                 0.6292275084447, 0.11018675602376472],
                [0.08953006594444114, 0.5691027805037889, 0.22337319579296577,
                 0.005985687274014288, 0.11200827048478995],
                [0.0, 0.22802423046666942, 0.0794359889301584, 0.270950305832672,
                 0.4215894747705001]],
        p=1.2217062370972056, x=[3.0, 3.0, 1.0, 1.0, 1.0],
        y=[0.6980904951278644, -0.06804879593383435, -0.002720664561803098,
           1.048707774064752, -0.882152891241983],
        residual=0.7341777796399),
    "two_priors_p2.64": dict(
        priors=[[0.3157575844135143, 0.10654518531750035, 0.18950506211280646,
                 0.3231554379309715, 0.0, 0.06503673022520724],
                [0.0, 0.03243583847552673, 0.5267295666543793, 0.26091643207634513,
                 0.13336206155173527, 0.046556101242013495]],
        p=2.6370425252772733, x=[1.0, 4.0, 1.0, 3.0, 4.0, 2.0],
        y=[-1.4020860303277891, 1.7608357417718574, 0.1890796642117608,
           1.0796092956903138, 0.4937713752250483, -0.2831141996194338],
        residual=0.6408049924650),
}


@pytest.mark.parametrize("name", sorted(SPREAD_CASES))
def test_restarts_agree_on_former_spread_cases(name):
    case = SPREAD_CASES[name]
    m = _model(case["priors"])
    fam = OrliczFamily.uniform(m, Power(case["p"]))
    res = project_onto_span(m, case["y"], option_basis(m, case["x"]), fam,
                            n_restarts=0)
    rho = res.residual_norm
    _assert_certified(rho, res.lower_bound)
    assert rho == pytest.approx(case["residual"], rel=1e-9)


# -- seeded non-injective instances -----------------------------------------


def _non_injective_instance(rng, phis):
    """3-6 atoms, 1-3 priors (some with a null atom), a claim that repeats
    a value on the support, and a normal target; `phis(rng, k)` gives the
    Orlicz functions of the k priors."""
    while True:
        d = int(rng.integers(3, 7))
        k = int(rng.integers(1, 4))
        priors = []
        for _ in range(k):
            p = rng.dirichlet(np.ones(d))
            if rng.random() < 0.3:
                p[rng.integers(d)] = 0.0
                p /= p.sum()
            priors.append(p)
        m = _model(priors)
        support = m.support_mask
        x = np.floor(rng.uniform(0, d - 1, size=d))
        if len(set(x[support].tolist())) < int(support.sum()):
            break
    fam = OrliczFamily(dict(zip(m.prior_labels, phis(rng, k))))
    return m, fam, x, rng.normal(size=d)


def _lp_phis(rng, k):
    mode = rng.integers(3)
    if mode == 0:
        return [Power(1.0)] * k
    if mode == 1:
        return [EssSupIndicator()] * k
    return [Power(1.0) if rng.random() < 0.5 else EssSupIndicator() for _ in range(k)]


def _lp_residual(m, fam, basis, y):
    """min_a sup_P ||y - aB||_P as an LP: E_P u <= t under Power(1) and
    u_j <= t on the support of P under ess-sup, with u >= |y - aB|."""
    idx = np.flatnonzero(m.support_mask)
    B = basis.vectors[:, idx]
    n, d = B.shape
    rows, rhs = [], []
    for jj in range(d):
        for sign in (1.0, -1.0):  # -u_j <= sign (y_j - aB_j)
            row = np.zeros(n + 1 + d)
            row[:n] = sign * B[:, jj]
            row[n + 1 + jj] = -1.0
            rows.append(row)
            rhs.append(sign * y[idx[jj]])
    for label, prior in zip(m.prior_labels, m.priors):
        p = prior[idx]
        if isinstance(fam.phi(label), Power):
            row = np.zeros(n + 1 + d)
            row[n] = -1.0
            row[n + 1:] = p
            rows.append(row)
            rhs.append(0.0)
        else:
            for jj in np.flatnonzero(p > 0):
                row = np.zeros(n + 1 + d)
                row[n] = -1.0
                row[n + 1 + jj] = 1.0
                rows.append(row)
                rhs.append(0.0)
    c = np.zeros(n + 1 + d)
    c[n] = 1.0
    res = optimize.linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                           bounds=[(None, None)] * (n + 1) + [(0.0, None)] * d,
                           method="highs")
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize("seed", range(40))
def test_power1_and_ess_sup_match_lp(seed):
    m, fam, x, y = _non_injective_instance(np.random.default_rng([7, seed]), _lp_phis)
    basis = option_basis(m, x)
    oracle = _lp_residual(m, fam, basis, y)
    rho = project_onto_span(m, y, basis, fam, n_restarts=2).residual_norm
    assert abs(rho - oracle) <= 1e-9 * max(1.0, oracle)


SWEEP_KINDS = {
    "exponential": lambda rng: Exponential(float(rng.uniform(0.3, 3.0))),
    "scaled_power": lambda rng: Scaled(Power(float(rng.uniform(1.0, 3.0))),
                                       float(rng.uniform(0.5, 2.0)),
                                       float(rng.uniform(1.0, 2.0))),
    "piecewise_linear": lambda rng: PiecewiseLinear(
        [0.0, float(rng.uniform(0.2, 1.0))],
        [float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 3.0))]),
    "piecewise_linear_bounded": lambda rng: PiecewiseLinear(
        [0.0, float(rng.uniform(0.2, 1.0))],
        [float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 3.0))],
        bound=float(rng.uniform(1.0, 3.0))),
    "ess_sup": lambda rng: EssSupIndicator(),
}
_KIND_NAMES = sorted(SWEEP_KINDS) + ["mixed"]


def _sweep_phis(kind):
    def phis(rng, k):
        if kind in SWEEP_KINDS:
            return [SWEEP_KINDS[kind](rng)] * k
        makers = [SWEEP_KINDS[name] for name in sorted(SWEEP_KINDS)]
        return [makers[int(rng.integers(len(makers)))](rng) for _ in range(k)]
    return phis


@pytest.mark.parametrize("seed", range(60),
                         ids=lambda s: f"{_KIND_NAMES[s % len(_KIND_NAMES)]}-{s}")
def test_restarts_agree_across_orlicz_kinds(seed):
    kind = _KIND_NAMES[seed % len(_KIND_NAMES)]
    m, fam, x, y = _non_injective_instance(np.random.default_rng([8, seed]),
                                           _sweep_phis(kind))
    res = project_onto_span(m, y, option_basis(m, x), fam, n_restarts=2)
    _assert_certified(res.residual_norm, res.lower_bound)
    assert 0.0 < res.residual_norm < math.inf


# -- CLI contract -------------------------------------------------------------

CLI_MODEL = {"atoms": ["w1", "w2", "w3", "w4"],
             "priors": [{"label": "P1", "masses": [0.43, 0.16, 0.28, 0.13]},
                        {"label": "P2", "masses": [0.02, 0.36, 0.53, 0.09]}]}


@pytest.mark.parametrize("spec,residual", [
    ({"kind": "exponential", "beta": 1.0}, 0.881177824415),
    # w2 and w3 share the claim value 1, so the best fit leaves half of
    # |1.63 - 0.27| on them
    ({"kind": "ess_sup"}, 0.68),
])
def test_cli_project_non_injective(tmp_path, capsys, spec, residual):
    model = tmp_path / "model.json"
    family = tmp_path / "family.json"
    model.write_text(json.dumps(CLI_MODEL))
    family.write_text(json.dumps({"uniform": spec}))
    rc = main(["project", "--model", str(model), "--family", str(family),
               "--x", "0,1,1,2", "--y", "0.75,1.63,0.27,-1.23"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    report = json.loads(captured.out)
    assert report["residual_norm"] == pytest.approx(residual, rel=1e-9)
    _assert_certified(report["residual_norm"], report["lower_bound"])


# -- Exponential conjugate ----------------------------------------------------


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_exponential_scalar_conjugate_matches_array(beta):
    phi = Exponential(beta)
    grid = np.array([0.0, 0.5 * beta, beta, 1.5 * beta, 7.0, 1e10, 1e300,
                     1e308, math.inf])
    array = phi.conjugate_array(grid)
    for y, expected in zip(grid, array):
        assert phi.conjugate(float(y)) == pytest.approx(float(expected), rel=1e-15)
    assert phi.conjugate(math.inf) == math.inf
    with pytest.raises(ValidationError):
        phi.conjugate(-1.0)
