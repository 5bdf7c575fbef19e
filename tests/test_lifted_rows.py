"""The rows of the projection's lifted program. At random interior points
v = (a, t, u, w) they equal an independent per-prior evaluation: the
rows u -+ (Y - aB) on the support, the perspective row
t - t sum_j P_j phi(u_j / t) for a phi without affine pieces, and for a
phi = max(0, max_k s_k x - c_k) on [0, b] the rows w_j - s_k u_j + c_k t,
t - sum_j P_j w_j and b t - u_j over the atoms the prior charges. Their
Jacobian matches central differences, and each point costs one
`_eval_array` call per set of priors with equal phi."""

import math

import numpy as np
import pytest
from scipy import optimize

from robust_orlicz import (AggregateOrlicz, CARAUtility, EssSupIndicator, Exponential,
                           LinearUtility, OrliczFamily, PiecewiseLinear, Power, Scaled,
                           ScenarioModel, option_basis, project_onto_span)

INF = math.inf


class RaisingEq(Exponential):
    """An Orlicz function whose == raises: the projection groups it by
    identity only."""

    def __eq__(self, other):
        raise TypeError("not comparable")

    __hash__ = Exponential.__hash__


MAKERS = {
    "power": lambda rng: Power(float(rng.uniform(1.0, 3.0))),
    "power1": lambda rng: Power(1.0),
    "exponential": lambda rng: Exponential(float(rng.uniform(0.3, 3.0))),
    "ess_sup": lambda rng: EssSupIndicator(),
    "piecewise_linear": lambda rng: PiecewiseLinear(
        [0.0, float(rng.uniform(0.2, 1.0))],
        [float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 3.0))]),
    "piecewise_linear_bounded": lambda rng: PiecewiseLinear(
        [float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.1, 0.3))],
        [float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 3.0))],
        bound=float(rng.uniform(0.3, 1.0))),
    "scaled_power": lambda rng: Scaled(Power(float(rng.uniform(1.0, 3.0))),
                                       float(rng.uniform(0.5, 2.0)),
                                       float(rng.uniform(0.5, 2.0))),
    "scaled_ess_sup": lambda rng: Scaled(EssSupIndicator(), float(rng.uniform(0.5, 2.0))),
    "scaled_exponential": lambda rng: Scaled(Exponential(float(rng.uniform(0.5, 2.0))),
                                             float(rng.uniform(0.5, 2.0))),
    "aggregate": lambda rng: AggregateOrlicz([
        (CARAUtility.normalised(float(rng.uniform(0.5, 2.0))), 1.0),
        (LinearUtility(float(rng.uniform(0.5, 1.0))), float(rng.uniform(1.0, 2.0)))]),
    "raising_eq": lambda rng: RaisingEq(float(rng.uniform(0.5, 2.0))),
}
# perspective rows and linear rows in one program
MAKERS["mixed"] = lambda rng: MAKERS[sorted(MAKERS)[int(rng.integers(len(MAKERS)))]](rng)
KINDS = sorted(MAKERS)


def _instance(rng, kind):
    """3-8 atoms, 1-4 priors (some with null atoms), a claim that repeats
    a value, a normal target, and phis of one kind: mostly distinct
    objects made from one parameter draw (equal but not identical), now
    and then one from another draw or the same object twice."""
    while True:
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, 5))
        priors = []
        for _ in range(k):
            p = rng.dirichlet(np.ones(d))
            p[rng.random(d) < 0.25] = 0.0
            if p.sum() == 0.0:
                p[int(rng.integers(d))] = 1.0
            priors.append(p / p.sum())
        m = ScenarioModel([f"w{i}" for i in range(d)], priors)
        x = np.floor(rng.uniform(0, d - 1, size=d))
        support = m.support_mask
        if len(set(x[support].tolist())) < int(support.sum()):
            break
    draws = [int(rng.integers(1 << 31)) for _ in range(2)]
    phis = []
    for _ in range(k):
        if phis and rng.random() < 0.2:
            phis.append(phis[-1])
        else:
            phis.append(MAKERS[kind](np.random.default_rng(draws[int(rng.random() < 0.25)])))
    family = OrliczFamily(dict(zip(m.prior_labels, phis)))
    return m, family, option_basis(m, x), rng.normal(size=d)


class _Captured(Exception):
    pass


def _solver_rows(monkeypatch, m, family, basis, y):
    """(rows, Jacobian, start) of the first solve of project_onto_span,
    which is stopped there: the SLSQP constraint, or the LP's rows
    b_ub - A_ub v."""
    got = {}

    def capture_slsqp(fun, x0, **kwargs):
        con = kwargs["constraints"]
        got.update(fun=con["fun"], jac=con["jac"], x0=x0)
        raise _Captured

    def capture_lp(c, A_ub, b_ub, **kwargs):
        got.update(fun=lambda v: b_ub - A_ub @ v, jac=lambda v: -A_ub, x0=None)
        raise _Captured

    monkeypatch.setattr(optimize, "minimize", capture_slsqp)
    monkeypatch.setattr(optimize, "linprog", capture_lp)
    with pytest.raises(_Captured):
        project_onto_span(m, y, basis, family, n_restarts=0)
    monkeypatch.undo()
    return got["fun"], got["jac"], got["x0"]


def _scale(top):
    """The power of 2 in (top, 2 top], 1 for 0: the program's units."""
    return math.ldexp(1.0, math.frexp(top)[1])


def _layout(m, family, n):
    """Per prior, its phi's affine pieces and the slice of v that holds its
    w (empty without one), and the width of v: n coefficients, t, u on the
    support, then each w in prior order."""
    support = m.support_mask
    col = n + 1 + int(support.sum())
    out = []
    for label, prior in zip(m.prior_labels, m.priors):
        pieces = family.phi(label).affine_pieces()
        size = np.count_nonzero(prior[support]) if pieces is not None and pieces[0] else 0
        out.append((pieces, slice(col, col + size)))
        col += size
    return out, col


def _reference_rows(m, family, basis, y, v):
    """Every row at v, one prior at a time, in the program's units."""
    support = m.support_mask
    B = basis.vectors[:, support]
    c_b = np.array([_scale(np.abs(b).max()) for b in B])
    y_s = np.asarray(y)[support]
    B, y_s = B / c_b[:, None], y_s / _scale(np.abs(y_s).max())
    n, d = B.shape
    a, t, u = v[:n], v[n], v[n + 1:n + 1 + d]
    r = y_s - a @ B
    rows = list(u - r) + list(u + r)
    layout, _ = _layout(m, family, n)
    for label, prior, (pieces, w_cols) in zip(m.prior_labels, m.priors, layout):
        phi, p = family.phi(label), prior[support]
        charged = np.flatnonzero(p > 0.0)
        if pieces is None:
            rows.append(t - t * sum(p[j] * phi(u[j] / t) for j in charged))
            continue
        slopes, intercepts, bound = pieces
        if slopes:
            w = v[w_cols]
            for s, c in zip(slopes, intercepts):
                rows += [w[k] - s * u[j] + c * t for k, j in enumerate(charged)]
            rows.append(t - sum(p[j] * w[k] for k, j in enumerate(charged)))
        if bound < INF:
            rows += [bound * t - u[j] for j in charged]
    return np.array(rows)


def _central_differences(fun, v, step=1e-6):
    cols = []
    for i in range(v.size):
        h = step * max(1.0, abs(v[i]))
        e = np.zeros(v.size)
        e[i] = h
        cols.append((fun(v + e) - fun(v - e)) / (2.0 * h))
    return np.array(cols).T


@pytest.mark.parametrize("kind", KINDS)
def test_rows_match_the_per_prior_formulas(monkeypatch, kind):
    rng = np.random.default_rng([15, KINDS.index(kind)])
    for _ in range(6):
        m, family, basis, y = _instance(rng, kind)
        fun, jac, x0 = _solver_rows(monkeypatch, m, family, basis, y)
        n = basis.vectors.shape[0]
        _, width = _layout(m, family, n)
        if x0 is not None:
            assert x0.size == width
        for _ in range(3):
            v = np.concatenate([rng.normal(size=n), rng.uniform(0.5, 2.0, size=1),
                                rng.uniform(0.1, 2.0, size=width - n - 1)])
            ref = _reference_rows(m, family, basis, y, v)
            got = fun(v)
            assert got.shape == ref.shape
            # the same rows, in an order of the solver's own
            scale = np.maximum(1.0, np.abs(np.sort(ref)))
            assert np.all(np.abs(np.sort(got) - np.sort(ref)) <= 1e-12 * scale)
            fd = _central_differences(fun, v)
            jv = jac(v)
            width_j = np.maximum(1.0, np.abs(jv).max(axis=1, keepdims=True))
            assert np.all(np.abs(jv - fd) <= 1e-6 * width_j)


def test_groups_of_equal_phis():
    power, twin, other = Power(2.0), Power(2.0), Power(3.0)
    picky = RaisingEq(1.0)
    phis = [power, twin, picky, other, picky, RaisingEq(1.0), power]
    family = OrliczFamily({f"P{i}": phi for i, phi in enumerate(phis)})
    groups: dict = {}
    for i in range(len(phis)):
        phi = family.phi(f"P{i}")
        groups.setdefault(id(phi), (phi, []))[1].append(i)
    groups = list(groups.values())
    assert groups == [(power, [0, 1, 6]), (picky, [2, 4]), (other, [3]), (phis[5], [5])]
    assert groups[0][0] is power and groups[1][0] is picky and groups[3][0] is phis[5]


def _counting(monkeypatch, cls, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _inner=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _inner(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_one_evaluation_per_point_for_equal_phis(monkeypatch):
    # two equal but distinct Power objects form one set; RaisingEq objects
    # form one set per object: 1 + 2 evaluations per new point, none more
    # for the Jacobian there, which takes 1 + 2 derivative calls
    m = ScenarioModel([f"w{i}" for i in range(5)],
                      [[0.1, 0.2, 0.3, 0.2, 0.2], [0.3, 0.0, 0.3, 0.2, 0.2],
                       [0.2, 0.2, 0.2, 0.2, 0.2], [0.4, 0.1, 0.1, 0.2, 0.2],
                       [0.2, 0.3, 0.1, 0.2, 0.2]])
    picky = RaisingEq(1.0)
    family = OrliczFamily(dict(zip(m.prior_labels,
                                   [Power(1.7), picky, Power(1.7), picky, RaisingEq(1.0)])))
    basis = option_basis(m, [0.0, 1.0, 1.0, 2.0, 2.0])
    fun, jac, x0 = _solver_rows(monkeypatch, m, family, basis, [1.0, -1.0, 3.0, 4.0, 0.5])
    power = _counting(monkeypatch, Power, ("_eval_array", "derivative_array"))
    exp = _counting(monkeypatch, Exponential, ("_eval_array", "derivative_array"))
    for shift in (0.0, 0.1, 0.2):
        v = x0 + shift
        fun(v)
        assert (power["_eval_array"], exp["_eval_array"]) == (1, 2)
        jac(v)
        fun(v)
        assert (power["_eval_array"], exp["_eval_array"]) == (1, 2)
        assert (power["derivative_array"], exp["derivative_array"]) == (1, 2)
        for calls in (power, exp):
            calls.update(dict.fromkeys(calls, 0))


def test_one_derivative_call_per_jacobian_and_no_norm_in_the_solve(monkeypatch):
    # 3 priors, equal but distinct Power objects
    m = ScenarioModel([f"w{i}" for i in range(5)],
                      [[0.1, 0.2, 0.3, 0.2, 0.2], [0.3, 0.0, 0.3, 0.2, 0.2],
                       [0.2, 0.2, 0.2, 0.2, 0.2]])
    family = OrliczFamily({label: Power(1.7) for label in m.prior_labels})
    basis = option_basis(m, [0.0, 1.0, 1.0, 2.0, 2.0])
    calls = _counting(monkeypatch, Power,
                      ("_eval_array", "derivative_array", "luxemburg_closed_form"))
    steps, solves = [], []
    minimize = optimize.minimize

    def watched(fun, x0, **kwargs):
        con = kwargs["constraints"]

        def wrap(f, what):
            def g(v):
                before = dict(calls)
                out = f(v)
                steps.append((what, {k: calls[k] - before[k] for k in calls}))
                return out
            return g

        kwargs["constraints"] = dict(con, fun=wrap(con["fun"], "fun"),
                                     jac=wrap(con["jac"], "jac"))
        before = calls["luxemburg_closed_form"]
        res = minimize(fun, x0, **kwargs)
        solves.append(calls["luxemburg_closed_form"] - before)
        return res

    monkeypatch.setattr(optimize, "minimize", watched)
    project_onto_span(m, [1.0, -1.0, 3.0, 4.0, 0.5], basis, family, n_restarts=0)
    assert len(steps) > 20 and solves
    assert all(count == 0 for count in solves)
    assert all(d["derivative_array"] == 1 for what, d in steps if what == "jac")
    assert all(d["derivative_array"] == 0 for what, d in steps if what == "fun")
    assert all(d["_eval_array"] <= 1 for _, d in steps)
    assert all(d["_eval_array"] == 0 for what, d in steps if what == "jac")


def test_single_prior_power2_evaluations_bounded(monkeypatch):
    # 6 atoms, one prior, Power(2): the coordinate-descent solver spent
    # ~70 000 per-prior norms on it; weighted least squares is the exact
    # answer
    prior = [0.09434341183596327, 0.23072600942732388, 0.021648434365956752,
             0.07529559748937792, 0.18459572369272806, 0.3933908231886501]
    x = [1.0, 4.0, 2.0, 1.0, 1.0, 3.0]
    y = [0.983715344494681, 0.6300419507298725, -0.23805880511791805,
         -1.8449398759528108, 0.16957772908778576, -0.17597776424923472]
    calls = _counting(monkeypatch, Power, ("_eval_array",))
    m = ScenarioModel([f"w{i}" for i in range(6)], [prior])
    basis = option_basis(m, x)
    res = project_onto_span(m, y, basis, OrliczFamily.uniform(m, Power(2.0)), n_restarts=0)
    assert 0 < calls["_eval_array"] <= 500
    w = np.sqrt(np.asarray(prior))
    A = basis.vectors.T * w[:, None]
    coef, *_ = np.linalg.lstsq(A, np.asarray(y) * w, rcond=None)
    oracle = math.sqrt(float(np.sum((np.asarray(y) * w - A @ coef) ** 2)))
    assert res.residual_norm == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("t", [1e-3, 1e-300])
def test_rows_stay_finite_where_phi_overflows(monkeypatch, t):
    # SLSQP tries points where expm1(beta u / t) overflows (and, for tiny
    # t, z phi'(z) too); a prior that does not charge an atom would turn
    # its inf into 0 * inf = nan
    m = ScenarioModel([f"w{i}" for i in range(4)],
                      [[0.4, 0.3, 0.3, 0.0], [0.1, 0.2, 0.3, 0.4]])
    family = OrliczFamily.uniform(m, Exponential(2.0))
    basis = option_basis(m, [0.0, 1.0, 1.0, 2.0])
    fun, jac, x0 = _solver_rows(monkeypatch, m, family, basis, [1.0, -1.0, 3.0, 4.0])
    n = basis.vectors.shape[0]
    v = x0.copy()
    v[n], v[n + 1:] = t, 1.0  # u / t far past expm1's range on every atom
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(fun(v))) and np.all(np.isfinite(jac(v)))
