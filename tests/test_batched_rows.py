"""The projection's constraint rows: at each point, every set of priors
that share an equal phi takes one stacked closed-form (or certified
root-finder) call for its norms and one `derivative_array` call for its
gradients. The reference is the per-prior loop: `single_prior_luxemburg`
and `derivative_density` for one prior at a time."""

import math

import numpy as np
import pytest
from scipy import optimize

from robust_orlicz import (AggregateOrlicz, CARAUtility, EssSupIndicator, Exponential,
                           LinearUtility, OrliczFamily, PiecewiseLinear, Power, Scaled,
                           ScenarioModel, option_basis, project_onto_span,
                           single_prior_luxemburg, spanning)
from robust_orlicz.duality import derivative_density

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
    # a bound low enough that the norm often sits at it
    "piecewise_linear_bounded": lambda rng: PiecewiseLinear(
        [0.0, float(rng.uniform(0.1, 0.3))],
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
    """The constraint function and Jacobian that project_onto_span hands
    to SLSQP; its first call is stopped there."""
    got = {}

    def capture(fun, x0, **kwargs):
        got.update(kwargs["constraints"])
        raise _Captured

    monkeypatch.setattr(optimize, "minimize", capture)
    with pytest.raises(_Captured):
        project_onto_span(m, y, basis, family, n_restarts=0)
    monkeypatch.undo()
    return got["fun"], got["jac"]


def _reference_rows(m, family, basis, y, a):
    """Per-prior norms and Jacobian rows at a, one prior at a time, and
    the number of rows where phi' is infinite on a charged atom."""
    B = basis.vectors
    n = B.shape[0]
    r = np.where(m.support_mask, y, 0.0) - a @ B
    norms, jac, infinite = [], np.zeros((m.n_priors, n + 1)), 0
    jac[:, n] = 1.0
    for row, label, prior in zip(jac, m.prior_labels, m.priors):
        phi = family.phi(label)
        norm = single_prior_luxemburg(prior, phi, r)
        norms.append(norm)
        if 0.0 < norm < INF:
            z = np.abs(r) / norm
            infinite += bool(np.isinf(phi.derivative_array(z[prior > 0])).any())
            raw = derivative_density(prior, phi, z)
            denom = float(np.dot(raw, np.abs(r)))
            if 0.0 < denom < INF:
                row[:n] = norm * (B @ (raw * np.sign(r))) / denom
    return np.array(norms), jac, infinite


@pytest.mark.parametrize("kind", KINDS)
def test_rows_match_the_per_prior_loop(monkeypatch, kind):
    rng = np.random.default_rng([14, KINDS.index(kind)])
    infinite = 0
    for _ in range(8):
        m, family, basis, y = _instance(rng, kind)
        fun, jac = _solver_rows(monkeypatch, m, family, basis, y)
        n = basis.vectors.shape[0]
        for scale in (0.0, 0.3, 1.0, 3.0):
            a = scale * rng.normal(size=n)
            v = np.append(a, 0.0)
            norms, rows, hits = _reference_rows(m, family, basis, y, a)
            infinite += hits
            got = -fun(v)
            assert np.all(np.abs(got - norms) <= 1e-14 * norms), (got, norms)
            width = np.maximum(1.0, np.abs(rows).max(axis=1, keepdims=True))
            assert np.all(np.abs(jac(v) - rows) <= 1e-12 * width)
    # a bounded phi has its norm at the domain bound (closed form) or a
    # root-finder's step below it, and ess-sup at its max atom: phi' is
    # inf there, and the row is the prior's masses
    if kind in ("piecewise_linear_bounded", "ess_sup", "scaled_ess_sup"):
        assert infinite > 0


def test_blocks_group_equal_phis():
    power, twin, other = Power(2.0), Power(2.0), Power(3.0)
    picky = RaisingEq(1.0)
    phis = [power, twin, picky, other, picky, RaisingEq(1.0), power]
    masses = np.arange(7.0)[:, None] * np.ones(3)
    blocks = spanning._phi_blocks(phis, masses)
    assert [(phi, rows) for phi, rows, _, _ in blocks] == [
        (power, [0, 1, 6]), (picky, [2, 4]), (other, [3]), (phis[5], [5])]
    assert blocks[1][0] is picky and blocks[3][0] is phis[5]
    for _, rows, index, stacked in blocks:
        assert np.array_equal(np.arange(7)[index], rows)
        assert np.array_equal(stacked, masses[rows])


STACKED = {
    "power": Power(2.5),
    "power1": Power(1.0),
    "ess_sup": EssSupIndicator(),
    "scaled_power": Scaled(Power(1.7), 1.3, 0.8),
    "scaled_ess_sup": Scaled(EssSupIndicator(), 0.6, 1.5),
}


@pytest.mark.parametrize("name", sorted(STACKED))
def test_stacked_closed_form_equals_the_1d_call(name):
    phi = STACKED[name]
    rng = np.random.default_rng([14, 99, sorted(STACKED).index(name)])
    for _ in range(50):
        d, k = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        W = rng.dirichlet(np.ones(d), size=k)
        W[rng.random((k, d)) < 0.3] = 0.0
        W[np.flatnonzero(W.sum(axis=1) == 0.0), 0] = 1.0
        a = np.abs(rng.normal(size=d)) * rng.choice([1e-3, 1.0, 1e3])
        a[rng.random(d) < 0.2] = 0.0
        a[int(rng.integers(d))] = 1.0
        stacked = phi.luxemburg_closed_form(W, a)
        assert stacked.shape == (k,)
        for w, value in zip(W, stacked):
            pos = (w > 0.0) & (a > 0.0)
            one = phi.luxemburg_closed_form(w[pos], a[pos]) if pos.any() else 0.0
            assert value == pytest.approx(one, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("phi", [Exponential(1.0), PiecewiseLinear([0.0, 0.5], [0.5, 2.0]),
                                 PiecewiseLinear([0.0], [1.0], bound=2.0),
                                 Scaled(Exponential(1.0), 2.0)],
                         ids=lambda phi: type(phi).__name__)
def test_no_stacked_closed_form_without_one(phi):
    W = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    assert phi.luxemburg_closed_form(W, np.array([1.0, 2.0, 3.0])) is None


def test_one_stacked_call_per_point(monkeypatch):
    # 3 priors, equal but distinct Power objects: per new point, one
    # closed form for the three norms and one derivative_array for the
    # three gradients (the per-prior loop makes 3 of each)
    m = ScenarioModel([f"w{i}" for i in range(5)],
                      [[0.1, 0.2, 0.3, 0.2, 0.2], [0.3, 0.0, 0.3, 0.2, 0.2],
                       [0.2, 0.2, 0.2, 0.2, 0.2]])
    family = OrliczFamily({label: Power(1.7) for label in m.prior_labels})
    basis = option_basis(m, [0.0, 1.0, 1.0, 2.0, 2.0])
    calls = {"luxemburg_closed_form": 0, "derivative_array": 0}
    for name in calls:
        def counted(self, *args, _inner=getattr(Power, name), _name=name):
            calls[_name] += 1
            return _inner(self, *args)

        monkeypatch.setattr(Power, name, counted)
    steps = []
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
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(optimize, "minimize", watched)
    project_onto_span(m, [1.0, -1.0, 3.0, 4.0, 0.5], basis, family, n_restarts=0)
    assert len(steps) > 20
    assert all(d["luxemburg_closed_form"] <= 1 for _, d in steps)
    assert any(d["luxemburg_closed_form"] == 1 for _, d in steps)
    assert all(d["derivative_array"] == 1 for what, d in steps if what == "jac")
    assert all(d["derivative_array"] == 0 for what, d in steps if what == "fun")


def test_single_prior_power2_stacked_evaluations_bounded(monkeypatch):
    # the 6-atom, one-prior Power(2) instance of test_projection_solver's
    # norm-evaluation bound, counted where the solve now evaluates its
    # points: the coordinate-descent solver spent ~70 000 norms on it
    prior = [0.09434341183596327, 0.23072600942732388, 0.021648434365956752,
             0.07529559748937792, 0.18459572369272806, 0.3933908231886501]
    x = [1.0, 4.0, 2.0, 1.0, 1.0, 3.0]
    y = [0.983715344494681, 0.6300419507298725, -0.23805880511791805,
         -1.8449398759528108, 0.16957772908778576, -0.17597776424923472]
    rows = [0, 0]  # calls, rows evaluated
    inner = spanning.stacked_norms

    def counting(masses, *args):
        rows[0] += 1
        rows[1] += len(masses)
        return inner(masses, *args)

    monkeypatch.setattr(spanning, "stacked_norms", counting)
    m = ScenarioModel([f"w{i}" for i in range(6)], [prior])
    basis = option_basis(m, x)
    res = project_onto_span(m, y, basis, OrliczFamily.uniform(m, Power(2.0)), n_restarts=0)
    assert 0 < rows[0] <= 500 and rows[1] == rows[0]
    w = np.sqrt(np.asarray(prior))
    A = basis.vectors.T * w[:, None]
    coef, *_ = np.linalg.lstsq(A, np.asarray(y) * w, rcond=None)
    oracle = math.sqrt(float(np.sum((np.asarray(y) * w - A @ coef) ** 2)))
    assert res.residual_norm == pytest.approx(oracle, rel=1e-8)
