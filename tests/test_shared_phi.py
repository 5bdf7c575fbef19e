"""Priors that share an Orlicz function (a family makes equal functions one
object) and their compact atoms form a block: each phi evaluation at a
scale is made once for the block, and every result stays bit-identical
to the per-prior route."""

import math
import tracemalloc

import numpy as np
import pytest

from robust_orlicz import (AggregateOrlicz, CARAUtility, Exponential,
                           OrliczFamily, PiecewiseLinear, Scaled,
                           ScenarioModel, luxemburg_norm, modular,
                           single_prior_luxemburg)
from robust_orlicz import norms

INF = math.inf

SHARED_PHIS = [
    Exponential(0.7),
    PiecewiseLinear([0.2, 0.6], [0.5, 2.0]),
    PiecewiseLinear([0.1, 0.5], [0.4, 1.5], bound=1.4),
    Scaled(Exponential(1.3), 0.8, 1.5),
    AggregateOrlicz([(CARAUtility.normalised(1.0), 1.0)]),
]


def _model_with_supports(rng, n_atoms, n_priors):
    """Priors on 1-3 shared supports, some repeated, so that blocks form
    and split on the support."""
    supports = [rng.random(n_atoms) < 0.8 for _ in range(int(rng.integers(1, 4)))]
    for s in supports:
        s[int(rng.integers(0, n_atoms))] = True
    priors = []
    while len(priors) < n_priors:
        support = supports[int(rng.integers(0, len(supports)))]
        p = np.where(support, rng.exponential(size=n_atoms), 0.0)
        priors += [p / p.sum()] * int(rng.integers(1, 3))
    return ScenarioModel([f"w{i}" for i in range(n_atoms)], priors[:n_priors])


def _x_with_zeros(rng, n_atoms):
    x = rng.normal(size=n_atoms) * rng.choice([1e-3, 1.0, 1e3])
    x[rng.random(n_atoms) < 0.3] = 0.0
    return x


def _per_prior_route(model, x, family, tol=norms.DEFAULT_TOL):
    """(value, iterations, per-prior norms, certificate half-width) from
    `single_prior_luxemburg` alone, on the atoms where X is nonzero: the
    kernel leaves the others out, which changes a modular's summation
    order but not its value."""
    keep = np.asarray(x) != 0.0
    found = {label: single_prior_luxemburg(prior[keep], family.phi(label), x[keep], tol=tol,
                                           with_steps=True)
             for label, prior in zip(model.prior_labels, model.priors)}
    value, steps = 0.0, 0
    for label in model.prior_labels:
        if found[label][0] > value:
            value, steps = found[label]
    half = norms._CERT_HALF_WIDTH * tol * max(1.0, value)
    return value, steps, {label: v for label, (v, _) in found.items()}, half


@pytest.mark.parametrize("phi", SHARED_PHIS, ids=lambda phi: type(phi).__name__)
def test_uniform_family_matches_per_prior_route(rng, phi):
    checked = 0
    for _ in range(40):
        n = int(rng.integers(3, 25))
        m = _model_with_supports(rng, n, int(rng.integers(2, 9)))
        fam = OrliczFamily.uniform(m, phi)
        x = _x_with_zeros(rng, n)
        res = luxemburg_norm(m, x, fam)
        value, steps, per_prior, half = _per_prior_route(m, x, fam)
        assert res.per_prior_norms == per_prior
        assert res.value == value
        assert res.iterations == steps
        if 0.0 < value < INF:
            assert res.bracket == (max(value - half, 0.0), value + half)
            assert res.modular_at_value == modular(m, x, res.bracket[1], fam)
            checked += 1
    assert checked > 20


def test_blocks_split_on_phi_and_support():
    phi, other = Exponential(1.0), Exponential(1.0)
    p = np.array([0.2, 0.3, 0.5, 0.0])
    q = np.array([0.4, 0.4, 0.2, 0.0])
    r = np.array([0.1, 0.1, 0.1, 0.7])
    m = ScenarioModel(["a", "b", "c", "d"], [p, q, p, r, q])
    fam = OrliczFamily({"P1": phi, "P2": phi, "P3": other, "P4": phi, "P5": phi})
    blocks = [(id(ph), labels) for ph, _, _, labels in
              norms._blocks(norms._plan(m, fam), np.array([1.0, 2.0, 3.0, 4.0]))]
    # P1/P3 and P2/P5 are equal priors; P4 charges an atom the others do
    # not; `other` equals phi, so the family makes it phi and P3 joins
    # phi's block
    assert fam.phi("P3") is phi
    assert blocks == [(id(phi), [["P1", "P3"], ["P2", "P5"]]), (id(phi), [["P4"]])]


def test_lockstep_ladder_matches_each_prior_alone(rng):
    for _ in range(30):
        n = int(rng.integers(2, 30))
        y = rng.random(n) * rng.choice([1e-3, 1.0, 1e3])
        ws = [rng.dirichlet(np.ones(n)) for _ in range(int(rng.integers(1, 6)))]
        phi = SHARED_PHIS[int(rng.integers(0, len(SHARED_PHIS)))]
        with np.errstate(over="ignore"):
            shared = norms._brackets(
                lambda lam, idx: norms._modulars((ws[i] for i in idx), y, phi, 1.0 / lam),
                len(ws))
            for w, got in zip(ws, shared):
                ladder = norms._ladder()
                lam = next(ladder)
                try:
                    while True:
                        lam = ladder.send(float(phi._eval_scaled(y, 1.0 / lam).dot(w)))
                except StopIteration as done:
                    assert got == done.value


def _dirichlet_instance():
    """The 200 x 2 000 Dirichlet model of the large-models benchmark
    workload at seed 901: uniform Exponential(beta), and its two X."""
    rng = np.random.default_rng([901, sum(map(ord, "large-models"))])
    priors = rng.dirichlet(np.ones(2000), size=200)
    beta = float(rng.uniform(0.5, 2.0))
    xs = [rng.normal(size=2000), np.abs(rng.normal(size=2000)) * float(rng.uniform(1.0, 3.0))]
    m = ScenarioModel([f"w{i}" for i in range(2000)], priors)
    return m, OrliczFamily.uniform(m, Exponential(beta)), xs


@pytest.fixture(scope="module")
def dirichlet():
    return _dirichlet_instance()


def _count_evals(monkeypatch, fn):
    inner = Exponential._eval_scaled
    calls = []

    def counted(self, z, s):
        calls.append(z.size)
        return inner(self, z, s)

    monkeypatch.setattr(Exponential, "_eval_scaled", counted)
    fn()
    monkeypatch.undo()
    return len(calls)


def test_shared_evaluations_on_a_dirichlet_model(monkeypatch, dirichlet):
    m, fam, xs = dirichlet
    phi = fam.phi(m.prior_labels[0])
    for x in xs:
        shared = _count_evals(monkeypatch, lambda: luxemburg_norm(m, x, fam))
        # every prior on its own, plus the certificate's evaluations at
        # both ends (hi for every prior, lo once)
        alone = _count_evals(monkeypatch, lambda: [single_prior_luxemburg(p, phi, x)
                                                   for p in m.priors])
        assert shared <= 0.65 * (alone + m.n_priors + 1)


def test_no_prior_by_atom_temporaries(dirichlet):
    m, fam, xs = dirichlet
    luxemburg_norm(m, xs[0], fam)
    tracemalloc.start()
    try:
        luxemburg_norm(m, xs[0], fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a handful of arrays of n_atoms floats (|X|, its scaled copies, one
    # phi evaluation) and a few hundred bytes per prior for the lockstep
    # ladders: a twelfth of what one array per prior would take
    assert peak < 16 * 8 * m.n_atoms < m.n_priors * 8 * m.n_atoms / 12


class _Unhashable(Exponential):
    __hash__ = None


def test_family_makes_equal_functions_one_object():
    a, b, c = Exponential(0.7), Exponential(0.7), Exponential(0.9)
    loose, twin = _Unhashable(0.7), _Unhashable(0.7)
    fam = OrliczFamily({"P1": a, "P2": b, "P3": c, "P4": loose, "P5": twin, "P6": a})
    assert fam.phi("P1") is a and fam.phi("P2") is a and fam.phi("P6") is a
    assert fam.phi("P3") is c
    # an unhashable function stays its own object, equal or not
    assert fam.phi("P4") is loose and fam.phi("P5") is twin
    assert fam == OrliczFamily({"P1": b, "P2": a, "P3": c, "P4": loose, "P5": twin, "P6": b})


def test_equal_json_specs_cost_what_one_object_costs(monkeypatch, rng):
    # five priors, each given its own but equal `exponential` spec: the
    # family makes them one object, so the kernel evaluates phi once per
    # lam for all of them, as for `OrliczFamily.uniform`
    from robust_orlicz.serialization import family_from_json, orlicz_from_json

    spec = {"kind": "exponential", "beta": 0.8}
    for _ in range(5):
        m = _model_with_supports(rng, 12, 5)
        x = _x_with_zeros(rng, 12)
        per_prior = family_from_json({"per_prior": {l: dict(spec) for l in m.prior_labels}}, m)
        uniform = OrliczFamily.uniform(m, orlicz_from_json(spec))
        got, want = [], []
        n_got = _count_evals(monkeypatch, lambda: got.append(luxemburg_norm(m, x, per_prior)))
        n_want = _count_evals(monkeypatch, lambda: want.append(luxemburg_norm(m, x, uniform)))
        assert got == want
        assert n_got == n_want
