"""Aggregated Orlicz functions reduce to the stock classes, evaluate from
precomputed parts, and the kernels enter numpy's error state once per
call rather than once per phi evaluation."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from robust_orlicz import (Agent, AggregateOrlicz, CARAUtility, Exponential,
                           LinearUtility, OrliczFamily, PiecewiseLinear,
                           PiecewiseLinearUtility, Power, Scaled, ScenarioModel,
                           ValidationError, aggregate_family, luxemburg_norm)
from robust_orlicz.cli import main
from robust_orlicz.serialization import orlicz_from_json

from conftest import random_model, random_x

INF = math.inf
GRID = np.array([0.0, 1e-12, 1e-3, 0.1, 0.37, 0.5, 1.0, 1.5, 2.0, 3.0, 7.5, 10.0,
                 42.0, 100.0, 709.0, 1e3])


def reference_aggregate(terms, x):
    """The pointwise max of -u(-x) / d, term by term, as the aggregate
    was evaluated before it was split into parts."""
    out = np.full(x.shape, -INF)
    with np.errstate(over="ignore"):
        for u, d in terms:
            out = np.maximum(out, -u.eval_array(-x) / d)
    return np.maximum(out, 0.0)


def reference_piecewise_linear(phi, x):
    """PiecewiseLinear's evaluator as it was: a clamped segment index and
    a mask for the points below the first breakpoint."""
    knots, slopes = np.asarray(phi.breakpoints), np.asarray(phi.slopes)
    values = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(knots))])
    idx = np.searchsorted(knots, x, side="right") - 1
    below = idx < 0
    idx = np.minimum(np.maximum(idx, 0), len(knots) - 1)
    out = values[idx] + slopes[idx] * (x - knots[idx])
    out = np.where(below, 0.0, out)
    if phi.bound is not None:
        out = np.where(x > phi.bound, INF, out)
    return out


def summed_scale(terms, x):
    """The largest |value| the term formula adds to at each x: for a
    piecewise-linear utility u(-x) = u(g) + s (-x - g) from the grid point
    g at or left of -x, which cancels where -x is near 0."""
    scale = np.zeros(x.shape)
    for u, d in terms:
        if isinstance(u, PiecewiseLinearUtility):
            grid = np.unique(np.append(u.knots, 0.0))
            g = grid[np.maximum(np.searchsorted(grid, -x, side="right") - 1, 0)]
            scale = np.maximum(scale, np.abs(u(g)) / d)
    return scale


def assert_within_ulps(got, want, scale=0.0, ulps=4):
    """got and want agree to `ulps` units in the last place of the larger
    of them and of `scale`, and are infinite together."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isinf(got), np.isinf(want)), (got, want)
    fin = np.isfinite(want)
    size = np.maximum(np.maximum(np.abs(got), np.abs(want)), scale)[fin]
    assert np.all(np.abs(got[fin] - want[fin]) <= ulps * np.spacing(size)), (got, want)


def normalised_piecewise_linear(rng):
    """A concave piecewise-linear utility with u(-1) = -1."""
    n = int(rng.integers(1, 4))
    knots = np.sort(rng.uniform(-2.0, 1.0, size=n))
    slopes = np.sort(rng.uniform(0.1, 3.0, size=n + 1))[::-1]
    raw = PiecewiseLinearUtility(knots, slopes)
    return PiecewiseLinearUtility(knots, slopes / -raw(-1.0))


def random_utility(rng):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return LinearUtility()
    if kind == 1:
        return CARAUtility.normalised(float(rng.uniform(0.2, 3.0)))
    return normalised_piecewise_linear(rng)


def agents_for(model, terms_per_prior):
    """One agent per term (u, d) of the first priors, charging d - 1 there
    and nothing on the last prior, which therefore gathers every u."""
    anchor = model.prior_labels[-1]
    return [Agent(u, [label, anchor], {label: d - 1.0, anchor: 0.0})
            for label, terms in zip(model.prior_labels, terms_per_prior)
            for u, d in terms]


def aggregate_classes(model, agents):
    """The family that keeps every prior an `AggregateOrlicz`."""
    return OrliczFamily({label: AggregateOrlicz([(a.utility, 1.0 + a.penalty[label])
                                                 for a in agents if label in a.prior_labels])
                         for label in model.prior_labels})


class TestStockClasses:
    def test_single_linear_term(self, delta_model):
        agent = Agent(LinearUtility(), ["P1", "P2"], {"P1": 0.0, "P2": 1.5})
        phi = aggregate_family(delta_model, [agent]).phi("P2")
        assert phi == Scaled(Power(1.0), 1.0, 2.5)

    def test_single_cara_term(self, delta_model):
        u = CARAUtility.normalised(0.3)
        agent = Agent(u, ["P1", "P2"], {"P1": 0.0, "P2": 0.5})
        fam = aggregate_family(delta_model, [agent])
        assert fam.phi("P1") == Scaled(Exponential(0.3), 1.0, 1.0 / u.scale)
        assert fam.phi("P2") == Scaled(Exponential(0.3), 1.0, 1.5 / u.scale)
        # expm1(0.3) < 1: the divisor of the unpenalised prior is below 1
        assert fam.phi("P1").one_plus_gamma < 1.0

    def test_cara_term_past_the_float_range_of_its_divisor(self, delta_model):
        # d expm1(beta) overflows: the term stays an aggregate
        u = CARAUtility.normalised(709.5)
        agent = Agent(u, ["P1", "P2"], {"P1": 0.0, "P2": 1.0})
        fam = aggregate_family(delta_model, [agent])
        assert isinstance(fam.phi("P1"), Scaled)
        assert fam.phi("P2") == AggregateOrlicz([(u, 2.0)])
        assert fam.phi("P2")(1.0) == pytest.approx(0.5, rel=1e-12)
        assert luxemburg_norm(delta_model, [1.0, 1.0], fam).value == pytest.approx(
            1.0, rel=1e-9)

    def test_single_piecewise_linear_term(self, delta_model):
        u = PiecewiseLinearUtility([-1.0, 0.0], [3.0, 1.0, 0.5])
        agent = Agent(u, ["P1", "P2"], {"P1": 0.0, "P2": 1.0})
        fam = aggregate_family(delta_model, [agent])
        assert fam.phi("P1") == PiecewiseLinear([0.0, 1.0], [1.0, 3.0])
        assert fam.phi("P2") == PiecewiseLinear([0.0, 1.0], [0.5, 1.5])

    def test_linear_terms_keep_the_steepest(self, delta_model):
        agents = [Agent(LinearUtility(), ["P1", "P2"], {"P1": 0.0, "P2": c})
                  for c in (0.5, 0.25, 2.0)]
        assert aggregate_family(delta_model, agents).phi("P2") == Scaled(
            Power(1.0), 1.0, 1.25)

    def test_mixed_terms_stay_an_aggregate(self, delta_model):
        agents = [Agent(LinearUtility(), ["P1", "P2"], {"P1": 0.0, "P2": 0.0}),
                  Agent(CARAUtility.normalised(1.0), ["P1"], {"P1": 0.0})]
        fam = aggregate_family(delta_model, agents)
        assert isinstance(fam.phi("P1"), AggregateOrlicz)
        assert fam.phi("P2") == Scaled(Power(1.0), 1.0, 1.0)


class TestReductionsAgree:
    def test_reduced_phi_matches_the_term_formula(self):
        rng = np.random.default_rng(111)
        for _ in range(300):
            n_terms = 1 if rng.random() < 0.7 else int(rng.integers(2, 4))
            linear_only = n_terms > 1
            terms = [(LinearUtility() if linear_only else random_utility(rng),
                      1.0 + float(rng.uniform(0.0, 2.0)) * (rng.random() < 0.7))
                     for _ in range(n_terms)]
            model = ScenarioModel(["a", "b"], [[0.5, 0.5], [0.2, 0.8]])
            phi = aggregate_family(model, agents_for(model, [terms])).phi("P1")
            assert not isinstance(phi, AggregateOrlicz)
            x = np.concatenate([GRID, rng.uniform(0.0, 5.0, size=20)])
            for u, _ in terms:
                if isinstance(u, PiecewiseLinearUtility):
                    x = np.concatenate([x, [-k for k in u.knots if k < 0.0]])
            assert_within_ulps(phi(x), reference_aggregate(terms, x), summed_scale(terms, x))
            assert phi(1.0) <= 1.0 + 1e-9

    def test_reduced_norms_agree_with_the_aggregate_class(self):
        rng = np.random.default_rng(112)
        checked = 0
        for _ in range(40):
            model = random_model(rng, n_priors=int(rng.integers(2, 6)))
            terms_per_prior = []
            for _ in model.prior_labels[:-1]:
                if rng.random() < 0.5:
                    terms = [(random_utility(rng), 1.0 + float(rng.uniform(0.0, 2.0)))]
                else:
                    terms = [(LinearUtility(), 1.0 + float(rng.uniform(0.0, 2.0)))
                             for _ in range(int(rng.integers(2, 4)))]
                terms_per_prior.append(terms)
            agents = agents_for(model, terms_per_prior)
            reduced = aggregate_family(model, agents)
            general = aggregate_classes(model, agents)
            assert not any(isinstance(reduced.phi(label), AggregateOrlicz)
                           for label in model.prior_labels[:-1])
            for _ in range(3):
                x = random_x(rng, model.n_atoms)
                got = luxemburg_norm(model, x, reduced).value
                want = luxemburg_norm(model, x, general).value
                assert abs(got - want) <= 1e-10 * max(1.0, want), (got, want)
                checked += got > 0.0
        assert checked > 50


class TestAggregateParts:
    def test_parts_match_the_term_formula_on_mixed_terms(self):
        rng = np.random.default_rng(113)
        for _ in range(300):
            terms = [(random_utility(rng), 1.0 + float(rng.uniform(0.0, 2.0)))
                     for _ in range(int(rng.integers(1, 6)))]
            phi = AggregateOrlicz(terms)
            x = np.concatenate([GRID, rng.uniform(0.0, 5.0, size=20),
                                rng.uniform(0.0, 300.0, size=5)])
            with np.errstate(over="ignore"):
                got = phi._eval_array(x)
            assert_within_ulps(got, reference_aggregate(terms, x), summed_scale(terms, x))

    def test_infinity_maps_to_infinity_without_a_linear_term(self):
        phi = AggregateOrlicz([(CARAUtility.normalised(1.0), 1.0),
                               (PiecewiseLinearUtility([0.0], [1.0, 0.5]), 1.5)])
        assert phi(INF) == INF


class TestPiecewiseLinearEvaluator:
    def test_bit_identical_to_the_clamped_evaluator(self):
        rng = np.random.default_rng(114)
        for _ in range(3000):
            n = int(rng.integers(1, 5))
            bps = np.sort(rng.uniform(0.0, 2.0, size=n))
            if rng.random() < 0.2:
                bps[0] = 0.0
            slopes = np.sort(rng.uniform(0.0, 3.0, size=n))
            slopes[-1] += 0.1
            bound = float(bps[-1] + rng.uniform(0.0, 2.0)) if rng.random() < 0.4 else None
            phi = PiecewiseLinear(bps, slopes, bound)
            top = bps[-1] if bound is None else bound
            x = np.concatenate([[0.0, top, 2.0 * top + 1.0, 1e3], bps,
                                rng.uniform(0.0, 1.5 * top + 0.5, size=8)])
            got, want = phi._eval_array(x), reference_piecewise_linear(phi, x)
            assert np.array_equal(got, want), (phi, x)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


class TestScaledDivisor:
    def test_divisor_below_one_is_accepted(self):
        phi = Scaled(Exponential(0.3), 1.0, 0.35)
        assert phi(1.0) == pytest.approx(math.expm1(0.3) / 0.35, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, INF, math.nan])
    def test_divisor_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValidationError):
            Scaled(Power(2.0), 1.0, bad)

    def test_json_still_requires_one_plus_gamma_at_least_one(self, tmp_path):
        spec = {"kind": "scaled", "inner": {"kind": "exponential", "beta": 0.3},
                "theta": 1.0, "one_plus_gamma": 0.5}
        with pytest.raises(ValidationError, match="1 \\+ gamma >= 1"):
            orlicz_from_json(spec)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"atoms": ["a", "b"],
                                     "priors": [{"label": "P1", "masses": [0.5, 0.5]}]}))
        for family in ({"uniform": spec},
                       {"joint": {"kind": "power", "p": 2}, "gamma": {"P1": -0.5}}):
            path = tmp_path / "family.json"
            path.write_text(json.dumps(family))
            assert _run(["norm", "--model", str(model), "--family", str(path),
                         "--x", "1,2"]) == 2

    def test_penalised_families_refuse_a_negative_gamma(self, uniform2_model):
        with pytest.raises(ValidationError, match="1 \\+ gamma >= 1"):
            OrliczFamily.additively_penalised(uniform2_model, Power(2.0), {"P1": -0.5})
        with pytest.raises(ValidationError, match="1 \\+ gamma >= 1"):
            OrliczFamily.doubly_penalised(uniform2_model, Power(2.0), {"P1": 1.0},
                                          {"P1": math.nan})


class TestOneErrorStatePerKernelCall:
    @staticmethod
    def _entries(monkeypatch, fn):
        entered = []
        enter = np.errstate.__enter__

        def counted(self):
            entered.append(1)
            return enter(self)

        monkeypatch.setattr(np.errstate, "__enter__", counted)
        try:
            out = fn()
        finally:
            monkeypatch.undo()
        return len(entered), out

    @pytest.mark.parametrize("shared", [False, True])
    def test_count_does_not_grow_with_the_illinois_steps(self, monkeypatch, shared):
        rng = np.random.default_rng(115)
        model = ScenarioModel([f"w{i}" for i in range(40)],
                              [rng.dirichlet(np.ones(40)) for _ in range(5)])
        phis = [Exponential(float(b)) for b in rng.uniform(0.5, 2.0, size=5)]
        if shared:
            phis = [phis[0]] * 5
        family = OrliczFamily(dict(zip(model.prior_labels, phis)))
        x = rng.normal(size=40) * 3.0
        loose, coarse = self._entries(monkeypatch, lambda: luxemburg_norm(model, x, family,
                                                                          tol=1e-3))
        tight, fine = self._entries(monkeypatch, lambda: luxemburg_norm(model, x, family,
                                                                        tol=1e-13))
        assert fine.iterations > coarse.iterations
        # one per root-finding block and one for the certificate
        assert loose == tight == (1 if shared else 5) + 1
