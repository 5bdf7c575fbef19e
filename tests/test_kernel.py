"""The robust-norm kernel: sup of per-prior norms, certified on the joint
modular; closed forms on the Orlicz classes; exact order collapse."""

import math

import numpy as np
import pytest

from robust_orlicz import (ConsistencyError, EssSupIndicator, Exponential,
                           OrliczFamily, PiecewiseLinear, Power, Scaled, ScenarioModel,
                           dominating_measure, luxemburg_norm, modular,
                           penalised_norm, qs_order, single_prior_luxemburg)
from robust_orlicz import norms, orlicz

from conftest import random_family, random_model, random_prior, random_x

INF = math.inf
TOL = 1e-10


def _skewed_power(p, factor):
    """Power(p) whose closed-form norm is off by `factor`."""
    class SkewedPower(Power):
        def luxemburg_closed_form(self, weights, abs_x):
            return factor * super().luxemburg_closed_form(weights, abs_x)
    return SkewedPower(p)


class TestCertificate:
    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_wrong_closed_form_raises(self, factor):
        m = ScenarioModel(["a", "b", "c"], [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0]])
        x = [1.0, -2.0, 3.0]
        fam = OrliczFamily({"P1": _skewed_power(2.0, factor), "P2": Power(2.0)})
        with pytest.raises(ConsistencyError):
            luxemburg_norm(m, x, fam)
        with pytest.raises(ConsistencyError):
            penalised_norm(m, x, _skewed_power(2.0, factor), {"P1": 0.5, "P2": 0.0})

    def test_lower_end_falls_back_to_every_prior(self):
        # P1's closed form reads 0.7 tol high, so P1 attains the sup and
        # its own modular is <= 1 at the bracket's lower end; P2's norm
        # lies 0.3 tol above P1's true norm, inside the bracket, and its
        # modular there settles the check
        x = [1.0, 2.0]
        n1 = math.sqrt(2.5)  # the L2 norm of x under (1/2, 1/2)
        a = (4.0 - 2.5 * (1.0 + 0.3 * TOL) ** 2) / 3.0  # a + 4 (1 - a) = n2**2
        m = ScenarioModel(["a", "b"], [[0.5, 0.5], [a, 1.0 - a]])
        fam = OrliczFamily({"P1": _skewed_power(2.0, 1.0 + 0.7 * TOL), "P2": Power(2.0)})
        res = luxemburg_norm(m, x, fam)
        assert res.per_prior_norms["P1"] > res.per_prior_norms["P2"] > n1
        half = norms._CERT_HALF_WIDTH * TOL * res.value
        lo, hi = res.value - half, res.value + half
        assert res.value == res.per_prior_norms["P1"] and res.bracket == (lo, hi)
        assert norms.single_prior_modular(m.prior("P1"), Power(2.0), np.abs(x), lo) <= 1.0
        assert norms.single_prior_modular(m.prior("P2"), Power(2.0), np.abs(x), lo) > 1.0
        assert res.modular_at_value == modular(m, x, hi, fam) <= 1.0

    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_wrong_bisection_raises(self, monkeypatch, factor):
        bisection = norms._norm_bisection

        def skewed(*args, **kwargs):
            value, bracket, steps = bisection(*args, **kwargs)
            return factor * value, bracket, steps

        monkeypatch.setattr(norms, "_norm_bisection", skewed)
        m = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        with pytest.raises(ConsistencyError):
            luxemburg_norm(m, [1.0, 2.0], OrliczFamily.uniform(m, Exponential(1.0)))

    def test_bracket_certifies_value_on_random_instances(self, rng):
        for _ in range(200):
            m = random_model(rng)
            fam = random_family(rng, m)
            x = random_x(rng, m.n_atoms)
            res = luxemburg_norm(m, x, fam)
            lo, hi = res.bracket
            assert res.value == max(res.per_prior_norms.values())
            if res.value == INF:
                assert modular(m, x, lo, fam) > 1.0
                continue
            assert lo <= res.value <= hi
            assert hi - lo <= TOL * max(1.0, hi)
            assert modular(m, x, hi, fam) <= 1.0
            assert res.modular_at_value == modular(m, x, hi, fam)
            if lo > 0:
                assert modular(m, x, lo, fam) > 1.0

    def test_zero_exactly_when_zero_on_support(self):
        m = ScenarioModel(["a", "b", "c"], [[0.5, 0.5, 0.0]])
        fam = OrliczFamily.uniform(m, Exponential(1.0))
        res = luxemburg_norm(m, [0.0, 0.0, 5.0], fam)
        assert res.value == 0.0 and res.bracket == (0.0, 0.0)
        assert luxemburg_norm(m, [1e-300, 0.0, 0.0], fam).value > 0.0
        assert luxemburg_norm(m, [1e-200, 0.0, 0.0], OrliczFamily.uniform(m, Power(2))).value > 0.0

    def test_iterations_are_the_maximisers_bisection_steps(self):
        m = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
        closed = luxemburg_norm(m, [1.0, 2.0], OrliczFamily.uniform(m, Power(3)))
        assert closed.iterations == 0
        bisected = luxemburg_norm(m, [1.0, 2.0], OrliczFamily.uniform(m, Exponential(1.0)))
        assert bisected.iterations > 0

    def test_penalised_is_scaled_family_value(self, rng):
        for _ in range(30):
            m = random_model(rng)
            phi = Exponential(float(rng.uniform(0.5, 2.0)))
            gamma = {l: float(rng.uniform(0.0, 2.0)) for l in m.prior_labels}
            x = random_x(rng, m.n_atoms)
            pen = penalised_norm(m, x, phi, gamma)
            fam = OrliczFamily.additively_penalised(m, phi, gamma)
            assert pen.value == luxemburg_norm(m, x, fam).value


class TestClosedForms:
    def test_bit_identical_to_masked_numpy(self, rng):
        for _ in range(200):
            # a few draws long enough for the power closed form's log route
            n = int(rng.integers(1, 9)) if rng.random() < 0.8 else int(rng.integers(1024, 1100))
            prior = random_prior(rng, n)
            x = random_x(rng, n)
            p = float(rng.uniform(1.0, 5.0))
            theta = float(rng.uniform(0.5, 2.0))
            d = 1.0 + float(rng.uniform(0.0, 2.0))
            pos = prior > 0.0
            abs_x = np.abs(x)
            if not np.any(abs_x[pos] > 0):
                continue
            # the closed form of y = |X| / max|X|, scaled back by max|X|
            top = float(np.max(abs_x[pos]))
            y = abs_x[pos] / top
            if y.size < orlicz._LOG_ROUTE_MIN_SIZE:
                unit = float(np.dot(prior[pos], y ** p) ** (1.0 / p))
            else:
                # y**p as exp(p log y)
                with np.errstate(divide="ignore"):
                    powers = np.exp(p * np.log(y))
                unit = float(np.dot(prior[pos], powers) ** (1.0 / p))
            assert single_prior_luxemburg(prior, Power(p), x) == top * unit
            assert (single_prior_luxemburg(prior, Scaled(Power(p), theta, d), x)
                    == top * (theta * unit / d ** (1.0 / p)))
            assert single_prior_luxemburg(prior, EssSupIndicator(), x) == top
            assert (single_prior_luxemburg(prior, Scaled(EssSupIndicator(), theta, d), x)
                    == theta * top)

    def test_nested_scaling_matches_bisection(self):
        prior = np.array([0.25, 0.75])
        x = np.array([1.0, 2.0])
        phi = Scaled(Scaled(Power(2.5), 2.0, 3.0), 0.5, 1.5)
        assert phi.luxemburg_closed_form(prior, x) is not None
        m = ScenarioModel(["a", "b"], [prior])
        fam = OrliczFamily.uniform(m, phi)
        closed = luxemburg_norm(m, x, fam).value
        lam = closed * (1 + 1e-9)
        assert modular(m, x, lam, fam) <= 1.0 < modular(m, x, closed * (1 - 1e-9), fam)

    def test_no_closed_form_without_homogeneity(self):
        phi = Scaled(Exponential(1.0), 2.0, 1.5)
        assert phi.luxemburg_closed_form(np.array([1.0]), np.array([1.0])) is None


class TestDomination:
    def test_support_mask_matches_stacked_priors(self, rng):
        for _ in range(20):
            m = random_model(rng)
            ref = np.max(np.stack(m.priors), axis=0) > 0.0
            assert np.array_equal(m.support_mask, ref)
            assert not m.support_mask.flags.writeable

    def test_order_collapse_is_exact(self, rng):
        for _ in range(30):
            m = random_model(rng)
            fam = random_family(rng, m)
            rep = dominating_measure(m, fam)
            assert rep.order_collapse == rep.strict_positivity
            assert rep.order_pairs_checked == 0
            charged = rep.pstar.masses > 0.0
            for _ in range(20):
                x = rng.normal(size=m.n_atoms)
                y = x + rng.choice([0.0, 1.0], size=m.n_atoms) * np.abs(
                    rng.normal(size=m.n_atoms))
                qs = qs_order(m, x, y) in ("le", "eq")
                assert qs == bool(np.all(x[charged] <= y[charged]))


def _geometric_bisection(mod, rel=1e-13):
    """Reference root of a nonincreasing modular: plain geometric
    bisection for inf{lam : mod(lam) <= 1} to a relative width `rel`."""
    lo = hi = 1.0
    while mod(hi) > 1.0:
        hi *= 2.0
    while mod(lo) <= 1.0:
        lo /= 2.0
    while hi - lo > rel * hi:
        mid = math.sqrt(lo * hi)
        if mod(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestRootFinder:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_few_modular_calls_on_a_dirichlet_prior(self, monkeypatch, beta):
        rng = np.random.default_rng(3)
        prior = rng.dirichlet(np.ones(2000))
        x = rng.normal(size=2000)
        modular_fn = norms.single_prior_modular
        calls = []

        def counted(*args):
            calls.append(args)
            return modular_fn(*args)

        monkeypatch.setattr(norms, "single_prior_modular", counted)
        value, steps = single_prior_luxemburg(prior, Exponential(beta), x, with_steps=True)
        assert steps > 0
        assert len(calls) <= 12
        top = float(np.max(np.abs(x)))
        ref = _geometric_bisection(
            lambda lam: modular_fn(prior, Exponential(beta), np.abs(x) / top, lam))
        assert value == pytest.approx(top * ref, rel=1e-9)

    @pytest.mark.parametrize("phi", [
        PiecewiseLinear([0.5, 1.0], [1.0, 4.0], bound=1.6),  # mod is inf below a point
        PiecewiseLinear([0.6, 0.9], [2.0, 5.0]),  # mod is 0 above a point
        Scaled(Exponential(0.7), 1.8, 2.5),
    ])
    def test_hard_phi_agrees_with_geometric_bisection(self, rng, phi):
        steps_taken = 0
        for _ in range(40):
            n = int(rng.integers(2, 9))
            prior = random_prior(rng, n)
            x = random_x(rng, n)
            pos = prior > 0.0
            top = float(np.max(np.abs(x[pos])))
            if top == 0.0:
                continue
            y = np.abs(x) / top

            def mod(lam):
                return norms.single_prior_modular(prior, phi, y, lam)

            value, steps = single_prior_luxemburg(prior, phi, x, with_steps=True)
            assert value == pytest.approx(top * _geometric_bisection(mod), rel=1e-9)
            if phi.luxemburg_closed_form(prior[pos], y[pos]) is not None:
                continue
            steps_taken += steps
            lam, (lo, hi), _ = norms._norm_bisection(mod, TOL / 2.0, norms.MAX_ITER)
            assert mod(lo) > 1.0 >= mod(hi)
            assert lo <= lam <= hi and hi - lo <= TOL / 2.0 * hi
        assert steps_taken > 0

    def test_ladder_steps_do_not_count_against_max_iter(self):
        # the norm of |X| / max|X| is about 2**-319: the ladder alone takes
        # 319 halvings, more than MAX_ITER, and the narrowing still follows
        prior = np.array([1.0, 6.418738699481516e-97])
        phi = PiecewiseLinear([1.3948674243563872], [0.9286480876306539])
        x = np.array([1.671e-96, 1.0])
        value, steps = single_prior_luxemburg(prior, phi, x, with_steps=True)
        assert steps > norms.MAX_ITER
        assert value == pytest.approx(9.357415425e-97, rel=1e-9)
        assert (norms.single_prior_modular(prior, phi, x, value * (1.0 - 1e-10)) > 1.0
                >= norms.single_prior_modular(prior, phi, x, value * (1.0 + 1e-10)))
