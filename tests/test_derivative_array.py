"""The array-first Orlicz protocol: `derivative_array` against the scalar
formulas it replaced, the scalar entry points as one-element views, and
the input contracts that ride with them (finite penalties, NaN refused at
the library boundary, numeric CLI options that exit 2)."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import robust_orlicz
from robust_orlicz import (AggregateOrlicz, CARAUtility, EssSupIndicator,
                           Exponential, LinearUtility, OrliczFamily,
                           OrliczFunction, PiecewiseLinear,
                           PiecewiseLinearUtility, Power, Scaled, ScenarioModel,
                           ValidationError, penalised_norm, risk_measure,
                           tail_membership, uniform_integrability_report)
from robust_orlicz.diagnostics import Truncation
from robust_orlicz.duality import derivative_density

INF = math.inf
NAN = math.nan
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# -- the scalar formulas that derivative_array replaced -----------------------


def reference_derivative(phi, x: float) -> float:
    """Right derivative at one point, one formula per class, in Python floats."""
    if isinstance(phi, Power):
        return 1.0 if phi.p == 1.0 else phi.p * x ** (phi.p - 1.0)
    if isinstance(phi, Exponential):
        return phi.beta * math.exp(phi.beta * x)
    if isinstance(phi, EssSupIndicator):
        return 0.0 if x < 1.0 else INF
    if isinstance(phi, PiecewiseLinear):
        if phi.bound is not None and x >= phi.bound:
            return INF
        idx = int(np.searchsorted(phi.breakpoints, x, side="right")) - 1
        return 0.0 if idx < 0 else phi.slopes[idx]
    if isinstance(phi, Scaled):
        d = reference_derivative(phi.inner, phi.theta * x)
        return INF if d == INF else phi.theta * d / phi.one_plus_gamma
    if isinstance(phi, AggregateOrlicz):
        # the steepest of the terms that attain the max
        parts = []
        for u, d in phi.terms:
            if isinstance(u, LinearUtility):
                parts.append((u.slope / d * x, u.slope / d))
            elif isinstance(u, CARAUtility):
                c = u.scale / d
                parts.append((c * math.expm1(u.beta * x), c * u.beta * math.exp(u.beta * x)))
            else:
                parts.append((u.loss(d)(x), reference_derivative(u.loss(d), x)))
        top = max(value for value, _ in parts)
        return max(slope for value, slope in parts if value == top)
    # the forward difference of the base class
    if x >= phi.domain_bound:
        return INF
    h = 1e-7 * max(1.0, x)
    hi = phi(x + h)
    if hi == INF:
        return INF
    return (hi - phi(x)) / h


def reference_density(prior, phi, z):
    """The per-atom loop that `derivative_density` replaced."""
    deriv = np.array([reference_derivative(phi, float(t)) if p > 0 else 0.0
                      for t, p in zip(z, prior)])
    inf_mask = np.isinf(deriv) & (prior > 0)
    if np.any(inf_mask):
        return np.where(inf_mask, prior, 0.0)
    return prior * deriv


def points(phi, rng):
    """0, the kinks and their float neighbours, the domain bound and past
    it, and random points on a few scales."""
    pts = [0.0, 1e-300, 1e-9, 0.5, 1.0, 2.0, 7.5]
    kinks = [1.0]
    if isinstance(phi, PiecewiseLinear):
        kinks = list(phi.breakpoints) + ([phi.bound] if phi.bound is not None else [])
    if isinstance(phi, Scaled):
        kinks = [k / phi.theta for k in kinks]
    for k in kinks:
        pts += [k, float(np.nextafter(k, INF)), float(np.nextafter(k, -INF)), 1.5 * k]
    pts += list(rng.uniform(0.0, 3.0, 30)) + list(rng.exponential(size=20) * 0.1)
    return np.array([p for p in pts if p >= 0.0])


PL_FREE = PiecewiseLinear([0.3, 0.7, 1.9], [0.2, 1.1, 4.0])
PL_BOUNDED = PiecewiseLinear([0.1, 1.0], [2.0, 3.5], bound=2.5)
PL_AT_ZERO = PiecewiseLinear([0.0, 0.4], [0.5, 1.5], bound=0.9)
EXACT = [Power(1.0), Power(1.0 + 1e-7), Power(1.5), Power(3.0), EssSupIndicator(),
         PL_FREE, PL_BOUNDED, PL_AT_ZERO]
EXACT += [Scaled(phi, 0.7, 1.6) for phi in EXACT] + [Scaled(PL_BOUNDED, 2.0)]
EXPONENTIALS = [Exponential(0.3), Exponential(1.0), Exponential(2.7)]
AGGREGATES = [
    AggregateOrlicz([(CARAUtility.normalised(1.0), 1.0)]),
    AggregateOrlicz([(CARAUtility.normalised(2.5), 1.0), (LinearUtility(), 1.3)]),
    AggregateOrlicz([(PiecewiseLinearUtility([-1.0, 0.0], [3.0, 1.0, 0.5]), 1.0),
                     (CARAUtility.normalised(0.4), 2.0)]),
]


class BoundedSquare(OrliczFunction):
    """x**2 up to 1 and inf beyond: the numeric fallback at a domain bound."""

    domain_bound = 1.0

    def _eval_array(self, x):
        return np.where(x <= 1.0, x * x, INF)


class TestAgainstScalarFormulas:
    @pytest.mark.parametrize("phi", EXACT, ids=repr)
    def test_closed_forms_bit_for_bit(self, phi):
        xs = points(phi, np.random.default_rng(11))
        want = np.array([reference_derivative(phi, float(x)) for x in xs])
        assert np.array_equal(phi.derivative_array(xs), want)
        assert np.array_equal(phi.derivative_array(xs.reshape(-1, 1)), want.reshape(-1, 1))

    def test_power_matches_python_pow_on_many_points(self):
        # this keeps the projection's SLSQP trajectories where they were
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.uniform(0.0, 10.0, 2000), rng.exponential(size=2000)])
        for p in [1.0, 1.0 + 1e-7, 1.5, 3.0, *rng.uniform(1.0, 4.0, 20)]:
            want = np.array([reference_derivative(Power(p), float(x)) for x in xs])
            assert np.array_equal(Power(p).derivative_array(xs), want)

    @pytest.mark.parametrize("phi", EXPONENTIALS + [Scaled(e, 0.7, 1.6) for e in EXPONENTIALS],
                             ids=repr)
    def test_exponential_within_rounding(self, phi):
        # np.exp is within 1 ulp of math.exp; the factor beta (and Scaled's
        # theta / one_plus_gamma) rounds once more per multiplication
        xs = points(phi, np.random.default_rng(12))
        want = np.array([reference_derivative(phi, float(x)) for x in xs])
        got = phi.derivative_array(xs)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    @pytest.mark.parametrize("phi", [BoundedSquare()], ids=repr)
    def test_forward_difference_bit_for_bit(self, phi):
        xs = np.concatenate([points(phi, np.random.default_rng(13)),
                             [1.0 - 1e-8, 40.0, 800.0]])
        want = np.array([reference_derivative(phi, float(x)) for x in xs])
        assert np.array_equal(phi.derivative_array(xs), want)

    @pytest.mark.parametrize("phi", AGGREGATES, ids=repr)
    def test_aggregate_matches_central_differences(self, phi):
        # the active part's derivative, away from the kinks of the parts
        # and of their max
        xs = np.concatenate([np.linspace(0.01, 3.0, 300), [7.5, 20.0]])
        h = 1e-6
        ahead, behind = (phi(xs + h) - phi(xs)) / h, (phi(xs) - phi(xs - h)) / h
        central = 0.5 * (ahead + behind)
        got = phi.derivative_array(xs)
        smooth = np.abs(ahead - behind) <= 1e-4 * central
        assert smooth.sum() >= 280
        assert np.all(np.abs(got - central)[smooth] <= 1e-8 * np.maximum(1.0, central[smooth]))

    def test_aggregate_takes_the_steepest_tied_part(self):
        # at 0 both parts are 0: the line's slope 1 / 1.3 beats the CARA
        # term's c beta = 2.5 / expm1(2.5); a repeated term ties everywhere
        phi = AGGREGATES[1]
        slope, cara = 1.0 / 1.3, 2.5 / math.expm1(2.5)
        assert phi.derivative_array(np.array([0.0]))[0] == pytest.approx(slope, rel=1e-15)
        assert phi.right_derivative(0.0) == pytest.approx((phi(1e-9) - phi(0.0)) / 1e-9, rel=1e-6)
        twice = AggregateOrlicz([(CARAUtility.normalised(2.5), 1.0)] * 2)
        xs = np.array([0.0, 0.3, 2.0])
        assert np.allclose(twice.derivative_array(xs), cara * np.exp(2.5 * xs), rtol=1e-15)

    def test_overflow_is_inf_without_warning(self):
        with np.errstate(all="raise"):
            assert Power(3.0).derivative_array([1e200])[0] == INF
            assert Exponential(1.0).derivative_array([1e4])[0] == INF
            assert Scaled(Exponential(1.0), 2.0, 1.5).derivative_array([354.8])[0] == INF
            assert AGGREGATES[0].derivative_array([1e4])[0] == INF


class TestDerivativeDensity:
    @pytest.mark.parametrize("phi", EXACT + AGGREGATES, ids=repr)
    def test_matches_per_atom_loop(self, phi):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            prior = rng.exponential(size=n)
            prior[rng.random(n) < 0.3] = 0.0
            prior /= max(prior.sum(), 1e-300)
            z = rng.exponential(size=n) * rng.choice([0.2, 1.0, 3.0])
            got, want = derivative_density(prior, phi, z), reference_density(prior, phi, z)
            if isinstance(phi, AggregateOrlicz):  # np.exp against math.exp
                assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
            else:
                assert np.array_equal(got, want)

    def test_infinite_derivative_puts_the_prior_there(self):
        prior = np.array([0.25, 0.0, 0.75])
        got = derivative_density(prior, PL_BOUNDED, np.array([3.0, 9.0, 1.0]))
        assert list(got) == [0.25, 0.0, 0.0]

    def test_exponential_within_rounding(self):
        rng = np.random.default_rng(19)
        prior = rng.exponential(size=50)
        prior /= prior.sum()
        z = rng.exponential(size=50)
        want = reference_density(prior, EXPONENTIALS[1], z)
        got = derivative_density(prior, EXPONENTIALS[1], z)
        assert np.all(np.abs(got - want) <= 1e-15 * want)


ALL_CLASSES = EXACT + EXPONENTIALS + AGGREGATES + [Scaled(AGGREGATES[1], 1.2, 1.1)]


class TestScalarViews:
    @pytest.mark.parametrize("phi", ALL_CLASSES, ids=repr)
    def test_scalar_is_the_one_element_array(self, phi):
        for v in [0.0, 0.3, 1.0, 1.7, 4.0, 1e6]:
            assert phi.right_derivative(v) == phi.derivative_array(np.array([v]))[0]
            c = phi.conjugate(v)
            assert c == phi.conjugate_array(np.array([v]))[0]
            assert type(c) is float and type(phi.right_derivative(v)) is float

    @pytest.mark.parametrize("phi", ALL_CLASSES, ids=repr)
    def test_negative_argument_rejected(self, phi):
        with pytest.raises(ValidationError, match="nonnegative"):
            phi.conjugate(-0.5)
        with pytest.raises(ValidationError, match="nonnegative"):
            phi.right_derivative(-1e-300)


def test_no_class_defines_a_scalar_twin():
    classes = [obj for obj in vars(robust_orlicz).values()
               if isinstance(obj, type) and issubclass(obj, OrliczFunction)
               and obj is not OrliczFunction]
    assert len(classes) >= 6
    twins = [(c.__name__, name) for c in classes
             for name in ("conjugate", "right_derivative") if name in vars(c)]
    assert twins == []


# -- PiecewiseLinearUtility ----------------------------------------------------


def reference_utility(u, x):
    """The table-per-call evaluation that the prebuilt tables replaced."""
    kn, sl = np.asarray(u.knots), np.asarray(u.slopes)
    grid = np.unique(np.concatenate([kn, [0.0]]) if 0.0 not in u.knots else kn)

    def seg_slope(t):
        return sl[int(np.searchsorted(kn, t, side="right"))]
    vals = np.zeros(grid.size)
    z = int(np.searchsorted(grid, 0.0))
    for i in range(z + 1, grid.size):
        vals[i] = vals[i - 1] + seg_slope(grid[i - 1]) * (grid[i] - grid[i - 1])
    for i in range(z - 1, -1, -1):
        vals[i] = vals[i + 1] - seg_slope(grid[i]) * (grid[i + 1] - grid[i])
    idx = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 1)
    slopes_at = np.array([seg_slope(g) for g in grid])
    out = vals[idx] + slopes_at[idx] * (x - grid[idx])
    return np.where(x < grid[0], vals[0] + sl[0] * (x - grid[0]), out)


def test_piecewise_linear_utility_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(0, 6))
        kn = np.unique(rng.uniform(-3.0, 3.0, size=n))
        if kn.size and rng.random() < 0.3:
            kn[rng.integers(0, kn.size)] = 0.0
            kn = np.unique(kn)
        sl = np.sort(rng.uniform(0.0, 3.0, size=kn.size + 1))[::-1]
        sl[rng.random(sl.size) < 0.2] = 0.0
        sl = np.sort(sl)[::-1]
        u = PiecewiseLinearUtility(kn, sl)
        x = np.concatenate([kn, np.nextafter(kn, INF), np.nextafter(kn, -INF),
                            [0.0, -0.0, 1e300, -1e300], rng.uniform(-5.0, 5.0, 30)])
        got, want = u.eval_array(x), reference_utility(u, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# -- finite penalties ---------------------------------------------------------


class TestFinitePenalties:
    def test_scaled_refuses_infinite_divisor(self):
        with pytest.raises(ValidationError, match="finite"):
            Scaled(Power(2.0), 1.0, INF)
        with pytest.raises(ValidationError):
            Scaled(Power(2.0), 1.0, NAN)

    @pytest.mark.parametrize("gamma", [INF, NAN, -0.5])
    def test_penalised_norm_refuses(self, gamma):
        model = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            penalised_norm(model, [1.0, 2.0], Power(2.0), {"P1": 0.0, "P2": gamma})


# -- NaN at the library boundary ----------------------------------------------


class TestNaNRefused:
    def test_risk_measure(self):
        model = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="NaN"):
            risk_measure(model, [1.0, 2.0], {"P1": NAN, "P2": 0.0})
        assert risk_measure(model, [1.0, 2.0], {"P1": INF, "P2": 0.0}) == 1.0

    def test_uniform_integrability_report(self):
        model = ScenarioModel(["a", "b"], [[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="NaN"):
            uniform_integrability_report(model, [0.75, 0.25], [1.0, NAN])

    def test_tail_membership(self):
        model = ScenarioModel(["a", "b"], [[0.5, 0.5]])
        rung = Truncation(model=model, x=np.array([1.0, 3.0]),
                          family=OrliczFamily.uniform(model, Power(2.0)), label="r")
        with pytest.raises(ValidationError, match="NaN"):
            tail_membership([rung], [NAN, 1.0])


# -- the CLI: exit 2, never a traceback ---------------------------------------


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return {
        "model": write("m.json", {"atoms": ["a", "b"], "priors": [
            {"label": "P1", "masses": [0.5, 0.5]}, {"label": "P2", "masses": [1.0, 0.0]}]}),
        "power": write("p.json", {"uniform": {"kind": "power", "p": 2}}),
        "bad_vector": write("v.json", ["abc", 1.0]),
        "inf_gamma": write("g.json", {"uniform": {
            "kind": "scaled", "inner": {"kind": "power", "p": 2}, "theta": 1,
            "one_plus_gamma": "inf"}}),
    }


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "robust_orlicz.cli", *args],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("command", ["norm", "dual-witness", "verify-l1", "dominate"])
def test_cli_infinite_divisor_exits_2(files, command):
    out = run_cli(command, "--model", files["model"], "--family", files["inf_gamma"],
                  "--x", "1,2", "--samples", "3")
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr and "Warning" not in out.stderr
    assert "finite" in out.stderr


@pytest.mark.parametrize("args", [
    ("ui-profile", "--c-grid=abc"),
    ("ui-profile", "--c-grid=1,nan"),
    ("tails", "--x", "1,3", "--levels=abc"),
    ("tails", "--x", "1,3", "--levels=nan,1"),
    ("risk", "--x", "1,3", "--gamma=abc"),
    ("risk", "--x", "1,3", "--gamma=nan"),
    ("risk", "--x", "1,3", "--gamma=P1=0,P2=oops"),
    ("membership", "--gaussian-ladder", "abc"),
    ("membership", "--gaussian-ladder", "2.5"),
    ("membership", "--gaussian-ladder", "0"),
    ("mixture-witness", "--gaussian-ladder", "inf"),
], ids=lambda a: " ".join(a))
def test_cli_bad_numeric_option_exits_2(files, args):
    out = run_cli(*args, "--model", files["model"], "--family", files["power"])
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    assert "error:" in out.stderr
    assert out.stdout == ""


def test_cli_bad_vector_file_exits_2(files):
    out = run_cli("norm", "--model", files["model"], "--family", files["power"],
                  "--x", "@" + files["bad_vector"])
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr and "cannot parse vector" in out.stderr
