"""One phi evaluation per decision: exact membership in the intersection
space, loop-free Orlicz validation, the alpha of the weighted-L1 form and
the pool's sups from one array call each; the Gaussian grid cap and the
tails report's empty-level and slope rules."""

import json
import math

import numpy as np
import pytest

from robust_orlicz import diagnostics, duality
from robust_orlicz.cli import main
from robust_orlicz.diagnostics import (Truncation, discretise_standard_normal,
                                       membership_classify, tail_membership)
from robust_orlicz.errors import ValidationError
from robust_orlicz.model import ScenarioModel
from robust_orlicz.norms import OrliczFamily, luxemburg_norm
from robust_orlicz.orlicz import (EssSupIndicator, Exponential, OrliczFunction,
                                  PiecewiseLinear, Power, Scaled, validate_orlicz)
from robust_orlicz.preferences import Agent, CARAUtility, LinearUtility, Utility

from conftest import random_family, random_model, random_phi

INF = math.inf


@pytest.fixture
def model3():
    return ScenarioModel(["a", "b", "c"], [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0]])


# -- exact membership in the intersection space ---------------------------


@pytest.mark.parametrize("phi, x", [
    (Power(2.0), [1e300, 1.0, 1.0]),
    (PiecewiseLinear([0.0], [1.0], bound=1.0), [1e19, 1.0, 1.0]),
])
def test_finite_x_whose_scan_overflowed_is_in_lphi(model3, phi, x):
    family = OrliczFamily.uniform(model3, phi)
    x = np.array(x)
    assert luxemburg_norm(model3, x, family).value < INF
    assert membership_classify(Truncation(model3, x, family)) == "in_LPhi"


@pytest.mark.parametrize("phi", [Power(2.0), PiecewiseLinear([0.0], [1.0], bound=1.0)])
def test_infinite_entry_is_outside(model3, phi):
    family = OrliczFamily.uniform(model3, phi)
    t = Truncation(model3, np.array([1.0, INF, 1.0]), family)
    assert membership_classify(t) == "outside_frakL"
    # the finest rung decides, also on a ladder
    finite = Truncation(model3, np.ones(3), family)
    assert membership_classify([finite, t]) == "outside_frakL"


def test_infinite_entry_off_the_support_is_ignored():
    model = ScenarioModel(["a", "b", "c"], [[0.5, 0.5, 0.0]])
    family = OrliczFamily.uniform(model, Exponential(1.0))
    t = Truncation(model, np.array([1.0, 2.0, -INF]), family)
    assert membership_classify(t) == "in_LPhi"


# -- validation: the old scalar loop as the reference ---------------------


def _reference_check(phi):
    """The message the scalar loop of `validate_orlicz` raised, or None."""
    if phi(0.0) != 0.0:
        return "phi(0) must be 0"
    bound = phi.domain_bound
    if bound <= 0:
        return "Orlicz function must be finite somewhere on (0, inf)"
    probe = bound / 2.0 if math.isfinite(bound) else 1.0
    if phi(probe) == INF:
        return "Orlicz function must be finite somewhere on (0, inf)"
    x = probe
    while x <= 2.0 ** 600:
        if phi(min(x, bound) if math.isfinite(bound) else x) > 0.0:
            return None
        if math.isfinite(bound) and x >= bound:
            break
        x *= 2.0
    if math.isfinite(bound) and phi(bound) == 0.0:
        return None
    return "Orlicz function is identically zero"


def _message(phi):
    try:
        validate_orlicz(phi)
    except ValidationError as e:
        return str(e)
    return None


class _UserPhi(OrliczFunction):
    """phi(x) = slope * max(0, x - start), inf past `bound`, `at_bound`
    at the bound itself, phi(0) = `at_zero`."""

    def __init__(self, start=0.0, slope=1.0, bound=INF, at_bound=None, at_zero=0.0):
        self.start, self.slope, self.bound = start, slope, bound
        self.at_bound, self.at_zero = at_bound, at_zero

    @property
    def domain_bound(self):
        return self.bound

    def _eval_array(self, x):
        with np.errstate(invalid="ignore"):  # inf * 0 at x = 0 is replaced below
            out = self.slope * np.maximum(0.0, x - self.start)
        if self.at_bound is not None:
            out = np.where(x == self.bound, self.at_bound, out)
        out = np.where(x > self.bound, INF, out)
        return np.where(x == 0.0, self.at_zero, out)


USER_PHIS = {
    "zero_up_to_2**700": _UserPhi(start=2.0 ** 700),
    "negative_at_bound": _UserPhi(slope=0.0, bound=1.0, at_bound=-1.0),
    "zero_then_jump": _UserPhi(slope=0.0, bound=3.0),
    "zero_up_to_bound_half": _UserPhi(start=2.0, bound=4.0),
    "nan_at_bound": _UserPhi(slope=0.0, bound=1.0, at_bound=math.nan),
    "nonzero_at_0": _UserPhi(at_zero=1.0),
    "nonzero_at_0_no_domain": _UserPhi(at_zero=1.0, bound=0.0),
    "no_domain": _UserPhi(bound=0.0),
    "inf_at_probe": _UserPhi(slope=INF),
    "positive": _UserPhi(start=5.0, slope=2.0),
}


@pytest.mark.parametrize("name", sorted(USER_PHIS))
def test_validation_matches_scalar_loop_on_user_subclasses(name):
    phi = USER_PHIS[name]
    assert _message(phi) == _reference_check(phi)


def test_validation_verdicts_of_user_subclasses():
    assert _message(USER_PHIS["zero_up_to_2**700"]) == "Orlicz function is identically zero"
    assert _message(USER_PHIS["negative_at_bound"]) == "Orlicz function is identically zero"
    assert _message(USER_PHIS["nonzero_at_0_no_domain"]) == "phi(0) must be 0"
    assert _message(USER_PHIS["zero_then_jump"]) is None


def test_validation_matches_scalar_loop_on_seeded_stock_phi():
    rng = np.random.default_rng(1201)
    phis = [random_phi(rng) for _ in range(60)]
    phis += [Scaled(EssSupIndicator(), 2.0 ** 300), Scaled(EssSupIndicator(), 2.0 ** -500),
             PiecewiseLinear([0.5], [1.0], bound=0.5), PiecewiseLinear([3.0], [2.0]),
             Scaled(PiecewiseLinear([1.0, 2.0], [0.5, 4.0], bound=2.5), 1e-3, 3.0)]
    for phi in phis:
        assert _message(phi) is None
        assert _reference_check(phi) is None


def test_validation_of_power_is_one_evaluation(monkeypatch):
    calls = []
    inner = Power._eval_array
    monkeypatch.setattr(Power, "_eval_array", lambda self, x: calls.append(x.size) or inner(self, x))
    validate_orlicz(Power(2.0))
    assert calls == [2]


def test_bound_beyond_2_to_600_is_accepted():
    # half the bound lies past 2**600, where the scalar loop never looked
    phi = PiecewiseLinear([0.0], [1.0], bound=1e200)
    assert phi(1e199) == 1e199
    validate_orlicz(Scaled(EssSupIndicator(), 1e-200))


# -- agents ---------------------------------------------------------------


class _ShiftedUtility(Utility):
    asymptotic_slope = 1.0

    def eval_array(self, x):
        return x + 0.5


@pytest.mark.parametrize("utility, message", [
    (_ShiftedUtility(), "utility must satisfy u(0) = 0"),
    (LinearUtility(2.0), "utility normalisation u(-1) = -1 violated; renormalise the "
                         "utility rather than relying on silent rescaling"),
    (CARAUtility(beta=1.0, scale=1.0), "utility normalisation u(-1) = -1 violated; "
                                       "renormalise the utility rather than relying on "
                                       "silent rescaling"),
])
def test_agent_normalisation_messages(utility, message):
    with pytest.raises(ValidationError) as e:
        Agent(utility, ["P"], {"P": 0.0})
    assert str(e.value) == message


# -- the alpha of the weighted-L1 form ------------------------------------


def _reference_alpha(family):
    for k in range(200):
        if family.phi_max(2.0 ** -k) <= 1.0:
            return 2.0 ** -k
    return None


def test_phi_max_alpha_matches_scalar_loop():
    rng = np.random.default_rng(1202)
    families = [random_family(rng, random_model(rng)) for _ in range(40)]
    model = random_model(rng, n_priors=3)
    families += [OrliczFamily.uniform(model, Scaled(EssSupIndicator(), 2.0 ** 300)),
                 OrliczFamily.uniform(model, Exponential(8.0)),
                 OrliczFamily.uniform(model, Scaled(Power(3.0), 2.0 ** 50))]
    alphas = [duality._phi_max_alpha(f) for f in families]
    assert alphas == [_reference_alpha(f) for f in families]
    assert alphas[-3:] == [None, 2.0 ** -4, 2.0 ** -50]


def test_phi_max_alpha_evaluates_each_distinct_phi_once(monkeypatch):
    calls = []
    inner = Exponential._eval_array
    monkeypatch.setattr(Exponential, "_eval_array",
                        lambda self, x: calls.append(x.size) or inner(self, x))
    model = ScenarioModel(["a", "b"], [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    duality._phi_max_alpha(OrliczFamily.uniform(model, Exponential(8.0)))
    assert calls == [200]


# -- the weighted-L1 reduction's sups -------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_verify_l1_matches_per_pair_loop(seed):
    rng = np.random.default_rng(1203 + seed)
    model = random_model(rng)
    family = random_family(rng, model)
    rep = duality.verify_l1_reduction(model, family, sample_size=15, seed=seed)
    assert rep.applicable
    # the samples, drawn as the reduction draws them
    draw = np.random.default_rng(seed)
    samples = []
    for _ in range(15):
        x = np.abs(draw.normal(size=model.n_atoms)) + 0.05
        x *= draw.integers(1, 4)
        value = luxemburg_norm(model, x, family).value
        if 0 < value < INF:
            samples.append((np.where(model.support_mask, x, 0.0), value))
    pool = [(np.asarray(w["masses"]), w["theta"]) for w in rep.witnesses]
    max_gap, kappa_ok = 0.0, True
    for abs_x, value in samples:
        sup_pair = max(theta * float(np.dot(q, abs_x)) for q, theta in pool)
        max_gap = max(max_gap, abs(value - sup_pair) / value)
        if value > rep.kappa * float(np.max(abs_x)) * (1.0 + 1e-8):
            kappa_ok = False
    assert rep.n_samples == len(samples) == len(pool)
    # one product may sum E_Q|X| in another order than a dot product
    assert rep.max_rel_gap == pytest.approx(max_gap, rel=0.0, abs=1e-15)
    assert rep.kappa_bound_ok == kappa_ok


# -- Gaussian grid cap ----------------------------------------------------


class _GridBuilt(Exception):
    pass


@pytest.fixture
def no_grid(monkeypatch):
    """Stop `discretise_standard_normal` where it would build its grid."""
    def linspace(*args, **kwargs):
        raise _GridBuilt

    monkeypatch.setattr(diagnostics.np, "linspace", linspace)


@pytest.mark.parametrize("T, h", [(10.0, 1e-300), (1e300, 1.0), (5_000_000.5, 1.0)])
def test_grid_past_the_cap_is_refused(T, h, no_grid):
    with pytest.raises(ValidationError, match="exceeds"):
        discretise_standard_normal(T, h)


def test_grid_at_the_cap_passes(no_grid):
    # 2T/h = 10**7 exactly
    with pytest.raises(_GridBuilt):
        discretise_standard_normal(5_000_000.0, 1.0)


@pytest.mark.parametrize("argv", [["--h", "1e-300"], ["--T", "1e300", "--h", "1"]])
def test_moments_past_the_cap_exit_2(argv, capsys):
    assert main(["moments"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# -- tails report ---------------------------------------------------------


@pytest.fixture
def finite_files(tmp_path):
    model, family = tmp_path / "model.json", tmp_path / "family.json"
    model.write_text(json.dumps({"atoms": ["a", "b", "c"],
                                 "priors": [{"label": "P", "masses": [0.2, 0.3, 0.5]}]}))
    family.write_text(json.dumps({"uniform": {"kind": "power", "p": 2}}))
    return ["--model", str(model), "--family", str(family)]


def test_empty_levels_are_refused(model3):
    family = OrliczFamily.uniform(model3, Power(2.0))
    with pytest.raises(ValidationError):
        tail_membership([Truncation(model3, np.ones(3), family)], [])


def test_tails_with_empty_levels_exit_2(finite_files, capsys):
    assert main(["tails"] + finite_files + ["--x", "1,2,3", "--levels", ","]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_tail_slope_skips_infinite_norms():
    assert diagnostics._tail_slope([1.0, 2.0], [INF, INF]) is None
    assert diagnostics._tail_slope([1.0, 2.0, 3.0], [INF, 4.0, 2.0]) == pytest.approx(-math.log(2.0))


def test_tails_report_has_no_nan_slope(finite_files, capsys):
    assert main(["tails"] + finite_files + ["--x", "1,inf,3", "--levels", "1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slope"] is None
    assert report["tail_norms"] == ["inf", "inf"]
    assert report["verdict"] == "inconclusive"
