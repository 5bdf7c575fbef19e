"""The definition route of the Köthe dual norm (method="brute"): the sup
of mu s over the unit ball, solved as one LP or by SLSQP, against the
conjugate route; and the input contract of `kothe_dual_norm` ahead of its
zero-measure shortcut."""

import json

import numpy as np
import pytest

from robust_orlicz import (EssSupIndicator, Exponential,
                           PiecewiseLinear, Power, Scaled, ValidationError,
                           kothe_dual_norm)
from robust_orlicz.cli import main
from robust_orlicz.preferences import (AggregateOrlicz, CARAUtility, LinearUtility,
                                       PiecewiseLinearUtility)

from conftest import random_prior


def _cara(rng):
    return CARAUtility.normalised(float(rng.uniform(0.5, 3.0)))


def _divisor(rng):
    return 1.0 + float(rng.uniform(0.0, 2.0))


def _piecewise(rng, bounded):
    n = int(rng.integers(1, 4))
    bps = np.sort(rng.uniform(0.0, 2.0, size=n))
    slopes = np.sort(rng.uniform(0.1, 3.0, size=n))
    return PiecewiseLinear(bps, slopes, float(bps[-1] + rng.uniform(0.5, 2.0)) if bounded else None)


STOCK = [
    lambda rng: Power(float(rng.uniform(1.0, 3.0))),
    lambda rng: Power(1.0),
    lambda rng: Exponential(float(rng.uniform(0.5, 2.0))),
    lambda rng: _piecewise(rng, bounded=False),
    lambda rng: _piecewise(rng, bounded=True),
    lambda rng: EssSupIndicator(),
    lambda rng: Scaled(Exponential(float(rng.uniform(0.5, 2.0))),
                       float(rng.uniform(0.5, 2.0)), _divisor(rng)),
    lambda rng: Scaled(Power(float(rng.uniform(1.0, 2.5))),
                       float(rng.uniform(0.5, 2.0)), _divisor(rng)),
]
AGGREGATES = [
    lambda rng: AggregateOrlicz([(LinearUtility(float(rng.uniform(0.5, 2.0))), _divisor(rng)),
                                 (_cara(rng), _divisor(rng))]),
    lambda rng: AggregateOrlicz([(_cara(rng), _divisor(rng)), (_cara(rng), _divisor(rng))]),
    lambda rng: AggregateOrlicz([(PiecewiseLinearUtility(np.sort(rng.uniform(-2.0, 2.0, size=2)),
                                                         -np.sort(-rng.uniform(0.2, 3.0, size=3))),
                                  _divisor(rng)),
                                 (_cara(rng), _divisor(rng))]),
]


def _measure(rng):
    n = int(rng.integers(2, 13))
    prior = random_prior(rng, n)
    mu = prior * rng.exponential(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return mu, prior


def test_routes_agree_on_every_class():
    rng = np.random.default_rng(1970)
    for make in STOCK * 3 + AGGREGATES * 2:
        phi = make(rng)
        mu, prior = _measure(rng)
        both = kothe_dual_norm(mu, prior, phi, method="both")  # raises beyond 1e-6
        if make in STOCK:
            brute = kothe_dual_norm(mu, prior, phi, method="brute")
            assert abs(brute - both) <= 1e-9 * max(1.0, both), (phi, mu, prior)


def _light_measure(rng):
    # mu on atoms 10^U(-20, -3) times lighter than the rest, half the time
    # also on the rest
    n = int(rng.integers(2, 13))
    prior = rng.exponential(size=n)
    light = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    prior[light] *= 10.0 ** rng.uniform(-20.0, -3.0, size=light.size)
    prior /= prior.sum()
    mu = prior * rng.exponential(size=n) * rng.integers(0, 2)
    mu[light] += rng.exponential(size=light.size)
    return mu * 10.0 ** rng.uniform(-3.0, 3.0), prior


def test_routes_agree_where_mu_sits_on_light_atoms():
    rng = np.random.default_rng(1930)
    for make in STOCK * 2 + AGGREGATES:
        phi = make(rng)
        mu, prior = _light_measure(rng)
        both = kothe_dual_norm(mu, prior, phi, method="both")
        if make in STOCK:
            brute = kothe_dual_norm(mu, prior, phi, method="brute")
            assert abs(brute - both) <= 1e-9 * max(1.0, both), (phi, mu, prior)


def test_aggregate_with_its_exact_derivative():
    # the worst instance of a 900-instance aggregate sweep (`_measure`,
    # seed 41): with the forward-difference derivative the SLSQP end point
    # was 3.3e-8 below the conjugate route, 526.9105194511
    phi = AggregateOrlicz([(LinearUtility(1.6814702848419152), 1.141731992271101),
                           (CARAUtility(beta=2.0131174516925547, scale=0.15416348913132874),
                            2.438758687564367)])
    mu = np.array([36.73415180635315, 10.654139543372779, 19.268275380950442,
                   79.22885924581075, 95.12906551145618, 27.339619937002954,
                   46.10931773566116, 31.706547337228614, 3.4142297787564355,
                   2.841837024444969, 28.7798383341395])
    prior = np.array([0.0773876608724879, 0.1283696026542097, 0.07356920837375934,
                      0.10026391121659799, 0.08132949062834605, 0.056097588821597565,
                      0.06720940023954494, 0.08562929775897177, 0.037607402419488435,
                      0.24260303288293966, 0.049933404132056526])
    conjugate = kothe_dual_norm(mu, prior, phi)
    assert conjugate == pytest.approx(526.9105367985421, rel=1e-12)
    assert kothe_dual_norm(mu, prior, phi, method="brute") == pytest.approx(conjugate, rel=1e-9)


# the dual norm sqrt(sum mu^2 / P) = sqrt(1.5) 1e10: the distance to the
# hyperplane, 8.2e-11, is far below the entries of its points
LIGHT_PAIR = np.array([1.0 - 3e-20, 1e-20, 2e-20]), np.array([0.0, 1.0, 1.0])


@pytest.mark.parametrize("tol", [1e-10, 1e-2])
def test_distance_far_below_the_target(tol):
    prior, mu = LIGHT_PAIR
    got = kothe_dual_norm(mu, prior, Power(2.0), tol=tol, method="brute")
    assert got == pytest.approx(np.sqrt(1.5) * 1e10, rel=max(1e-9, tol))
    assert kothe_dual_norm(mu, prior, Power(2.0), method="both") == pytest.approx(
        np.sqrt(1.5) * 1e10, rel=1e-9)


def test_no_atom_cap_and_no_draws():
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    prior = np.full(9, 1.0 / 9.0)
    got = kothe_dual_norm(np.arange(1.0, 10.0), prior, Power(2.0), method="both", rng=rng)
    assert got == pytest.approx(np.sqrt(9.0 * np.sum(np.arange(1.0, 10.0) ** 2)), rel=1e-12)
    assert rng.bit_generator.state == state


def test_subnormal_prior_mass_on_the_hyperplane_route():
    # the conjugate route returns inf here (see test_conjugate_minimisers)
    prior = np.array([1.0, 2.2250738585e-313])
    got = kothe_dual_norm([0.0, 1.0], prior, Power(2.0), method="brute")
    assert got == pytest.approx(2.2250738585e-313 ** -0.5, rel=1e-9)


# Z = mu / P = (0.5, 3) with the larger density on an atom of mass 1e-10
LIGHT_ATOM = np.array([1.0 - 1e-10, 1e-10]), np.array([0.5, 3e-10])


def test_vertex_start_on_a_light_atom():
    # the dual of L^1(P) is max Z, attained at the vertex e_2 / mu_2
    prior, mu = LIGHT_ATOM
    assert kothe_dual_norm(mu, prior, Power(1.0), method="both") == pytest.approx(3.0, rel=1e-12)


def test_kinked_phi_on_a_light_atom():
    # phi*(y) = y / 2 for y <= 1: the conjugate route's 3 + 0.5 sum mu is exact
    prior, mu = LIGHT_ATOM
    got = kothe_dual_norm(mu, prior, PiecewiseLinear([0.5], [1.0]), method="brute")
    assert got == pytest.approx(3.25 + 1.5e-10, rel=1e-9)


class TestContract:
    def test_unknown_method_on_the_zero_measure(self):
        with pytest.raises(ValidationError, match="unknown method"):
            kothe_dual_norm(np.zeros(2), [0.5, 0.5], Power(2.0), method="bogus")

    @pytest.mark.parametrize("method", ["conjugate", "brute", "both"])
    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_tol_on_every_route(self, method, tol):
        for mu in ([1.0, 2.0], [0.0, 0.0]):
            with pytest.raises(ValidationError, match="tol"):
                kothe_dual_norm(mu, [0.5, 0.5], Power(2.0), tol=tol, method=method)


def _cli(tmp_path, capsys, masses, family, mu, method):
    mpath, fpath = tmp_path / "m.json", tmp_path / "f.json"
    mpath.write_text(json.dumps({"atoms": [f"w{i}" for i in range(len(masses))],
                                 "priors": [{"label": "P1", "masses": masses}]}))
    fpath.write_text(json.dumps({"uniform": family}))
    rc = main(["dual-norm", "--model", str(mpath), "--family", str(fpath), "--mu", mu,
               "--method", method, "--format", "text"])
    return rc, capsys.readouterr().out.strip()


def test_cli_both_on_nine_atoms(tmp_path, capsys):
    rc, out = _cli(tmp_path, capsys, [1.0 / 9.0] * 9, {"kind": "power", "p": 2},
                   "1,2,3,4,5,6,7,8,9", "both")
    assert (rc, out) == (0, "50.6458290484")


def test_cli_both_on_a_light_atom(tmp_path, capsys):
    prior, _ = LIGHT_ATOM
    rc, out = _cli(tmp_path, capsys, list(prior),
                   {"kind": "piecewise_linear", "breakpoints": [0.5], "slopes": [1.0]},
                   "0.5,3e-10", "both")
    assert (rc, out) == (0, "3.25000000015")


# Z = mu / P = (0, 1e300): the infimum over k is approached as k -> inf,
# and the conjugate route returns the limit b sum w z exactly; a finite k
# would leave level / k beside a limit of 1e-300
TINY_TAIL = np.array([1.0, 1e-300])
TAIL_CASES = [(EssSupIndicator(), 1.0),
              (PiecewiseLinear([0.0, 0.5], [0.5, 2.0], bound=3.0), 3.0),
              (Scaled(EssSupIndicator(), 2.0, 1.5), 0.5),
              (Scaled(PiecewiseLinear([0.0, 0.5], [0.5, 2.0], bound=3.0), 2.0, 1.7), 1.5)]


@pytest.mark.parametrize("phi, want", TAIL_CASES, ids=repr)
def test_conjugate_route_on_a_tiny_tail(phi, want):
    assert kothe_dual_norm([0.0, 1.0], TINY_TAIL, phi) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("phi, want", TAIL_CASES, ids=repr)
def test_hyperplane_route_on_a_tiny_tail(phi, want):
    assert kothe_dual_norm([0.0, 1.0], TINY_TAIL, phi, method="brute") == pytest.approx(
        want, rel=1e-9)


@pytest.mark.parametrize("phi, want", TAIL_CASES, ids=repr)
def test_both_routes_agree_on_the_tiny_tail(phi, want):
    assert kothe_dual_norm([0.0, 1.0], TINY_TAIL, phi, method="both") == pytest.approx(
        want, rel=1e-9)


def test_cli_both_on_the_tiny_tail_exits_0(tmp_path, capsys):
    rc, out = _cli(tmp_path, capsys, list(TINY_TAIL), {"kind": "ess_sup"}, "0,1", "both")
    assert (rc, float(out)) == (0, pytest.approx(1.0, rel=1e-9))
