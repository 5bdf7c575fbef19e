"""Robust Luxemburg norms over a family of priors.

The norm is inf{lam > 0 : sup_P E_P[phi_P(|X|/lam)] <= 1}, which equals
the sup of the single-prior norms. It is computed as that sup, each
single-prior norm in closed form or by bracketing and bisection on
log(lam) (the modular is monotone in lam but may jump, as for the ess-sup
indicator, so derivative-free bracketing is the only safe strategy), and
certified on the joint modular at the two ends of a small bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .model import ScenarioModel, canonicalise, expectation
from .orlicz import OrliczFunction, Power, Scaled

INF = math.inf

DEFAULT_TOL = 1e-10
MAX_ITER = 200
_LAMBDA_CAP = 2.0 ** 1023
_LAMBDA_FLOOR = 1e-300
# half-width of the certified bracket in units of tol * max(1, value): the
# single-prior norms are within tol / 4 of theirs, so its ends straddle
# the norm with a margin, and it is narrower than tol
_CERT_HALF_WIDTH = 0.45


@dataclass(frozen=True)
class OrliczFamily:
    """Assignment of one Orlicz function to each prior of a model."""

    functions: Mapping[str, OrliczFunction]

    def __init__(self, functions: Mapping[str, OrliczFunction]):
        object.__setattr__(self, "functions", dict(functions))

    def phi(self, label: str) -> OrliczFunction:
        try:
            return self.functions[label]
        except KeyError:
            raise ValidationError(f"family has no Orlicz function for prior {label!r}") from None

    def check_model(self, model: ScenarioModel) -> None:
        missing = [l for l in model.prior_labels if l not in self.functions]
        if missing:
            raise ValidationError(f"family misses priors {missing}")

    def phi_max(self, x) -> float:
        return max(phi(x) for phi in self.functions.values())

    # -- constructors -----------------------------------------------------

    @staticmethod
    def uniform(model: ScenarioModel, phi: OrliczFunction) -> "OrliczFamily":
        return OrliczFamily({l: phi for l in model.prior_labels})

    @staticmethod
    def additively_penalised(model: ScenarioModel, phi: OrliczFunction,
                             gamma: Mapping[str, float]) -> "OrliczFamily":
        _check_labels(model, gamma, "gamma")
        return OrliczFamily({l: Scaled(phi, 1.0, 1.0 + float(gamma[l]))
                             for l in model.prior_labels})

    @staticmethod
    def multiplicatively_weighted(model: ScenarioModel, phi: OrliczFunction,
                                  theta: Mapping[str, float]) -> "OrliczFamily":
        _check_labels(model, theta, "theta")
        return OrliczFamily({l: Scaled(phi, float(theta[l]), 1.0)
                             for l in model.prior_labels})

    @staticmethod
    def doubly_penalised(model: ScenarioModel, phi: OrliczFunction,
                         theta: Mapping[str, float],
                         gamma: Mapping[str, float]) -> "OrliczFamily":
        _check_labels(model, theta, "theta")
        _check_labels(model, gamma, "gamma")
        return OrliczFamily({l: Scaled(phi, float(theta[l]), 1.0 + float(gamma[l]))
                             for l in model.prior_labels})

    @staticmethod
    def power_ladder(model: ScenarioModel, start: int = 1) -> "OrliczFamily":
        """Prior number n gets phi(x) = x**(start + n - 1)."""
        return OrliczFamily({l: Power(float(start + i))
                             for i, l in enumerate(model.prior_labels)})


def _check_labels(model: ScenarioModel, mapping: Mapping[str, float], name: str) -> None:
    missing = [l for l in model.prior_labels if l not in mapping]
    if missing:
        raise ValidationError(f"{name} misses priors {missing}")


@dataclass
class NormResult:
    """A robust norm with its certificate.

    `bracket` is the certified interval: the joint modular is <= 1 at
    bracket[1] and > 1 at bracket[0] (when bracket[0] > 0), so the norm
    lies in it; it is (0, 0) for a variable that vanishes on the support
    and (2**1023, inf) for an infinite norm. `modular_at_value` is the
    joint modular at bracket[1] (inf for an infinite norm). `iterations`
    counts the bisection steps of the single-prior norm that attains the
    sup (0 for a closed form).
    """

    value: float
    bracket: tuple
    modular_at_value: float
    iterations: int
    per_prior_norms: Dict[str, float]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "bracket": list(self.bracket),
            "modular_at_value": self.modular_at_value,
            "iterations": self.iterations,
            "per_prior_norms": dict(self.per_prior_norms),
        }


def _check_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError("tol must be finite and positive")


# -- modulars -------------------------------------------------------------


def single_prior_modular(prior: np.ndarray, phi: OrliczFunction,
                         abs_x: np.ndarray, lam: float) -> float:
    if lam <= 0:
        raise ValidationError("modular scale must be positive")
    pos = prior > 0.0
    if not np.any(pos):
        return 0.0
    vals = phi._eval_array(abs_x[pos] / lam)
    if np.any(np.isinf(vals)):
        return INF
    return float(np.dot(prior[pos], vals))


def modular(model: ScenarioModel, x, lam: float, family: OrliczFamily) -> float:
    """sup over priors of E_P[phi_P(|X| / lam)]."""
    family.check_model(model)
    abs_x = np.abs(canonicalise(model, x).values)
    best = 0.0
    for label, prior in zip(model.prior_labels, model.priors):
        m = single_prior_modular(prior, family.phi(label), abs_x, lam)
        if m > best:
            best = m
    return best


# -- norms ----------------------------------------------------------------


def _norm_bisection(pred: Callable[[float], bool], tol: float,
                    max_iter: int, scale: float = 1.0) -> tuple:
    """inf of the (upward-closed) set {lam : pred(lam)}.

    Stops once hi - lo <= tol * max(1 / scale, hi), which is the width
    bound tol * max(1, hi) in the units of scale * lam, without forming
    scale * hi (it may overflow).
    Returns (value, (lo, hi), iterations); value may be 0.0 or inf.
    """
    unit = 1.0 / scale
    it = 0
    if pred(1.0):
        hi, lo = 1.0, 0.5
        while pred(lo):
            hi, lo = lo, lo / 2.0
            it += 1
            if lo < _LAMBDA_FLOOR:
                return 0.0, (0.0, hi), it
    else:
        lo, hi = 1.0, 2.0
        while not pred(hi):
            lo, hi = hi, hi * 2.0
            it += 1
            if hi > _LAMBDA_CAP:
                return INF, (lo, INF), it
    while it < max_iter and hi - lo > tol * max(unit, hi):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
        it += 1
    return 0.5 * (lo + hi), (lo, hi), it


def single_prior_luxemburg(prior: np.ndarray, phi: OrliczFunction, x,
                           tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER,
                           with_steps: bool = False):
    """Luxemburg (semi)norm of X under one prior.

    Uses phi's closed form when it has one. Otherwise it bisects the norm
    of |X| / max|X| to a bracket tol / 2 * max(1, hi) wide in the units of
    X and scales back (exact by homogeneity; it keeps lam far from the
    float range's ends). With `with_steps` it returns (value, steps).
    """
    _check_tol(tol)
    abs_x = np.abs(np.asarray(x, dtype=float))
    pos = prior > 0.0
    a = abs_x[pos]
    top = float(np.max(a)) if a.size else 0.0
    value, steps = 0.0, 0
    if top == INF:
        value = INF
    elif top > 0.0:
        value = phi.luxemburg_closed_form(prior[pos], a)
        if value is not None and not 0.0 < value < INF:
            # the closed form over- or underflowed on |X| itself
            value = top * phi.luxemburg_closed_form(prior[pos], a / top)
        elif value is None:
            y = np.zeros_like(abs_x)
            y[pos] = a / top
            lam, _, steps = _norm_bisection(
                lambda lam: single_prior_modular(prior, phi, y, lam) <= 1.0,
                tol / 2.0, max_iter, scale=top)
            value = top * lam
    return (value, steps) if with_steps else value


def sup_prior_norms(model: ScenarioModel, abs_x: np.ndarray, family: OrliczFamily,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = MAX_ITER) -> Tuple[float, Dict[str, float], int]:
    """sup_P ||X||_P for a canonical |X|: returns the sup, the per-prior
    norms, and the bisection steps of the prior attaining the sup."""
    per_prior: Dict[str, float] = {}
    best, best_steps = 0.0, 0
    for label, prior in zip(model.prior_labels, model.priors):
        value, steps = single_prior_luxemburg(prior, family.phi(label), abs_x, tol,
                                              max_iter, with_steps=True)
        per_prior[label] = value
        if value > best:
            best, best_steps = value, steps
    return best, per_prior, best_steps


def _certify(model: ScenarioModel, abs_x: np.ndarray, value: float, delta: float,
             phis: Mapping[str, OrliczFunction], offsets: Mapping[str, float],
             first: str) -> Tuple[tuple, float]:
    """Certify value = inf{lam : M(lam) <= 1} within delta, where
    M(lam) = sup_P (E_P[phi_P(|X|/lam)] - offset_P): M <= 1 at value +
    delta and M > 1 at value - delta if positive; 0 only for |X| = 0 on
    the support; inf by M > 1 at 2**1023. Returns (bracket, M at its upper
    end) or raises ConsistencyError. Prior `first` is tried first where
    one prior above 1 settles the check.
    """
    pairs = list(zip(model.prior_labels, model.priors))
    pairs.insert(0, pairs.pop(model.prior_labels.index(first)))

    def joint(lam: float, stop_above_one: bool) -> float:
        best = -INF
        for label, prior in pairs:
            m = single_prior_modular(prior, phis[label], abs_x, lam)
            best = max(best, m - offsets[label])
            if stop_above_one and best > 1.0:
                break
        return best

    if value == 0.0:
        if np.any(abs_x > 0.0):
            raise ConsistencyError("norm 0 reported for a variable nonzero on the support")
        return (0.0, 0.0), 0.0
    if value == INF:
        at_cap = joint(_LAMBDA_CAP, True)
        if not at_cap > 1.0:
            raise ConsistencyError(
                f"norm inf reported but the joint modular is {at_cap!r} <= 1 at {_LAMBDA_CAP!r}")
        return (_LAMBDA_CAP, INF), INF
    lo, hi = value - delta, value + delta
    at_hi = joint(hi, False)
    if not at_hi <= 1.0:
        raise ConsistencyError(
            f"joint modular {at_hi!r} > 1 at {hi!r}, above the sup of "
            f"per-prior norms {value!r}")
    if lo > 0.0:
        at_lo = joint(lo, True)
        if not at_lo > 1.0:
            raise ConsistencyError(
                f"joint modular {at_lo!r} <= 1 at {lo!r}, below the sup of "
                f"per-prior norms {value!r}")
    return (max(lo, 0.0), hi), at_hi


def _argmax(values: Mapping[str, float]) -> str:
    return max(values, key=values.__getitem__)


def luxemburg_norm(model: ScenarioModel, x, family: OrliczFamily,
                   tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER) -> NormResult:
    """Robust Luxemburg norm with per-prior breakdown.

    The value is the sup of the per-prior norms, certified on the joint
    modular: it must be <= 1 at value + 0.45 tol max(1, value) and > 1 at
    value - 0.45 tol max(1, value), or ConsistencyError is raised, since
    the two expressions are definitionally equal. `max_iter` bounds each
    single-prior bisection.
    """
    family.check_model(model)
    abs_x = np.abs(canonicalise(model, x).values)
    value, per_prior, steps = sup_prior_norms(model, abs_x, family, tol, max_iter)
    bracket, mod_at = _certify(
        model, abs_x, value, _CERT_HALF_WIDTH * tol * max(1.0, value),
        family.functions, dict.fromkeys(model.prior_labels, 0.0), _argmax(per_prior))
    return NormResult(value=value, bracket=bracket, modular_at_value=mod_at,
                      iterations=steps, per_prior_norms=per_prior)


def penalised_norm(model: ScenarioModel, x, phi: OrliczFunction,
                   gamma: Mapping[str, float], tol: float = DEFAULT_TOL,
                   max_iter: int = MAX_ITER) -> NormResult:
    """inf{lam : sup_P (E_P[phi(|X|/lam)] - gamma(P)) <= 1}.

    Equal to the robust norm of the family phi_P = phi / (1 + gamma_P),
    whose result is returned after certifying its value v on the
    penalised modular itself at v -+ 2 tol max(1, v).
    """
    _check_labels(model, gamma, "gamma")
    if not all(float(g) >= 0 for g in gamma.values()):
        raise ValidationError("penalties must be nonnegative")
    abs_x = np.abs(canonicalise(model, x).values)
    family = OrliczFamily.additively_penalised(model, phi, gamma)
    res = luxemburg_norm(model, abs_x, family, tol=tol, max_iter=max_iter)
    _certify(model, abs_x, res.value, 2.0 * tol * max(1.0, res.value),
             dict.fromkeys(model.prior_labels, phi),
             {l: float(gamma[l]) for l in model.prior_labels},
             _argmax(res.per_prior_norms))
    return res


def weighted_lp_norm(model: ScenarioModel, x, p: float,
                     theta: Mapping[str, float]) -> float:
    """sup_P theta(P) * ||X||_{L^p(P)} in closed form; p may be inf."""
    if p < 1.0:
        raise ValidationError("p must be at least 1")
    _check_labels(model, theta, "theta")
    if any(float(t) <= 0 or not math.isfinite(float(t)) for t in theta.values()):
        raise ValidationError("theta must be finite and positive")
    abs_x = np.abs(canonicalise(model, x).values)
    best = 0.0
    for label, prior in zip(model.prior_labels, model.priors):
        pos = prior > 0.0
        if not np.any(pos):
            continue
        if math.isinf(p):
            n = float(np.max(abs_x[pos]))
        else:
            n = float(np.dot(prior[pos], abs_x[pos] ** p) ** (1.0 / p))
        best = max(best, float(theta[label]) * n)
    return best


def risk_measure(model: ScenarioModel, x, gamma: Mapping[str, float]) -> float:
    """rho(X) = sup_P E_P[X] - gamma(P) for X >= 0 quasi-surely."""
    _check_labels(model, gamma, "gamma")
    xc = canonicalise(model, x).values
    if np.any(xc < 0):
        raise ValidationError("risk_measure expects a nonnegative claim")
    return max(
        expectation(prior, xc) - float(gamma[label])
        for label, prior in zip(model.prior_labels, model.priors)
    )
