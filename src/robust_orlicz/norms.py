"""Robust Luxemburg norms over a family of priors.

The norm is inf{lam > 0 : sup_P E_P[phi_P(|X|/lam)] <= 1}, which equals
the sup of the single-prior norms. It is computed as that sup, each
single-prior norm in closed form or by bracketed root-finding on
log(lam) to a relative width tol / 2 (the modular is monotone in lam but
may jump or vanish, as at a domain bound or below a first breakpoint, so
every step stays inside a bracket and falls back to the geometric
midpoint), and certified on the joint modular at the two ends of a small
bracket.

The model-level kernels (`sup_prior_norms`, the certificate, `modular`)
work per group of equal priors (`ScenarioModel.prior_groups`): each call
gathers the prior's masses and |X| once per group, on the atoms the prior
charges where X is nonzero, and runs every phi of the group on those
compact arrays. Atoms where X is 0 are dropped because phi(0) = 0; that
changes only the summation order of a modular, so results are
bit-identical to the per-prior route wherever X has no zero on the
support. `single_prior_luxemburg` and `single_prior_modular` gather on
prior > 0 alone and keep their exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .model import ScenarioModel, canonicalise, expectation
from .orlicz import OrliczFunction, Power, Scaled

INF = math.inf

DEFAULT_TOL = 1e-10
MAX_ITER = 200
_LAMBDA_CAP = 2.0 ** 1023
_LAMBDA_FLOOR = 1e-300
# |log2| of the magnitudes a closed form may raise |X| to: past it, the
# closed form is taken on |X| / max|X| (2**1000 is inside the float range)
_EXP_RANGE = 1000.0
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
    counts the root-finder steps of the single-prior norm that attains
    the sup (0 for a closed form).
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


def _check_scale(lam: float) -> None:
    if not lam > 0:
        raise ValidationError("modular scale must be positive")


def _compact_modular(w: np.ndarray, a: np.ndarray, phi: OrliczFunction,
                     lam: float) -> float:
    """sum w * phi(a / lam) for positive masses w; phi >= 0, so the dot
    product is inf exactly when some phi(a / lam) is."""
    return float(np.dot(w, phi._eval_array(a / lam)))


def _compact_groups(model: ScenarioModel, abs_x: np.ndarray,
                    first: Optional[str] = None) -> Iterator[tuple]:
    """(labels, masses, |X|) per group of equal priors, on the atoms the
    prior charges where |X| > 0; gathered one group at a time. With
    `first`, that prior's group comes first and the prior first in it."""
    labels, groups = model.prior_labels, model.prior_groups
    if first is not None:
        k = labels.index(first)
        groups = sorted((sorted(g, key=lambda i: i != k) for g in groups),
                        key=lambda g: g[0] != k)
    nonzero = abs_x > 0.0
    for group in groups:
        prior = model.priors[group[0]]
        keep = (prior > 0.0) & nonzero
        yield [labels[i] for i in group], prior[keep], abs_x[keep]


def single_prior_modular(prior: np.ndarray, phi: OrliczFunction,
                         abs_x: np.ndarray, lam: float) -> float:
    _check_scale(lam)
    pos = prior > 0.0
    return _compact_modular(prior[pos], abs_x[pos], phi, lam)


def modular(model: ScenarioModel, x, lam: float, family: OrliczFamily) -> float:
    """sup over priors of E_P[phi_P(|X| / lam)]; the same sums as the
    certificate's joint modular."""
    family.check_model(model)
    _check_scale(lam)
    abs_x = np.abs(canonicalise(model, x).values)
    best = 0.0
    for labels, w, a in _compact_groups(model, abs_x):
        for label in labels:
            m = _compact_modular(w, a, family.phi(label), lam)
            if m > best:
                best = m
    return best


# -- norms ----------------------------------------------------------------


def _norm_bisection(mod: Callable[[float], float], tol: float,
                    max_iter: int) -> tuple:
    """inf{lam > 0 : mod(lam) <= 1} for a nonincreasing modular `mod`.

    Brackets the root by halving or doubling lam from 1, then narrows the
    bracket [lo, hi] (mod(lo) > 1 >= mod(hi)) until hi - lo <= tol * hi,
    by Illinois regula falsi on (log lam, log mod). Each step lands at
    least tol * hi / 2 inside the bracket, so an estimate at the root
    closes the bracket from the far side. The step is the geometric
    midpoint instead while an end's modular is 0 or inf (no secant
    through it: a zero region, a domain bound, a jump) and after two
    steps in a row that moved the same end without halving log(hi / lo),
    which keeps the worst case near bisection's step count.
    Returns (value, (lo, hi), steps); value may be 0.0 or inf.
    """
    it = 0
    m = mod(1.0)
    if m <= 1.0:
        hi, m_hi, lo = 1.0, m, 0.5
        m_lo = mod(lo)
        while m_lo <= 1.0:
            hi, m_hi, lo = lo, m_lo, lo / 2.0
            it += 1
            if lo < _LAMBDA_FLOOR:
                return 0.0, (0.0, hi), it
            m_lo = mod(lo)
    else:
        lo, m_lo, hi = 1.0, m, 2.0
        m_hi = mod(hi)
        while m_hi > 1.0:
            lo, m_lo, hi = hi, m_hi, hi * 2.0
            it += 1
            if hi > _LAMBDA_CAP:
                return INF, (lo, INF), it
            m_hi = mod(hi)
    # Illinois weights: the log modular at each end, halved at an end
    # that two steps in a row kept
    f_lo = math.log(m_lo) if m_lo < INF else None
    f_hi = math.log(m_hi) if m_hi > 0.0 else None
    last_hi, slow = None, 0
    width = math.log(hi / lo)
    while it < max_iter and hi - lo > tol * hi:
        if slow >= 2 or f_lo is None or f_hi is None:
            c = math.sqrt(lo) * math.sqrt(hi)
        else:
            # log mod is about linear in log lam: the root sits a share
            # f_hi / (f_hi - f_lo) of the log-width below hi
            c = hi * (lo / hi) ** (f_hi / (f_hi - f_lo))
            c = min(max(c, lo + 0.5 * tol * hi), hi - 0.5 * tol * hi)
        if not lo < c < hi:
            c = 0.5 * (lo + hi)
            if not lo < c < hi:
                break
        m = mod(c)
        it += 1
        moved_hi = m <= 1.0
        if moved_hi:
            hi = c
            f_hi = math.log(m) if m > 0.0 else None
            if last_hi and f_lo is not None:
                f_lo /= 2.0
        else:
            lo = c
            f_lo = math.log(m) if m < INF else None
            if last_hi is False and f_hi is not None:
                f_hi /= 2.0
        # a slow step: the same end moved again and log(hi / lo) did not halve
        new_width = math.log(hi / lo)
        slow = slow + 1 if moved_hi == last_hi and new_width > 0.5 * width else 0
        last_hi, width = moved_hi, new_width
    return 0.5 * (lo + hi), (lo, hi), it


def _compact_norm(w: np.ndarray, a: np.ndarray, phi: OrliczFunction,
                  tol: float, max_iter: int) -> Tuple[float, int]:
    """(norm, root-finder steps) of |X| under one prior, from the prior's
    positive masses w and |X| on those atoms (atoms where X is 0 may be
    left out)."""
    top = float(np.max(a)) if a.size else 0.0
    if top == INF:
        return INF, 0
    if top == 0.0:
        return 0.0, 0
    degree = phi.homogeneity_degree
    if degree is not None and degree < INF and abs(degree * math.log2(top)) > _EXP_RANGE:
        # |X|**degree would leave the float range: take the closed form
        # of |X| / max|X| and scale back (exact by homogeneity)
        value = top * phi.luxemburg_closed_form(w, a / top)
    else:
        value = phi.luxemburg_closed_form(w, a)
    if value is not None:
        return value, 0
    y = a / top
    lam, _, steps = _norm_bisection(lambda lam: _compact_modular(w, y, phi, lam),
                                    tol / 2.0, max_iter)
    return top * lam, steps


def single_prior_luxemburg(prior: np.ndarray, phi: OrliczFunction, x,
                           tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER,
                           with_steps: bool = False):
    """Luxemburg (semi)norm of X under one prior.

    Uses phi's closed form when it has one. Otherwise it finds the norm
    of |X| / max|X| by bracketed root-finding (`_norm_bisection`) to a
    bracket [lo, hi] with hi - lo <= tol / 2 * hi and scales back (exact
    by homogeneity, so the relative accuracy is the same at every scale;
    it keeps lam far from the float range's ends). With `with_steps` it
    returns (value, steps).
    """
    _check_tol(tol)
    pos = prior > 0.0
    value, steps = _compact_norm(prior[pos], np.abs(np.asarray(x, dtype=float))[pos],
                                 phi, tol, max_iter)
    return (value, steps) if with_steps else value


def sup_prior_norms(model: ScenarioModel, abs_x: np.ndarray, family: OrliczFamily,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = MAX_ITER) -> Tuple[float, Dict[str, float], int]:
    """sup_P ||X||_P for a canonical |X|: returns the sup, the per-prior
    norms, and the root-finder steps of the prior attaining the sup."""
    _check_tol(tol)
    found: Dict[str, Tuple[float, int]] = {}
    for labels, w, a in _compact_groups(model, abs_x):
        for label in labels:
            found[label] = _compact_norm(w, a, family.phi(label), tol, max_iter)
    per_prior: Dict[str, float] = {}
    best, best_steps = 0.0, 0
    for label in model.prior_labels:
        value, steps = found[label]
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
    one prior above 1 settles the check. Both ends are evaluated in one
    pass over the prior groups.
    """

    def joint(hi: Optional[float], lo: Optional[float]) -> Tuple[float, float]:
        # M at hi over every prior; M at lo only until it exceeds 1
        at_hi = at_lo = -INF
        for labels, w, a in _compact_groups(model, abs_x, first):
            for label in labels:
                phi, offset = phis[label], offsets[label]
                if hi is not None:
                    at_hi = max(at_hi, _compact_modular(w, a, phi, hi) - offset)
                if lo is not None and not at_lo > 1.0:
                    at_lo = max(at_lo, _compact_modular(w, a, phi, lo) - offset)
        return at_hi, at_lo

    if value == 0.0:
        if np.any(abs_x > 0.0):
            raise ConsistencyError("norm 0 reported for a variable nonzero on the support")
        return (0.0, 0.0), 0.0
    if value == INF:
        at_cap = joint(None, _LAMBDA_CAP)[1]
        if not at_cap > 1.0:
            raise ConsistencyError(
                f"norm inf reported but the joint modular is {at_cap!r} <= 1 at {_LAMBDA_CAP!r}")
        return (_LAMBDA_CAP, INF), INF
    lo, hi = value - delta, value + delta
    at_hi, at_lo = joint(hi, lo if lo > 0.0 else None)
    if not at_hi <= 1.0:
        raise ConsistencyError(
            f"joint modular {at_hi!r} > 1 at {hi!r}, above the sup of "
            f"per-prior norms {value!r}")
    if lo > 0.0:
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
    single-prior root-finder.
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
