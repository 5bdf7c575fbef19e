"""Closure and membership diagnostics on truncated countable models.

Asymptotic statements (tail-norm membership in the closure of bounded
variables, the gap between the worst-case space and the per-prior
intersection space, moment explosion of a standard Gaussian under a
power ladder) are probed on ladders of finite truncations. Verdicts are
three-valued and always report the truncation at which values
stabilised; the tool produces evidence, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .model import MeasureVector, ScenarioModel, canonicalise
from .norms import DEFAULT_TOL, OrliczFamily, _blocks, _modulars, sup_prior_norms

INF = math.inf

EPS_TAIL = 1e-6
SLOPE_THRESHOLD = -0.1
DIVERGENT_FLOOR = 1e-2
DIVERGENT_RATIO = 0.9
STABLE_REL_CHANGE = 1e-6
TREND_REL_CHANGE = 1e-3
# most points a discretised normal may have
MAX_GRID_POINTS = 10 ** 7


# -- truncated Gaussian models -------------------------------------------


def discretise_standard_normal(T: float = 10.0, h: float = 1e-3):
    """Midpoint-quadrature discretisation of N(0,1) on [-T, T].

    Returns (values, probabilities) with the mass renormalised to 1; at
    most 10**7 points, 2T/h.
    """
    if not 0.0 < h < T < math.inf:
        raise ValidationError("need 0 < h < T < inf")
    if 2.0 * T / h > MAX_GRID_POINTS:
        raise ValidationError(f"grid of 2T/h = {2.0 * T / h:.6g} points exceeds "
                              f"{MAX_GRID_POINTS} points")
    n = int(round(2.0 * T / h))
    values = np.linspace(-T + 0.5 * h, T - 0.5 * h, n)
    w = np.exp(-0.5 * values ** 2)
    return values, w / w.sum()


def _log_gaussian_abs_moment(n: int) -> float:
    return 0.5 * n * math.log(2.0) + math.lgamma(0.5 * (n + 1)) - 0.5 * math.log(math.pi)


def gaussian_abs_moment(n: int) -> float:
    """E|U|^n = 2^{n/2} Gamma((n+1)/2) / sqrt(pi) for U standard normal;
    inf past the float range (n >= 302)."""
    if n < 0:
        raise ValidationError("moment order must be nonnegative")
    try:
        return math.exp(_log_gaussian_abs_moment(n))
    except OverflowError:
        return INF


@dataclass
class Truncation:
    """One rung of a ladder: a finite model, the variable, its family."""

    model: ScenarioModel
    x: np.ndarray
    family: OrliczFamily
    label: str = ""


def gaussian_power_ladder(n_priors: int, T: float = 10.0,
                          h: float = 1e-3) -> Truncation:
    """Discretised standard normal with priors P_1..P_n all equal to its
    law and per-prior Orlicz functions phi_{P_n}(x) = x^n."""
    if n_priors < 1:
        raise ValidationError("need at least one prior")
    values, probs = discretise_standard_normal(T, h)
    atoms = [f"u{i}" for i in range(values.size)]
    model = ScenarioModel(atoms, [probs] * n_priors)
    family = OrliczFamily.power_ladder(model, start=1)
    return Truncation(model=model, x=values, family=family,
                      label=f"n={n_priors},T={T}")


def gaussian_uniform_family_ladder(phi, truncations: Sequence[float],
                                   h: float = 1e-3) -> List[Truncation]:
    """Single-prior discretised normal at increasing truncation ranges,
    the same Orlicz function at every rung."""
    out = []
    for T in truncations:
        values, probs = discretise_standard_normal(T, h)
        atoms = [f"u{i}" for i in range(values.size)]
        model = ScenarioModel(atoms, [probs])
        out.append(Truncation(model=model, x=values,
                              family=OrliczFamily.uniform(model, phi),
                              label=f"T={T}"))
    return out


def _canonical_abs(t: Truncation) -> np.ndarray:
    return np.abs(canonicalise(t.model, t.x).values)


def _robust_norm(t: Truncation, abs_x: Optional[np.ndarray] = None,
                 tol: float = DEFAULT_TOL) -> float:
    """Robust norm of one rung as the sup of per-prior norms (uncertified;
    cheap closed forms apply per prior); `abs_x` is a canonical |X| on the
    rung's model, |t.x| by default."""
    if abs_x is None:
        abs_x = _canonical_abs(t)
    return sup_prior_norms(t.model, abs_x, t.family, tol)[0]


# -- moment growth --------------------------------------------------------


@dataclass
class MomentGrowthReport:
    roots: List[float]
    oracle_roots: List[float]
    deviation_flags: List[bool]
    hard_flags: List[bool]


def moment_growth(values: np.ndarray, probs: np.ndarray,
                  n_max: int) -> MomentGrowthReport:
    """n-th root moments E[|U|^n]^{1/n} for n = 1..n_max.

    Checks the sequence is nondecreasing (power-mean inequality, exact)
    and compares against the closed-form untruncated Gaussian values,
    flagging relative deviation > 1% (soft) and > 10% (hard). Both roots
    stay in the float range: the sample's is max|U| E[(|U| / max|U|)^n]^{1/n}
    and the oracle's exp(log E|U|^n / n).
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    abs_v = np.abs(np.asarray(values, dtype=float))
    probs = np.asarray(probs, dtype=float)
    top = float(abs_v.max(initial=0.0))
    scale = top if 0.0 < top < INF else 1.0
    y = abs_v / scale
    roots, oracle, soft, hard = [], [], [], []
    for n in range(1, n_max + 1):
        m = scale * float(np.dot(probs, y ** n)) ** (1.0 / n)
        o = math.exp(_log_gaussian_abs_moment(n) / n)
        dev = abs(m - o) / o
        roots.append(m)
        oracle.append(o)
        soft.append(dev > 0.01)
        hard.append(dev > 0.10)
    for a, b in zip(roots, roots[1:]):
        if b < a:
            raise ValidationError("n-th root moment sequence must be nondecreasing")
    return MomentGrowthReport(roots=roots, oracle_roots=oracle,
                              deviation_flags=soft, hard_flags=hard)


# -- tail-norm membership -------------------------------------------------


@dataclass
class TailProfile:
    levels: List[float]
    tail_norms: List[float]
    stable: List[bool]
    verdict: str
    slope: Optional[float]
    finest_label: str


def _tail_slope(levels, norms) -> Optional[float]:
    """Least-squares slope of log tail norm against level, over the
    positive finite tail norms; None with fewer than two of them."""
    pts = [(l, math.log(v)) for l, v in zip(levels, norms) if 0.0 < v < INF]
    if len(pts) < 2:
        return None
    ls = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(ls, ys, 1)[0])


def tail_membership(ladder: Sequence[Truncation],
                    levels: Sequence[float],
                    tol: float = DEFAULT_TOL) -> TailProfile:
    """Tail norms ||X 1_{|X|>n}|| per level, at the finest truncation;
    `stable` says whether that value changed by less than 1e-6 relative
    from the rung before (always True on a one-rung ladder).

    Verdict: convergent if the last tail norm < 1e-6 with slope of
    log tail norm against level below -0.1 (or all tails exactly 0);
    divergent if three consecutive levels stay above 1e-2 without
    decaying by more than a factor 0.9; inconclusive otherwise.
    """
    if not ladder:
        raise ValidationError("empty truncation ladder")
    levels = [float(l) for l in levels]
    if not levels:
        raise ValidationError("need at least one level")
    if np.isnan(levels).any():
        raise ValidationError("levels must not contain NaN")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValidationError("levels must be strictly ascending")
    # every rung is canonicalised (and so validated); only the last two
    # rungs' norms are read
    last = list(zip(ladder, [_canonical_abs(t) for t in ladder]))[-2:]
    tail_norms, stable = [], []
    for lev in levels:
        # zero wherever |X| is, so still canonical
        vals = [_robust_norm(t, np.where(abs_x > lev, abs_x, 0.0), tol)
                for t, abs_x in last]
        a, b = vals[0], vals[-1]
        tail_norms.append(b)
        stable.append(len(vals) == 1
                      or abs(b - a) <= STABLE_REL_CHANGE * max(1e-300, abs(b)))

    slope = _tail_slope(levels, tail_norms)
    if all(v == 0.0 for v in tail_norms):
        verdict = "convergent"
    elif tail_norms[-1] < EPS_TAIL and (slope is None or slope < SLOPE_THRESHOLD):
        verdict = "convergent"
    else:
        verdict = "inconclusive"
        runs = 0
        for a, b in zip(tail_norms, tail_norms[1:]):
            if b > DIVERGENT_FLOOR and b >= DIVERGENT_RATIO * a:
                runs += 1
                if runs >= 2:  # three consecutive levels
                    verdict = "divergent"
                    break
            else:
                runs = 0
    return TailProfile(levels=levels, tail_norms=tail_norms, stable=stable,
                       verdict=verdict, slope=slope,
                       finest_label=ladder[-1].label)


# -- membership classification -------------------------------------------


def membership_classify(ladder, tol: float = DEFAULT_TOL) -> str:
    """Classify X as in_LPhi / in_frakL_only / outside_frakL / inconclusive.

    Membership in the intersection space is exact on the finest
    truncation: X is in it when its canonical |X| is finite there, as
    every phi_P is finite on some (0, b) and the model is finite, and is
    outside it otherwise (phi_P(inf) = inf on an atom P charges). A
    single truncation is then decidable: the worst-case norm is finite or
    not. A ladder yields a trend verdict: norms that keep growing by more
    than 0.1% per rung indicate membership in the intersection space
    only.
    """
    if isinstance(ladder, Truncation):
        ladder = [ladder]
    if not ladder:
        raise ValidationError("empty truncation ladder")
    if not np.isfinite(_canonical_abs(ladder[-1])).all():
        return "outside_frakL"
    norms = [_robust_norm(t, tol=tol) for t in ladder]
    if len(norms) == 1:
        return "in_LPhi" if norms[0] < INF else "in_frakL_only"
    if any(v == INF for v in norms):
        return "in_frakL_only"
    growing = all(b > a for a, b in zip(norms, norms[1:]))
    last_change = abs(norms[-1] - norms[-2]) / max(1e-300, norms[-1])
    if last_change < TREND_REL_CHANGE:
        return "in_LPhi"
    if growing:
        return "in_frakL_only"
    return "inconclusive"


# -- mixture witness ------------------------------------------------------


@dataclass
class MixtureWitnessReport:
    constructible: bool
    rule: str
    selected: List[str]
    per_prior_norms: Dict[str, float]
    mixture: Optional[MeasureVector]
    modular_lower_bound: float
    contributions: List[float] = field(default_factory=list)


def mixture_witness(model: ScenarioModel, x, family: OrliczFamily,
                    gamma: Optional[Dict[str, float]] = None,
                    pstar_label: Optional[str] = None,
                    alpha: float = 1.0,
                    tol: float = DEFAULT_TOL) -> MixtureWitnessReport:
    """Countable-mixture measure certifying that per-prior norm blow-up
    forces the modular of the mixture to explode.

    Priors whose single-prior norm exceeds 2^{2n} (n the selection rank)
    are preferred; if fewer than three qualify, the maximal leading
    strictly-increasing subsequence of per-prior norms is used instead,
    and the rule applied is reported. The returned lower bound is
    sum_j 2^{-j} (1+gamma_j)^{-1} E_{P_j}[phi_{P_j}(alpha |X|)].
    """
    family.check_model(model)
    if not 0.0 < alpha < INF:
        raise ValidationError("alpha must be finite and positive")
    if gamma is None:
        gamma = {l: 0.0 for l in model.prior_labels}
    abs_x = np.abs(canonicalise(model, x).values)
    per_prior = sup_prior_norms(model, abs_x, family, tol)[1]
    labels = list(model.prior_labels)
    if pstar_label is None:
        pstar_label = labels[0]
    pstar = model.prior(pstar_label)

    if model.n_priors == 1:
        sel = [labels[0]]
        rule = "degenerate-single-prior"
    else:
        sel, rank = [], 1
        for l in labels:
            if per_prior[l] > 2.0 ** (2 * rank):
                sel.append(l)
                rank += 1
        rule = "threshold-4^n"
        if len(sel) < 3:
            sel, best = [], -INF
            for l in labels:
                if per_prior[l] > best:
                    sel.append(l)
                    best = per_prior[l]
            rule = "increasing-subsequence"
            if len(sel) < 3:
                return MixtureWitnessReport(
                    constructible=False, rule=rule, selected=sel,
                    per_prior_norms=per_prior, mixture=None,
                    modular_lower_bound=0.0)

    chosen = set(sel)
    mods = {}
    with np.errstate(over="ignore"):
        for phi, a, masses, labels in _blocks(model, abs_x, family):
            picked = [j for j, member in enumerate(labels) if not chosen.isdisjoint(member)]
            if picked:
                values = _modulars((masses[j] for j in picked), a, phi, alpha)
                for j, m in zip(picked, values):
                    mods.update(dict.fromkeys(labels[j], m))
    raw = np.zeros(model.n_atoms)
    contributions = []
    bound = 0.0
    for j, l in enumerate(sel, start=1):
        g = float(gamma[l])
        w = 2.0 ** (-j)
        raw += w * (g / (1.0 + g) * pstar + 1.0 / (1.0 + g) * model.prior(l))
        term = w / (1.0 + g) * mods[l]
        contributions.append(term)
        bound += term
    mixture = MeasureVector(raw / raw.sum())
    return MixtureWitnessReport(
        constructible=True, rule=rule, selected=sel,
        per_prior_norms=per_prior, mixture=mixture,
        modular_lower_bound=bound, contributions=contributions)
