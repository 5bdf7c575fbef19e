"""Robust Luxemburg norms over a family of priors.

The norm is inf{lam > 0 : sup_P E_P[phi_P(|X|/lam)] <= 1}, which equals
the sup of the single-prior norms. It is computed as that sup, each
single-prior norm in closed form or by bracketed root-finding on
log(lam) to a relative width tol / 2 (the modular is monotone in lam but
may jump or vanish, as at a domain bound or below a first breakpoint, so
every step stays inside a bracket and falls back to the geometric
midpoint), and certified on the joint modular at the two ends of a small
bracket. Every single-prior norm is taken on y = |X| / max|X| and scaled
back by max|X| (`_unit`; exact, as ||c X|| = c ||X|| for every phi), so
closed forms and root-finders read values in (0, 1] at any scale of X;
the certificate and `modular` evaluate phi on |X| itself.

The model-level kernels (`sup_prior_norms`, the certificate, `modular`)
work on the atoms a prior charges where X is nonzero. Atoms where X is 0
are dropped because phi(0) = 0; that changes only the summation order of
a modular, so results are bit-identical to the per-prior route wherever
X has no zero on the support. `single_prior_luxemburg` and
`single_prior_modular` gather on prior > 0 alone and keep their exact
arithmetic.

Priors with equal supports (`ScenarioModel.support_classes`) keep the
same atoms for any X, so they share |X| on them; those that also share
phi form a block (an `OrliczFamily` makes equal functions one object),
and a prior with a phi of its own is a block of one. A block evaluates
phi(|X| / lam) once per lam, as `phi._eval_scaled(|X|, 1 / lam)`, which
folds 1 / lam into phi's own rates rather than dividing |X| by lam
first, and takes one dot product with each prior's masses (`_modulars`):
in the certificate's joint modular, in `modular`, and in the bracketing
ladders of the single-prior root-finders, which run in lockstep over the
block from lam = 1 (`_brackets`); the Illinois steps after them stay per
prior. Each value and each dot product is the same arithmetic as for the
prior alone, so per-prior norms, step counts, brackets and modulars are
bit-identical to it. phi may overflow to inf: every caller of
`_modulars` enters np.errstate(over="ignore") once around its
evaluations, while the closed forms enter none. A block holds at most
one phi evaluation. `_plan` builds the blocks once per public call, for
the sup and the certificate both, as they depend on the model and
family alone; `_blocks` walks them for one X and says how it gathers.

The blocks of a support class share max|X| and y, and those whose
closed form may read log y (`Power`, `Scaled(Power)`: `_reads_log`) one
`Magnitudes` view of y where the power closed forms read the log (on at
least 1 024 atoms), so that it is taken at most once per class; other
closed forms get the plain array. The view changes no value, so
`single_prior_luxemburg` stays bit-identical. The certificate evaluates
phi on |X| itself and reads neither: it stays an independent check of
the closed forms and the scale rule.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import (Callable, Dict, Generator, Iterable, Iterator, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from .errors import ConsistencyError, ValidationError
from .model import ScenarioModel, canonicalise, expectation
from .orlicz import EssSupIndicator, Magnitudes, OrliczFunction, Power, Scaled

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
    """Assignment of one Orlicz function to each prior of a model.

    Equal functions become one object, the first of them, so that the
    kernels and the projection evaluate it once for all its priors. A
    function that is unhashable, or whose == raises, stays its own object.
    """

    functions: Mapping[str, OrliczFunction]

    def __init__(self, functions: Mapping[str, OrliczFunction]):
        first, mapped = {}, {}
        for label, phi in dict(functions).items():
            try:
                mapped[label] = first.setdefault(phi, phi)
            except Exception:  # unhashable, or == raised: phi stays itself
                mapped[label] = phi
        object.__setattr__(self, "functions", mapped)

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
        _check_gamma(model, gamma)
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
        _check_gamma(model, gamma)
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


def _check_gamma(model: ScenarioModel, gamma: Mapping[str, float]) -> None:
    _check_labels(model, gamma, "gamma")
    if not all(1.0 <= 1.0 + float(gamma[l]) < INF for l in model.prior_labels):
        raise ValidationError("additive divisor must be finite with 1 + gamma >= 1")


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


def _check_tol(tol: float, max_iter: int) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError("tol must be finite and positive")
    if not max_iter >= 1:
        raise ValidationError("max_iter must be at least 1")


# -- modulars -------------------------------------------------------------


def _check_scale(lam: float) -> None:
    if not lam > 0:
        raise ValidationError("modular scale must be positive")


def _modulars(masses: Iterable[np.ndarray], a: np.ndarray, phi: OrliczFunction,
              s: float) -> list:
    """sum w * phi(s a) for each w in `masses` (positive masses), from one
    evaluation of phi(s a); the norm kernels pass s = 1 / lam. phi >= 0, so a
    sum is inf exactly when some phi(s a) is. phi may overflow to inf: the
    caller enters np.errstate(over="ignore"). (values.dot(w) is the same
    BLAS dot as np.dot(w, values), without its dispatch.)"""
    values = phi._eval_scaled(a, s)
    return list(map(float, map(values.dot, masses)))


class _Gathered:
    """The masses of several priors on one keep mask, gathered afresh on
    each access, so that a block never holds all of them at once."""

    def __init__(self, priors: list, keep: np.ndarray):
        self.priors, self.keep = priors, keep

    def __len__(self) -> int:
        return len(self.priors)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.priors[i][self.keep]


_Plan = namedtuple("_Plan", "model family classes")


def _plan(model: ScenarioModel, family: OrliczFamily) -> _Plan:
    """The blocks of `model` under `family`, which do not depend on X: per
    support class (the atoms its priors charge, its blocks), per block
    (phi, masses, labels, shared) for the priors of the class that share
    one phi object, where masses[j] is the mass vector of the block's j-th
    group of equal priors, labels[j] the labels of its members in the
    block, and `shared` says that a group of it sits in another block too."""
    labels, priors, groups = model.prior_labels, model.priors, model.prior_groups
    classes = []
    for members in model.support_classes:
        found: dict = {}  # id(phi) -> (phi, {group: its labels with phi})
        for j in members:
            for k in groups[j]:
                phi = family.phi(labels[k])
                found.setdefault(id(phi), (phi, {}))[1].setdefault(j, []).append(labels[k])
        blocks_of = Counter(j for _, names in found.values() for j in names)
        blocks = [(phi, [priors[groups[j][0]] for j in names], list(names.values()),
                   any(blocks_of[j] > 1 for j in names))
                  for phi, names in found.values()]
        classes.append((priors[groups[members[0]][0]] > 0.0, blocks))
    return _Plan(model, family, tuple(classes))


def _blocks(plan: _Plan, abs_x: np.ndarray) -> Iterator[tuple]:
    """(phi, a, masses, labels) per block of `plan`, a class's blocks one
    after another: a is |X| on the atoms they keep (those they charge
    where |X| > 0), gathered once per class, and masses[j] the masses
    there of the block's j-th group. A group in one block is gathered as
    that block comes, a group in several once per class for all of them;
    a block of several groups gathers them on each access unless they
    keep every atom. So no more than a class's masses are held at once."""
    nonzero = abs_x > 0.0
    for support, blocks in plan.classes:
        keep = support & nonzero
        if np.count_nonzero(keep) == keep.size:
            keep = None
        a = abs_x if keep is None else abs_x[keep]
        gathered: dict = {}  # id of a group in several blocks -> its masses on keep
        for phi, ws, labels, shared in blocks:
            if keep is not None and len(ws) > 1:
                ws = _Gathered(ws, keep)
            elif keep is not None and shared:
                if id(ws[0]) not in gathered:
                    gathered[id(ws[0])] = ws[0][keep]
                ws = [gathered[id(ws[0])]]
            elif keep is not None:
                ws = [ws[0][keep]]
            yield phi, a, ws, labels


def _prior_modulars(plan: _Plan, abs_x: np.ndarray, s: float) -> Dict[str, float]:
    """E_P[phi_P(s |X|)] for every prior P of `plan`, by label, one phi
    evaluation per block; the caller enters `_modulars`' error state."""
    out: Dict[str, float] = {}
    for phi, a, masses, labels in _blocks(plan, abs_x):
        for member, m in zip(labels, _modulars(masses, a, phi, s)):
            out.update(dict.fromkeys(member, m))
    return out


def _single_prior_input(prior, x) -> tuple:
    """prior and X as float arrays, checked to be of one shape, the prior
    finite and nonnegative, X without NaN."""
    prior, x = np.asarray(prior, dtype=float), np.asarray(x, dtype=float)
    if x.shape != prior.shape:
        raise ValidationError(f"random variable of shape {x.shape} for a prior of {prior.shape}")
    if not (np.isfinite(prior).all() and (prior >= 0).all()):
        raise ValidationError("prior masses must be finite and nonnegative")
    if np.isnan(x).any():
        raise ValidationError("random variable has NaN entries")
    return prior, x


def single_prior_modular(prior: np.ndarray, phi: OrliczFunction,
                         abs_x: np.ndarray, lam: float) -> float:
    _check_scale(lam)
    prior, abs_x = _single_prior_input(prior, abs_x)
    pos = prior > 0.0
    with np.errstate(over="ignore"):
        return _modulars([prior[pos]], abs_x[pos], phi, 1.0 / lam)[0]


def modular(model: ScenarioModel, x, lam: float, family: OrliczFamily) -> float:
    """sup over priors of E_P[phi_P(|X| / lam)]; the same sums as the
    certificate's joint modular."""
    family.check_model(model)
    _check_scale(lam)
    abs_x = np.abs(canonicalise(model, x).values)
    with np.errstate(over="ignore"):
        return max(0.0, *_prior_modulars(_plan(model, family), abs_x, 1.0 / lam).values())


# -- norms ----------------------------------------------------------------


def _ladder() -> Generator[float, float, tuple]:
    """The bracketing ladder of `_norm_bisection`: halves or doubles lam
    from 1 until a nonincreasing modular crosses 1. It yields each lam to
    evaluate and is sent the modular there; it returns
    (lo, m_lo, hi, m_hi, steps) with m_lo > 1 >= m_hi, where
    lo < _LAMBDA_FLOOR (m_lo None) means the modular stays <= 1 down to
    there and hi > _LAMBDA_CAP (m_hi None) that it stays > 1 up to there.
    """
    it = 0
    m = yield 1.0
    if m <= 1.0:
        hi, m_hi, lo = 1.0, m, 0.5
        m_lo = yield lo
        while m_lo <= 1.0:
            hi, m_hi, lo = lo, m_lo, lo / 2.0
            it += 1
            if lo < _LAMBDA_FLOOR:
                return lo, None, hi, m_hi, it
            m_lo = yield lo
    else:
        lo, m_lo, hi = 1.0, m, 2.0
        m_hi = yield hi
        while m_hi > 1.0:
            lo, m_lo, hi = hi, m_hi, hi * 2.0
            it += 1
            if hi > _LAMBDA_CAP:
                return lo, m_lo, hi, None, it
            m_hi = yield hi
    return lo, m_lo, hi, m_hi, it


def _brackets(mods: Callable[[float, list], list], n: int) -> list:
    """The outcomes of n `_ladder`s run in lockstep: mods(lam, idx) gives
    the modulars of the members idx at lam, so all ladders that ask for
    the same lam share one call."""
    ladders = [_ladder() for _ in range(n)]
    for ladder in ladders:
        next(ladder)  # every ladder starts at lam = 1
    asks = {1.0: list(range(n))}
    out: list = [None] * n
    while asks:
        nxt: dict = {}
        for lam, idx in asks.items():
            for i, m in zip(idx, mods(lam, idx)):
                try:
                    nxt.setdefault(ladders[i].send(m), []).append(i)
                except StopIteration as done:
                    out[i] = done.value
        asks = nxt
    return out


def _norm_bisection(mod: Callable[[float], float], tol: float,
                    max_iter: int, start: Optional[tuple] = None) -> tuple:
    """inf{lam > 0 : mod(lam) <= 1} for a nonincreasing modular `mod`.

    Brackets the root by halving or doubling lam from 1 (`_ladder`;
    `start` is its outcome when it was run already), then narrows the
    bracket [lo, hi] (mod(lo) > 1 >= mod(hi)) until hi - lo <= tol * hi
    or max_iter steps, by Illinois regula falsi on (log lam, log mod).
    Each step lands at least tol * hi / 2 inside the bracket, so an
    estimate at the root closes the bracket from the far side. The step
    is the geometric midpoint instead while an end's modular is 0 or inf
    (no secant through it: a zero region, a domain bound, a jump) and
    after two steps in a row that moved the same end without halving
    log(hi / lo), which keeps the worst case near bisection's step count.
    Returns (value, (lo, hi), steps), the ladder's steps included; value
    may be 0.0 or inf.
    """
    if start is None:
        ladder = _ladder()
        lam = next(ladder)
        try:
            while True:
                lam = ladder.send(mod(lam))
        except StopIteration as done:
            start = done.value
    lo, m_lo, hi, m_hi, it = start
    if lo < _LAMBDA_FLOOR:
        return 0.0, (0.0, hi), it
    if hi > _LAMBDA_CAP:
        return INF, (lo, INF), it
    # Illinois weights: the log modular at each end, halved at an end
    # that two steps in a row kept
    f_lo = math.log(m_lo) if m_lo < INF else None
    f_hi = math.log(m_hi) if m_hi > 0.0 else None
    last_hi, slow = None, 0
    width = math.log(hi / lo)
    while it - start[4] < max_iter and hi - lo > tol * hi:
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


def _unit(abs_x: np.ndarray) -> Tuple[float, np.ndarray]:
    """(top, y): top = max |X| (0 for no atoms) and y = |X| / top, or |X|
    itself where top is 0 or inf (no norm reads y then)."""
    top = float(abs_x.max()) if abs_x.size else 0.0
    return top, abs_x / top if 0.0 < top < INF else abs_x


def _block_norms(masses: Sequence[np.ndarray], y: np.ndarray, top: float,
                 phi: OrliczFunction, tol: float, max_iter: int) -> list:
    """(norm, root-finder steps) of |X| under each prior of a block, as
    top times the norm of y = |X| / top (`_unit`): y is on the block's
    atoms (atoms where X is 0 may be left out), maybe as the `Magnitudes`
    view its support class shares where phi `_reads_log`, and masses[j]
    prior j's positive masses there. The priors share phi, so the
    root-finders' ladders run in lockstep with one phi evaluation per lam
    (`_brackets`); each then narrows its own bracket."""
    if top == INF or top == 0.0:
        return [(top, 0)] * len(masses)
    out = [(phi.luxemburg_closed_form(w, y), 0) for w in masses]
    pending = [j for j, (value, _) in enumerate(out) if value is None]
    if pending:
        # one error state for every step of the root-finders
        with np.errstate(over="ignore"):
            # a block of one runs its ladder in `_norm_bisection`
            starts = [None] if len(pending) == 1 else _brackets(
                lambda lam, idx: _modulars((masses[pending[i]] for i in idx), y, phi, 1.0 / lam),
                len(pending))
            for j, start in zip(pending, starts):
                w = masses[j]
                lam, _, steps = _norm_bisection(
                    lambda lam: float(phi._eval_scaled(y, 1.0 / lam).dot(w)), tol / 2.0, max_iter,
                    start)
                out[j] = (lam, steps)
    # a nonzero |X| has a positive norm, though its value may underflow
    return [(max(top * value, math.ulp(0.0)), steps) for value, steps in out]


def single_prior_luxemburg(prior: np.ndarray, phi: OrliczFunction, x,
                           tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER,
                           with_steps: bool = False):
    """Luxemburg (semi)norm of X under one prior.

    max|X| times the norm of y = |X| / max|X|, so the relative accuracy
    is the same at every scale: by phi's closed form when it has one,
    else by bracketed root-finding (`_norm_bisection`) to a bracket
    [lo, hi] with hi - lo <= tol / 2 * hi. With `with_steps` it returns
    (value, steps).
    """
    _check_tol(tol, max_iter)
    prior, x = _single_prior_input(prior, x)
    pos = prior > 0.0
    top, y = _unit(np.abs(x[pos]))
    [(value, steps)] = _block_norms([prior[pos]], y, top, phi, tol, max_iter)
    return (value, steps) if with_steps else value


def sup_prior_norms(plan: _Plan, abs_x: np.ndarray, tol: float = DEFAULT_TOL,
                    max_iter: int = MAX_ITER) -> Tuple[float, Dict[str, float], int]:
    """sup_P ||X||_P for a canonical |X| over the priors of `plan`: the sup,
    the per-prior norms, and the root-finder steps of the prior attaining it."""
    _check_tol(tol, max_iter)
    found: Dict[str, Tuple[float, int]] = {}
    seen = None
    for phi, a, masses, labels in _blocks(plan, abs_x):
        if a is not seen:
            # a support class's first block: its blocks share max|X| and y,
            # and those whose closed form reads log y one view that keeps it
            seen, view, (top, y) = a, None, _unit(a)
        if phi._reads_log and view is None:
            view = Magnitudes.shared(y)
        results = _block_norms(masses, view if phi._reads_log else y, top, phi, tol, max_iter)
        for member, result in zip(labels, results):
            for label in member:
                found[label] = result
    per_prior: Dict[str, float] = {}
    best, best_steps = 0.0, 0
    for label in plan.model.prior_labels:
        value, steps = found[label]
        per_prior[label] = value
        if value > best:
            best, best_steps = value, steps
    return best, per_prior, best_steps


def _certify(plan: _Plan, abs_x: np.ndarray, value: float, delta: float,
             offsets: Mapping[str, float], per_prior: Mapping[str, float]) -> Tuple[tuple, float]:
    """Certify value = inf{lam : M(lam) <= 1} within delta, where
    M(lam) = sup_P (E_P[phi_P(|X|/lam)] - offset_P) over the priors of
    `plan`: M <= 1 at value + delta and M > 1 at value - delta if
    positive; 0 only for |X| = 0 on the support; inf by M > 1 at
    2**1023. Returns (bracket, M at its upper end) or raises
    ConsistencyError. The upper end evaluates every prior; the lower end
    evaluates the prior attaining the sup of `per_prior` (the per-prior
    norms) alone on its atoms, which settles it when that prior is above
    1, and every prior otherwise.
    """

    def joint(lam: float) -> float:
        return max(m - offsets[label]
                   for label, m in _prior_modulars(plan, abs_x, 1.0 / lam).items())

    def lower(lam: float) -> float:
        first = max(per_prior, key=per_prior.__getitem__)
        w = plan.model.prior(first)
        keep = (w > 0.0) & (abs_x > 0.0)
        m = _modulars([w[keep]], abs_x[keep], plan.family.phi(first), 1.0 / lam)[0] - offsets[first]
        return m if m > 1.0 else joint(lam)

    if value == 0.0:
        if np.any(abs_x > 0.0):
            raise ConsistencyError("norm 0 reported for a variable nonzero on the support")
        return (0.0, 0.0), 0.0
    # one error state for both ends
    with np.errstate(over="ignore"):
        if value == INF:
            at_cap = lower(_LAMBDA_CAP)
            if not at_cap > 1.0:
                raise ConsistencyError(f"norm inf reported but the joint modular is "
                                       f"{at_cap!r} <= 1 at {_LAMBDA_CAP!r}")
            return (_LAMBDA_CAP, INF), INF
        lo, hi = value - delta, value + delta
        at_hi = joint(hi)
        if not at_hi <= 1.0:
            raise ConsistencyError(
                f"joint modular {at_hi!r} > 1 at {hi!r}, above the sup of "
                f"per-prior norms {value!r}")
        at_lo = lower(lo) if lo > 0.0 else INF
        if not at_lo > 1.0:
            raise ConsistencyError(
                f"joint modular {at_lo!r} <= 1 at {lo!r}, below the sup of "
                f"per-prior norms {value!r}")
    return (max(lo, 0.0), hi), at_hi


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
    plan = _plan(model, family)
    value, per_prior, steps = sup_prior_norms(plan, abs_x, tol, max_iter)
    bracket, mod_at = _certify(
        plan, abs_x, value, _CERT_HALF_WIDTH * tol * max(1.0, value),
        dict.fromkeys(model.prior_labels, 0.0), per_prior)
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
    if not all(0.0 <= float(g) < INF for g in gamma.values()):
        raise ValidationError("penalties must be finite and nonnegative")
    abs_x = np.abs(canonicalise(model, x).values)
    family = OrliczFamily.additively_penalised(model, phi, gamma)
    res = luxemburg_norm(model, abs_x, family, tol=tol, max_iter=max_iter)
    _certify(_plan(model, OrliczFamily.uniform(model, phi)), abs_x, res.value,
             2.0 * tol * max(1.0, res.value),
             {l: float(gamma[l]) for l in model.prior_labels},
             res.per_prior_norms)
    return res


def weighted_lp_norm(model: ScenarioModel, x, p: float,
                     theta: Mapping[str, float]) -> float:
    """sup_P theta(P) * ||X||_{L^p(P)}; p may be inf. The norm of
    Scaled(x**p, theta(P)) under P, in closed form, by the robust-norm
    kernel."""
    if not p >= 1.0:
        raise ValidationError("p must be at least 1")
    phi = EssSupIndicator() if p == INF else Power(p)
    family = OrliczFamily.multiplicatively_weighted(model, phi, theta)
    return sup_prior_norms(_plan(model, family), np.abs(canonicalise(model, x).values))[0]


def risk_measure(model: ScenarioModel, x, gamma: Mapping[str, float]) -> float:
    """rho(X) = sup_P E_P[X] - gamma(P) for X >= 0 quasi-surely."""
    _check_labels(model, gamma, "gamma")
    if any(math.isnan(float(gamma[l])) for l in model.prior_labels):
        raise ValidationError("penalties must not be NaN")
    xc = canonicalise(model, x).values
    if np.any(xc < 0):
        raise ValidationError("risk_measure expects a nonnegative claim")
    return max(
        expectation(prior, xc) - float(gamma[label])
        for label, prior in zip(model.prior_labels, model.priors)
    )
