"""Orlicz functions: evaluation, convex conjugates, affine minorants.

An Orlicz function here is a lower semicontinuous, nondecreasing, convex
map phi: [0, inf) -> [0, inf] with phi(0) = 0 that is finite at some
positive point and nonzero at some positive point. Values are plain
floats with math.inf as the explicit +infinity sentinel; every `evaluate`
accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .scalar import bisect_threshold

INF = math.inf
# step ratio of the golden-section search in the numeric conjugate
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_BRACKET_CAP = 2.0 ** 1023


@dataclass(frozen=True)
class AffineMinorant:
    """A line a*x + b with a > 0, b <= 0 lying below an Orlicz function."""

    a: float
    b: float

    def __call__(self, x: float) -> float:
        return self.a * x + self.b


class OrliczFunction:
    """Base class. Subclasses implement `_eval_array` and `domain_bound`.

    `conjugate_array` and `right_derivative` have numeric fallbacks here
    and are overridden with closed forms where those exist; so is
    `luxemburg_closed_form`, whose fallback returns None (the single-prior
    norm then goes to bracketed root-finding) except at a domain bound.
    Every `conjugate_array` is vectorised, the numeric fallback included,
    and keeps the shape of its argument; the scalar `conjugate` is a
    one-element call of it unless a class has a scalar closed form.
    """

    #: d with phi(t x) = t**d phi(x) for all t > 0 (inf for a 0/inf
    #: indicator), or None when phi is not positively homogeneous
    homogeneity_degree: Optional[float] = None

    @property
    def domain_bound(self) -> float:
        """Supremum of {x : phi(x) < inf}."""
        raise NotImplementedError

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def luxemburg_closed_form(self, weights: np.ndarray,
                              abs_x: np.ndarray) -> Optional[float]:
        """inf{lam > 0 : sum weights * phi(abs_x / lam) <= 1} in closed
        form, or None; `weights` are a prior's positive masses and abs_x
        is not all 0.

        The fallback covers a finite domain bound b: below max abs_x / b
        some abs_x / lam lies past b, where phi is inf, so that is the
        norm when the sum is <= 1 there.
        """
        bound = self.domain_bound
        if math.isinf(bound):
            return None
        top = float(np.max(abs_x))
        at_bound = self._eval_array(np.minimum(abs_x / top * bound, bound))
        return top / bound if float(np.dot(weights, at_bound)) <= 1.0 else None

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("Orlicz functions are defined on [0, inf) only")
        out = self._eval_array(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    # -- conjugation ------------------------------------------------------

    def conjugate(self, y: float) -> float:
        """phi*(y) = sup_{x >= 0} (x*y - phi(x)) at one point."""
        return float(self.conjugate_array(y)[0])

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        """phi* elementwise, every argument at once.

        Numeric route: x*y - phi(x) is concave in x, so bracket expansion
        in powers of 2 followed by golden-section search is safe. Both run
        in lockstep over the arguments, each frozen once its own stopping
        rule holds; the result is the same as one scalar search per
        argument.
        """
        ys = np.array(y, dtype=float, ndmin=1)
        if (ys < 0).any():
            raise ValidationError("conjugate argument must be nonnegative")
        flat = ys.reshape(-1)
        out = np.zeros(flat.size)
        pos = flat > 0.0
        if pos.any():
            out[pos] = self._conjugate_search(flat[pos])
        return out.reshape(ys.shape)

    def _g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x*y - phi(x), -inf where phi(x) is inf."""
        v = self._eval_array(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(v == INF, -INF, x * y - v)

    def _conjugate_search(self, y: np.ndarray) -> np.ndarray:
        bound = self.domain_bound
        infinite = np.zeros(y.size, dtype=bool)
        if math.isfinite(bound):
            hi = np.full(y.size, bound)
        else:
            hi = np.ones(y.size)
            g_hi = self._g(hi, y)
            grow = np.arange(y.size)
            while grow.size:
                g_up = self._g(2.0 * hi[grow], y[grow])
                keep = g_up >= g_hi[grow]
                grow = grow[keep]
                hi[grow] *= 2.0
                g_hi[grow] = g_up[keep]
                grow = grow[hi[grow] < _BRACKET_CAP]
            infinite = (hi >= _BRACKET_CAP) & (g_hi > 0)
            # g is concave: g(2 hi) < g(hi) places the max in [0, 2 hi]
            hi = 2.0 * np.minimum(hi, _BRACKET_CAP / 2.0)
        best = np.maximum(self._golden_max(y, hi), 0.0)
        # lsc value at a finite domain bound is the left limit; include it
        best = np.maximum(best, self._g(hi, y))
        best[infinite] = INF
        return best

    def _golden_max(self, y: np.ndarray, hi: np.ndarray,
                    tol: float = 1e-12, max_iter: int = 300) -> np.ndarray:
        """max of g(., y) on [0, hi] by golden section, per element."""
        lo, hi = np.zeros(y.size), hi.copy()
        x1 = hi - INV_PHI * (hi - lo)
        x2 = lo + INV_PHI * (hi - lo)
        f1, f2 = self._g(x1, y), self._g(x2, y)
        best = np.maximum(f1, f2)
        for _ in range(max_iter):
            act = np.flatnonzero(hi - lo > tol * np.maximum(1.0, np.abs(lo) + np.abs(hi)))
            if not act.size:
                break
            left = f1[act] >= f2[act]
            # left: the max lies in [lo, x2]; right: in [x1, hi]
            a, b = act[left], act[~left]
            hi[a], x2[a], f2[a] = x2[a], x1[a], f1[a]
            lo[b], x1[b], f1[b] = x1[b], x2[b], f2[b]
            x1[a] = hi[a] - INV_PHI * (hi[a] - lo[a])
            x2[b] = lo[b] + INV_PHI * (hi[b] - lo[b])
            new = np.where(left, x1[act], x2[act])
            f_new = self._g(new, y[act])
            f1[a] = f_new[left]
            f2[b] = f_new[~left]
            best[act] = np.maximum(best[act], f_new)
        # the objective may jump (extended-real values); keep the best
        # evaluated point rather than trusting the bracket midpoint
        return np.maximum(best, self._g(0.5 * (lo + hi), y))

    # -- derivatives ------------------------------------------------------

    def right_derivative(self, x: float) -> float:
        """Right derivative at x >= 0; inf at a jump to infinity."""
        if x >= self.domain_bound:
            return INF
        h = 1e-7 * max(1.0, x)
        hi = self(x + h)
        if hi == INF:
            return INF
        return (hi - self(x)) / h

    # -- affine minorant --------------------------------------------------

    def affine_minorant(self) -> AffineMinorant:
        """Line a*x + b <= phi with a > 0, b <= 0.

        Constructed as a subgradient at the point where phi first reaches 1
        (or at the domain bound if phi jumps to infinity before that).
        """
        bound = self.domain_bound
        if math.isfinite(bound) and self(bound) < 1.0:
            x1 = bound
            a = (self(x1) + 1.0) / x1
            # the line through (x1, phi(x1)) stays below phi only if it is
            # at least as steep as phi just left of x1
            left = self.right_derivative(x1 * (1.0 - 1e-12))
            if left < INF:
                a = max(a, left)
        else:
            hi = min(1.0, bound / 2.0) if math.isfinite(bound) else 1.0
            while self(hi) < 1.0:
                hi = min(2.0 * hi, bound) if math.isfinite(bound) else 2.0 * hi
                if hi >= _BRACKET_CAP:
                    raise ValidationError("Orlicz function never reaches level 1")
            lo = 0.0
            lo, x1, _ = bisect_threshold(lambda t: self(t) >= 1.0, lo, hi)
            a = self.right_derivative(x1)
            if a == INF or a <= 0.0:
                a = (self(x1) + 1.0) / x1
        b = min(0.0, self(x1) - a * x1)
        return AffineMinorant(a=a, b=b)

    # -- validation -------------------------------------------------------

    def _check_nontrivial(self) -> None:
        bound = self.domain_bound
        if bound <= 0:
            raise ValidationError("Orlicz function must be finite somewhere on (0, inf)")
        probe = bound / 2.0 if math.isfinite(bound) else 1.0
        if self(probe) == INF:
            raise ValidationError("Orlicz function must be finite somewhere on (0, inf)")
        # positivity somewhere (possibly +inf counts)
        x = probe
        while x <= 2.0 ** 600:
            if self(min(x, bound) if math.isfinite(bound) else x) > 0.0:
                return
            if math.isfinite(bound) and x >= bound:
                break
            x *= 2.0
        if math.isfinite(bound) and self(bound) == 0.0:
            # jump to inf just beyond the bound still counts as nonzero
            return
        raise ValidationError("Orlicz function is identically zero")


@dataclass(frozen=True)
class Power(OrliczFunction):
    """phi(x) = x**p with p >= 1."""

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValidationError("Power exponent must be finite with p >= 1")

    @property
    def domain_bound(self) -> float:
        return INF

    @property
    def homogeneity_degree(self) -> float:
        return self.p

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return x ** self.p

    def luxemburg_closed_form(self, weights: np.ndarray, abs_x: np.ndarray) -> float:
        return float(np.dot(weights, abs_x ** self.p) ** (1.0 / self.p))

    def conjugate(self, y: float) -> float:
        if y < 0:
            raise ValidationError("conjugate argument must be nonnegative")
        if self.p == 1.0:
            return 0.0 if y <= 1.0 else INF
        q = self.p / (self.p - 1.0)
        try:
            return (self.p - 1.0) * self.p ** (-q) * y ** q
        except OverflowError:
            return INF

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if self.p == 1.0:
            return np.where(ys <= 1.0, 0.0, INF)
        q = self.p / (self.p - 1.0)
        with np.errstate(over="ignore"):
            return (self.p - 1.0) * self.p ** (-q) * ys ** q

    def right_derivative(self, x: float) -> float:
        if self.p == 1.0:
            return 1.0
        return self.p * x ** (self.p - 1.0)

    def affine_minorant(self) -> AffineMinorant:
        # the tangent at x = 1, where x**p first reaches 1
        return AffineMinorant(a=float(self.p), b=min(0.0, 1.0 - self.p))


@dataclass(frozen=True)
class Exponential(OrliczFunction):
    """phi(x) = exp(beta * x) - 1 with beta > 0."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValidationError("Exponential rate must be finite and positive")

    @property
    def domain_bound(self) -> float:
        return INF

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.expm1(self.beta * x)

    def conjugate(self, y: float) -> float:
        if y < 0:
            raise ValidationError("conjugate argument must be nonnegative")
        if y <= self.beta:
            return 0.0
        r = float(y) / self.beta
        if r == INF:
            return INF  # r log r - r is inf - inf there
        return r * math.log(r) - r + 1.0

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.maximum(ys / self.beta, 1.0)
            out = r * np.log(r) - r + 1.0
        # inf - inf above where y / beta is inf: phi* is inf there
        return np.where(ys <= self.beta, 0.0, np.where(r < INF, out, INF))

    def right_derivative(self, x: float) -> float:
        return self.beta * math.exp(self.beta * x)


@dataclass(frozen=True)
class EssSupIndicator(OrliczFunction):
    """phi(x) = inf * 1_{(1, inf)}(x); its Luxemburg norm is the ess-sup."""

    homogeneity_degree = INF

    @property
    def domain_bound(self) -> float:
        return 1.0

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(x <= 1.0, 0.0, INF)

    def luxemburg_closed_form(self, weights: np.ndarray, abs_x: np.ndarray) -> float:
        return float(np.max(abs_x))

    def conjugate(self, y: float) -> float:
        if y < 0:
            raise ValidationError("conjugate argument must be nonnegative")
        return float(y)

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(y, dtype=float)).copy()

    def right_derivative(self, x: float) -> float:
        return 0.0 if x < 1.0 else INF


@dataclass(frozen=True)
class PiecewiseLinear(OrliczFunction):
    """Convex piecewise-linear phi given by breakpoints and slopes.

    slopes[i] applies on [breakpoints[i], breakpoints[i+1]); the function
    is 0 below the first breakpoint and +inf beyond `bound` (if finite),
    with the left-limit value at the bound itself.
    """

    breakpoints: tuple
    slopes: tuple
    bound: Optional[float] = None
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _corners: np.ndarray = field(init=False, repr=False, compare=False)
    _corner_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, breakpoints: Sequence[float], slopes: Sequence[float],
                 bound: Optional[float] = None):
        bp = tuple(float(b) for b in breakpoints)
        sl = tuple(float(s) for s in slopes)
        if len(bp) != len(sl) or not bp:
            raise ValidationError("need equally many breakpoints and slopes")
        if not all(map(math.isfinite, bp)):
            raise ValidationError("breakpoints must be finite")
        if not all(map(math.isfinite, sl)):
            raise ValidationError("slopes must be finite")
        if any(b < 0 for b in bp) or any(x >= y for x, y in zip(bp, bp[1:])):
            raise ValidationError("breakpoints must be ascending and nonnegative")
        if any(s < 0 for s in sl) or any(x > y for x, y in zip(sl, sl[1:])):
            raise ValidationError("slopes must be nondecreasing and nonnegative (convexity)")
        if bound is not None:
            bound = float(bound)
            if not math.isfinite(bound):
                raise ValidationError("domain bound must be finite (omit it for no bound)")
            if bound <= 0 or bound < bp[-1]:
                raise ValidationError("domain bound must be positive and beyond the last breakpoint")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "bound", bound)
        knots = np.asarray(bp)
        vals = np.concatenate([[0.0], np.cumsum(np.asarray(sl[:-1]) * np.diff(knots))])
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_values", vals)
        corners, corner_vals = knots[knots > 0], vals[knots > 0]
        if bound is not None:
            corners = np.append(corners, bound)
            corner_vals = np.append(corner_vals, self._eval_array(np.array([bound])))
        object.__setattr__(self, "_corners", corners)
        object.__setattr__(self, "_corner_values", corner_vals[:, None])
        self._check_nontrivial()

    @property
    def domain_bound(self) -> float:
        return INF if self.bound is None else self.bound

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._knots, x, side="right") - 1
        below = idx < 0
        idx = np.clip(idx, 0, len(self._knots) - 1)
        out = self._values[idx] + np.asarray(self.slopes)[idx] * (x - self._knots[idx])
        out = np.where(below, 0.0, out)
        if self.bound is not None:
            out = np.where(x > self.bound, INF, out)
        return out

    def right_derivative(self, x: float) -> float:
        if self.bound is not None and x >= self.bound:
            return INF
        idx = int(np.searchsorted(self._knots, x, side="right")) - 1
        return 0.0 if idx < 0 else self.slopes[idx]

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        # x y - phi(x) is piecewise linear in x, so the sup sits at a knot
        # (or at the domain bound); beyond the top slope it is infinite.
        # Knots at 0 add only the floor 0, and would make 0 * inf.
        ys = np.array(y, dtype=float, ndmin=1)
        if (ys < 0).any():
            raise ValidationError("conjugate argument must be nonnegative")
        with np.errstate(over="ignore"):
            terms = np.multiply.outer(self._corners, ys.reshape(-1)) - self._corner_values
            best = np.max(terms, axis=0, initial=0.0).reshape(ys.shape)
        if self.bound is None:
            return np.where(ys > self.slopes[-1], INF, best)
        return best


@dataclass(frozen=True)
class Scaled(OrliczFunction):
    """phi(x) = inner(theta * x) / one_plus_gamma.

    Houses the multiplicative weight and additive-penalty divisor of the
    penalised families; theta > 0 and one_plus_gamma >= 1.
    """

    inner: OrliczFunction
    theta: float
    one_plus_gamma: float = 1.0

    def __post_init__(self):
        if self.theta <= 0.0 or not math.isfinite(self.theta):
            raise ValidationError("theta must be finite and positive")
        if not self.one_plus_gamma >= 1.0:
            raise ValidationError("additive divisor must satisfy 1 + gamma >= 1")

    @property
    def domain_bound(self) -> float:
        return self.inner.domain_bound / self.theta

    @property
    def homogeneity_degree(self) -> Optional[float]:
        return self.inner.homogeneity_degree

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        return self.inner._eval_array(self.theta * x) / self.one_plus_gamma

    def luxemburg_closed_form(self, weights: np.ndarray,
                              abs_x: np.ndarray) -> Optional[float]:
        # dividing a degree-d function by c divides its norm by c**(1/d)
        degree = self.inner.homogeneity_degree
        base = None if degree is None else self.inner.luxemburg_closed_form(weights, abs_x)
        if base is None:
            return super().luxemburg_closed_form(weights, abs_x)
        return self.theta * base / self.one_plus_gamma ** (1.0 / degree)

    def conjugate(self, y: float) -> float:
        # sup x*y - inner(theta x)/d  =  inner*(d*y/theta) / d
        if y < 0:
            raise ValidationError("conjugate argument must be nonnegative")
        d = self.one_plus_gamma
        return self.inner.conjugate(d * y / self.theta) / d

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        d = self.one_plus_gamma
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        return self.inner.conjugate_array(d * ys / self.theta) / d

    def right_derivative(self, x: float) -> float:
        d = self.inner.right_derivative(self.theta * x)
        return INF if d == INF else self.theta * d / self.one_plus_gamma


def validate_orlicz(phi: OrliczFunction) -> None:
    """Run the construction-time axioms; raises ValidationError."""
    if phi(0.0) != 0.0:
        raise ValidationError("phi(0) must be 0")
    phi._check_nontrivial()
