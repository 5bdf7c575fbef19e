"""Orlicz functions: evaluation, conjugates, derivatives, closed-form norms.

An Orlicz function here is a lower semicontinuous, nondecreasing, convex
map phi: [0, inf) -> [0, inf] with phi(0) = 0 that is finite at some
positive point and nonzero at some positive point. Values are plain
floats with math.inf as the explicit +infinity sentinel; every quantity
is computed on arrays, and the scalar entry points are views of those.

`_eval_array` is raw: it may overflow to inf (x**p, expm1), and its
callers own numpy's error state. The base class's entry points that
evaluate phi (`__call__`, the numeric conjugate and derivative, the
domain-bound norm) each enter `np.errstate(over="ignore")` themselves;
the norm kernels enter it once per call around all their evaluations.

The norm kernels take every Luxemburg norm on y = |X| / max|X| and
scale it back by max|X| (the norm is positively homogeneous for every
phi), so the closed forms and root-finders read values in (0, 1] at any
scale of X. They evaluate phi(y / lam) as `_eval_scaled(y, 1 / lam)`,
into which the stock classes fold 1 / lam with their own rates, so that
each lam costs one pass over y less than dividing first. The power
closed form takes y**p as exp(p log y) on at least `_LOG_ROUTE_MIN_SIZE`
atoms, reading log y through `Magnitudes.log_of`; there the kernels hand
a closed form that may do so (`_reads_log`) one `Magnitudes` view of y
per support class, which keeps the log once computed, so the class's
power closed forms share one log pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

INF = math.inf
# step ratio of the golden-section search in the numeric conjugate
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_BRACKET_CAP = 2.0 ** 1023

# the fewest atoms on which the power closed form takes exp(p log x)
_LOG_ROUTE_MIN_SIZE = 1024

# a few ulps below 1: where phi* jumps to inf at the minimiser k, the
# rounding of k z (and of Scaled's rescaling) can step past the jump,
# so k * _INSIDE is offered beside k
_INSIDE = 1.0 - 2.0 ** -50


class Magnitudes(np.ndarray):
    """A view of an array of |X| >= 0, not all 0, that keeps its log once
    computed (`log_of`), so that every closed form handed the same view
    shares one log pass; arrays computed from the view keep nothing."""

    _log = None

    @staticmethod
    def shared(abs_x: np.ndarray) -> np.ndarray:
        """The array to hand every closed form of a support class that
        `_reads_log`: a view on at least `_LOG_ROUTE_MIN_SIZE` atoms,
        where the power closed form reads the log, else abs_x itself."""
        return abs_x.view(Magnitudes) if abs_x.size >= _LOG_ROUTE_MIN_SIZE else abs_x

    @staticmethod
    def log_of(abs_x: np.ndarray) -> np.ndarray:
        """log abs_x, -inf at 0. The kernels hand the closed forms
        |X| / max|X|, so the log of the largest entries is exact to a few
        ulp at any scale of X, where log |X| would be off by about
        |log |X|| ulp."""
        shared = isinstance(abs_x, Magnitudes)
        if shared and abs_x._log is not None:
            return abs_x._log
        with np.errstate(divide="ignore"):
            log = np.log(np.asarray(abs_x))
        if shared:
            abs_x._log = log
        return log


class OrliczFunction:
    """Base class. Subclasses implement `_eval_array` and `domain_bound`.

    `_eval_scaled(x, s)` is phi(s x), the form the norm kernels evaluate;
    its fallback here is `_eval_array(x * s)`, and a class overrides it
    where it can fold s into a rate of its own.

    `conjugate_array` (phi*) and `derivative_array` (right derivative)
    have numeric fallbacks here, overridden by closed forms where those
    exist; each is vectorised and keeps its argument's shape. `__call__`,
    `conjugate` and `right_derivative` are the scalar entry points, views
    of those, and no subclass overrides them. Optional closed-form hooks:
    `luxemburg_closed_form` (fallback None, so root-finding, except at a
    domain bound), `conjugate_minimisers` (fallback None, so the dual norm
    searches for its k), `affine_pieces` (fallback None) and
    `asymptotic_slope`. The dominating measure weights each prior by the
    exact operator norm sup{x : phi(x) <= 1} = 1 / ||1||_phi.
    """

    #: lim phi(x)/x as x -> inf (inf for superlinear phi), or None when not
    #: known; phi* is infinite above it
    asymptotic_slope: Optional[float] = None

    # whether `luxemburg_closed_form` may read abs_x through
    # `Magnitudes.log_of`: the kernels then hand it the view
    # (`Magnitudes.shared`) that the blocks of a support class share
    _reads_log = False

    @property
    def domain_bound(self) -> float:
        """Supremum of {x : phi(x) < inf}."""
        raise NotImplementedError

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_scaled(self, x: np.ndarray, s: float) -> np.ndarray:
        """phi(s x) for a finite s > 0; raw, like `_eval_array`."""
        return self._eval_array(x if s == 1.0 else x * s)

    def luxemburg_closed_form(self, weights: np.ndarray, abs_x: np.ndarray):
        """inf{lam > 0 : sum weights * phi(abs_x / lam) <= 1} in closed
        form, or None; `weights` are a prior's positive masses and abs_x
        is not all 0. The kernels hand it |X| / max|X|, whose max is 1,
        and scale the result back by max|X|; it must hold at any scale.
        abs_x is a `Magnitudes` view only where `_reads_log` is set, to
        be read as an array (and through `Magnitudes.log_of`).

        The fallback covers a finite domain bound b: below max abs_x / b
        some abs_x / lam lies past b, where phi is inf, so that is the
        norm when the sum is <= 1 there.
        """
        bound = self.domain_bound
        if math.isinf(bound):
            return None
        top = float(np.max(abs_x))
        with np.errstate(over="ignore"):
            at_bound = self._eval_array(np.minimum(abs_x / top * bound, bound))
        return top / bound if float(np.dot(weights, at_bound)) <= 1.0 else None

    def affine_pieces(self):
        """(slopes, intercepts, bound) with phi(x) = max(0, max_k
        slopes[k] x - intercepts[k]) for 0 <= x <= bound and phi = inf
        past the bound, or None when phi is not of that form."""
        return None

    def conjugate_minimisers(self, weights: np.ndarray, z: np.ndarray,
                             level: float = 1.0) -> Optional[np.ndarray]:
        """Candidate k > 0 at which (level + sum weights * phi*(k z)) / k
        attains its infimum over k > 0, [inf] where it is approached as
        k -> inf (there it is b sum weights * z, b the domain bound), or
        None when phi has no closed form for them. `weights` are a prior's
        positive masses and z >= 0 a density on them with max z = 1.

        Every class below uses the same fact: the derivative of the
        objective is (h(k) - level) / k**2 with h(k) = sum weights *
        psi(k z) and psi(y) = y phi*'(y) - phi*(y) nondecreasing, so the
        infimum sits where h first reaches level.
        """
        return None

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("Orlicz functions are defined on [0, inf) only")
        with np.errstate(over="ignore"):
            out = self._eval_array(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    # -- conjugation ------------------------------------------------------

    def conjugate(self, y: float) -> float:
        """phi*(y) = sup_{x >= 0} (x*y - phi(x)) at one point y >= 0."""
        if y < 0:
            raise ValidationError("conjugate argument must be nonnegative")
        return float(self.conjugate_array(np.array([y], dtype=float))[0])

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
        slope = self.asymptotic_slope
        if slope is not None:
            # x y - phi(x) grows without bound above the asymptotic slope
            out[flat > slope] = INF
            pos &= flat <= slope
        if pos.any():
            out[pos] = self._conjugate_search(flat[pos])
        return out.reshape(ys.shape)

    def _g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x*y - phi(x), -inf where phi(x) is inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            v = self._eval_array(x)
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
                keep = g_up > g_hi[grow]
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
        """Right derivative at one point x >= 0; inf at a jump to infinity."""
        if x < 0:
            raise ValidationError("derivative argument must be nonnegative")
        return float(self.derivative_array(np.array([x], dtype=float))[0])

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        """Right derivative elementwise; inf at or past the domain bound.

        Numeric route: the forward difference with step 1e-7 max(1, x),
        inf where phi jumps to inf within the step (as it does from the
        domain bound on).
        """
        xs = np.array(x, dtype=float, ndmin=1)
        h = 1e-7 * np.maximum(1.0, xs)
        with np.errstate(over="ignore", invalid="ignore"):
            hi = self._eval_array(xs + h)
            slope = (hi - self._eval_array(xs)) / h
        return np.where(hi == INF, INF, slope)

    # -- validation -------------------------------------------------------

    def _check_nontrivial(self) -> None:
        """Raise ValidationError unless phi(0) = 0 and phi is finite and
        nonzero somewhere on (0, inf). One `_eval_array` call at 0 and at
        a probe (b / 2 for a finite domain bound b, else 1) decides unless
        phi(probe) is not positive; one more then looks at b, where
        phi(b) = 0 counts as nonzero (phi jumps to inf past b), or at 2,
        4, ..., 2**600."""
        bound = self.domain_bound
        probe = bound / 2.0 if 0.0 < bound < INF else 1.0
        with np.errstate(over="ignore"):
            at_zero, at_probe = self._eval_array(np.array([0.0, probe]))
            if at_zero != 0.0:
                raise ValidationError("phi(0) must be 0")
            if bound <= 0 or at_probe == INF:
                raise ValidationError("Orlicz function must be finite somewhere on (0, inf)")
            if at_probe > 0.0:
                return
            if math.isfinite(bound):
                nonzero = self._eval_array(np.array([bound]))[0] >= 0.0
            else:
                nonzero = (self._eval_array(2.0 ** np.arange(1.0, 601.0)) > 0.0).any()
        if not nonzero:
            raise ValidationError("Orlicz function is identically zero")


@dataclass(frozen=True)
class Power(OrliczFunction):
    """phi(x) = x**p with p >= 1."""

    p: float

    _reads_log = True

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValidationError("Power exponent must be finite with p >= 1")

    @property
    def domain_bound(self) -> float:
        return INF

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        return x ** self.p

    def luxemburg_closed_form(self, weights: np.ndarray, abs_x: np.ndarray):
        # abs_x**p as exp(p log abs_x) shares the log with every power on the
        # same `Magnitudes`. Measured (BENCH_20.json, "power_closed_form_crossover"):
        # from 1 024 atoms on, the shared route costs less than numpy's power
        # once a class has about five power closed forms (a ladder has
        # dozens), under 512 atoms never
        if abs_x.size < _LOG_ROUTE_MIN_SIZE:
            return float(np.dot(weights, np.asarray(abs_x) ** self.p) ** (1.0 / self.p))
        powers = self.p * Magnitudes.log_of(abs_x)
        return float(np.dot(weights, np.exp(powers, out=powers)) ** (1.0 / self.p))

    def affine_pieces(self):
        return ((1.0,), (0.0,), INF) if self.p == 1.0 else None

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if self.p == 1.0:
            return np.where(ys <= 1.0, 0.0, INF)
        q = self.p / (self.p - 1.0)
        with np.errstate(over="ignore"):
            return (self.p - 1.0) * self.p ** (-q) * ys ** q

    def conjugate_minimisers(self, weights: np.ndarray, z: np.ndarray,
                             level: float = 1.0) -> np.ndarray:
        if self.p == 1.0:
            # phi* = 0 up to 1 and inf past it: the largest k with k z <= 1
            k = 1.0 / float(np.max(z))
            return np.array([k, k * _INSIDE])
        # psi(y) = y**q / p**q, so h(k) = level at k = p (level / E z**q)**(1/q)
        q = self.p / (self.p - 1.0)
        s = float(np.dot(weights, z ** q))
        return np.array([self.p * math.exp((math.log(level) - math.log(s)) / q)])

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        # float_power rounds as Python's float ** does; numpy's ** may not
        with np.errstate(over="ignore"):
            return self.p * np.float_power(x, self.p - 1.0)


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
        return np.expm1(self.beta * x)

    def _eval_scaled(self, x: np.ndarray, s: float) -> np.ndarray:
        rate = self.beta * s
        if not 0.0 < rate < INF:
            # x * rate would be 0 * inf at x = 0 or at x = inf
            return super()._eval_scaled(x, s)
        t = x * rate
        return np.expm1(t, out=t)

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.maximum(ys / self.beta, 1.0)
            out = r * np.log(r) - r + 1.0
        # inf - inf above where y / beta is inf: phi* is inf there
        return np.where(ys <= self.beta, 0.0, np.where(r < INF, out, INF))

    def conjugate_minimisers(self, weights: np.ndarray, z: np.ndarray,
                             level: float = 1.0) -> np.ndarray:
        # psi(y) = max(0, y / beta - 1); over z sorted descending, h(k) is
        # the max of the prefix lines k Z_m / beta - W_m (W_m, Z_m prefix
        # sums of w and w z), so h(k) <= level up to beta min (level + W_m) / Z_m
        order = np.argsort(z)[::-1]
        w_m = np.cumsum(weights[order])
        z_m = np.cumsum((weights * z)[order])
        return np.array([self.beta * float(np.min((level + w_m) / z_m))])

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.beta * np.exp(self.beta * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class EssSupIndicator(OrliczFunction):
    """phi(x) = inf * 1_{(1, inf)}(x); its Luxemburg norm is the ess-sup."""

    @property
    def domain_bound(self) -> float:
        return 1.0

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(x <= 1.0, 0.0, INF)

    def luxemburg_closed_form(self, weights: np.ndarray, abs_x: np.ndarray):
        return float(np.max(abs_x))

    def affine_pieces(self):
        return (), (), 1.0

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(y, dtype=float)).copy()

    def conjugate_minimisers(self, weights: np.ndarray, z: np.ndarray,
                             level: float = 1.0) -> np.ndarray:
        # phi*(y) = y: the objective level / k + sum w z falls as k grows
        return np.array([INF])

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(x) < 1.0, 0.0, INF)


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
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _grid_values: np.ndarray = field(init=False, repr=False, compare=False)
    _grid_slopes: np.ndarray = field(init=False, repr=False, compare=False)
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
        knots, slopes = np.asarray(bp), np.asarray(sl)
        vals = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(knots))])
        object.__setattr__(self, "_knots", knots)
        # the evaluator's segments: a flat one from 0 in front of the first
        # breakpoint, so that every x >= 0 lies on one
        if bp[0] > 0.0:
            knots, vals, slopes = (np.concatenate([[0.0], v]) for v in (knots, vals, slopes))
        object.__setattr__(self, "_grid", knots)
        object.__setattr__(self, "_grid_values", vals)
        object.__setattr__(self, "_grid_slopes", slopes)
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
        grid = self._grid
        idx = np.searchsorted(grid, x, side="right") - 1
        out = self._grid_values[idx] + self._grid_slopes[idx] * (x - grid[idx])
        if self.bound is not None:
            out = np.where(x > self.bound, INF, out)
        return out

    def affine_pieces(self):
        # segment i is the line through (breakpoints[i], phi(breakpoints[i]))
        values = self._grid_values[-len(self.slopes):]
        return self.slopes, tuple(self.slopes * self._knots - values), self.domain_bound

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        # index 0 is below the first breakpoint, where phi is flat
        out = np.append(0.0, self.slopes)[np.searchsorted(self._knots, x, side="right")]
        return out if self.bound is None else np.where(np.asarray(x) >= self.bound, INF, out)

    def conjugate_minimisers(self, weights: np.ndarray, z: np.ndarray,
                             level: float = 1.0) -> np.ndarray:
        # for slopes[i-1] < y < slopes[i] phi* takes its sup at
        # breakpoints[i], so psi(y) = phi(breakpoints[i]) rises by
        # slopes[i] * (next knot - breakpoints[i]) as y crosses slopes[i]
        # (to phi(bound) past the top slope, or to inf without a bound).
        # h(k) steps at k = slopes[i] / z_j; the infimum is at the first
        # step where h reaches level, or as k -> inf if it never does.
        pos = z > 0.0
        ends = np.append(self._knots[1:], INF if self.bound is None else self.bound)
        rise = np.asarray(self.slopes) * (ends - self._knots)
        steps = np.divide.outer(self.slopes, z[pos]).reshape(-1)
        order = np.argsort(steps)
        h = np.cumsum(np.multiply.outer(rise, weights[pos]).reshape(-1)[order])
        i = int(np.searchsorted(h, level))
        if i == h.size:
            # phi*(y) = bound y - phi(bound) past the top slope
            return np.array([INF])
        k = float(steps[order[i]])
        return np.array([k, k * _INSIDE])

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
    penalised families, and the losses of the utilities; 0 < theta < inf
    and 0 < one_plus_gamma < inf. A divisor below 1 is allowed (a
    normalised CARA loss is expm1(beta x) / expm1(beta), whose divisor
    expm1(beta) is below 1 for beta < ln 2); the JSON schema and the
    penalised families still require 1 + gamma >= 1.
    """

    inner: OrliczFunction
    theta: float
    one_plus_gamma: float = 1.0

    def __post_init__(self):
        if self.theta <= 0.0 or not math.isfinite(self.theta):
            raise ValidationError("theta must be finite and positive")
        if not 0.0 < self.one_plus_gamma < INF:
            raise ValidationError("divisor must be finite and positive")

    @property
    def domain_bound(self) -> float:
        return self.inner.domain_bound / self.theta

    @property
    def _reads_log(self) -> bool:
        return self.inner._reads_log

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        return self.inner._eval_array(self.theta * x) / self.one_plus_gamma

    def _eval_scaled(self, x: np.ndarray, s: float) -> np.ndarray:
        theta = self.theta * s
        if not 0.0 < theta < INF:
            return super()._eval_scaled(x, s)
        return self.inner._eval_scaled(x, theta) / self.one_plus_gamma

    def luxemburg_closed_form(self, weights: np.ndarray, abs_x: np.ndarray):
        # sum w inner(theta y / lam) / d <= 1 is the inner modular under
        # w / d at lam / theta, so the norm is theta times the inner norm
        base = self.inner.luxemburg_closed_form(weights / self.one_plus_gamma, abs_x)
        return None if base is None else self.theta * base

    def affine_pieces(self):
        pieces, d = self.inner.affine_pieces(), self.one_plus_gamma
        if pieces is None:
            return None
        slopes, intercepts, bound = pieces
        return (tuple(s * self.theta / d for s in slopes),
                tuple(c / d for c in intercepts), bound / self.theta)

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        # sup x*y - inner(theta x)/d  =  inner*(d*y/theta) / d
        d = self.one_plus_gamma
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        return self.inner.conjugate_array(d * ys / self.theta) / d

    def conjugate_minimisers(self, weights: np.ndarray, z: np.ndarray,
                             level: float = 1.0) -> Optional[np.ndarray]:
        # with k' = d k / theta the objective is
        # (d level + sum w inner*(k' z)) / (theta k'): inner's at level d
        d = self.one_plus_gamma
        k = self.inner.conjugate_minimisers(weights, z, d * level)
        return None if k is None else k * (self.theta / d)

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        # one_plus_gamma is finite, so inf stays inf
        inner = self.inner.derivative_array(self.theta * np.asarray(x, dtype=float))
        with np.errstate(over="ignore"):
            return self.theta * inner / self.one_plus_gamma


def validate_orlicz(phi: OrliczFunction) -> None:
    """Check the Orlicz axioms; raises ValidationError. One evaluation of
    phi decides unless phi vanishes at its probe (`_check_nontrivial`)."""
    phi._check_nontrivial()
