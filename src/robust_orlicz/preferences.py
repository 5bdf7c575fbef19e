"""Variational-preference agents and the aggregated Orlicz family.

Each agent carries a concave nondecreasing utility u with u(0) = 0, a
subset of the model priors, and a penalty c >= 0 with min c = 0. The
aggregated Orlicz function of a prior P is the pointwise sup of
(-u_i(-x)) / (1 + c_i(P)) over agents whose prior set contains P; the
normalisation u(-1) = -1 pins phi_P(1) <= 1.

Each term is a stock Orlicz class (`Utility.loss`): a linear utility
s x gives `Scaled(Power(1), s, d)`, a CARA utility gives
`Scaled(Exponential(beta), 1, d / scale)` and a piecewise-linear one a
`PiecewiseLinear` with the knots reflected and the slopes divided by d.
`aggregate_family` returns that class for a prior covered by one agent,
the term with the largest slope s / d when every term is linear, and an
`AggregateOrlicz` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .model import ScenarioModel, canonicalise, expectation
from .norms import DEFAULT_TOL, OrliczFamily, luxemburg_norm
from .orlicz import (INF, Exponential, OrliczFunction, PiecewiseLinear, Power, Scaled,
                     validate_orlicz)

NORMALISATION_TOL = 1e-9


class Utility:
    """Concave nondecreasing u on the reals with u(0) = 0."""

    #: lim -u(-x)/x as x -> inf (inf for superlinear loss)
    asymptotic_slope: float

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """u elementwise; raw, like `OrliczFunction._eval_array`: it may
        overflow, and its callers own numpy's error state."""
        raise NotImplementedError

    def loss(self, divisor: float) -> OrliczFunction:
        """The Orlicz function x -> -u(-x) / divisor on x >= 0: a stock
        class, or the one-term `AggregateOrlicz` where none holds it."""
        raise NotImplementedError

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = self.eval_array(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@dataclass(frozen=True)
class LinearUtility(Utility):
    slope: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.slope < INF:
            raise ValidationError("utility slope must be finite and positive")

    @property
    def asymptotic_slope(self) -> float:
        return self.slope

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return self.slope * x

    def loss(self, divisor: float) -> OrliczFunction:
        return Scaled(Power(1.0), self.slope, divisor)


@dataclass(frozen=True)
class CARAUtility(Utility):
    """u(x) = scale * (1 - exp(-beta x)); scale = 1/(e^beta - 1) gives
    the normalisation u(-1) = -1."""

    beta: float
    scale: float
    asymptotic_slope = INF

    def __post_init__(self):
        if not (0.0 < self.beta < INF and 0.0 < self.scale < INF):
            raise ValidationError("CARA parameters must be finite and positive")

    @staticmethod
    def normalised(beta: float) -> "CARAUtility":
        try:
            return CARAUtility(beta=beta, scale=1.0 / math.expm1(beta))
        except (ZeroDivisionError, OverflowError):
            raise ValidationError("CARA rate must be positive with exp(beta) finite") from None

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return self.scale * -np.expm1(-self.beta * x)

    def loss(self, divisor: float) -> OrliczFunction:
        # scale expm1(beta x) / divisor; for beta within ln(divisor) of
        # the float range divisor / scale overflows, and only the
        # aggregate holds the term
        d = divisor / self.scale
        return Scaled(Exponential(self.beta), 1.0, d) if d < INF else AggregateOrlicz(
            [(self, divisor)])


@dataclass(frozen=True)
class PiecewiseLinearUtility(Utility):
    """Concave piecewise-linear utility: knots (ascending, containing 0 in
    range or not), slopes nonincreasing, anchored by u(0) = 0."""

    knots: tuple
    slopes: tuple  # slopes[i] on [knots[i-1], knots[i]); slopes[0] extends left
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _grid_slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, knots: Sequence[float], slopes: Sequence[float]):
        kn = tuple(float(k) for k in knots)
        sl = tuple(float(s) for s in slopes)
        if len(sl) != len(kn) + 1:
            raise ValidationError("need one more slope than knots")
        if not all(map(math.isfinite, kn + sl)):
            raise ValidationError("knots and slopes must be finite")
        if any(x >= y for x, y in zip(kn, kn[1:])):
            raise ValidationError("knots must be strictly ascending")
        if any(x < y for x, y in zip(sl, sl[1:])) :
            raise ValidationError("slopes must be nonincreasing (concavity)")
        if any(s < 0 for s in sl):
            raise ValidationError("utility must be nondecreasing")
        object.__setattr__(self, "knots", kn)
        object.__setattr__(self, "slopes", sl)
        # the knots and 0, the slope to the right of each, and the values
        # summed outward from u(0) = 0 (0.0 - s keeps a zero sum at +0.0)
        grid = np.unique(np.append(kn, 0.0) if 0.0 not in kn else np.asarray(kn))
        grid_slopes = np.asarray(sl)[np.searchsorted(kn, grid, side="right")]
        rise = grid_slopes[:-1] * np.diff(grid)
        z = int(np.searchsorted(grid, 0.0))
        values = np.concatenate([0.0 - np.cumsum(rise[:z][::-1])[::-1], [0.0],
                                 np.cumsum(rise[z:])])
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_grid_slopes", grid_slopes)

    @property
    def asymptotic_slope(self) -> float:
        # slopes[0] extends left, so it is the slope of -u(-x) as x -> inf
        return self.slopes[0]

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        grid = self._grid
        idx = np.maximum(np.searchsorted(grid, x, side="right") - 1, 0)
        out = self._values[idx] + self._grid_slopes[idx] * (x - grid[idx])
        # left of the first grid point the leftmost slope extends
        return np.where(x < grid[0], self._values[0] + self.slopes[0] * (x - grid[0]), out)

    def loss(self, divisor: float) -> OrliczFunction:
        # -u(-x) has a kink at -k for each knot k < 0 and, from x = 0 on,
        # the slopes of u right to left
        below = sum(k < 0.0 for k in self.knots)
        return PiecewiseLinear([0.0] + [-k for k in reversed(self.knots[:below])],
                               [s / divisor for s in reversed(self.slopes[:below + 1])])


@dataclass(frozen=True)
class Agent:
    utility: Utility
    prior_labels: tuple
    penalty: Dict[str, float]
    name: str = ""

    def __init__(self, utility: Utility, prior_labels: Sequence[str],
                 penalty: Dict[str, float], name: str = ""):
        prior_labels = tuple(str(l) for l in prior_labels)
        if not prior_labels:
            raise ValidationError("agent needs at least one prior")
        penalty = {str(k): float(v) for k, v in penalty.items()}
        missing = [l for l in prior_labels if l not in penalty]
        if missing:
            raise ValidationError(f"agent penalty misses priors {missing}")
        if not all(0.0 <= v < INF for v in penalty.values()):
            raise ValidationError("penalties must be finite and nonnegative")
        if min(penalty[l] for l in prior_labels) > NORMALISATION_TOL:
            raise ValidationError("penalty must vanish at some prior (min c = 0)")
        at_zero, at_minus_one = utility(np.array([0.0, -1.0]))
        if not abs(at_zero) <= NORMALISATION_TOL:
            raise ValidationError("utility must satisfy u(0) = 0")
        if not abs(at_minus_one + 1.0) <= NORMALISATION_TOL:
            raise ValidationError(
                "utility normalisation u(-1) = -1 violated; renormalise the "
                "utility rather than relying on silent rescaling")
        object.__setattr__(self, "utility", utility)
        object.__setattr__(self, "prior_labels", prior_labels)
        object.__setattr__(self, "penalty", penalty)
        object.__setattr__(self, "name", name)


def evaluate_utility(model: ScenarioModel, agent: Agent, x) -> float:
    """min over the agent's priors of E_P[u(X)] + c(P)."""
    missing = [l for l in agent.prior_labels if l not in model.prior_labels]
    if missing:
        raise ValidationError(f"agent priors {missing} are not model priors")
    xc = canonicalise(model, x).values
    return min(
        expectation(model.prior(l), agent.utility(xc)) + agent.penalty[l]
        for l in agent.prior_labels
    )


@dataclass(frozen=True)
class AggregateOrlicz(OrliczFunction):
    """phi(x) = max over agent terms of (-u(-x)) / (1 + c).

    phi is evaluated from parts computed once from the terms: the linear
    terms fold into one slope, max s / (1 + c); a CARA term is
    (scale / (1 + c)) expm1(beta x); any other term is its utility's
    `loss`.
    """

    terms: tuple  # of (Utility, one_plus_c)
    _slope: float = field(init=False, repr=False, compare=False)
    _cara: tuple = field(init=False, repr=False, compare=False)
    _losses: tuple = field(init=False, repr=False, compare=False)
    _rate_range: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, terms: Sequence[Tuple[Utility, float]]):
        terms = tuple((u, float(d)) for u, d in terms)
        if not terms:
            raise ValidationError("aggregate needs at least one term")
        if not all(1.0 <= d < INF for _, d in terms):
            raise ValidationError("divisors 1 + c must be finite and >= 1")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_slope", max(
            (u.slope / d for u, d in terms if isinstance(u, LinearUtility)), default=0.0))
        object.__setattr__(self, "_cara", tuple(
            (u.scale / d, u.beta) for u, d in terms if isinstance(u, CARAUtility)))
        object.__setattr__(self, "_losses", tuple(
            u.loss(d) for u, d in terms if not isinstance(u, (LinearUtility, CARAUtility))))
        rates = [beta for _, beta in self._cara] + [self._slope] * bool(self._slope)
        object.__setattr__(self, "_rate_range", (min(rates, default=1.0), max(rates, default=1.0)))

    @property
    def domain_bound(self) -> float:
        return INF

    @property
    def asymptotic_slope(self) -> float:
        return max(u.asymptotic_slope / d for u, d in self.terms)

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        return self._eval_scaled(x, 1.0)

    def _eval_scaled(self, x: np.ndarray, s: float) -> np.ndarray:
        # s folds into the slope and the CARA rates, unless one of them
        # would leave the float range (0 * inf at x = 0 or x = inf)
        low, high = self._rate_range
        if not (low * s > 0.0 and high * s < INF):
            x, s = x * s, 1.0
        # every part is >= 0 on x >= 0; without a linear part the max
        # starts from 0 rather than from 0 x, which is NaN at x = inf
        out = (self._slope * s) * x if self._slope else 0.0
        for c, beta in self._cara:
            out = np.maximum(out, c * np.expm1((beta * s) * x))
        for loss in self._losses:
            out = np.maximum(out, loss._eval_scaled(x, s))
        return out

    def derivative_array(self, x: np.ndarray) -> np.ndarray:
        # the right derivative of a max of convex parts is the largest right
        # derivative among the parts that attain it
        xs = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [(self._slope * xs, np.full(xs.shape, self._slope))] if self._slope else []
            parts += [(c * np.expm1(beta * xs), c * beta * np.exp(beta * xs))
                      for c, beta in self._cara]
            parts += [(loss._eval_array(xs), loss.derivative_array(xs)) for loss in self._losses]
            top = np.max([value for value, _ in parts], axis=0)
            return np.max([np.where(value == top, slope, 0.0) for value, slope in parts], axis=0)


def aggregate_family(model: ScenarioModel, agents: Sequence[Agent]) -> OrliczFamily:
    """Pointwise-sup aggregation of the agents' risk attitudes per prior.

    Every model prior must be covered by at least one agent; each
    aggregated function is validated as an Orlicz function and must
    satisfy phi_P(1) <= 1 (a consequence of the utility normalisation).
    """
    functions = {}
    for label in model.prior_labels:
        terms = [(a.utility, 1.0 + a.penalty[label])
                 for a in agents if label in a.prior_labels]
        if not terms:
            raise ValidationError(f"prior {label!r} is covered by no agent")
        if len(terms) == 1 or all(isinstance(u, LinearUtility) for u, _ in terms):
            # one term, or lines through 0 whose max is the steepest
            u, d = max(terms, key=lambda t: t[0].asymptotic_slope / t[1])
            phi = u.loss(d)
        else:
            phi = AggregateOrlicz(terms)
        validate_orlicz(phi)
        if phi(1.0) > 1.0 + NORMALISATION_TOL:
            raise ValidationError(
                f"aggregated function exceeds 1 at x = 1 for prior {label!r}")
        functions[label] = phi
    return OrliczFamily(functions)


@dataclass
class ExtensionBoundReport:
    n_checks: int
    max_slack: float
    violations: int


def verify_extension_bound(model: ScenarioModel, agents: Sequence[Agent],
                           family: OrliczFamily, sample_size: int = 100,
                           tol: float = DEFAULT_TOL,
                           seed: int = 0) -> ExtensionBoundReport:
    """Check E_P[-u_i(-|X|/lam)] <= 1 + c_i(P) at lam = ||X|| (1 + 10 tol).

    This is the finite-model form of the continuity estimate that lets
    each preference functional extend to the aggregated space; the
    reported slack is the worst value of LHS - RHS and must be <= 0 up
    to tolerance.
    """
    if sample_size < 1:
        raise ValidationError("sample_size must be at least 1")
    rng = np.random.default_rng(seed)
    max_slack = -INF
    violations = 0
    checks = 0
    for _ in range(sample_size):
        x = rng.normal(size=model.n_atoms) * rng.integers(1, 5)
        abs_x = np.abs(canonicalise(model, x).values)
        value = luxemburg_norm(model, abs_x, family, tol=tol).value
        if not (0 < value < INF):
            continue
        lam = value * (1.0 + 10.0 * tol)
        for agent in agents:
            with np.errstate(over="ignore"):
                loss = -agent.utility.eval_array(-abs_x / lam)
            for label in agent.prior_labels:
                if label not in model.prior_labels:
                    continue
                lhs = expectation(model.prior(label), loss)
                slack = lhs - (1.0 + agent.penalty[label])
                checks += 1
                max_slack = max(max_slack, slack)
                if slack > 10.0 * tol:
                    violations += 1
    return ExtensionBoundReport(n_checks=checks, max_slack=max_slack,
                                violations=violations)
