"""Köthe-dual norms, dual witnesses, and the weighted-L1 reduction.

The dual norm of a measure mu over a single prior P is
sup{mu|X| : ||X||_{L^phi(P)} <= 1}. Two independent routes are
implemented: the conjugate formula inf_{k>0} (1 + E_P[phi*(k Z)])/k with
Z = d mu/dP, and that definition solved as a convex program, which never
uses phi*. The cross-check between them is the module's main oracle.

The conjugate route takes the k that minimise the objective from phi's
`conjugate_minimisers`, a closed form on `Power`, `Exponential`,
`PiecewiseLinear`, `EssSupIndicator` and `Scaled` of these, and
evaluates the objective there with one `conjugate_array` call, or takes
its limit b E_P[Z] as k -> inf (b the domain bound) with none. Classes
without that closed form (`AggregateOrlicz`) fall back to a batched
bracket search on t = log2 k over [-80, min(80 + log2(1/p), 1023)], p
the smallest prior mass that mu charges: each round evaluates the
objective on a fixed grid of t with one `conjugate_array` call on the
outer product k (x) Z and one mat-vec against P, and the two grid
neighbours of the best point bracket the next round, until the bracket
is 1e-14 wide relative to |t|. The objective is quasiconvex in k, so the
bracket keeps the minimiser. On either route every evaluated value is an
upper bound on the dual norm (Young's inequality), and the smallest one
is returned; the limit is the infimum, an upper bound only up to rounding.

The definition route ("brute") maximises mu s subject to
sum_j P_j phi(s_j) <= 1 and s >= 0 on the atoms mu charges, in
s_j = v_j / ||e_j|| with v in [0, 1]^n: one LP when phi has
`affine_pieces`, else SLSQP, re-solved from each end point rescaled
onto the unit sphere. Every end point s gives mu s / ||s||, a lower
bound up to the tolerance of the norm ||s||; the best one, or the best
vertex, is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ConsistencyError, ValidationError
from .model import MeasureVector, RandomVariable, ScenarioModel, canonicalise, real_array
from .norms import (DEFAULT_TOL, MAX_ITER, NormResult, OrliczFamily, _block_norms,
                    _check_tol, luxemburg_norm, single_prior_luxemburg)
from .orlicz import OrliczFunction, Scaled

INF = math.inf

# points per bracket round of the conjugate-route search on log2 k
_DUAL_GRID = np.linspace(0.0, 1.0, 33)
# SLSQP's stop on the change in its objective (in units where the data are at
# most 1; at 1e-15 the last iterations are failed line searches) and its cap
_SLSQP_FTOL = 5e-15
_SLSQP_MAXITER = 100
# the cap on phi, phi' and z phi' in SLSQP's rows, where 0 mass * inf is nan
_CAP = 1e200
# the root-finder's relative width for the norm of a unit atom: a few ulp
_UNIT_TOL = 1e-15


def prior_norm_bound(phi: OrliczFunction) -> float:
    """The exact operator norm sup{E_P|X| : ||X||_{L^phi(P)} <= 1} of any
    prior P: sup{x : phi(x) <= 1} = 1 / ||1||_phi by Jensen's inequality,
    from the kernel's norm of a unit atom. ValidationError where it is 0 or
    inf (||1||_phi past the kernel's range of lam, [2**-1023, 2**1023])."""
    one = np.ones(1)
    [(norm, _)] = _block_norms([one], one, 1.0, phi, _UNIT_TOL, MAX_ITER)
    bound = 1.0 / norm
    if not 0.0 < bound < INF:
        raise ValidationError(f"the operator norm of a prior under {phi!r} is {bound!r}")
    return bound


def kothe_dual_norm(mu, prior: np.ndarray, phi: OrliczFunction,
                    tol: float = DEFAULT_TOL, method: str = "conjugate",
                    rng=None) -> float:
    """Dual norm sup{mu|X| : ||X||_{L^phi(P)} <= 1} of a measure mu >= 0.

    method is "conjugate" (inf_k (1 + E_P[phi*(k Z)]) / k), "brute" (the
    sup as a convex program) or "both", which cross-checks the two and
    raises ConsistencyError beyond 1e-6 relative disagreement. rng is
    accepted and unused.
    """
    if method not in ("conjugate", "brute", "both"):
        raise ValidationError(f"unknown method {method!r}")
    _check_tol(tol, MAX_ITER)
    m, prior = real_array(mu, "measure masses"), real_array(prior, "prior masses")
    if m.shape != prior.shape:
        raise ValidationError(
            f"measure has shape {m.shape}, the prior has shape {prior.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("measure masses must be finite")
    if np.any(m < 0):
        raise ValidationError("kothe_dual_norm expects a nonnegative measure")
    if not (np.isfinite(prior).all() and (prior >= 0).all()):
        raise ValidationError("prior masses must be finite and nonnegative")
    if np.any(m[prior == 0.0] != 0.0):
        raise ValidationError("measure is not absolutely continuous w.r.t. the prior")
    if not np.any(m > 0):
        return 0.0
    value_c = _dual_norm_conjugate(m, prior, phi) if method != "brute" else None
    value_b = _dual_norm_brute(m, prior, phi, tol) if method != "conjugate" else None
    if method == "both" and abs(value_c - value_b) > 1e-6 * max(1.0, value_c):
        raise ConsistencyError(
            f"conjugate-route dual norm {value_c!r} and definition-route "
            f"value {value_b!r} disagree beyond 1e-6 relative")
    return value_c if value_c is not None else value_b


def _dual_norm_conjugate(m: np.ndarray, prior: np.ndarray,
                         phi: OrliczFunction) -> float:
    # G(k) = E_P[phi*(kZ)] is convex in k with G(0) = 0, and (1 + G(k))/k
    # is quasiconvex: its stationarity condition k G'(k) - G(k) = 1 has a
    # nondecreasing left side. phi's class supplies the k where it holds
    # (or [inf], where the value is the limit b E_P[Z] as k -> inf, b the
    # domain bound); without them, a search brackets one. Young's
    # inequality makes every value >= sup{mu|X| : ||X|| <= 1}, the limit
    # up to its rounding. The norm is positively homogeneous in mu, so k
    # is found for Z / max Z, where it does not depend on the scale of mu,
    # and the value scales back; Z is formed from mu / max mu, so that it
    # overflows only where a prior mass is subnormal, and inf is then the
    # (trivial) upper bound.
    # One overflow state covers Z and every evaluation of the objective.
    pos = prior > 0.0
    w = prior[pos]
    top = float(m.max())
    with np.errstate(over="ignore"):
        z = m[pos] / top / w
        z_top = float(z.max())
        if z_top == INF:
            return INF
        z /= z_top
        k = phi.conjugate_minimisers(w, z)
        if k is None:
            best = _bracket_search(w, z, phi)
        elif k[0] == INF:  # phi*(k z) / k -> b z
            best = phi.domain_bound * float(np.dot(w, z))
        else:
            best = float(_objective(w, z, phi, k).min())
    return top * (z_top * best)


def _objective(w: np.ndarray, z: np.ndarray, phi: OrliczFunction,
               k: np.ndarray) -> np.ndarray:
    """(1 + sum w phi*(k z)) / k at every k, from one `conjugate_array`
    call; phi*(k z) may overflow, under the caller's error state."""
    conj = phi.conjugate_array(np.multiply.outer(k, z).reshape(-1))
    return (1.0 + conj.reshape(k.size, z.size).dot(w)) / k


def _bracket_search(w: np.ndarray, z: np.ndarray, phi: OrliczFunction) -> float:
    # a flat part of the quasiconvex objective is a minimum, so the grid
    # neighbours of the best point bracket a minimiser. Where the density
    # sits on an atom of mass p, the minimiser is about phi'(phi^{-1}(1/p)),
    # so the top of the range grows by log2(1/p) for the lightest charged
    # atom, up to the largest finite power of 2
    lo, hi = -80.0, min(80.0 - math.log2(float(w[z > 0.0].min())), 1023.0)
    best = INF
    while True:
        t = lo + (hi - lo) * _DUAL_GRID
        vals = _objective(w, z, phi, np.exp2(t))
        i = int(vals.argmin())
        best = min(best, float(vals[i]))
        lo, hi = float(t[max(i - 1, 0)]), float(t[min(i + 1, t.size - 1)])
        if hi - lo <= 1e-14 * max(1.0, abs(lo) + abs(hi)):
            return best


def _dual_norm_brute(m: np.ndarray, prior: np.ndarray, phi: OrliczFunction,
                     tol: float) -> float:
    # max{mu s : sum_j P_j phi(s_j) <= 1, s >= 0} on the atoms mu charges, in
    # s_j = sigma_j v_j: sigma_j = 1 / ||e_j|| is where atom j alone meets the
    # constraint, so v lies in [0, 1]^n, v = 1/n is feasible by convexity, and
    # every row keeps its scale however light its atom
    from scipy import optimize

    top = float(m.max())
    mu, p = m[m > 0.0] / top, prior[m > 0.0]
    sigma = 1.0 / np.array(_block_norms([p[j:j + 1] for j in range(p.size)], np.ones(1), 1.0,
                                        phi, tol, MAX_ITER))[:, 0]
    c = mu * sigma
    vertex = float(c.max())  # the best vertex, the floor of the lower bound
    n, total = p.size, float(p.sum())
    if n == 1 or vertex == INF or 1.0 / total == INF:
        return top * vertex
    c /= vertex
    # masses relative to their sum, phi scaled by it: the same constraint
    w, psi = p / total, Scaled(phi, 1.0, 1.0 / total)
    bounds = list(zip(np.zeros(n), np.minimum(1.0, psi.domain_bound / sigma)))
    pieces = psi.affine_pieces()
    if pieces is not None:
        # one LP in (v, W): w_j (s_k sigma_j v_j - c_k) <= W_j, sum W <= 1; at
        # HiGHS's default feasibility tolerances, 1e-7, it missed 1e-9 on light atoms
        A = np.vstack([np.hstack([np.diag(w * s * sigma), -np.eye(n)]) for s in pieces[0]]
                      + [np.append(np.zeros(n), np.ones(n))])
        x = optimize.linprog(np.append(-c, np.zeros(n)), A_ub=A,
                             b_ub=np.append([w * k for k in pieces[1]], 1.0),
                             bounds=bounds + [(0.0, None)] * n, method="highs",
                             options={"primal_feasibility_tolerance": 1e-10,
                                      "dual_feasibility_tolerance": 1e-10}).x

        def solve(v: np.ndarray) -> np.ndarray:
            return v if x is None else x[:n]
    else:
        row = {"type": "ineq",
               "fun": lambda v: 1.0 - w @ np.fmin(psi._eval_array(sigma * v), _CAP),
               "jac": lambda v: -np.fmin(w * sigma * psi.derivative_array(sigma * v), _CAP)[None]}

        def solve(v: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                return optimize.minimize(
                    lambda v: -(c @ v), v, method="SLSQP", jac=lambda v: -c,
                    bounds=bounds, constraints=row,
                    options={"ftol": _SLSQP_FTOL, "maxiter": _SLSQP_MAXITER}).x
    # each end point s gives the lower bound mu s / ||s||; it is rescaled onto
    # the sphere (SLSQP clips a start to the bounds) and solved again while
    # the bound rises by more than tol times itself
    v, last, best = np.full(n, 1.0 / n), 0.0, 1.0
    for _ in range(MAX_ITER):
        v = solve(v)
        norm = single_prior_luxemburg(p, phi, sigma * v, tol)
        value = float(c @ v) / norm if norm > 0.0 else 0.0
        best = max(best, value)
        if not value > last * (1.0 + tol):
            break
        v, last = v / norm, value
    return top * vertex * best


@dataclass
class DualWitness:
    measure: MeasureVector
    pairing: float
    dual_norm: float
    gap: float
    prior_label: str


def derivative_density(prior: np.ndarray, phi: OrliczFunction,
                       z: np.ndarray) -> np.ndarray:
    """P * phi'(z) atomwise, with phi' the right derivative taken by one
    `derivative_array` call on the prior's support; where phi' is
    infinite on some atom of the prior (z at or past a domain bound,
    where the modular jumps to infinity) it is P on those atoms and 0
    elsewhere. Atoms outside the prior's support carry 0.
    """
    pos = prior > 0
    deriv = np.zeros(prior.shape)
    deriv[pos] = phi.derivative_array(z[pos])
    inf_mask = np.isinf(deriv)
    if inf_mask.any():
        return np.where(inf_mask, prior, 0.0)
    return prior * deriv


def dual_witness(model: ScenarioModel, x, family: OrliczFamily,
                 tol: float = DEFAULT_TOL,
                 norm_result: Optional[NormResult] = None) -> DualWitness:
    """A measure mu >= 0 with dual norm 1 whose pairing mu|X| attains ||X||.

    Construction: pick the prior attaining the sup of per-prior norms
    (ties broken by declaration order), take the right derivative of its
    Orlicz function at |X|/lam with lam the lower bracket end, and weight
    by the prior. Atoms where the derivative is infinite (the modular
    jumps to infinity there) carry the whole witness instead.
    """
    abs_x = np.abs(canonicalise(model, x).values)
    if norm_result is None:
        norm_result = luxemburg_norm(model, abs_x, family, tol=tol)
    value = norm_result.value
    if value == 0.0 or value == INF:
        raise ValidationError("dual witness needs 0 < ||X|| < inf")

    best_label = max(model.prior_labels, key=norm_result.per_prior_norms.__getitem__)
    prior = model.prior(best_label)
    phi = family.phi(best_label)

    lam = norm_result.bracket[0]
    if not (lam > 0 and math.isfinite(lam)):
        lam = value
    raw = derivative_density(prior, phi, abs_x / lam)
    if not np.any(raw > 0):
        raise ConsistencyError("dual witness degenerated to the zero measure")

    raw_dual = kothe_dual_norm(raw, prior, phi, tol=tol, method="conjugate")
    masses = raw / raw_dual
    pairing = float(np.dot(masses, abs_x))
    dual = kothe_dual_norm(masses, prior, phi, tol=tol, method="conjugate")
    gap = value * dual - pairing
    return DualWitness(measure=MeasureVector(masses), pairing=pairing,
                       dual_norm=dual, gap=gap, prior_label=best_label)


def canonical_projection(model: ScenarioModel, x, label: str) -> RandomVariable:
    """Restrict a random variable to the support of one prior."""
    prior = model.prior(label)
    v = canonicalise(model, x).values
    return RandomVariable(np.where(prior > 0.0, v, 0.0), canonical=True)


@dataclass
class L1ReductionReport:
    """alpha = min_P sup{x : phi_P(x) <= 1} exactly (`prior_norm_bound`),
    so kappa = ||1|| = 1 / alpha up to tol; `mass_bound_ok`: every witness
    mass is at most (1 + 1e-8) / alpha. `applicable` is always True."""

    applicable: bool
    reason: str
    kappa: float
    alpha: float
    max_rel_gap: float
    kappa_bound_ok: bool
    mass_bound_ok: bool
    n_samples: int
    witnesses: List[dict] = field(default_factory=list)


def verify_l1_reduction(model: ScenarioModel, family: OrliczFamily,
                        sample_size: int = 100, tol: float = DEFAULT_TOL,
                        seed: int = 0) -> L1ReductionReport:
    """Reproduce the robust norm as a weighted worst-case L1 norm.

    Each sample's dual witness is rescaled to a probability measure Q
    with weight theta(Q) = mass of the witness; the pool must recover
    every sampled norm as sup_Q theta(Q) E_Q|X| with relative gap below
    1e-6, and kappa = ||1|| must dominate ||X|| / ess-sup|X|. The sups
    come from one product of the pool's measures with the samples. alpha
    is the least `prior_norm_bound` of the distinct phi of the model's priors.
    """
    if sample_size < 1:
        raise ValidationError("sample_size must be at least 1")
    family.check_model(model)
    distinct = {id(phi): phi for phi in map(family.phi, model.prior_labels)}.values()
    alpha = min(map(prior_norm_bound, distinct))
    kappa = luxemburg_norm(model, np.ones(model.n_atoms), family, tol=tol).value
    rng = np.random.default_rng(seed)
    support = model.support_mask

    qs, thetas, abs_xs, values = [], [], [], []
    for _ in range(sample_size):
        x = np.abs(rng.normal(size=model.n_atoms)) + 0.05
        x *= rng.integers(1, 4)
        res = luxemburg_norm(model, x, family, tol=tol)
        if not (0 < res.value < INF):
            continue
        w = dual_witness(model, x, family, tol=tol, norm_result=res)
        mass = w.measure.total_mass
        qs.append(w.measure.masses / mass)
        thetas.append(mass)
        abs_xs.append(np.where(support, np.abs(x), 0.0))
        values.append(res.value)

    # theta(Q_i) E_{Q_i}|X_j| for every witness i and sample j at once
    n, theta = model.n_atoms, np.array(thetas)
    abs_xs, values = np.reshape(abs_xs, (-1, n)), np.array(values)
    pairs = theta[:, None] * (np.reshape(qs, (-1, n)) @ abs_xs.T)
    sup_pair = pairs.max(axis=0, initial=-INF)
    max_gap = float(np.max(np.abs(values - sup_pair) / values, initial=0.0))
    kappa_ok = not np.any(values > kappa * abs_xs.max(axis=1) * (1.0 + 1e-8))
    mass_ok = not np.any(theta > (1.0 + 1e-8) / alpha)

    return L1ReductionReport(
        applicable=True, reason="sup_P phi_P finite at some positive point",
        kappa=kappa, alpha=alpha, max_rel_gap=max_gap,
        kappa_bound_ok=kappa_ok, mass_bound_ok=mass_ok,
        n_samples=values.size,
        witnesses=[{"masses": list(q), "theta": theta} for q, theta in zip(qs, thetas)])
