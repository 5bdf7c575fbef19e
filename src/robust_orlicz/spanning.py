"""Option-span bases and robust-norm best approximation.

For a limited-liability claim X the span of the constant 1 and the call
payoffs (X - k)+ over all strikes k contains exactly the functions of X
on the support; strikes are placed at the observed distinct values of X
(all but the largest), which makes the basis canonical and linearly
independent.

The best approximation of a target Y by the span in the worst-case
Luxemburg norm is a convex min-max problem over the coefficients a. As
||r||_P <= t exactly when sum_j P_j t phi(u_j / t) <= t for some u >= |r|,
it is solved as one convex program in a and lifted variables, with no
norm evaluated inside the solve. Its multipliers give a measure
orthogonal to the span whose pairing with Y, over its dual norms, is a
lower bound on the distance (weak duality): the answer is returned once
that bound meets it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .duality import _CAP, _SLSQP_FTOL, _SLSQP_MAXITER, _dual_norm_conjugate
from .model import ScenarioModel, canonicalise
from .norms import DEFAULT_TOL, MAX_ITER, OrliczFamily, _check_tol, sup_prior_norms

INF = math.inf


@dataclass
class OptionBasis:
    claim: np.ndarray
    strikes: List[float]
    vectors: np.ndarray  # shape (n_basis, n_atoms), canonical
    dimension: int


def option_basis(model: ScenarioModel, x) -> OptionBasis:
    """Basis {1, (X - k)+ : k a distinct value of X except the largest}."""
    xc = canonicalise(model, x).values
    support = model.support_mask
    if not np.all(np.isfinite(xc)):
        raise ValidationError("option basis needs a finite claim")
    if np.any(xc[support] < 0):
        raise ValidationError("option basis needs a nonnegative claim")
    distinct = sorted(set(float(v) for v in xc[support]))
    strikes = distinct[:-1]
    vectors = [np.where(support, 1.0, 0.0)]
    for k in strikes:
        vectors.append(np.where(support, np.maximum(xc - k, 0.0), 0.0))
    return OptionBasis(claim=xc, strikes=strikes,
                       vectors=np.array(vectors), dimension=len(distinct))


@dataclass
class ProjectionResult:
    coefficients: np.ndarray
    residual_norm: float
    lower_bound: float
    stationary: bool
    restart_values: List[float]


def _check_count(value, name: str, minimum: int) -> None:
    if not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}")


def _scales(yc: np.ndarray, B: np.ndarray, support: np.ndarray) -> tuple:
    """c_Y and c_B: powers of 2 just above the largest |entries| of Y and of
    each basis vector on the support (1 where those are all 0)."""
    c_y = math.ldexp(1.0, math.frexp(np.abs(yc[support]).max())[1])
    c_b = np.ldexp(1.0, np.frexp(np.abs(B[:, support]).max(axis=1))[1])
    return c_y, c_b


def _lifted_solver(model: ScenarioModel, yc: np.ndarray, B: np.ndarray,
                   family: OrliczFamily, exact: float, optimize) -> Callable:
    """solve(a0, f0) -> (coefficients, success flag, lower bound, measure)
    for the lifted program of `project_onto_span` from a start a0 of robust
    norm f0 > exact.

    On the m support atoms it minimises t over v = (a, t, u, w) with
    u -+ (Y - aB) >= 0, t >= exact / 2, u, w >= 0 and, per prior P, the
    perspective row t - t sum_j P_j phi(u_j / t) >= 0 or, for
    phi = max(0, max_k s_k x - c_k) on [0, b] (`affine_pieces`), a w of
    its own on the atoms P charges with w_j - s_k u_j + c_k t >= 0,
    t - sum_j P_j w_j >= 0 and b t - u_j >= 0. z = u / t is the same for
    every prior, so the priors whose phi are equal share one `_eval_array`
    call per point and one `derivative_array` call per Jacobian, capped
    at _CAP. It is solved for Y / c_Y and each B_i / c_i, powers of
    2 just above their largest entries (the program is homogeneous), by
    one SLSQP call from (a0, f0, |Y - a0 B|, the least feasible w) or, with
    no perspective row, as one HiGHS LP for every start.

    The lower bound is weak duality on the solve's multipliers. mu =
    nu+ - nu- from the rows u -+ (Y - aB) >= 0, less its least-squares
    projection onto the span, is split over the priors in proportion to
    each prior's share of the stationarity in u_j: kappa_P P_j
    phi'(u_j / t) for a perspective row of multiplier kappa_P, and the
    pieces' slopes times their rows' multipliers plus the bound row's
    (P_j where every share is 0). Then <mu, Y> = <mu, Y - aB> <= sum_P
    ||mu_P||_P,* ||Y - aB||_P for every a, so <mu, Y> / sum_P ||mu_P||_P,*
    is at most the distance; each dual norm is the conjugate route's, an
    upper bound. The measure is that mu on the atoms, 0 off the support.
    """
    support = model.support_mask
    P = np.stack(model.priors)[:, support]
    phis = [family.phi(label) for label in model.prior_labels]
    c_y, c_b = _scales(yc, B, support)
    Bs, ys = B[:, support] / c_b[:, None], yc[support] / c_y
    n, m = Bs.shape
    smooth, linear = [], []  # (phi, masses) per group; (prior, pieces)
    smooth_owner = []  # the prior of each perspective row
    groups: dict = {}  # id(phi) -> (phi, its priors); a family makes equal phis one object
    for i, phi in enumerate(phis):
        groups.setdefault(id(phi), (phi, []))[1].append(i)
    for phi, members in groups.values():
        pieces = phi.affine_pieces()
        if pieces is None:
            smooth.append((phi, P[members]))
            smooth_owner += members
        else:
            linear += [(i, pieces) for i in members]
    # the linear rows G v + h >= 0, each w after u in prior order; owner is
    # the prior of each row, -1 for the rows u -+ (Y - aB) >= 0
    u_end = n + 1 + m
    width = u_end + sum(np.count_nonzero(P[i]) for i, (slopes, _, _) in linear if slopes)
    I = np.eye(width)
    e_t, e_u, fit = I[n], I[n + 1:u_end], Bs.T @ I[:n]
    rows, owner, w_blocks, col = [e_u + fit, e_u - fit], [-1] * 2 * m, [], u_end
    for i, (slopes, intercepts, bound) in sorted(linear, key=lambda item: item[0]):
        J = np.flatnonzero(P[i])
        if slopes:
            e_w, col = I[col:col + J.size], col + J.size
            w_blocks.append((J, np.asarray(slopes), np.asarray(intercepts)))
            rows += [c * e_t - s * e_u[J] + e_w for s, c in zip(slopes, intercepts)]
            rows.append((e_t - P[i, J] @ e_w)[None])
        if bound < INF:
            rows.append(bound * e_t - e_u[J])
        owner += [i] * (sum(map(len, rows)) - len(owner))
    owner = np.array(owner + smooth_owner)
    G = np.vstack(rows)
    h = np.concatenate([-ys, ys, np.zeros(len(G) - 2 * m)])
    bounds = [(None, None)] * n + [(0.5 * exact / c_y, None)] + [(0.0, None)] * (width - n - 1)

    def certificate(jac_u: np.ndarray, mult: np.ndarray) -> Tuple[float, np.ndarray]:
        # jac_u: the rows' Jacobian in u, so each prior's share of atom j
        # is the sum over its rows of multiplier times -d row / d u_j
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu = mult[:m] - mult[m:2 * m]
            mu -= Bs.T @ np.linalg.lstsq(Bs.T, mu, rcond=None)[0]
            share = np.abs(((owner == np.arange(len(P))[:, None]) * mult) @ jac_u)
            idle = share.sum(axis=0) == 0.0
            share[:, idle] = P[:, idle]
            parts = mu * share / share.sum(axis=0)
            dual = sum(_dual_norm_conjugate(np.abs(part), P[i], phis[i])
                       for i, part in enumerate(parts) if part.any())
            lower = float(mu @ ys) * c_y / dual if 0.0 < dual < INF else 0.0
        measure = np.zeros(model.n_atoms)
        measure[support] = mu
        return (lower if 0.0 < lower < INF else 0.0), measure

    if not smooth:  # an LP: one HiGHS solve serves every start
        # at HiGHS's defaults it drops matrix entries below 1e-9 and stops at
        # feasibility 1e-7; scipy passes small_matrix_value on with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            res = optimize.linprog(e_t, A_ub=-G, b_ub=h, bounds=bounds, method="highs",
                                   options={"primal_feasibility_tolerance": 1e-10,
                                            "dual_feasibility_tolerance": 1e-10,
                                            "small_matrix_value": 1e-12})
        if res.x is None:
            return lambda a0, f0: (a0, False, 0.0, None)
        found = (res.x[:n] * c_y / c_b, res.status == 0)
        found += (certificate(G[:, n + 1:u_end], -res.ineqlin.marginals)
                  if res.status == 0 else (0.0, None))
        return lambda a0, f0: found
    jac0 = np.vstack([G, np.zeros((len(smooth_owner), width))])
    last = {}  # phi(z) at the last point, for the Jacobian there

    def point(v: np.ndarray) -> tuple:
        key = v.tobytes()
        if key not in last:
            z = v[n + 1:u_end] / v[n]
            last.clear()
            last[key] = z, [np.fmin(phi._eval_array(z), _CAP) for phi, _ in smooth]
        return last[key]

    def constraints(v: np.ndarray) -> np.ndarray:
        t, (_, values) = v[n], point(v)
        return np.concatenate([G @ v + h] + [t - t * (masses @ phi_z)
                                             for (_, masses), phi_z in zip(smooth, values)])

    def jacobian(v: np.ndarray) -> np.ndarray:
        z, values = point(v)
        jac, row = jac0.copy(), len(G)
        for (phi, masses), phi_z in zip(smooth, values):
            d = np.fmin(phi.derivative_array(z), _CAP)
            block = jac[row:row + len(masses)]
            block[:, n] = 1.0 - masses @ np.fmax(phi_z - z * d, -_CAP)
            block[:, n + 1:u_end] = -masses * d
            row += len(masses)
        return jac

    def solve(a0: np.ndarray, f0: float) -> tuple:
        a = a0 * c_b / c_y
        t, u = f0 / c_y, np.abs(ys - a @ Bs)
        w = [np.max(np.outer(s, u[J]) - np.outer(c, t), axis=0, initial=0.0)
             for J, s, c in w_blocks]
        with np.errstate(over="ignore", invalid="ignore"):
            res = optimize.minimize(
                lambda v: v[n], np.concatenate([a, [t], u] + w), method="SLSQP",
                jac=lambda v: e_t, bounds=bounds,
                constraints={"type": "ineq", "fun": constraints, "jac": jacobian},
                options={"ftol": _SLSQP_FTOL, "maxiter": _SLSQP_MAXITER})
            jac_u = jacobian(res.x)[:, n + 1:u_end]
        return (res.x[:n] * c_y / c_b, bool(res.success)) + certificate(jac_u, res.multipliers)

    return solve


def project_onto_span(model: ScenarioModel, y, basis: OptionBasis,
                      family: OrliczFamily, tol: float = DEFAULT_TOL,
                      n_restarts: int = 8, seed: int = 0) -> ProjectionResult:
    """Minimise ||Y - sum a_i B_i|| over the coefficients a, with a
    certified lower bound on the minimum.

    Each start is solved as one convex program in the coefficients and
    lifted variables (`_lifted_solver`), with no norm inside the solve,
    and the solve's multipliers give a weak-duality lower bound on the
    distance. The starts are plain and prior-weighted least squares on
    the support, zero, and `n_restarts` random ones (standard normals in
    the solver's units, c_Y / c_B); each is built only when the starts
    before it did not certify. A start whose value is already at most
    exact = max(10 tol, 1e-12) is returned without a solve, with that
    value as its bound. The loop stops at the first start where the best
    value rho and the best bound LB so far satisfy
    rho - LB <= max(1e-6, 50 tol) max(1, rho). A bound above
    rho + tol max(1, rho) (the kernel's norms are midpoints of brackets
    tol wide, so rho may be up to tol / 2 below the true value), or no
    start that certifies, raises ConsistencyError with rho, LB and the
    gate. `restart_values` are the final values of the starts that ran,
    the robust norm at the better of the start and its solution;
    `residual_norm` is the best of them and `lower_bound` the best bound;
    `stationary` is the solver's success flag for the best start (True
    for a start that needed no solve).
    """
    from scipy import optimize  # here, so that every projection pays for it

    _check_tol(tol, MAX_ITER)
    _check_count(n_restarts, "n_restarts", 0)
    _check_count(seed, "seed", 0)
    family.check_model(model)
    yc = canonicalise(model, y).values
    B = np.asarray(basis.vectors, dtype=float)
    if B.ndim != 2 or B.shape[1] != model.n_atoms:
        raise ValidationError(
            f"basis vectors have shape {B.shape}, the model has {model.n_atoms} atoms")
    # the least-squares starts need finite numbers
    if not (np.all(np.isfinite(yc)) and np.all(np.isfinite(B))):
        raise ValidationError("projection needs a finite target and a finite basis")

    def worst(a: np.ndarray) -> float:
        return sup_prior_norms(model, np.abs(yc - a @ B), family, tol)[0]

    n = B.shape[0]
    if worst(np.zeros(n)) == INF:
        raise ValidationError("projection target has infinite norm")

    def starts() -> Iterator[np.ndarray]:
        support = model.support_mask
        A, b = B[:, support].T, yc[support]
        yield np.linalg.lstsq(A, b, rcond=None)[0]
        w = np.sqrt(np.maximum(np.mean(model.priors, axis=0)[support], 1e-12))
        yield np.linalg.lstsq(A * w[:, None], b * w, rcond=None)[0]
        yield np.zeros(n)
        c_y, c_b = _scales(yc, B, support)
        rng = np.random.default_rng(seed)
        for _ in range(n_restarts):
            yield rng.normal(size=n) * c_y / c_b

    exact = max(10.0 * tol, 1e-12)
    gate = max(1e-6, 50.0 * tol)
    solve = None  # built for the first start that needs it
    best_a, best_f, best_st, best_lb = None, INF, False, 0.0
    finals = []
    for a0 in starts():
        a, f, st = a0, worst(a0), True
        lb = f  # a start that needs no solve is its own bound
        if f > exact:
            if solve is None:
                solve = _lifted_solver(model, yc, B, family, exact, optimize)
            a_new, st, lb, _ = solve(a0, f)
            f_new = worst(a_new)
            if f_new < f:
                a, f = a_new, f_new
        finals.append(f)
        if f < best_f:
            best_a, best_f, best_st = a, f, st
        best_lb = max(best_lb, lb)
        if best_lb > best_f + tol * max(1.0, best_f):
            raise ConsistencyError(
                f"lower bound {best_lb!r} above the residual norm {best_f!r} "
                f"beyond {tol!r} max(1, residual)")
        if best_f - best_lb <= gate * max(1.0, best_f):
            return ProjectionResult(coefficients=best_a, residual_norm=best_f,
                                    lower_bound=best_lb, stationary=best_st,
                                    restart_values=finals)
    raise ConsistencyError(
        f"no start certifies: residual norm {best_f!r}, best lower bound "
        f"{best_lb!r}, gate {gate!r} max(1, residual)")


@dataclass
class SpanningReport:
    dimension: int
    n_support_atoms: int
    full_sigma: bool
    max_residual: float
    pstar_on_support: Optional[List[float]]


def spanning_report(model: ScenarioModel, x, family: OrliczFamily,
                    n_samples: int = 20, tol: float = DEFAULT_TOL,
                    seed: int = 0, n_restarts: int = 2) -> SpanningReport:
    """Span dimension against the dimension of the canonical space,
    with the worst projection residual over random targets.

    When X is injective on the support the span is everything and all
    residuals vanish; otherwise only functions of X are reachable.
    """
    from .domination import dominating_measure

    _check_count(n_samples, "n_samples", 1)
    _check_count(seed, "seed", 0)
    basis = option_basis(model, x)
    n_support = int(np.sum(model.support_mask))
    rng = np.random.default_rng(seed)
    max_res = 0.0
    for _ in range(n_samples):
        y = rng.normal(size=model.n_atoms)
        res = project_onto_span(model, y, basis, family, tol=tol,
                                n_restarts=n_restarts,
                                seed=int(rng.integers(1 << 31)))
        max_res = max(max_res, res.residual_norm)
    dom = dominating_measure(model, family, n_order_pairs=0)
    return SpanningReport(
        dimension=basis.dimension, n_support_atoms=n_support,
        full_sigma=basis.dimension == n_support, max_residual=max_res,
        pstar_on_support=list(dom.pstar.masses))
