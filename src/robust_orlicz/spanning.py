"""Option-span bases and robust-norm best approximation.

For a limited-liability claim X the span of the constant 1 and the call
payoffs (X - k)+ over all strikes k contains exactly the functions of X
on the support; strikes are placed at the observed distinct values of X
(all but the largest), which makes the basis canonical and linearly
independent.

The best approximation of a target Y by the span in the worst-case
Luxemburg norm is a convex min-max problem over the coefficients. It is
solved as its epigraph, min t subject to t >= ||Y - aB||_P for every
prior P, by SLSQP with the analytic gradient of each per-prior norm
(implicit differentiation of E_P phi(|r| / N) = 1), from a few warm and
random starts whose final values must agree. Each point is evaluated
once for all priors: the priors whose phi are equal form a block, which
takes one stacked norm call and one stacked derivative call per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .duality import derivative_density
from .model import ScenarioModel, canonicalise
from .norms import DEFAULT_TOL, MAX_ITER, OrliczFamily, _check_tol, stacked_norms
from .orlicz import OrliczFunction

INF = math.inf

# SLSQP's stopping rule on the change in t, its iteration cap per call,
# and the calls per start (each resumes from where the last one stopped)
_SLSQP_FTOL = 1e-14
_SLSQP_MAXITER = 100
_SLSQP_CALLS = 5


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
    stationary: bool
    restart_values: List[float]


def _check_count(value, name: str, minimum: int) -> None:
    if not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}")


def _equal(phi: OrliczFunction, other: OrliczFunction) -> bool:
    """phi == other, or identity where the comparison raises."""
    try:
        return phi is other or bool(phi == other)
    except Exception:
        return False


def _phi_blocks(phis: Sequence[OrliczFunction], masses: np.ndarray) -> list:
    """(phi, rows, index, masses[rows]) per set of priors with equal phi,
    in the order of their first member: rows lists the priors, and index
    takes them from an array, as a slice (a view) where they are
    consecutive (all of them, for a uniform family)."""
    groups: list = []  # (phi, rows)
    for i, phi in enumerate(phis):
        rows = next((rows for head, rows in groups if _equal(head, phi)), None)
        if rows is None:
            groups.append((phi, [i]))
        else:
            rows.append(i)
    blocks = []
    for phi, rows in groups:
        consecutive = rows[-1] - rows[0] == len(rows) - 1
        index = slice(rows[0], rows[-1] + 1) if consecutive else np.array(rows)
        blocks.append((phi, rows, index, masses[rows]))
    return blocks


def project_onto_span(model: ScenarioModel, y, basis: OptionBasis,
                      family: OrliczFamily, tol: float = DEFAULT_TOL,
                      n_restarts: int = 8, seed: int = 0) -> ProjectionResult:
    """Minimise ||Y - sum a_i B_i|| over the coefficients a.

    Each start a0 solves the epigraph problem (minimise t subject to
    t - ||Y - aB||_P >= 0 for every prior P) by SLSQP from
    (a0, ||Y - a0 B||). Constraint row P has gradient 1 in t and, in a,
    minus the implicit derivative of N = ||r||_P at r = Y - aB:
    dN/da_i = -N <raw sign(r), B_i> / <raw, |r|>, raw = P phi'(|r| / N)
    (`derivative_density`); the a-part is 0 when N = 0 or <raw, |r|> is
    not finite and positive. A call that stops short (iteration cap, a
    failed line search, or a step too small to register at a kink of
    the norm) is resumed from its end point, with a fresh Hessian
    estimate, while a call lowers the value by more than tol max(1, value),
    at most _SLSQP_CALLS calls per start.

    The rows are evaluated once per point. The priors whose phi are equal
    (==, or identity where the comparison raises) form a block: one
    `stacked_norms` call on their stacked masses gives their norms (one
    closed form for the classes that have a stacked one, else each
    prior's certified root-finder), and one stacked `derivative_density`
    call gives raw for all of them; the two products of each gradient
    row stay per prior. The stacked masses span all the atoms, 0 where a
    prior has none, so that each row rounds as the prior alone does.

    The starts are plain and prior-weighted least squares on the
    support, zero, and `n_restarts` random ones; each is built only when
    the starts before it did not end at the exact minimum. A start whose
    value is already at most max(10 tol, 1e-12) is returned without a
    solve, and the first start that ends there stops the loop. Every
    start must end within max(1e-6, 50 tol) max(1, best) of the best
    value, else ConsistencyError. `restart_values` are the starts' final
    values; `residual_norm` is the best of them, the largest per-prior
    norm at the returned coefficients; `stationary` is SLSQP's success
    flag for the last call of the best start (True for a start that
    needed no solve).
    """
    from scipy import optimize

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
    phis = [family.phi(label) for label in model.prior_labels]
    priors = np.stack(model.priors)
    blocks = _phi_blocks(phis, priors)
    n = B.shape[0]
    # SLSQP asks for the constraints and their Jacobian at the same point:
    # the residual and the norms of the last point are kept for the second call
    last = {}

    def point(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = a.tobytes()
        if key not in last:
            r = yc - a @ B
            abs_r = np.abs(r)
            norms = np.empty(len(phis))
            for phi, _, index, masses in blocks:
                norms[index] = stacked_norms(masses, abs_r, phi, tol)
            last.clear()
            last[key] = r, abs_r, norms
        return last[key]

    def worst(a: np.ndarray) -> float:
        return float(point(a)[2].max())

    if worst(np.zeros(n)) == INF:
        raise ValidationError("projection target has infinite norm")

    def constraints(v: np.ndarray) -> np.ndarray:
        return v[n] - point(v[:n])[2]

    def jacobian(v: np.ndarray) -> np.ndarray:
        r, abs_r, norms = point(v[:n])
        # per Jacobian, Python floats for the checks, the plain division
        # when every norm is in (0, inf) and a view of z for a block of
        # consecutive rows cost ~5 us less than array masks and a copy
        # (17 against 23 us per Jacobian at one prior, 2-vCPU x86 host)
        values = norms.tolist()
        ok = [0.0 < norm < INF for norm in values]
        z = abs_r / (norms if all(ok) else np.where(ok, norms, 1.0))[:, None]
        sign = np.sign(r)
        jac = np.zeros((len(phis), n + 1))
        jac[:, n] = 1.0
        for phi, rows, index, masses in blocks:
            for i, raw in zip(rows, derivative_density(masses, phi, z[index])):
                if ok[i]:
                    denom = float(np.dot(raw, abs_r))
                    if 0.0 < denom < INF:
                        jac[i, :n] = values[i] * (B @ (raw * sign)) / denom
        return jac

    def starts() -> Iterator[np.ndarray]:
        support = model.support_mask
        A, b = B[:, support].T, yc[support]
        yield np.linalg.lstsq(A, b, rcond=None)[0]
        w = np.sqrt(np.maximum(np.mean(priors, axis=0)[support], 1e-12))
        yield np.linalg.lstsq(A * w[:, None], b * w, rcond=None)[0]
        yield np.zeros(n)
        rng = np.random.default_rng(seed)
        for _ in range(n_restarts):
            yield rng.normal(scale=1.0 + np.abs(b).max(), size=n)

    exact = max(10.0 * tol, 1e-12)
    e_t = np.eye(n + 1)[n]
    best_a, best_f, best_st = None, INF, False
    finals = []
    for a0 in starts():
        a, f, st = a0, worst(a0), True
        for _ in range(_SLSQP_CALLS if f > exact else 0):
            res = optimize.minimize(
                lambda v: v[n], np.append(a, f), method="SLSQP",
                jac=lambda v: e_t,
                constraints={"type": "ineq", "fun": constraints, "jac": jacobian},
                options={"ftol": _SLSQP_FTOL, "maxiter": _SLSQP_MAXITER})
            st = bool(res.success)
            a_new = np.asarray(res.x[:n], dtype=float)
            f_new = worst(a_new)
            if not f_new < f:
                break
            gain = f - f_new
            a, f = a_new, f_new
            if gain <= tol * max(1.0, f):
                break
        finals.append(f)
        if f < best_f:
            best_a, best_f, best_st = a, f, st
        if best_f <= exact:
            break  # exact minimum found; further restarts settle nothing
    spread = max(finals) - best_f
    if spread > max(1e-6, 50.0 * tol) * max(1.0, best_f):
        raise ConsistencyError(
            f"restart values spread {spread!r} on a convex objective")
    return ProjectionResult(coefficients=best_a, residual_norm=best_f,
                            stationary=best_st, restart_values=finals)


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
