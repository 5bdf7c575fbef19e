"""Option-span bases and robust-norm best approximation.

For a limited-liability claim X the span of the constant 1 and the call
payoffs (X - k)+ over all strikes k contains exactly the functions of X
on the support; strikes are placed at the observed distinct values of X
(all but the largest), which makes the basis canonical and linearly
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, ValidationError
from .model import ScenarioModel, canonicalise
from .norms import DEFAULT_TOL, OrliczFamily, sup_prior_norms
from .scalar import golden_section_min

INF = math.inf


@dataclass
class OptionBasis:
    claim: np.ndarray
    strikes: List[float]
    vectors: np.ndarray  # shape (n_basis, n_atoms), canonical
    dimension: int

    def to_dict(self) -> dict:
        return {"claim": list(self.claim), "strikes": list(self.strikes),
                "vectors": [list(v) for v in self.vectors],
                "dimension": self.dimension}


def option_basis(model: ScenarioModel, x) -> OptionBasis:
    """Basis {1, (X - k)+ : k a distinct value of X except the largest}."""
    xc = canonicalise(model, x).values
    support = model.support_mask
    if np.any(xc[support] < 0):
        raise ValidationError("option basis needs a nonnegative claim")
    distinct = sorted(set(float(v) for v in xc[support]))
    strikes = distinct[:-1]
    vectors = [np.where(support, 1.0, 0.0)]
    for k in strikes:
        vectors.append(np.where(support, np.maximum(xc - k, 0.0), 0.0))
    return OptionBasis(claim=xc, strikes=strikes,
                       vectors=np.array(vectors), dimension=len(distinct))


def _coordinate_descent(objective, a0: np.ndarray, tol: float,
                        max_sweeps: int = 100) -> Tuple[np.ndarray, float, bool]:
    a = a0.astype(float).copy()
    f = objective(a)
    stationary = False

    def line_min(direction: np.ndarray, f_cur: float):
        def g(s: float):
            return objective(a + s * direction)

        r = 1.0
        while r < 2.0 ** 60 and min(g(-r), g(r)) < f_cur:
            r *= 2.0
        return golden_section_min(g, -r, r, tol=1e-13)

    for _ in range(max_sweeps):
        sweep_start = a.copy()
        sweep_gain = 0.0
        for i in range(a.size):
            e = np.zeros(a.size)
            e[i] = 1.0
            s, v = line_min(e, f)
            if v < f:
                sweep_gain += f - v
                a[i] += s
                f = v
        # acceleration along the net sweep direction counters the slow
        # zig-zag of plain coordinate descent on ill-conditioned bases
        d = a - sweep_start
        if np.any(d != 0.0):
            s, v = line_min(d, f)
            if v < f:
                sweep_gain += f - v
                a += s * d
                f = v
        if sweep_gain < tol * max(1.0, f):
            stationary = True
            break
    return a, f, stationary


@dataclass
class ProjectionResult:
    coefficients: np.ndarray
    residual_norm: float
    stationary: bool
    restart_values: List[float]

    def to_dict(self) -> dict:
        return {"coefficients": list(self.coefficients),
                "residual_norm": self.residual_norm,
                "stationary": self.stationary,
                "restart_values": list(self.restart_values)}


def project_onto_span(model: ScenarioModel, y, basis: OptionBasis,
                      family: OrliczFamily, tol: float = DEFAULT_TOL,
                      n_restarts: int = 8, seed: int = 0) -> ProjectionResult:
    """Minimise ||Y - sum a_i B_i|| by coordinate descent with
    golden-section line searches on the convex objective.

    Warm starts (plain and prior-weighted least squares on the support,
    zero) are tried alongside random restarts; all runs must land within
    a small neighbourhood of the best value, which is asserted.
    """
    from scipy import optimize

    family.check_model(model)
    yc = canonicalise(model, y).values
    B = basis.vectors
    if sup_prior_norms(model, np.abs(yc), family, tol)[0] == INF:
        raise ValidationError("projection target has infinite norm")

    def objective(a: np.ndarray) -> float:
        return sup_prior_norms(model, np.abs(yc - a @ B), family, tol)[0]

    support = model.support_mask
    starts: List[np.ndarray] = []
    A = B[:, support].T
    bvec = yc[support]
    starts.append(np.linalg.lstsq(A, bvec, rcond=None)[0])
    w = np.sqrt(np.maximum(np.mean(np.stack(model.priors), axis=0)[support], 1e-12))
    starts.append(np.linalg.lstsq(A * w[:, None], bvec * w, rcond=None)[0])
    starts.append(np.zeros(B.shape[0]))
    rng = np.random.default_rng(seed)
    starts += [rng.normal(scale=1.0 + np.abs(bvec).max(), size=B.shape[0])
               for _ in range(n_restarts)]

    best_a, best_f, best_st = None, INF, False
    finals = []
    for a0 in starts:
        a, f, st = _coordinate_descent(objective, a0, tol)
        # Powell's direction-set method untangles the coupled coordinates
        # that stall axis-aligned descent on ill-conditioned call bases
        polish = optimize.minimize(objective, a, method="Powell",
                                   options={"xtol": 1e-12, "ftol": 1e-14,
                                            "maxiter": 200})
        if polish.fun < f:
            a, f = np.asarray(polish.x, dtype=float), float(polish.fun)
        finals.append(f)
        if f < best_f:
            best_a, best_f, best_st = a, f, st
        if best_f <= max(10.0 * tol, 1e-12):
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

    def to_dict(self) -> dict:
        return {"dimension": self.dimension,
                "n_support_atoms": self.n_support_atoms,
                "full_sigma": self.full_sigma,
                "max_residual": self.max_residual,
                "pstar_on_support": self.pstar_on_support}


def spanning_report(model: ScenarioModel, x, family: OrliczFamily,
                    n_samples: int = 20, tol: float = DEFAULT_TOL,
                    seed: int = 0, n_restarts: int = 2) -> SpanningReport:
    """Span dimension against the dimension of the canonical space,
    with the worst projection residual over random targets.

    When X is injective on the support the span is everything and all
    residuals vanish; otherwise only functions of X are reachable.
    """
    from .domination import dominating_measure

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
