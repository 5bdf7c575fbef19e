"""Dominating measures and the uniform-integrability profile.

A single probability measure P* is built as the renormalised mixture
sum_n 2^{-n} min{1, 1/||P_n||} P_n, with ||P_n|| the exact operator norm
sup{E_{P_n}|X| : ||X||_{L^phi(P_n)} <= 1} = sup{x : phi(x) <= 1} of the
prior (`prior_norm_bound`). On a finite
model P* charges exactly the quasi-sure support, and the P*-a.s. order
coincides with the quasi-sure order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .duality import prior_norm_bound
from .errors import ValidationError
from .model import MeasureVector, ScenarioModel, real_array
from .norms import OrliczFamily


@dataclass
class DominationReport:
    pstar: MeasureVector
    weights: Dict[str, float]
    operator_norm_bounds: Dict[str, float]
    strict_positivity: bool
    order_collapse: bool
    order_pairs_checked: int
    notes: List[str] = field(default_factory=list)


def dominating_measure(model: ScenarioModel, family: OrliczFamily,
                       n_order_pairs: int = 1000, seed: int = 0) -> DominationReport:
    """Build P* = (sum_n 2^{-n} min{1, 1/||P_n||} P_n) / normalisation.

    Prior enumeration follows the model's declaration order; the weights
    are recorded so the construction is reproducible. Verifies strict
    positivity on the quasi-sure support and order collapse (the P*-a.s.
    order equals the quasi-sure order). On a finite model both orders
    agree for every pair of random variables exactly when
    {P* > 0} equals the quasi-sure support, so collapse is decided exactly
    from those two masks and no pairs are sampled: order_pairs_checked is
    0, and n_order_pairs and seed are accepted but unused.
    """
    family.check_model(model)
    raw = np.zeros(model.n_atoms)
    coeffs: Dict[str, float] = {}
    bounds: Dict[str, float] = {}
    for n, (label, prior) in enumerate(zip(model.prior_labels, model.priors), start=1):
        bound = prior_norm_bound(family.phi(label))
        c = 2.0 ** (-n) * min(1.0, 1.0 / bound)
        bounds[label] = bound
        coeffs[label] = c
        raw += c * prior
    total = float(raw.sum())
    pstar = raw / total
    weights = {l: c / total for l, c in coeffs.items()}

    # P* >= 0, so strict positivity on the support means {P* > 0} equals
    # the support, which is also the exact condition for order collapse
    strict = bool(np.array_equal(pstar > 0.0, model.support_mask))

    notes = ["separability is automatic on a finite model",
             "normalisation constant fixed as 1/total mass of the raw mixture"]
    return DominationReport(
        pstar=MeasureVector(pstar), weights=weights,
        operator_norm_bounds=bounds, strict_positivity=strict,
        order_collapse=strict, order_pairs_checked=0, notes=notes)


@dataclass
class UIProfile:
    densities: Dict[str, List[float]]
    max_density: float
    profile: List[Tuple[float, float]]


def uniform_integrability_report(model: ScenarioModel, pstar,
                                 c_grid: Sequence[float]) -> UIProfile:
    """profile(c) = sup_P E_{P*}[Z_P 1_{Z_P > c}] with Z_P = dP/dP*.

    Nonincreasing in c and exactly 0 once c reaches the largest density,
    which is reported alongside the per-prior densities.
    """
    p = real_array(pstar, "dominating measure masses")
    if p.shape != (model.n_atoms,):
        raise ValidationError("dominating measure length does not match atom count")
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValidationError("dominating measure masses must be finite and nonnegative")
    c_grid = [float(c) for c in real_array(c_grid, "c_grid")]
    if np.isnan(c_grid).any():
        raise ValidationError("c_grid must not contain NaN")
    if any(b < a for a, b in zip(c_grid, c_grid[1:])):
        raise ValidationError("c_grid must be ascending")
    densities: Dict[str, np.ndarray] = {}
    for label, prior in zip(model.prior_labels, model.priors):
        if np.any(prior[p == 0.0] > 0.0):
            raise ValidationError(
                f"prior {label!r} charges a null atom of the dominating measure")
        z = np.zeros_like(prior)
        pos = p > 0.0
        z[pos] = prior[pos] / p[pos]
        densities[label] = z
    max_density = max((float(np.max(z[p > 0])) if np.any(p > 0) else 0.0)
                     for z in densities.values())
    profile = []
    for c in c_grid:
        val = max(float(np.sum(p * np.where(z > c, z, 0.0)))
                  for z in densities.values())
        profile.append((c, val))
    return UIProfile(
        densities={l: list(z) for l, z in densities.items()},
        max_density=max_density, profile=profile)
