"""Discrete scenario models: atoms, prior families, quasi-sure structure.

A ScenarioModel is a finite sample space together with finitely many
probability priors. The polar set collects atoms that are null under
every prior; random variables are canonicalised by zeroing them there,
so that quasi-sure equality becomes entrywise equality of canonical
representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

PROB_SUM_TOL = 1e-12
PROB_RENORM_TOL = 1e-9


@dataclass(frozen=True)
class MeasureVector:
    """Signed mass vector over the atoms of a model."""

    masses: np.ndarray

    def __init__(self, masses):
        object.__setattr__(self, "masses", np.asarray(masses, dtype=float))

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.masses)))

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def abs(self) -> "MeasureVector":
        return MeasureVector(np.abs(self.masses))

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.masses >= 0))

    def absolutely_continuous_wrt(self, other: np.ndarray) -> bool:
        other = np.asarray(other, dtype=float)
        return bool(np.all(self.masses[other == 0.0] == 0.0))


@dataclass(frozen=True)
class ScenarioModel:
    """Atoms, priors (read-only mass vectors) and their labels.

    `support_mask` marks the atoms charged by at least one prior.
    `prior_groups` partitions the prior indices by equal mass vectors, in
    order of first occurrence: ((0, 1, 2),) for three copies of one law.
    Kernels that work per prior vector, not per (prior, phi) pair, gather
    once per group. `support_classes` partitions the indices of
    `prior_groups` by equal supports (the atoms a prior charges), in the
    same order; priors of one class keep the same atoms for any X. Only
    the indices are kept.
    """

    atoms: tuple
    priors: tuple
    prior_labels: tuple
    #: atoms charged by at least one prior (the quasi-sure support)
    support_mask: np.ndarray = field(init=False, repr=False, compare=False)
    #: prior indices grouped by equal mass vectors
    prior_groups: tuple = field(init=False, repr=False, compare=False)
    #: indices of prior_groups grouped by equal supports
    support_classes: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, atoms: Sequence[str], priors: Iterable, prior_labels=None):
        atoms = tuple(str(a) for a in atoms)
        priors = priors if isinstance(priors, np.ndarray) else list(priors)
        if len(priors) == 0:
            raise ValidationError("a model needs at least one prior")
        try:
            stacked = np.asarray(priors, dtype=float)
        except ValueError:  # ragged, or masses that are no numbers (which raise here)
            stacked = [np.asarray(p, dtype=float) for p in priors]
        if not isinstance(stacked, np.ndarray) or stacked.shape != (len(priors), len(atoms)):
            raise ValidationError("prior length does not match atom count")
        if not np.isfinite(stacked).all():
            raise ValidationError("prior masses must be finite")
        if (stacked < 0).any():
            raise ValidationError("prior has negative mass")
        # each prior's own sum: pairwise along a row, as a C-ordered sum is
        sums = (stacked.sum(axis=1) if stacked.flags.c_contiguous
                else np.array([v.sum() for v in stacked]))
        off = np.abs(sums - 1.0)
        if (off > PROB_RENORM_TOL).any():
            s = float(sums[off > PROB_RENORM_TOL][0])
            raise ValidationError(f"prior mass {s!r} deviates from 1 beyond tolerance")
        # a float array stays itself: a list of them is stacked only to be checked
        mats = [row / s if d > PROB_SUM_TOL else p if type(p) is np.ndarray and p.dtype == float
                else row for p, row, s, d in zip(priors, stacked, sums, off)]
        for v in mats:
            v.setflags(write=False)
        # dividing by a sum within 1e-9 of 1 keeps every positive mass positive
        charged = stacked > 0.0
        support = charged.any(axis=0)
        if prior_labels is None:
            prior_labels = tuple(f"P{i + 1}" for i in range(len(mats)))
        else:
            prior_labels = tuple(str(l) for l in prior_labels)
            if len(prior_labels) != len(mats) or len(set(prior_labels)) != len(mats):
                raise ValidationError("prior labels must be unique and match the prior count")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "priors", tuple(mats))
        object.__setattr__(self, "prior_labels", prior_labels)
        support.setflags(write=False)
        object.__setattr__(self, "support_mask", support)
        groups = _group_equal(mats)
        object.__setattr__(self, "prior_groups", groups)
        classes: dict = {}  # one support's bytes per class, not one per prior
        for j, g in enumerate(groups):
            classes.setdefault(charged[g[0]].tobytes(), []).append(j)
        object.__setattr__(self, "support_classes", tuple(map(tuple, classes.values())))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_priors(self) -> int:
        return len(self.priors)

    def prior(self, label: str) -> np.ndarray:
        try:
            return self.priors[self.prior_labels.index(label)]
        except ValueError:
            raise ValidationError(f"unknown prior label {label!r}") from None

    def polar_set(self) -> frozenset:
        """Atoms null under every prior."""
        mask = ~self.support_mask
        return frozenset(a for a, m in zip(self.atoms, mask) if m)


def _group_equal(vectors: Sequence[np.ndarray]) -> tuple:
    """Indices of equal vectors, grouped in order of first occurrence:
    bucketed by a hash of the bytes, confirmed by np.array_equal."""
    groups: list = []
    buckets: dict = {}
    for i, v in enumerate(vectors):
        bucket = buckets.setdefault(hash(v.tobytes()), [])
        group = next((g for g in bucket if np.array_equal(vectors[g[0]], v)), None)
        if group is None:
            group = []
            bucket.append(group)
            groups.append(group)
        group.append(i)
    return tuple(tuple(g) for g in groups)


@dataclass(frozen=True)
class RandomVariable:
    values: np.ndarray
    canonical: bool = False

    def __init__(self, values, canonical: bool = False):
        v = np.asarray(values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "canonical", canonical)

    def __abs__(self) -> "RandomVariable":
        return RandomVariable(np.abs(self.values), canonical=self.canonical)


def canonicalise(model: ScenarioModel, x) -> RandomVariable:
    """Zero a random variable on the polar set; idempotent.

    NaN entries are rejected; +-inf entries are valid values.
    """
    v = x.values if isinstance(x, RandomVariable) else np.asarray(x, dtype=float)
    if v.shape != (model.n_atoms,):
        raise ValidationError("random variable length does not match atom count")
    if np.isnan(v).any():
        raise ValidationError("random variable has NaN entries")
    return RandomVariable(np.where(model.support_mask, v, 0.0), canonical=True)


def qs_order(model: ScenarioModel, x, y) -> str:
    """Compare two random variables in the quasi-sure order.

    Returns one of 'le', 'ge', 'eq', 'incomparable'; only entries on the
    quasi-sure support matter.
    """
    xc = canonicalise(model, x).values
    yc = canonicalise(model, y).values
    le = bool(np.all(xc <= yc))
    ge = bool(np.all(xc >= yc))
    if le and ge:
        return "eq"
    if le:
        return "le"
    if ge:
        return "ge"
    return "incomparable"


def qs_min(model: ScenarioModel, x, y) -> RandomVariable:
    xc = canonicalise(model, x).values
    yc = canonicalise(model, y).values
    return RandomVariable(np.minimum(xc, yc), canonical=True)


def qs_max(model: ScenarioModel, x, y) -> RandomVariable:
    xc = canonicalise(model, x).values
    yc = canonicalise(model, y).values
    return RandomVariable(np.maximum(xc, yc), canonical=True)


def expectation(weights, g) -> float:
    """Sum of weights * g with the convention 0 * inf = 0.

    `weights` must be nonnegative (signed integration lives in the duality
    module); returns inf as soon as a positive-mass entry hits g = inf.
    """
    w = weights.masses if isinstance(weights, MeasureVector) else np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValidationError("expectation requires a nonnegative measure")
    gv = np.asarray(g, dtype=float)
    pos = w > 0.0
    if np.any(np.isinf(gv[pos])):
        return math.inf
    return float(np.dot(w[pos], gv[pos]))
