"""The `affine_pieces` hook: (slopes s_k, intercepts c_k, bound b) with
phi(x) = max(0, max_k s_k x - c_k) on [0, b] and phi = inf past b, for
the classes that are of that form, and None for the others."""

import math

import numpy as np
import pytest

from robust_orlicz import (AggregateOrlicz, CARAUtility, EssSupIndicator, Exponential,
                           LinearUtility, PiecewiseLinear, Power, Scaled)

INF = math.inf

PIECEWISE = {
    "pl": PiecewiseLinear([0.0, 0.5, 2.0], [0.5, 1.0, 3.0]),
    "pl_flat_start": PiecewiseLinear([0.3, 1.0], [0.7, 2.5]),
    "pl_bounded": PiecewiseLinear([0.0, 0.4], [1.0, 4.0], bound=1.5),
    "pl_bounded_flat_start": PiecewiseLinear([0.25, 0.5, 1.0], [0.0, 1.5, 2.0], bound=1.0),
    "power1": Power(1.0),
    "ess_sup": EssSupIndicator(),
    "scaled_pl": Scaled(PiecewiseLinear([0.2, 1.0], [1.0, 3.0], bound=2.0), 1.7, 2.5),
    "scaled_ess_sup": Scaled(EssSupIndicator(), 0.6, 1.5),
}


@pytest.mark.parametrize("name", sorted(PIECEWISE))
def test_pieces_reproduce_phi(name):
    phi = PIECEWISE[name]
    slopes, intercepts, bound = phi.affine_pieces()
    assert len(slopes) == len(intercepts)
    assert bound == phi.domain_bound
    top = bound if bound < INF else 4.0
    x = np.linspace(0.0, top, 1001)
    lines = np.multiply.outer(slopes, x) - np.asarray(intercepts, dtype=float)[:, None]
    pieces = np.max(lines, axis=0, initial=0.0)
    # relative to the terms s_k x: just above a breakpoint, s_k x - c_k
    # cancels, and phi is far smaller than its rounding
    scale = np.maximum(phi(x), np.max(np.multiply.outer(slopes, x), axis=0, initial=0.0))
    assert np.all(np.abs(pieces - phi(x)) <= 1e-15 * scale)
    if bound < INF:
        assert phi(bound * (1.0 + 1e-9)) == INF


@pytest.mark.parametrize("phi", [
    Power(2.5), Exponential(1.0), Scaled(Exponential(1.0), 2.0),
    AggregateOrlicz([(CARAUtility.normalised(1.0), 1.0), (LinearUtility(0.5), 1.5)]),
], ids=lambda phi: type(phi).__name__)
def test_no_pieces(phi):
    assert phi.affine_pieces() is None
