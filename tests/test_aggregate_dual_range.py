"""The bracket search of the conjugate-route dual norm (classes without
`conjugate_minimisers`, such as `AggregateOrlicz`) must reach the
minimiser when the atom of largest density carries a tiny prior mass."""

import numpy as np
import pytest

from robust_orlicz import kothe_dual_norm
from robust_orlicz.preferences import AggregateOrlicz, CARAUtility, LinearUtility


def _phi_inverse(phi, level):
    """phi^{-1}(level) by bisection on phi itself."""
    lo, hi = 0.0, 1.0
    while phi(hi) <= level:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) <= level:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("mass", [1e-10, 1e-40, 1e-120, 1e-300])
def test_point_mass_on_a_light_atom(beta, mass):
    # ||delta_2||_* = sup{X_2 : mass * phi(X_2) <= 1} = phi^{-1}(1 / mass)
    phi = AggregateOrlicz([(CARAUtility.normalised(beta), 1.0)])
    got = kothe_dual_norm([0.0, 1.0], [1.0 - mass, mass], phi)
    assert got == pytest.approx(_phi_inverse(phi, 1.0 / mass), rel=1e-9)


def test_light_atom_with_mass_elsewhere():
    # mu charges both atoms; the dual norm is at least each point mass's
    # and at most their sum
    phi = AggregateOrlicz([(CARAUtility.normalised(1.0), 1.0),
                           (LinearUtility(1.0), 2.0)])
    prior = [1.0 - 1e-40, 1e-40]
    got = kothe_dual_norm([0.5, 1.0], prior, phi)
    heavy = kothe_dual_norm([0.5, 0.0], prior, phi)
    light = kothe_dual_norm([0.0, 1.0], prior, phi)
    assert light == pytest.approx(_phi_inverse(phi, 1e40), rel=1e-9)
    assert max(heavy, light) <= got * (1 + 1e-12)
    assert got <= (heavy + light) * (1 + 1e-12)
