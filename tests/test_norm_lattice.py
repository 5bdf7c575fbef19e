"""Property tests of the robust Luxemburg norm over the stock Orlicz
classes, checked on its certified brackets: the triangle inequality
||X + Y|| <= ||X|| + ||Y|| and lattice monotonicity, |X| <= |Y| on every
atom implies ||X|| <= ||Y||. The bracket [lo, hi] holds the norm, so
each inequality between norms must hold between the lower end on the
left and the upper end on the right, up to rounding in the modular."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_family, random_model
from robust_orlicz import luxemburg_norm

# rounding in X + Y and in the modular's sums; the brackets are
# 0.9 tol = 9e-11 wide, far wider
SLACK = 1e-12


def _bracket(model, x, family):
    res = luxemburg_norm(model, x, family)
    return res.bracket


def _case(seed, values):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_atoms=len(values) // 2)
    x = np.array(values[:m.n_atoms])
    y = np.array(values[m.n_atoms:2 * m.n_atoms])
    return m, random_family(rng, m), x, y


vectors = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=4, max_size=16)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), vectors)
@example(seed=344, values=[5e-324, 0.0, 0.0, 0.0])  # ||X|| underflowed to 0
def test_triangle_inequality(seed, values):
    m, family, x, y = _case(seed, values)
    lo_sum, _ = _bracket(m, x + y, family)
    _, hi_x = _bracket(m, x, family)
    _, hi_y = _bracket(m, y, family)
    if math.isinf(hi_x + hi_y):
        return
    assert lo_sum <= (hi_x + hi_y) * (1.0 + SLACK)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), vectors, st.lists(st.booleans(), min_size=8, max_size=8))
def test_lattice_monotone(seed, values, flips):
    # |Y| = max(|X|, |Z|) on every atom, exactly, with signs of its own
    m, family, x, z = _case(seed, values)
    sign = np.where(np.resize(flips, m.n_atoms), -1.0, 1.0)
    y = sign * np.maximum(np.abs(x), np.abs(z))
    lo_x, _ = _bracket(m, x, family)
    _, hi_y = _bracket(m, y, family)
    assert lo_x <= hi_y * (1.0 + SLACK)
