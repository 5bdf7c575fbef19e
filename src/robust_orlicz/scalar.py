"""Bracketed bisection for the switch point of a monotone predicate.

Derivative-free; the predicate may be built on extended-real values
(+/-inf compare as ordinary values).
"""

from __future__ import annotations

import math
from typing import Callable


def bisect_threshold(
    pred: Callable[[float], bool],
    lo: float,
    hi: float,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> tuple[float, float, int]:
    """Locate the switch point of a monotone predicate.

    Assumes pred(lo) is False and pred(hi) is True; shrinks the bracket
    until its width drops below tol * max(1, hi). Returns (lo, hi, iters).
    """
    it = 0
    while it < max_iter and hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi) if hi / max(lo, 1e-300) < 4.0 else math.sqrt(lo * hi)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
        it += 1
    return lo, hi, it
