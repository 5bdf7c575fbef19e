"""One-dimensional solvers: golden-section search and bracketed bisection.

All routines are derivative-free; the objective may take the value +/-inf,
which is treated as an ordinary comparison result.
"""

from __future__ import annotations

import math
from typing import Callable

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 300,
) -> tuple[float, float]:
    """Minimise a unimodal function on [lo, hi].

    Returns (argmin, min value). Infinite objective values are allowed;
    they simply lose every comparison against finite ones.
    """
    if hi < lo:
        lo, hi = hi, lo
    x1 = hi - INV_PHI * (hi - lo)
    x2 = lo + INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, abs(lo) + abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INV_PHI * (hi - lo)
            f2 = f(x2)
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    xm = 0.5 * (lo + hi)
    fm = f(xm)
    # the objective may jump (extended-real values); report the best
    # evaluated point rather than blindly trusting the bracket midpoint
    if fm <= best_f:
        return xm, fm
    return best_x, best_f


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
