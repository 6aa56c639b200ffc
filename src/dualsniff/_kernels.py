"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

Two numeric loops live here: scanning an ellipse arc for residual sign
changes and an exhaustive cost grid over a timing-advance annulus.  Neither
serves the solvers any more: the range-sum solver intersects its ellipses in
closed form (``geometry.eliminate``), and the brute-force oracle is a
branch-and-bound in ``bruteforce``.  The grid remains as an independent
exhaustive reference for the oracle's tests, and both stay importable where
the benchmark tracer looks them up.  Both are implemented twice with
identical semantics:

* ``*_numba``: scalar loops compiled with ``@njit`` (default when numba
  imports cleanly),
* ``*_numpy``: vectorized numpy (always available).

Set ``DUALSNIFF_NO_NUMBA=1`` in the environment before import to force the
numpy path; ``USING_NUMBA`` records which path is active.  The dispatch
wrappers at the bottom are the only public surface.
"""

import math
import os

import numpy as np

_NO_NUMBA = os.environ.get("DUALSNIFF_NO_NUMBA", "0") == "1"

try:
    if _NO_NUMBA:
        raise ImportError("numba disabled via DUALSNIFF_NO_NUMBA")
    from numba import njit, prange

    USING_NUMBA = True
except ImportError:
    USING_NUMBA = False

    def njit(*args, **kwargs):  # no-op decorator stand-in
        if args and callable(args[0]):
            return args[0]
        return lambda func: func

    prange = range


# ---------------------------------------------------------------------------
# Ellipse arc residual scan
# ---------------------------------------------------------------------------
# Points on ellipse 1 are center + R(rot) @ (a cos t, b sin t); the residual
# evaluated at each point is the second range-sum constraint
# |u - f1| + |u - f2| - d_sum.


def _ellipse_scan_py(cx, cy, a, b, cos_r, sin_r, f1x, f1y, f2x, f2y, d_sum, n):
    res = np.empty(n)
    for i in range(n):
        t = 2.0 * math.pi * i / n
        ex = a * math.cos(t)
        ey = b * math.sin(t)
        px = cx + cos_r * ex - sin_r * ey
        py = cy + sin_r * ex + cos_r * ey
        res[i] = math.hypot(px - f1x, py - f1y) + math.hypot(px - f2x, py - f2y) - d_sum
    return res


_ellipse_scan_numba = njit(cache=True)(_ellipse_scan_py)


def _ellipse_scan_numpy(cx, cy, a, b, cos_r, sin_r, f1x, f1y, f2x, f2y, d_sum, n):
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ex = a * np.cos(t)
    ey = b * np.sin(t)
    px = cx + cos_r * ex - sin_r * ey
    py = cy + sin_r * ex + cos_r * ey
    return np.hypot(px - f1x, py - f1y) + np.hypot(px - f2x, py - f2y) - d_sum


# ---------------------------------------------------------------------------
# Range-difference cost grid over an annulus
# ---------------------------------------------------------------------------
# Cost at a point u is sum_k (dd_k - (|u - s_k| - |u - s_ref|))^2 over all
# pairs; the grid covers the cartesian bounding box of the annulus and skips
# points outside [r_lo, r_hi].


def _annulus_grid_py(cx, cy, r_lo, r_hi, step, ref_x, ref_y, other_x, other_y, dd):
    n_pairs = dd.shape[0]
    n_axis = int(2.0 * r_hi / step) + 1
    best_cost = math.inf
    best_x = cx
    best_y = cy
    r_lo2 = r_lo * r_lo
    r_hi2 = r_hi * r_hi
    for i in range(n_axis):
        x = cx - r_hi + i * step
        dx2 = (x - cx) * (x - cx)
        for j in range(n_axis):
            y = cy - r_hi + j * step
            rr = dx2 + (y - cy) * (y - cy)
            if rr < r_lo2 or rr > r_hi2:
                continue
            d_ref = math.hypot(x - ref_x, y - ref_y)
            cost = 0.0
            for k in range(n_pairs):
                miss = dd[k] - (math.hypot(x - other_x[k], y - other_y[k]) - d_ref)
                cost += miss * miss
            if cost < best_cost:
                best_cost = cost
                best_x = x
                best_y = y
    return best_cost, best_x, best_y


_annulus_grid_numba = njit(cache=True, fastmath=True)(_annulus_grid_py)


def _annulus_grid_numpy(cx, cy, r_lo, r_hi, step, ref_x, ref_y, other_x, other_y, dd):
    axis = cx - r_hi + step * np.arange(int(2.0 * r_hi / step) + 1)
    yaxis = cy - r_hi + step * np.arange(int(2.0 * r_hi / step) + 1)
    best_cost = np.inf
    best_x, best_y = cx, cy
    # row-chunked to keep peak memory at one grid row per pair
    for x in axis:
        rr = (x - cx) ** 2 + (yaxis - cy) ** 2
        mask = (rr >= r_lo * r_lo) & (rr <= r_hi * r_hi)
        if not mask.any():
            continue
        ys = yaxis[mask]
        d_ref = np.hypot(x - ref_x, ys - ref_y)
        cost = np.zeros_like(ys)
        for k in range(dd.shape[0]):
            miss = dd[k] - (np.hypot(x - other_x[k], ys - other_y[k]) - d_ref)
            cost += miss * miss
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best_cost = float(cost[i])
            best_x, best_y = float(x), float(ys[i])
    return best_cost, best_x, best_y


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def ellipse_scan(cx, cy, a, b, rot, focus1, focus2, d_sum, n):
    """Residual of the (focus1, focus2, d_sum) range-sum constraint at ``n``
    evenly spaced parameter angles of the ellipse (center, semi-axes a/b,
    rotation ``rot``).  Returns an array of length ``n``."""
    cos_r, sin_r = math.cos(rot), math.sin(rot)
    impl = _ellipse_scan_numba if USING_NUMBA else _ellipse_scan_numpy
    return impl(cx, cy, a, b, cos_r, sin_r,
                focus1[0], focus1[1], focus2[0], focus2[1], d_sum, n)


def annulus_grid_min(center, r_lo, r_hi, step, ref, others, dd):
    """Minimum of the pairwise range-difference cost over an annulus grid.

    Scans a cartesian grid of spacing ``step`` restricted to r_lo <= r <= r_hi
    around ``center`` and returns ``(cost, x, y)`` of the best grid point.
    """
    other_x = np.ascontiguousarray([p[0] for p in others], dtype=np.float64)
    other_y = np.ascontiguousarray([p[1] for p in others], dtype=np.float64)
    dd = np.ascontiguousarray(dd, dtype=np.float64)
    impl = _annulus_grid_numba if USING_NUMBA else _annulus_grid_numpy
    return impl(center[0], center[1], float(r_lo), float(r_hi), float(step),
                ref[0], ref[1], other_x, other_y, dd)
