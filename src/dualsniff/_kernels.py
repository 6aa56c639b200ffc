"""Two reference numeric loops in plain numpy.

``ellipse_scan`` samples a range-sum residual along an ellipse arc and
``annulus_grid_min`` minimizes the pairwise range-difference cost over a
grid on a timing-advance annulus.  Neither serves the solvers: the range-sum
solver intersects its ellipses in closed form (``geometry.eliminate``), and
the brute-force oracle is a branch-and-bound in ``bruteforce``.  The grid is
the exhaustive reference of the oracle's tests, and both stay importable
where the benchmark tracer looks them up.
"""

import math

import numpy as np

#: There is no compiled path; ``perfbench/run.py`` records this flag.
USING_NUMBA = False


def ellipse_scan(cx, cy, a, b, rot, focus1, focus2, d_sum, n):
    """Residual of the (focus1, focus2, d_sum) range-sum constraint at ``n``
    evenly spaced parameter angles of the ellipse (center, semi-axes a/b,
    rotation ``rot``).  Returns an array of length ``n``."""
    cos_r, sin_r = math.cos(rot), math.sin(rot)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ex = a * np.cos(t)
    ey = b * np.sin(t)
    px = cx + cos_r * ex - sin_r * ey
    py = cy + sin_r * ex + cos_r * ey
    return (np.hypot(px - focus1[0], py - focus1[1])
            + np.hypot(px - focus2[0], py - focus2[1]) - d_sum)


def annulus_grid_min(center, r_lo, r_hi, step, ref, others, dd):
    """Minimum of the pairwise range-difference cost over an annulus grid.

    The cost at u is sum_k (dd_k - (|u - others_k| - |u - ref|))^2.  Scans a
    cartesian grid of spacing ``step`` restricted to r_lo <= r <= r_hi
    around ``center`` and returns ``(cost, x, y)`` of the best grid point.
    """
    cx, cy = center
    ref_x, ref_y = ref
    ticks = step * np.arange(int(2.0 * r_hi / step) + 1)
    yaxis = cy - r_hi + ticks
    best_cost, best_x, best_y = np.inf, cx, cy
    # row-chunked to keep peak memory at one grid row per pair
    for x in cx - r_hi + ticks:
        rr = (x - cx) ** 2 + (yaxis - cy) ** 2
        mask = (rr >= r_lo * r_lo) & (rr <= r_hi * r_hi)
        if not mask.any():
            continue
        ys = yaxis[mask]
        d_ref = np.hypot(x - ref_x, ys - ref_y)
        cost = np.zeros_like(ys)
        for (ox, oy), d in zip(others, dd):
            miss = d - (np.hypot(x - ox, ys - oy) - d_ref)
            cost += miss * miss
        i = int(np.argmin(cost))
        if cost[i] < best_cost:
            best_cost = float(cost[i])
            best_x, best_y = float(x), float(ys[i])
    return best_cost, best_x, best_y
