import math

import numpy as np

from dualsniff._kernels import USING_NUMBA, annulus_grid_min, ellipse_scan


def test_using_numba_is_bool():
    assert isinstance(USING_NUMBA, bool)


def test_ellipse_scan_zero_on_shared_point():
    # ellipse around foci (0,0) and (100,0) through (40,30); the residual of
    # that same constraint along its own arc is zero at the matching angle
    d_sum = 50.0 + math.sqrt(4500.0)
    a = d_sum / 2.0
    b = math.sqrt(a * a - 50.0 * 50.0)
    res = ellipse_scan(50.0, 0.0, a, b, 0.0, (0.0, 0.0), (100.0, 0.0),
                       d_sum, 720)
    assert np.min(np.abs(res)) < 1e-9
    assert np.max(np.abs(res)) < 1e-6  # every arc point satisfies its own sum


def test_annulus_grid_against_brute_mesh():
    """Independent full-mesh evaluation agrees with the kernel's minimum."""
    ref = (80.0, 10.0)
    others = [(-60.0, 40.0), (20.0, -90.0)]
    dd = np.array([12.5, -7.25])
    r_lo, r_hi, step = 0.0, 50.0, 1.0
    got_cost, got_x, got_y = annulus_grid_min((0.0, 0.0), r_lo, r_hi, step,
                                              ref, others, dd)

    axis = -r_hi + step * np.arange(int(2 * r_hi / step) + 1)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    rr = xs ** 2 + ys ** 2
    mask = (rr >= r_lo ** 2) & (rr <= r_hi ** 2)
    d_ref = np.hypot(xs - ref[0], ys - ref[1])
    cost = np.zeros_like(xs)
    for k, (ox, oy) in enumerate(others):
        miss = dd[k] - (np.hypot(xs - ox, ys - oy) - d_ref)
        cost += miss ** 2
    cost[~mask] = np.inf
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    assert got_cost < np.inf
    assert abs(got_cost - cost[i, j]) < 1e-9
    assert (got_x, got_y) == (axis[i], axis[j])


def test_annulus_grid_excludes_inner_disk():
    # cost is minimized at the reference point itself when dd = 0, but that
    # point is inside r_lo and must not be returned
    ref = (10.0, 0.0)
    others = [(0.0, 10.0), (-10.0, 0.0)]
    dd = np.zeros(2)
    cost, x, y = annulus_grid_min((0.0, 0.0), 40.0, 60.0, 0.5, ref, others, dd)
    r = math.hypot(x, y)
    assert 40.0 - 1e-9 <= r <= 60.0 + 1e-9
