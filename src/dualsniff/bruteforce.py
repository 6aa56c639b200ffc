"""Reference minimizer for the range-difference cost, used to audit solvers.

A certified branch-and-bound over the timing-advance annulus around the base
station (the Lipschitz bound-and-prune of Piyavskii 1972 and Shubert 1972,
in 2-D).  The annulus is tiled exactly by polar cells.  Each cell's cost is
evaluated at its centre and, on the inner and outer rings, at its rim point;
the best of these is the incumbent.  A cell is dropped once a lower bound on
the cost anywhere in it reaches the incumbent, and the rest are split into
quarters until the incumbent is within ``CERT_TOL`` of the smallest bound, so
the returned cost is the global minimum over the annulus to that tolerance.
The search shares no algebra with the closed-form solvers it audits.
"""

import math
from typing import Sequence, Tuple

import numpy as np

# Not called here: kept importable for the benchmark tracer, which wraps
# ``bruteforce.annulus_grid_min`` by name.
from ._kernels import annulus_grid_min  # noqa: F401
from .geometry import Position
from .tdoa import TdoaPair, range_difference_residual

#: The search stops only once its cells are no wider than this, meters.
GRID_STEP = 0.05

#: Certificate tolerance, m^2 (relative above 1 m^2, where float64 rounding
#: of the cost itself approaches this size).
CERT_TOL = 1e-12

#: Rings of the starting partition; sectors are as wide as a ring on the
#: outer rim.
_RINGS = 8

#: Limits on the search: a halving count that takes a starting cell below
#: float64 resolution, and a live-cell count that bounds memory.  A smooth
#: isolated minimum is certified long before either; a flat curve of
#: minimizers, or a positive minimum on a sniffer (where the cost has a
#: kink), can reach them.
MAX_LEVELS = 48
MAX_CELLS = 1 << 18


def pair_cost(u: Position, pairs: Sequence[TdoaPair]) -> float:
    """Sum of squared range-difference misses at ``u``, m^2."""
    return range_difference_residual(u, pairs) ** 2


def _lower_bound(rho, th, d_rho, d_th, x, y, sx, sy, d, m, cost):
    """Lower bound on the cost over each polar cell, from its centre's values.

    Every point of a cell lies within ``reach`` of its centre.  Each miss has
    a gradient of norm at most 2, so ||m|| is 2*sqrt(K)-Lipschitz; and a
    second-order Taylor bound uses the centre's gradient with the Hessian
    bounded on the disc of radius ``reach`` (valid while no sniffer is in
    that disc).  The larger of the two holds.
    """
    n_pairs = m.shape[0]
    r_out = rho + 0.5 * d_rho
    reach = 0.5 * d_rho + 0.5 * d_th * r_out
    bound = np.maximum(np.sqrt(cost) - 2.0 * math.sqrt(n_pairs) * reach, 0.0) ** 2
    clear = d - reach
    with np.errstate(divide="ignore", invalid="ignore"):
        ux, uy = (x - sx) / d, (y - sy) / d
        gx = -2.0 * (m * (ux[1:] - ux[0])).sum(axis=0)
        gy = -2.0 * (m * (uy[1:] - uy[0])).sum(axis=0)
        cos_t, sin_t = np.cos(th), np.sin(th)
        g_rho = gx * cos_t + gy * sin_t
        g_th = gy * cos_t - gx * sin_t
        hess = 2.0 * (4.0 * n_pairs + ((np.abs(m) + 2.0 * reach)
                                       * (1.0 / clear[1:] + 1.0 / clear[0])).sum(axis=0))
        slope = (np.abs(g_rho) * (0.5 * d_rho + r_out * d_th ** 2 / 8.0)
                 + np.abs(g_th) * r_out * 0.5 * d_th)
        taylor = cost - slope - 0.5 * hess * reach ** 2
    return np.where(clear.min(axis=0) > 0.0, np.maximum(bound, taylor), bound)


def annulus_minimum(enb: Position, band: Tuple[float, float],
                    pairs: Sequence[TdoaPair]) -> Tuple[Position, float]:
    """Minimize the pairwise cost over the annulus ``band`` around ``enb``.

    Returns (position, cost); the position always lies in the annulus.  The
    search stops once its cells are no wider than ``GRID_STEP`` and the cost
    is certified to within ``CERT_TOL`` of the global minimum.  Raises
    ``RuntimeError`` if the certificate is out of reach within
    ``MAX_LEVELS`` and ``MAX_CELLS``.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    lo, hi = float(band[0]), float(band[1])
    if not 0.0 <= lo < hi:
        raise ValueError(f"band must satisfy 0 <= lo < hi, got {band}")
    ref = pairs[0].ref_sniffer
    # coordinates relative to the base station
    sx = np.array([ref.x] + [p.other_sniffer.x for p in pairs])[:, None] - enb.x
    sy = np.array([ref.y] + [p.other_sniffer.y for p in pairs])[:, None] - enb.y
    dd = np.array([p.delta_d for p in pairs])[:, None]
    d_rho = (hi - lo) / _RINGS
    d_th = 2.0 * math.pi / math.ceil(2.0 * math.pi * hi / d_rho)
    rho, th = np.meshgrid(lo + d_rho * (np.arange(_RINGS) + 0.5),
                          np.arange(0.5 * d_th, 2.0 * math.pi, d_th))
    rho, th = rho.ravel(), th.ravel()
    best, best_x, best_y = math.inf, 0.0, 0.0
    for _ in range(MAX_LEVELS):
        # centres, then the rim point of each cell in the first and last ring
        inner, outer = rho < lo + d_rho, rho > hi - d_rho
        p_rho = np.concatenate([rho, np.full(np.count_nonzero(inner), lo),
                                np.full(np.count_nonzero(outer), hi)])
        p_th = np.concatenate([th, th[inner], th[outer]])
        x, y = p_rho * np.cos(p_th), p_rho * np.sin(p_th)
        d = np.hypot(x - sx, y - sy)  # row 0: reference sniffer
        m = dd - (d[1:] - d[0])
        cost = (m * m).sum(axis=0)
        i = int(np.argmin(cost))
        if cost[i] < best:
            best, best_x, best_y = float(cost[i]), float(x[i]), float(y[i])
        n = rho.size
        bound = _lower_bound(rho, th, d_rho, d_th, x[:n], y[:n], sx, sy,
                             d[:, :n], m[:, :n], cost[:n])
        certified = best - float(bound.min()) <= CERT_TOL * max(1.0, best)
        if max(d_rho, hi * d_th) <= GRID_STEP and certified:
            return Position(enb.x + best_x, enb.y + best_y), best
        keep = bound < best
        if 4 * np.count_nonzero(keep) > MAX_CELLS:
            break
        d_rho, d_th = 0.5 * d_rho, 0.5 * d_th
        rho, th = rho[keep], th[keep]
        rho = np.concatenate([rho - 0.5 * d_rho, rho + 0.5 * d_rho] * 2)
        th = np.concatenate([th - 0.5 * d_th] * 2 + [th + 0.5 * d_th] * 2)
    raise RuntimeError("annulus_minimum: no certificate within the search limits "
                       "(flat or non-smooth minimum)")
