"""Reference minimizer for the range-difference cost, used to audit solvers.

A certified branch-and-bound over the timing-advance annulus around the base
station (the Lipschitz bound-and-prune of Piyavskii 1972 and Shubert 1972, in
2-D).  The annulus is tiled exactly by polar cells.  Each cell's cost is taken
at its centre and, on the inner and outer rings, at its rim point; when the
best of these beats the incumbent, Gauss-Newton steps on the misses polish it
into the new incumbent.  The cost is a sum of squares, so an incumbent within
``CERT_TOL`` of 0 (an audit's zero, polished to rounding) is returned before
any cell bound.  Otherwise a cell is dropped once a lower bound on the cost
anywhere in it reaches the incumbent, and each round halves the rest twice,
into 4 x 4 children, until the incumbent is within ``CERT_TOL`` of the least
bound: the returned cost is the global minimum over the annulus to that
tolerance.  The search and its cost share no algebra with the solvers it audits.
"""

import functools
import math
from typing import Sequence, Tuple

import numpy as np

# Not called here: kept importable for the benchmark tracer, which wraps
# ``bruteforce.annulus_grid_min`` by name.
from ._kernels import annulus_grid_min  # noqa: F401
from .geometry import Position, distance
from .tdoa import TdoaPair

#: Step of the grid oracle this search replaced, m: only the benchmark's ``grid_points`` reads it.
GRID_STEP = 0.05

#: Certificate tolerance, m^2 (relative above 1 m^2, where float64 rounding
#: of the cost itself approaches this size).
CERT_TOL = 1e-12

#: Rings of the starting partition; sectors are as wide as a ring on the
#: outer rim.
_RINGS = 8

#: Limits on the search: a halving count (two per round) that takes a starting
#: cell below float64 resolution, and a live-cell count that bounds memory.
#: A smooth isolated minimum is certified long before either; a flat curve of
#: minimizers, or a positive minimum on a sniffer (where the cost has a kink),
#: can reach them.
MAX_LEVELS = 48
MAX_CELLS = 1 << 18

#: (radial, angular) offsets of a cell's 4 x 4 children, in children's widths.
_CHILD_RHO, _CHILD_TH = np.repeat(np.arange(4) - 1.5, 4), np.tile(np.arange(4) - 1.5, 4)


def pair_cost(u: Position, pairs: Sequence[TdoaPair]) -> float:
    """Sum of squared range-difference misses at ``u``, m^2."""
    return sum((p.delta_d - (distance(u, p.other_sniffer) - distance(u, p.ref_sniffer))) ** 2
               for p in pairs)


def _lower_bound(rho, d_rho, d_th, x, y, dx, dy, d, m, cost):
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
    inv_clear = 1.0 / clear
    ux, uy = dx / d, dy / d
    gx = -2.0 * (m * (ux[1:] - ux[0])).sum(axis=0)
    gy = -2.0 * (m * (uy[1:] - uy[0])).sum(axis=0)
    g_rho = (gx * x + gy * y) / rho  # radial and angular parts: (x, y) / rho
    g_th = (gy * x - gx * y) / rho   # is (cos, sin) of the centre's angle
    hess = 2.0 * (4.0 * n_pairs + ((np.abs(m) + 2.0 * reach)
                                   * (inv_clear[1:] + inv_clear[0])).sum(axis=0))
    slope = (np.abs(g_rho) * (0.5 * d_rho + r_out * d_th ** 2 / 8.0)
             + np.abs(g_th) * r_out * 0.5 * d_th)
    taylor = cost - slope - 0.5 * hess * reach ** 2
    return np.where(clear.min(axis=0) > 0.0, np.maximum(bound, taylor), bound)


def _points(lo, hi, d_rho, rho, th):
    """A round's cost points (x, y): cell centres, then the first and last rings' rim points."""
    inner = rho < lo + d_rho
    rim = inner | (rho > hi - d_rho)
    p_rho = np.concatenate([rho, np.where(inner[rim], lo, hi)])
    p_th = np.concatenate([th, th[rim]])
    return p_rho * np.cos(p_th), p_rho * np.sin(p_th)


@functools.lru_cache(maxsize=8)
def _start(lo, hi):
    """The band's starting cells and their points (d_rho, d_th, rho, th, x, y), read-only."""
    d_rho = (hi - lo) / _RINGS
    d_th = 2.0 * math.pi / math.ceil(2.0 * math.pi * hi / d_rho)
    rho, th = (a.ravel() for a in np.meshgrid(lo + d_rho * (np.arange(_RINGS) + 0.5),
                                              np.arange(0.5 * d_th, 2.0 * math.pi, d_th)))
    cells = (rho, th, *_points(lo, hi, d_rho, rho, th))
    for a in cells:
        a.flags.writeable = False
    return (d_rho, d_th, *cells)


def _polish(w, z, dd, lo, hi):
    """Gauss-Newton steps from ``w`` while they land in the annulus, lower the
    cost and J^T J is regular (never, with one pair): the last point kept and
    its cost.  Points are complex, x + iy, and ``z`` the sniffers, reference
    first; miss k has gradient -(u_k - u_0), u the unit vectors from them
    (zero on a sniffer).  Plain Python beats numpy calls on a few sniffers."""
    best = math.inf
    while True:
        r0 = w - z[0]
        u0, cost, s, t, g = r0 / (abs(r0) or 1.0), 0.0, 0.0, 0j, 0j
        for zk, e in zip(z[1:], dd):
            mk, jk = e - (abs(w - zk) - abs(r0)), (w - zk) / (abs(w - zk) or 1.0) - u0
            cost, s, t, g = cost + mk * mk, s + abs(jk) ** 2, t + jk * jk, g + jk * mk
        if not cost < best:
            break
        kept, best = w, cost
        # J^T J step = J^T m, in complex form: (s step + t conj(step)) / 2 = g
        if not abs(t) < (1.0 - 1e-9) * s:
            break
        w += 2.0 * (s * g - t * g.conjugate()) / (s * s - abs(t) ** 2)
        if not lo <= abs(w) <= hi:
            break
    return kept, best


def annulus_minimum(enb: Position, band: Tuple[float, float],
                    pairs: Sequence[TdoaPair]) -> Tuple[Position, float]:
    """Minimize the pairwise cost over the annulus ``band`` around ``enb``.

    Returns the incumbent (position, cost), the best centre or rim point seen
    as polished by ``_polish``; it lies in the annulus.  It returns once that
    cost is within ``CERT_TOL`` of 0 or of every cell's bound, so no later
    round could lower it by more; each round halves every kept cell twice, into 16.
    Raises ``RuntimeError`` past ``MAX_LEVELS`` halvings or ``MAX_CELLS`` live cells.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    for k, p in enumerate(pairs):
        if not math.isfinite(p.delta_d):
            raise ValueError(f"pair {k}: delta_d must be finite, got {p.delta_d}")
    lo, hi = float(band[0]), float(band[1])
    if not 0.0 <= lo < hi < math.inf:
        raise ValueError(f"band must satisfy 0 <= lo < hi < inf, got {band}")
    # coordinates relative to the base station, reference sniffer first
    z = [complex(s.x - enb.x, s.y - enb.y)
         for s in [pairs[0].ref_sniffer] + [p.other_sniffer for p in pairs]]
    sx, sy = np.real(z)[:, None], np.imag(z)[:, None]
    dd = np.array([p.delta_d for p in pairs])[:, None]
    d_rho, d_th, rho, th, x, y = _start(lo, hi)
    best, best_w = math.inf, 0j
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(0, MAX_LEVELS, 2):
            dx, dy = x - sx, y - sy  # row 0: reference sniffer
            d = np.hypot(dx, dy)
            m = dd - (d[1:] - d[0])
            cost = (m * m).sum(axis=0)
            i = int(np.argmin(cost))
            if cost[i] < best:
                best_w, best = _polish(complex(x[i], y[i]), z, dd[:, 0].tolist(), lo, hi)
            if best <= CERT_TOL:  # no point costs less than 0: no bound can beat it
                return Position(enb.x + best_w.real, enb.y + best_w.imag), best
            n = rho.size
            bound = _lower_bound(rho, d_rho, d_th, x[:n], y[:n], dx[:, :n], dy[:, :n],
                                 d[:, :n], m[:, :n], cost[:n])
            if best - float(bound.min()) <= CERT_TOL * max(1.0, best):
                return Position(enb.x + best_w.real, enb.y + best_w.imag), best
            keep = bound < best
            if 16 * np.count_nonzero(keep) > MAX_CELLS:
                break
            d_rho, d_th = 0.25 * d_rho, 0.25 * d_th
            rho = (rho[keep][:, None] + d_rho * _CHILD_RHO).ravel()
            th = (th[keep][:, None] + d_th * _CHILD_TH).ravel()
            x, y = _points(lo, hi, d_rho, rho, th)
    raise RuntimeError("annulus_minimum: no certificate within the search limits "
                       "(flat or non-smooth minimum)")
