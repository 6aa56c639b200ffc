"""Passive dual-sniffer localization: timing simulation, ToA and TDoA solvers.

Two passive receivers timestamp downlink and uplink subframes of an LTE
cell; the per-sniffer timing delta pins the target to an ellipse (ToA) and
delta differences between sniffers pin it to hyperbolae (TDoA).  The
package simulates the clock chain, parses and matches capture logs, solves
both geometries, and scores the estimates.

The package re-exports nothing: import from its modules (``geometry``,
``timing``, ``toa``, ``tdoa``, ``snifferlog``, ``stats``, ``configio``, ...).
"""

__version__ = "0.1.0"
