"""Quadrature helpers: periodic trapezoid grids and composite Gauss panels."""

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=None)
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read only."""
    return np.polynomial.legendre.leggauss(nodes)


def uniform_angles(n: int) -> np.ndarray:
    """n equispaced angles on [0, 2pi), no endpoint duplication."""
    return np.arange(n) * (TWO_PI / n)


def chord_grid(phi_count: int, t_count: int, t_max: float):
    """Flat (phi, t) grid, phi-major: phi uniform on [0, 2pi), t = t_max (j+1)/t_count."""
    ts = t_max * np.arange(1, t_count + 1) / t_count
    return np.repeat(uniform_angles(phi_count), t_count), np.tile(ts, phi_count)


def periodic_trapezoid(values: np.ndarray) -> float:
    """Trapezoid rule on a uniform grid over one period 2pi.

    Spectrally accurate for smooth periodic integrands, which is all this
    package integrates over the angle variable.
    """
    return float(np.mean(values) * TWO_PI)


def gauss_panels(t_max: float, nodes: int = 24):
    """Composite Gauss-Legendre nodes/weights on (0, t_max].

    The mesh is graded toward 0: panel edges 0, t_max*2^-12, ..., t_max/2, t_max.
    Returns (t, w) flat arrays.
    """
    if not 0.0 < t_max < np.inf:           # a NaN fails too
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    xg, wg = _leggauss(nodes)
    edges = [0.0] + [t_max * 2.0 ** (-k) for k in range(12, -1, -1)]
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        ts.append(half * xg + 0.5 * (a + b))
        ws.append(half * wg)
    return np.concatenate(ts), np.concatenate(ws)

