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


def periodic_trapezoid(values: np.ndarray, period: float = TWO_PI) -> float:
    """Trapezoid rule on a uniform periodic grid.

    Spectrally accurate for smooth periodic integrands, which is all this
    package integrates over the angle variable.
    """
    values = np.asarray(values, dtype=float)
    return float(values.mean() * period)


def gauss_panels(t_max: float, n_geometric: int = 12, nodes: int = 24):
    """Composite Gauss-Legendre nodes/weights on (0, t_max].

    The mesh is graded toward 0: panel edges 0, t_max*2^-n, ..., t_max/2, t_max.
    Returns (t, w) flat arrays.
    """
    if not 0.0 < t_max < np.inf:           # a NaN fails too
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    xg, wg = _leggauss(nodes)
    edges = [0.0] + [t_max * 2.0 ** (-k) for k in range(n_geometric, -1, -1)]
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        ts.append(half * xg + 0.5 * (a + b))
        ws.append(half * wg)
    return np.concatenate(ts), np.concatenate(ws)

