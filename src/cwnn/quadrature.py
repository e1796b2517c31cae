"""Gauss-Legendre quadrature helpers with refinement-based error control.

All integrals in this package go through the composite rules here so that
convergence is always checked the same way: evaluate on a panel grid, double
the panel count, and accept once two successive levels agree.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when successive refinement levels fail to agree."""

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = tuple(estimates) if estimates is not None else ()


@lru_cache(maxsize=64)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_rule_1d(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre rule on [a, b]: (nodes, weights) arrays."""
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def tensor_rule(lows, highs, panels, order: int):
    """Tensor-product composite rule over a box.

    Returns points of shape (P, d) and weights of shape (P,).  ``panels`` is
    a per-dimension iterable of panel counts.
    """
    lows = np.atleast_1d(np.asarray(lows, dtype=float))
    highs = np.atleast_1d(np.asarray(highs, dtype=float))
    axes = []
    wts = []
    for lo, hi, p in zip(lows, highs, panels):
        n, w = panel_rule_1d(lo, hi, int(p), order)
        axes.append(n)
        wts.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weight = wts[0]
    for w in wts[1:]:
        weight = np.multiply.outer(weight, w)
    return points, weight.ravel()


def integrate_tensor(f, lows, highs, panels, order=12):
    points, weights = tensor_rule(lows, highs, panels, order)
    return float(np.dot(weights, f(points)))


def adaptive_integral(f, lows, highs, base_panels, order=12, rtol=1e-8,
                      atol=1e-12, max_doublings=7):
    """Integrate ``f`` over a box, doubling panel counts until two successive
    estimates agree to ``rtol`` (with an absolute floor ``atol`` so that
    integrals that are genuinely zero can converge).

    Raises :class:`QuadratureError` with both trailing estimates if the
    doubling budget runs out.
    """
    panels = [int(p) for p in np.atleast_1d(base_panels)]
    lows = np.atleast_1d(lows)
    if len(panels) == 1 and lows.size > 1:
        panels = panels * lows.size
    prev = None
    history = []
    for _ in range(max_doublings + 1):
        val = integrate_tensor(f, lows, highs, panels, order)
        history.append(val)
        if prev is not None:
            if abs(val - prev) <= max(rtol * max(abs(val), abs(prev)), atol):
                return val
        prev = val
        panels = [2 * p for p in panels]
    raise QuadratureError(
        "quadrature did not converge: last estimates %r" % (history[-2:],),
        estimates=history[-2:])
