"""Composite Gauss-Legendre quadrature, the tests' independent oracle.

The package computes its norms and inner products in closed form; the
tests check those forms against these integrals.  A rule is refined by
doubling its panel counts until two successive estimates agree.
"""

import numpy as np


def panel_rule_1d(a, b, panels, order):
    """Composite Gauss-Legendre rule on [a, b]: (nodes, weights) arrays."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate_box(f, lows, highs, panels, order):
    """Tensor-product rule over a box; ``f`` takes points of shape (P, d)."""
    rules = [panel_rule_1d(lo, hi, int(p), order)
             for lo, hi, p in zip(lows, highs, panels)]
    grids = np.meshgrid(*[n for n, _ in rules], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weight = rules[0][1]
    for _, w in rules[1:]:
        weight = np.multiply.outer(weight, w)
    return float(np.dot(weight.ravel(), f(points)))


def adaptive_integral(f, lows, highs, base_panels, order=12, rtol=1e-8,
                      atol=1e-12, max_doublings=7):
    """Integrate ``f`` over a box, doubling every panel count until two
    successive estimates agree to ``rtol`` (or to the floor ``atol``)."""
    lows = np.atleast_1d(np.asarray(lows, dtype=float))
    highs = np.atleast_1d(np.asarray(highs, dtype=float))
    panels = [int(p) for p in np.atleast_1d(base_panels)]
    if len(panels) == 1:
        panels = panels * lows.size
    prev = None
    for _ in range(max_doublings + 1):
        val = integrate_box(f, lows, highs, panels, order)
        if prev is not None and abs(val - prev) <= max(
                rtol * max(abs(val), abs(prev)), atol):
            return val
        prev = val
        panels = [2 * p for p in panels]
    raise AssertionError(f"quadrature did not converge: last {prev!r}")
