"""Numerical checks of the frame-theoretic properties behind the library.

Everything here answers a question of the form "does the constructed frame
actually behave the way the approximation argument assumes?":

* quadrature inner products between a target function and single bases,
* membership in a finite time-frequency index box,
* coefficient decay outside that box for band-limited targets,
* unimodality of an energy-versus-resolution trace.

All integrals run through the adaptive tensor Gauss-Legendre rules in
:mod:`cwnn.quadrature`, so every reported number has passed a two-level
refinement agreement check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import adaptive_integral
from .wavelets import BasisIndex, BasisKind, MotherWavelet, eval_basis


@dataclass(frozen=True)
class TimeFrequencyBox:
    """Finite index box: resolutions strictly between m1 and m0, translations
    bounded by ``|n| <= 2^m * T + t_eps`` componentwise.

    ``T`` is the per-dimension time half-width of the region the target
    concentrates on; ``t_eps`` is an integer translation margin.
    """

    T: tuple
    t_eps: tuple
    m0: int
    m1: int

    def __post_init__(self):
        object.__setattr__(self, "T", tuple(float(t) for t in np.atleast_1d(self.T)))
        object.__setattr__(self, "t_eps",
                           tuple(int(t) for t in np.atleast_1d(self.t_eps)))
        if len(self.T) != len(self.t_eps):
            raise ValueError("T and t_eps must have the same dimension")
        if self.m1 >= self.m0:
            raise ValueError(f"need m1 < m0, got m1={self.m1}, m0={self.m0}")
        if any(t < 0 for t in self.T) or any(t < 0 for t in self.t_eps):
            raise ValueError("T and t_eps must be non-negative")

    @property
    def dim(self) -> int:
        return len(self.T)

    def contains(self, index: BasisIndex) -> bool:
        if len(index.n) != self.dim:
            raise ValueError(f"index has {len(index.n)} translation "
                             f"components, box is {self.dim}-dimensional")
        if not (self.m1 < index.m < self.m0):
            return False
        bound = 2.0 ** index.m * np.asarray(self.T) + np.asarray(self.t_eps)
        return bool(np.all(np.abs(index.n) <= bound + 1e-12))


# Quadrature control.  Panel density is in panels per unit of scaled
# length: a resolution-m basis oscillates on the 2**-m scale, so panel
# counts grow with 2**m to keep the rule resolved.
_QUAD_ORDER = 12
_PANELS_PER_UNIT = 0.5
_MIN_PANELS = 4
_QUAD_RTOL = 1e-8
_QUAD_ATOL = 1e-10
_MAX_DOUBLINGS = 8


def support_box(mother: MotherWavelet, index: BasisIndex):
    """Box outside which the basis is numerically negligible."""
    center = index.center()
    radius = mother.effective_radius * 2.0 ** (-index.m)
    return center - radius, center + radius


def _base_panels(lows, highs, m: int):
    scale = 2.0 ** max(m, 0)
    width = np.asarray(highs, dtype=float) - np.asarray(lows, dtype=float)
    return [max(_MIN_PANELS, int(math.ceil(w * scale * _PANELS_PER_UNIT)))
            for w in width]


def inner_product(f, mother: MotherWavelet, index: BasisIndex,
                  lows=None, highs=None) -> float:
    """<psi_mn, f> by adaptive tensor Gauss-Legendre quadrature.

    The integration box defaults to the basis effective support; pass
    ``lows``/``highs`` to widen it (it is clipped to nothing smaller than
    the basis support, never shrunk), e.g. when ``f`` extends beyond the
    basis tail and the cancellation of an out-of-band coefficient depends
    on covering both supports.
    """
    b_lo, b_hi = support_box(mother, index)
    if lows is not None:
        b_lo = np.minimum(b_lo, np.asarray(lows, dtype=float))
    if highs is not None:
        b_hi = np.maximum(b_hi, np.asarray(highs, dtype=float))

    def integrand(pts):
        return eval_basis(mother, index, pts) * np.asarray(f(pts), dtype=float)

    return adaptive_integral(integrand, b_lo, b_hi,
                             _base_panels(b_lo, b_hi, index.m),
                             order=_QUAD_ORDER, rtol=_QUAD_RTOL,
                             atol=_QUAD_ATOL, max_doublings=_MAX_DOUBLINGS)


def scan_indices(box: TimeFrequencyBox, m_pad: int = 2, n_pad: int = 4):
    """Standard scan range around a box: resolutions from m1+1-m_pad to
    m0-1+m_pad, translations out to ``n_pad`` lattice steps beyond the box
    bound at each resolution.  Wavelet-kind indices, lexicographic order.
    """
    out = []
    for m in range(box.m1 + 1 - m_pad, box.m0 + m_pad):
        limits = [int(math.floor(2.0 ** m * T + te)) + n_pad
                  for T, te in zip(box.T, box.t_eps)]
        shape = tuple(2 * L + 1 for L in limits)
        for idx in np.ndindex(shape):
            n = tuple(int(k) - L for k, L in zip(idx, limits))
            out.append(BasisIndex(m, n, BasisKind.WAVELET))
    return out


@dataclass
class DecayReport:
    """Scan of |<psi_mn, f>| partitioned by box membership."""

    box: TimeFrequencyBox
    rows: list = field(default_factory=list)  # (index, inside, coefficient)

    @property
    def max_inside(self) -> float:
        vals = [abs(c) for _, inside, c in self.rows if inside]
        return max(vals) if vals else 0.0

    @property
    def max_outside(self) -> float:
        vals = [abs(c) for _, inside, c in self.rows if not inside]
        return max(vals) if vals else 0.0

    @property
    def ratio(self) -> float:
        out, ins = self.max_outside, self.max_inside
        if out == 0.0:
            return 0.0
        if ins == 0.0:
            return math.inf
        return out / ins

    def to_csv(self, path):
        dim = self.box.dim
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m"] + [f"n{i + 1}" for i in range(dim)]
                            + ["inside", "coef_abs"])
            for index, inside, coef in self.rows:
                writer.writerow([index.m] + list(index.n)
                                + [int(inside), repr(abs(coef))])


def decay_report(f, mother: MotherWavelet, box: TimeFrequencyBox, indices,
                 f_lows=None, f_highs=None) -> DecayReport:
    """Compute every scanned coefficient and compare the largest magnitude
    outside the box against the largest inside.

    ``f_lows``/``f_highs`` should bound the region where ``f`` is
    non-negligible; each per-basis integration box is the union of that
    region with the basis support.
    """
    report = DecayReport(box)
    for index in indices:
        coef = inner_product(f, mother, index, lows=f_lows, highs=f_highs)
        report.rows.append((index, box.contains(index), coef))
    return report


def count_peaks(values, tol: float = 0.02) -> int:
    """Number of interior maxima in a sequence, ignoring wiggles smaller
    than ``tol`` relative to the running extreme.

    A peak is only counted once the trace has risen above the preceding
    trough by more than the tolerance and then fallen below the peak by
    more than the tolerance, so a plateau with a sub-tolerance dip counts
    as one peak, not two.
    """
    vals = [float(v) for v in values]
    if not vals:
        return 0
    peaks = 0
    trend = 0  # 0 undecided, +1 rising, -1 falling
    hi = lo = vals[0]
    for v in vals[1:]:
        if trend == 0:
            hi = max(hi, v)
            lo = min(lo, v)
            if v > lo * (1.0 + tol):
                trend, hi = 1, v
            elif v < hi * (1.0 - tol):
                trend, lo = -1, v  # started at a boundary maximum: no peak
        elif trend > 0:
            hi = max(hi, v)
            if v < hi * (1.0 - tol):
                peaks += 1
                trend, lo = -1, v
        else:
            lo = min(lo, v)
            if v > lo * (1.0 + tol):
                trend, hi = 1, v
    return peaks
