"""Numerical checks of the frame-theoretic properties behind the library.

Everything here answers a question of the form "does the constructed frame
actually behave the way the approximation argument assumes?":

* closed-form inner products between wavelet elements,
* membership in a finite time-frequency index box,
* coefficient decay outside that box for targets built from elements,
* unimodality of an energy-versus-resolution trace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .wavelets import (KIND, RES, TRANS, BasisKind, MotherWavelet,
                       WaveletFamily, lattice_bases)


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

    def contains(self, index) -> bool:
        """Whether ``index``, a basis set's row, lies in the box."""
        m, n = int(index[RES]), index[TRANS]
        if len(n) != self.dim:
            raise ValueError(f"index has {len(n)} translation "
                             f"components, box is {self.dim}-dimensional")
        if not (self.m1 < m < self.m0):
            return False
        bound = 2.0 ** m * np.asarray(self.T) + np.asarray(self.t_eps)
        return bool(np.all(np.abs(n) <= bound + 1e-12))


def gram(mother: MotherWavelet, a, b) -> float:
    """<psi_a, psi_b> of two wavelet elements (rows), in closed form.

    Sinc: the spectrum is flat on the annulus 1 < |w| <= 2, so elements
    at different resolutions are orthogonal, and within one resolution
    the inner product is ``(|psi|^2 / psi(0)) * psi(n_a - n_b)``.

    Mexican hat (psi = -Laplacian of exp(-|x|^2/2)): by Plancherel, with
    s = 4^-m_a + 4^-m_b and D the offset of the two centers,
    ``2^(-d(m_a+m_b)/2) 4^-(m_a+m_b) (2 pi/s)^(d/2) exp(-|D|^2/2s)
    (|D|^4/s^4 - 2(d+2)|D|^2/s^3 + d(d+2)/s^2)``.
    """
    if a[KIND] != BasisKind.WAVELET or b[KIND] != BasisKind.WAVELET:
        raise ValueError("gram is defined for wavelet elements only")
    d = mother.dim
    ma, mb = int(a[RES]), int(b[RES])
    if mother.family is WaveletFamily.SINC:
        if ma != mb:
            return 0.0
        offset = np.subtract(a[TRANS], b[TRANS], dtype=float)
        return float(mother.norm_sq / mother.eval_mother(np.zeros(d))
                     * mother.eval_mother(offset))
    mm = ma + mb
    s = 4.0 ** -ma + 4.0 ** -mb
    q = float(np.sum(np.square(a[TRANS] * 2.0 ** -ma
                               - b[TRANS] * 2.0 ** -mb))) / s  # |D|^2 / s
    poly = (q * q - 2 * (d + 2) * q + d * (d + 2)) / (s * s)
    scale = 2.0 ** (-0.5 * d * mm) * 4.0 ** -mm
    return scale * (2.0 * math.pi / s) ** (d / 2) * math.exp(-0.5 * q) * poly


def scan_indices(box: TimeFrequencyBox, m_pad: int = 2):
    """Standard scan range around a box: resolutions from m1+1-m_pad to
    m0-1+m_pad, translations out to the box bound at each resolution.
    A wavelet basis set, levels in order, each in lexicographic order.
    """
    levels = []
    for m in range(box.m1 + 1 - m_pad, box.m0 + m_pad):
        limits = [int(math.floor(2.0 ** m * T + te))
                  for T, te in zip(box.T, box.t_eps)]
        levels.append(lattice_bases(m, [range(-L, L + 1) for L in limits]))
    return np.concatenate(levels)


@dataclass
class DecayReport:
    """Scan of |<psi_mn, f>| partitioned by box membership."""

    box: TimeFrequencyBox
    rows: list = field(default_factory=list)  # (row, inside, coefficient)

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
                writer.writerow([int(index[RES])] + index[TRANS].tolist()
                                + [int(inside), repr(abs(coef))])


def decay_report(target, mother: MotherWavelet, box: TimeFrequencyBox,
                 indices) -> DecayReport:
    """Compute every scanned coefficient of the target ``sum_k c_k psi_k``,
    given as ``(c_k, row)`` pairs, exactly through :func:`gram`, and
    compare the largest magnitude outside the box against the largest
    inside."""
    report = DecayReport(box)
    for index in indices:
        coef = sum(c * gram(mother, index, b) for c, b in target)
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
