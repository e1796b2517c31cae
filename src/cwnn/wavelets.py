"""Radial wavelet families on a single-scaling dyadic lattice.

A basis element is indexed by an integer resolution ``m`` and an integer
translation vector ``n``; it evaluates as ``2**(d*m/2) * psi(2**m * x - n)``
so that every element has the same L2 norm as the mother function.  Two
mother families are provided, both radial in frequency:

* ``MEXICAN_HAT``: ``(d - |x|**2) * exp(-|x|**2 / 2)``, paired with a
  Gaussian low-pass companion.
* ``SINC``: band-limited to the annulus ``1 < |w| <= 2``; in one dimension
  ``(sin(2x) - sin(x)) / x``, in higher dimensions evaluated from the
  closed-form Bessel profile.  Its low-pass companion is the tensor
  product of ``sin(x_i)/x_i`` factors.

Shapes are evaluated from per-axis coordinate arrays, so a design matrix
is built block by block from one (rows, columns) offset array per input
axis and never from an (n_samples, n_bases, dim) stack.  The separable
sinc companion is built from one (rows, distinct n_k) factor table per
axis and chunk of rows instead.  A design matrix whose scratch spans
several blocks is built on every CPU the process may run on (its
affinity mask, which ``taskset`` limits); the result does not depend on
the CPU count.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import j1, jv


class WaveletFamily(enum.Enum):
    MEXICAN_HAT = "mexican_hat"
    SINC = "sinc"


class BasisKind(enum.Enum):
    WAVELET = "wavelet"    # band-pass element of a detail subspace W_m
    SCALING = "scaling"    # low-pass companion spanning V_m


class GridError(ValueError):
    """Raised when a translation-center grid is empty or inconsistent."""


@dataclass(frozen=True)
class BasisIndex:
    """Dyadic index (resolution m, integer translation n, band kind)."""

    m: int
    n: tuple
    kind: BasisKind = BasisKind.WAVELET

    def center(self) -> np.ndarray:
        """Translation center 2**-m * n in input coordinates."""
        return np.asarray(self.n, dtype=float) * 2.0 ** (-self.m)

    def sort_key(self):
        return (self.kind.value, self.m, self.n)


def surface_area(dim: int) -> float:
    """Surface area of the unit sphere in ``dim`` dimensions."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


# below this radius the band-limited profile comes from its two-term
# series about the origin, where the closed form divides by almost zero
_SERIES_RADIUS = 1e-3

def _sum_of_squares(axes) -> np.ndarray:
    """Elementwise sum of squares of equally shaped per-axis arrays."""
    s2 = np.square(axes[0])
    if len(axes) > 1:
        tmp = np.empty_like(s2)
        for a in axes[1:]:
            s2 += np.square(a, out=tmp)
    return s2


def _sinc_profile(dim: int, r: np.ndarray) -> np.ndarray:
    """Band-limited radial profile at the radii ``r`` (left unchanged).

    The inverse transform of the unit-height annulus ``1 < |w| <= 2`` is
    ``sqrt(pi/2) * r**-nu * (2**nu J_nu(2r) - J_nu(r))`` with nu = dim/2;
    in one dimension it reduces to ``(sin 2r - sin r) / r``.  Radii below
    ``_SERIES_RADIUS`` take ``sqrt(pi/2) * (c0 - c2 r**2)`` instead.
    """
    nu = 0.5 * dim
    amp = math.sqrt(math.pi / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if dim == 1:
            out = np.sin(2.0 * r)
            out -= np.sin(r)
            out /= r
        else:
            out = np.multiply(r, 2.0)
            if dim == 2:
                j1(out, out=out)
                out *= 2.0
                out -= j1(r)
                out /= r
            else:
                jv(nu, out, out=out)
                out *= 2.0 ** nu
                out -= jv(nu, r)
                out /= r ** nu
            out *= amp
    small = np.flatnonzero(r < _SERIES_RADIUS)
    if small.size:
        rs = r.flat[small]
        c0 = (2.0 ** nu - 2.0 ** -nu) / math.gamma(nu + 1.0)
        c2 = (2.0 ** nu - 2.0 ** (-nu - 2.0)) / math.gamma(nu + 2.0)
        out.flat[small] = amp * (c0 - c2 * rs * rs)
    return out


@dataclass
class MotherWavelet:
    """A mother wavelet family instantiated for a fixed input dimension."""

    family: WaveletFamily
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @classmethod
    def mexican_hat(cls, dim: int) -> "MotherWavelet":
        return cls(WaveletFamily.MEXICAN_HAT, dim)

    @classmethod
    def sinc(cls, dim: int) -> "MotherWavelet":
        return cls(WaveletFamily.SINC, dim)

    # -- evaluation -----------------------------------------------------

    def _eval_kind(self, kind: BasisKind, axes) -> np.ndarray:
        """Evaluate the mother (band-pass) or companion (low-pass) shape.

        ``axes`` holds ``dim`` equally shaped arrays, the points'
        coordinates along each input axis.  They are left unchanged; the
        result is a new array of their shape.  The sinc companion is
        separable and is built per axis by :func:`basis_matrix`.
        """
        if self.family is WaveletFamily.MEXICAN_HAT:
            s2 = _sum_of_squares(axes)
            env = np.multiply(s2, -0.5)
            np.exp(env, out=env)
            if kind is BasisKind.SCALING:
                return env
            np.subtract(self.dim, s2, out=s2)
            s2 *= env
            return s2
        if kind is BasisKind.SCALING:
            raise ValueError("the sinc companion is built per axis by "
                             "basis_matrix")
        r = _sum_of_squares(axes)
        np.sqrt(r, out=r)
        return _sinc_profile(self.dim, r)

    def eval_mother(self, x) -> np.ndarray:
        """Band-pass mother value at ``x`` (shape (..., dim) or (dim,));
        drops the last axis (a single point gives a scalar)."""
        pts = np.atleast_1d(np.asarray(x, float))
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have {pts.shape[-1]} components, "
                             f"mother expects {self.dim}")
        flat = pts.reshape(-1, self.dim)
        vals = self._eval_kind(BasisKind.WAVELET,
                               [flat[:, k] for k in range(self.dim)])
        return vals.reshape(pts.shape[:-1])[()]

    # -- norm -----------------------------------------------------------

    @property
    def norm_sq(self) -> float:
        """Squared L2 norm of the mother, in closed form.

        Mexican hat: pi**(d/2) * d * (d + 2) / 4.  The band-limited
        family has the flat spectrum pi/2 on the annulus 1 < |w| <= 2,
        so by Plancherel its norm is |S^(d-1)| * (pi/2) * (2**d - 1) / d.
        """
        d = self.dim
        if self.family is WaveletFamily.MEXICAN_HAT:
            return math.pi ** (d / 2) * d * (d + 2) / 4
        return surface_area(d) * (math.pi / 2) * (2 ** d - 1) / d


def eval_basis(mother: MotherWavelet, index: BasisIndex, x) -> np.ndarray:
    """Evaluate one dilated/translated element at ``x`` through
    :func:`basis_matrix`.

    ``x`` may be a single point of shape (dim,) or a batch (..., dim);
    the result drops the last axis (a single point gives a scalar).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != mother.dim:
        raise ValueError(f"points have {x.shape[-1]} components, "
                         f"mother expects {mother.dim}")
    col = basis_matrix(mother, [index], x.reshape(-1, mother.dim))[:, 0]
    return col.reshape(x.shape[:-1])[()]


# Target number of offset elements per evaluation block, summed over the
# input axes.  A worker holds one block's scratch at a time: its offsets
# and the shape's temporaries, at most 4 * _BLOCK_ELEMS doubles (8 MiB;
# the 1-D sinc wavelet's offsets, radii, profile and one temporary reach
# it), on top of the call's output, one scaled copy of X per run of bases
# and the sinc companion's per-axis factor tables.  2**18 is the smallest
# power of two that still builds a 500-row, 162-column two-axis design
# inline: at 2**17 that call enters the thread pool and slows from about
# 3 to 4 ms.
_BLOCK_ELEMS = 2 ** 18
# Most rows per evaluation block.  A block of all 50 000 rows of a
# two-axis design would hold two columns at 2**18, and writing a design
# two columns at a time moves each cache line of it about four times; a
# block of at most 4096 rows holds at least 2**18 // (4096 d) columns
# (21 at d = 3), so each output row is written in runs of whole cache
# lines.  Designs of at most 4096 rows are cut by columns alone.
_BLOCK_ROWS = 4096


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _offset_shapes(mother: MotherWavelet, kind: BasisKind, scaled, centers):
    """Shapes of a group's columns ``lo:hi`` from one (n_samples, hi - lo)
    offset array per input axis."""
    def shapes(lo, hi):
        return mother._eval_kind(
            kind, [np.subtract.outer(scaled[:, k], centers[lo:hi, k])
                   for k in range(centers.shape[1])])
    return shapes


def _sinc_companions(scaled, centers):
    """Sinc companions ``prod_k sinc(2^m x_k - n_k)`` of a group's columns
    ``lo:hi``.

    Each axis's factor is evaluated once per distinct ``n_k`` into an
    (n_samples, distinct) table; a column gathers its factors and
    multiplies them in axis order, so every value is the per-cell
    product bit for bit.
    """
    tables, which = [], []
    for k in range(centers.shape[1]):
        u, inv = np.unique(centers[:, k], return_inverse=True)
        tables.append(np.sinc(np.subtract.outer(scaled[:, k], u) / np.pi))
        which.append(inv)

    def shapes(lo, hi):
        out = tables[0][:, which[0][lo:hi]]
        for t, inv in zip(tables[1:], which[1:]):
            out *= t[:, inv[lo:hi]]
        return out
    return shapes


def basis_matrix(mother: MotherWavelet, bases, X) -> np.ndarray:
    """Evaluate every basis in ``bases`` at every row of ``X``.

    Returns the (n_samples, n_bases) design matrix.  Each run of
    consecutive bases of one kind and resolution shares one scaled copy
    of ``X``.  Its rows are cut into the fewest chunks of at most
    ``_BLOCK_ROWS``, and each chunk's columns into the fewest blocks of
    at most ``_BLOCK_ELEMS`` scratch elements, their sizes differing by
    at most one row or column.  A block of wavelets or Mexican-hat
    companions is evaluated from one (rows, block) offset array per
    input axis; a block of sinc companions is gathered from its row
    chunk's per-axis factor tables.

    When the call's scratch spans more than one block and the process may
    run on several CPUs, the blocks are mapped over a thread pool of at
    most that many workers (numpy and scipy.special release the GIL);
    each block writes only its own slice of the output, so the result is
    the same bit for bit on any number of CPUs.  Each worker holds one
    block's scratch at a time.  Smaller calls run inline.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if d != mother.dim:
        raise ValueError(f"X has dim {d}, mother expects {mother.dim}")
    out = np.empty((n, len(bases)))
    # ceil(n / _BLOCK_ROWS) row chunks whose sizes differ by at most one
    kr = max(1, -(-n // _BLOCK_ROWS))
    rows = [n * i // kr for i in range(kr + 1)]
    block = max(1, _BLOCK_ELEMS // max(1, -(-n // kr) * d))
    tasks = []
    start = 0
    for (kind, m), run in itertools.groupby(bases, lambda b: (b.kind, b.m)):
        centers = np.array([b.n for b in run], dtype=float)
        if centers.shape[1:] != (d,):
            raise ValueError(f"a translation at resolution {m} has the "
                             f"wrong length; mother expects {d}")
        scaled = X * 2.0 ** m
        amp = 2.0 ** (0.5 * d * m)
        # ceil(len / block) blocks whose sizes differ by at most one
        k = -(-len(centers) // block)
        cuts = [len(centers) * i // k for i in range(k + 1)]
        for r0, r1 in zip(rows[:-1], rows[1:]):
            if (kind is BasisKind.SCALING
                    and mother.family is WaveletFamily.SINC):
                shapes = _sinc_companions(scaled[r0:r1], centers)
            else:
                shapes = _offset_shapes(mother, kind, scaled[r0:r1], centers)
            tasks += [(shapes, lo, hi, out[r0:r1, start + lo:start + hi], amp)
                      for lo, hi in zip(cuts[:-1], cuts[1:])]
        start += len(centers)

    def fill(task):
        shapes, lo, hi, dest, amp = task
        np.multiply(shapes(lo, hi), amp, out=dest)

    workers = 1
    if n * d * len(bases) > _BLOCK_ELEMS:
        workers = min(_cpu_count(), len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, tasks))
    else:
        for task in tasks:
            fill(task)
    return out


# -- translation-center grids ------------------------------------------


def lattice_bases(m: int, axes, kind: BasisKind = BasisKind.WAVELET):
    """Elements at resolution ``m`` translated over the product of the
    per-axis integer ranges ``axes``, last axis fastest."""
    return [BasisIndex(m, n, kind) for n in itertools.product(*axes)]


@dataclass(frozen=True)
class CenterGrid:
    """Dyadic lattice 2**-m * Z^d intersected with a box of bounds."""

    m: int
    low: tuple
    high: tuple
    n_lo: tuple
    n_hi: tuple

    @property
    def dim(self) -> int:
        return len(self.low)

    @property
    def count(self) -> int:
        c = 1
        for lo, hi in zip(self.n_lo, self.n_hi):
            c *= hi - lo + 1
        return c

    def bases(self, kind: BasisKind = BasisKind.WAVELET):
        """All grid elements as a lexicographically ordered index list."""
        return lattice_bases(self.m, [range(lo, hi + 1) for lo, hi
                                      in zip(self.n_lo, self.n_hi)], kind)

    def at(self, m: int) -> "CenterGrid":
        """The lattice at resolution ``m`` over the same bounds."""
        return _grid_from_bounds(m, self.low, self.high)


def _grid_from_bounds(m: int, low, high) -> CenterGrid:
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    scale = 2.0 ** m
    n_lo = np.ceil(low * scale - 1e-9).astype(int)
    n_hi = np.floor(high * scale + 1e-9).astype(int)
    if np.any(n_hi < n_lo):
        raise GridError(f"empty lattice at resolution {m} for bounds "
                        f"{low.tolist()} .. {high.tolist()}")
    return CenterGrid(m, tuple(low), tuple(high),
                      tuple(int(v) for v in n_lo), tuple(int(v) for v in n_hi))


def build_center_grid(m: int, domain_low, domain_high, margin: float = 1.0,
                      clamp_low=None) -> CenterGrid:
    """Lattice at resolution ``m`` covering the domain plus a margin.

    The margin is expressed in units of the per-dimension domain span.
    An optional clamp bounds the extended box from below (e.g. to keep
    centers non-negative when the mapping is only defined there).
    """
    lo = np.atleast_1d(np.asarray(domain_low, dtype=float))
    hi = np.atleast_1d(np.asarray(domain_high, dtype=float))
    if lo.shape != hi.shape or np.any(hi < lo):
        raise GridError("inconsistent domain bounds")
    span = hi - lo
    ext_lo = lo - margin * span
    ext_hi = hi + margin * span
    if clamp_low is not None:
        ext_lo = np.maximum(ext_lo, np.asarray(clamp_low, dtype=float))
    return _grid_from_bounds(m, ext_lo, ext_hi)


def children_centers(parents, fine_grid: CenterGrid):
    """Next-resolution elements nearest to each parent's translation center.

    Every parent must sit one level above ``fine_grid``.  A parent's
    center ``2**-m * n`` is the fine lattice point ``2 n``, so along axis
    k the nearest fine point inside the grid is ``a = clip(2 n_k, n_lo_k,
    n_hi_k)`` and the second nearest is ``a - 1`` when that is inside,
    else ``a + 1`` (ties break toward the smaller value); an axis with a
    single point gives one.  A parent's children are the product over
    axes of these pairs, last axis fastest (``np.ndindex`` order), up to
    2**d of them, and across parents the first occurrence is kept.
    Integer arithmetic only.
    """
    children = {}
    for p in parents:
        if p.m != fine_grid.m - 1:
            raise GridError(f"fine grid at m={fine_grid.m} is not one level "
                            f"below parent at m={p.m}")
        per_axis = []
        for nk, lo, hi in zip(p.n, fine_grid.n_lo, fine_grid.n_hi):
            a = min(max(2 * int(nk), lo), hi)
            if a - 1 >= lo:
                per_axis.append((a, a - 1))
            elif a + 1 <= hi:
                per_axis.append((a, a + 1))
            else:
                per_axis.append((a,))
        for n in itertools.product(*per_axis):
            children.setdefault(n, None)
    return [BasisIndex(fine_grid.m, n, BasisKind.WAVELET) for n in children]
