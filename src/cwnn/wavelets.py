"""Radial wavelet families on a single-scaling dyadic lattice.

A basis element is indexed by an integer resolution ``m`` and an integer
translation vector ``n``; it evaluates as ``2**(d*m/2) * psi(2**m * x - n)``
so that every element has the same L2 norm as the mother function.  Two
mother families are provided, both radial in frequency:

* ``MEXICAN_HAT``: ``(d - |x|**2) * exp(-|x|**2 / 2)``, paired with a
  Gaussian low-pass companion.
* ``SINC``: band-limited to the annulus ``1 < |w| <= 2``; in one dimension
  ``(sin(2x) - sin(x)) / x``, in higher dimensions evaluated from the
  closed-form Bessel profile, which in odd dimensions is elementary (the
  spherical Bessel functions ``j_n``).  Its low-pass companion is the
  tensor product of ``sin(x_i)/x_i`` factors.

Shapes are evaluated from per-axis coordinate arrays, so a design matrix
is built from one (rows, columns) offset array per input axis and never
from an (n_samples, n_bases, dim) stack; the separable sinc companion is
gathered from one (rows, distinct n_k) factor table per axis instead.
``_tiles`` cuts the matrix into tiles, a row chunk of a column block
each, and ``_fill`` evaluates one tile, row slab by row slab, for two
consumers: ``basis_matrix`` fills each tile of the matrix, and
``basis_matrix_tdot`` multiplies each tile by its rows of a target and
frees it, so ``psi^T y`` never holds psi.  Four module constants bound
the work: a worker evaluates at most ``_BLOCK_ELEMS`` offset elements or
gathered companion values at once, one slab, so its scratch fits one
core's L2 cache; a row chunk holds at most ``_BLOCK_ROWS`` rows; a block
of a design taller than one chunk keeps at least ``_BLOCK_COLS``
columns, d times that for a sinc companion; and a call larger than
``_POOL_ELEMS`` runs on every CPU the process may run on (its affinity
mask, which ``taskset`` limits), smaller ones inline.  The result does
not depend on the CPU count.  The same row chunks and pool
sum the Gram border of a design taller than one chunk
(``model.Design.sync``).  The command line runs BLAS on one thread, so
there this pool is a run's only parallelism; a library caller keeps the
BLAS threads it set.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import j1, jv

# The ufunc behind scipy.special.spherical_jn.  Since scipy 1.15 the
# public function reflects negative arguments through a mask, a scatter
# and a few copies, about 0.2 ms of Python a call; radii are never
# negative, and a 9-D probe level calls it twice in each of about 12 000
# blocks, where that Python work, holding the interpreter lock, kept the
# tile pool from running the blocks side by side.
try:
    from scipy.special._ufuncs import _spherical_jn as spherical_jn
except ImportError:
    from scipy.special import spherical_jn


class WaveletFamily(enum.Enum):
    MEXICAN_HAT = "mexican_hat"
    SINC = "sinc"


class BasisKind(enum.IntEnum):
    WAVELET = 0    # band-pass element of a detail subspace W_m
    SCALING = 1    # low-pass companion spanning V_m


class GridError(ValueError):
    """Raised when a translation-center grid is empty or inconsistent."""


# A basis set is one (p, 2 + d) integer array, a row per element in the
# set's order: its kind code (a BasisKind), its resolution m and its
# translation n, read by these names.  A single element is one row.
KIND, RES, TRANS = 0, 1, slice(2, None)


def basis_set(m, n, kind=BasisKind.WAVELET) -> np.ndarray:
    """The basis set of the (p, d) integer translations ``n`` at the
    resolution ``m`` and kind ``kind``, each one value or one per row."""
    n = np.asarray(n)
    out = np.empty((len(n), 2 + n.shape[1]), np.int32)
    out[:, KIND], out[:, RES], out[:, TRANS] = kind, m, n
    if not np.array_equal(out[:, TRANS], n):
        raise ValueError("translations must be integers of at most 31 bits")
    return out


def _fresh(bases, seen=None) -> np.ndarray:
    """Mask of the rows of ``bases`` held by neither ``seen`` nor an
    earlier row; both are basis sets."""
    both = np.ascontiguousarray(bases if seen is None
                                else np.concatenate([seen, bases]))
    keys = both.view(np.dtype((np.void, both.itemsize * both.shape[1])))
    first = np.zeros(len(both), bool)
    first[np.unique(keys[:, 0], return_index=True)[1]] = True
    return first[len(both) - len(bases):]


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
    in one dimension it reduces to ``(sin 2r - sin r) / r``.  For odd
    dim >= 3, ``J_{n+1/2}(x) = sqrt(2x/pi) j_n(x)`` with n = (dim - 1)/2
    turns it into ``r**-n * (2**(n+1) j_n(2r) - j_n(r))``.  The
    spherical Bessel function j_n is elementary in sin and cos; where its
    argument is at least n, scipy builds it by recurrence from them at
    about a tenth of the cost of ``jv`` (below n at about the same cost).
    Radii below ``_SERIES_RADIUS`` take ``sqrt(pi/2) * (c0 - c2 r**2)``
    instead.
    """
    nu = 0.5 * dim
    amp = math.sqrt(math.pi / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if dim == 1:
            out = np.sin(2.0 * r)
            out -= np.sin(r)
            out /= r
        elif dim % 2:
            n = dim // 2
            out = spherical_jn(n, np.multiply(r, 2.0))
            out *= 2.0 ** (n + 1)
            out -= spherical_jn(n, r)
            out /= r ** n
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
        separable and is built per axis by :func:`_fill`.
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


# Most values a worker evaluates at once, one row slab of one tile: its
# offsets summed over the input axes, or a sinc companion's gathered
# values.  A worker holds one slab's scratch at a time, its offsets and
# the shape's temporaries, at most 4 * _BLOCK_ELEMS doubles (2 MiB, one
# core's L2 cache on the two-core Xeon the benchmarks run on; the 1-D
# sinc wavelet's offsets, radii, profile and one temporary reach it), on
# top of the call's output.  A sinc companion's slab holds its values and
# one axis's factor table over the tile's distinct translations, no
# wider than the tile, beside the next axis's table or a sine temporary:
# at most 3 * _BLOCK_ELEMS doubles, and numpy's ufunc buffers.  So its
# tiles are d times wider than an offset tile's: cut at d offsets a
# cell, the 50k fit's 81 companions are two tiles a chunk, each building
# its own tables, and their serial build takes 68 ms against 46 (medians
# of seven runs on two shared cores).  A worker of the psi^T y path also
# holds its tile's values, rows x columns cells; in place of the output,
# its call holds one partial sum per row chunk and column.  A bound of
# 2**18, four times that cache, made the scratch most of an N = 500
# run's memory above the interpreter's.
_BLOCK_ELEMS = 2 ** 16
# Offset elements of a call above which its tiles go to the thread
# pool; smaller calls run inline.  2**18 is the smallest power of two
# that still builds a 500-row, 162-column two-axis design inline: at
# 2**17 that call enters the pool and slows from about 3 to 4 ms.
_POOL_ELEMS = 2 ** 18
# Most rows per row chunk.  A design of at most 4096 rows is one chunk
# and is cut by columns alone; a taller one's psi^T y partial sums and
# Gram border (model.Design.sync) are summed by chunk, in chunk order.
_BLOCK_ROWS = 4096
# Fewest columns of a block of a design taller than one row chunk.  At
# 4096 rows only 2**16 // (4096 d) columns fit the bound (8 at d = 2);
# in blocks of eight columns the 50k fit's 162-column sinc design builds
# about 14% slower (604 -> 689 ms on two cores), and 32 columns write
# each row of psi in whole cache lines.  A sinc companion's block keeps
# d times as many (see _BLOCK_ELEMS).  Such a block is evaluated in row
# slabs that stay within the bound.
_BLOCK_COLS = 32


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _row_chunks(n: int) -> list:
    """The row slices of an ``n``-row design's chunks: the fewest of at
    most ``_BLOCK_ROWS`` rows, their sizes differing by at most one (one
    chunk of all rows when ``n <= _BLOCK_ROWS``)."""
    k = max(1, -(-n // _BLOCK_ROWS))
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _tiles(mother: MotherWavelet, bases, X):
    """The tiles of the design matrix of ``bases`` at ``X``, unevaluated.

    Returns X as a 2-D float array, the number of row chunks and the
    tiles, each ``(chunk, rows, cols, kind, m, trans)``: the design
    matrix's ``[rows, cols]`` in row chunk ``chunk``, whose columns are
    the elements of kind ``kind`` and resolution ``m`` translated by the
    rows of ``trans``, as :func:`_fill` evaluates them.

    Rows are cut into :func:`_row_chunks`.  Each run of consecutive
    bases of one kind and resolution is cut into the fewest column
    blocks whose values over a chunk's rows fit ``_BLOCK_ELEMS``, their
    sizes differing by at most one column: d offsets a cell, or one
    gathered value for a sinc companion.  In a design of several chunks
    where fewer than ``_BLOCK_COLS`` columns fit (d times that for a
    sinc companion), the run is cut into the most blocks of at least
    that many columns instead.  Every block is one tile per chunk.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if d != mother.dim or bases.shape[1] != 2 + d:
        raise ValueError(f"X has dim {d} and the translations "
                         f"{bases.shape[1] - 2}; mother expects {mother.dim}")
    chunks = _row_chunks(n)
    height = max(1, -(-n // len(chunks)))
    tiles = []
    start = 0
    ends = 1 + np.flatnonzero(np.diff(bases[:, [KIND, RES]], axis=0).any(1))
    for group in np.split(bases, ends) if len(bases) else []:
        kind, m = BasisKind(group[0, KIND]), int(group[0, RES])
        trans = group[:, TRANS]
        # a sinc companion gathers one value a cell, not d offsets
        per = (1 if kind is BasisKind.SCALING
               and mother.family is WaveletFamily.SINC else d)
        width = max(1, _BLOCK_ELEMS // (height * per))
        floor = _BLOCK_COLS * d // per
        # blocks whose sizes differ by at most one: at most width
        # columns each, or at least floor in a tall design
        if len(chunks) > 1 and width < floor:
            k = max(1, len(trans) // floor)
        else:
            k = -(-len(trans) // width)
        cuts = [len(trans) * i // k for i in range(k + 1)]
        tiles += [(chunk, rows, slice(start + lo, start + hi), kind, m,
                   trans[lo:hi])
                  for chunk, rows in enumerate(chunks)
                  for lo, hi in zip(cuts[:-1], cuts[1:])]
        start += len(trans)
    return X, len(chunks), tiles


def _fill(mother: MotherWavelet, X, tile, dest) -> None:
    """Write the values of ``tile``, one of :func:`_tiles` of ``X``, into
    ``dest``, an array of its (rows, columns) shape, a row slab at a time.

    A slab holds at most ``_BLOCK_ELEMS`` values: the offsets of its rows
    from the tile's translations, one (slab, columns) array per input
    axis sliced from one array that one subtraction builds, or a sinc
    companion's gathered values.  The companion is separable: each
    axis's factor is evaluated once per slab row and distinct ``n_k`` of
    the tile into a table, in place but with ``np.sinc``'s steps:
    ``t = pi * (o / pi)``, a tiny ``t`` in place of 0 (whose factor is
    then exactly 1) and ``sin(t) / t``.  A column gathers its factors and
    multiplies them in axis order, so every value is the per-cell
    ``np.sinc`` product bit for bit.  A table spans the slab's rows and
    the tile's distinct ``n_k`` on one axis, and goes once the next
    axis's is built, so no table outlives its slab.
    """
    _, rows, _, kind, m, trans = tile
    d = mother.dim
    scale, amp = 2.0 ** m, 2.0 ** (0.5 * d * m)
    gather = (kind is BasisKind.SCALING
              and mother.family is WaveletFamily.SINC)
    if gather:
        distinct = [np.unique(t, return_inverse=True) for t in trans.T]
    step = max(1, _BLOCK_ELEMS // (len(trans) * (1 if gather else d)))
    part = X[rows]
    for lo in range(0, len(part), step):
        x = part[lo:lo + step]
        if gather:
            for k, (u, which) in enumerate(distinct):
                t = np.subtract.outer(x[:, k] * scale, u)
                t /= np.pi
                t *= np.pi
                t[t == 0] = np.pi * 1e-20
                np.divide(np.sin(t), t, out=t)
                if k:
                    values *= t[:, which]
                else:
                    values = t[:, which]
        else:
            values = mother._eval_kind(kind, np.subtract(
                (x * scale).T[:, :, None], trans.T[:, None, :], order="C"))
        np.multiply(values, amp, out=dest[lo:lo + step])


def _each_tile(work, tasks, cells: int) -> None:
    """Apply ``work`` to every task, on a thread pool of at most one
    worker per CPU when the ``cells`` offset elements exceed
    ``_POOL_ELEMS``, else inline.  numpy and scipy.special release the
    GIL.

    Each caller's task writes only its own slot (a tile of the design
    matrix, a row chunk's partial sums of psi^T y or of a Gram border),
    and partial sums are added in chunk order, so the result does not
    depend on the worker count.  Its products are BLAS calls, which
    inside ``cli.main`` run on one thread each.

    Each worker takes the next task from one shared iterator until none
    is left, so a call makes one future per worker, not one per task
    (the 12 000 futures of a 9-D probe level's tiles would hold some
    30 MB)."""
    workers = 1
    if cells > _POOL_ELEMS:
        workers = min(_cpu_count(), len(tasks))
    if workers < 2:
        for task in tasks:
            work(task)
        return
    pending = iter(tasks)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                task = next(pending, None)
            if task is None:
                return
            work(task)

    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(drain) for _ in range(workers)]:
            future.result()


def basis_matrix(mother: MotherWavelet, bases, X) -> np.ndarray:
    """Evaluate every basis in ``bases`` at every row of ``X``.

    Returns the (n_samples, n_bases) design matrix, filled tile by tile
    as :func:`_tiles` cuts it.  When the call exceeds the pool threshold
    and the process may run on several CPUs, the tiles are mapped over a
    thread pool of at most that many workers; each tile writes only its
    own slice of the output, so the result is the same bit for bit on
    any number of CPUs.  Each worker holds one slab's scratch at a time.
    Smaller calls run inline.
    """
    X, _, tiles = _tiles(mother, bases, X)
    out = np.empty((len(X), len(bases)))
    _each_tile(lambda t: _fill(mother, X, t, out[t[1], t[2]]), tiles,
               X.size * len(bases))
    return out


def basis_matrix_tdot(mother: MotherWavelet, bases, X, y) -> np.ndarray:
    """``basis_matrix(mother, bases, X).T @ y`` without holding the matrix.

    Each tile of :func:`_tiles` is evaluated, multiplied by its rows of
    ``y`` into its own slot of a (row chunks, n_bases) array of partial
    sums and freed; the chunks' partial sums are then added in chunk
    order.  So a worker holds one slab's scratch and one tile's values
    at a time, and the result is the same bit for bit on any number of
    CPUs.  It may differ from the product of the whole matrix in the
    last bits, since the BLAS sums each tile's products on its own.
    """
    X, kr, tiles = _tiles(mother, bases, X)
    y = np.asarray(y, dtype=float)
    if y.shape != (len(X),):
        raise ValueError(f"y has shape {y.shape}, X has {len(X)} rows")
    parts = np.empty((kr, len(bases)))

    def fold(tile):
        chunk, rows, cols = tile[:3]
        values = np.empty((rows.stop - rows.start, cols.stop - cols.start))
        _fill(mother, X, tile, values)
        np.matmul(y[rows], values, out=parts[chunk, cols])

    _each_tile(fold, tiles, X.size * len(bases))
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


# -- translation-center grids ------------------------------------------


def lattice_bases(m: int, axes, kind: BasisKind = BasisKind.WAVELET):
    """The basis set at resolution ``m`` translated over the product of
    the per-axis integer ranges ``axes``, last axis fastest."""
    grids = np.meshgrid(*map(np.asarray, axes), indexing="ij", copy=False)
    return basis_set(m, np.stack(grids, -1).reshape(-1, len(axes)), kind)


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
        return math.prod(hi - lo + 1 for lo, hi in zip(self.n_lo, self.n_hi))

    def bases(self, kind: BasisKind = BasisKind.WAVELET):
        """All grid elements as a basis set in lexicographic order."""
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
    Integer arithmetic only, on the whole basis set at once.
    """
    stray = parents[parents[:, RES] != fine_grid.m - 1]
    if len(stray):
        raise GridError(f"fine grid at m={fine_grid.m} is not one level "
                        f"below parent at m={stray[0, RES]}")
    d = fine_grid.dim
    lo, hi = np.array(fine_grid.n_lo), np.array(fine_grid.n_hi)
    near = np.clip(2 * parents[:, TRANS].astype(np.int64), lo, hi)
    # on a one-point axis the second point is the first again, and the
    # repeated products go with the first occurrences
    far = np.where(near > lo, near - 1, np.minimum(near + 1, hi))
    pick = np.indices((2,) * d, dtype=bool).reshape(d, -1).T
    kids = basis_set(fine_grid.m, np.where(pick, far[:, None], near[:, None])
                     .reshape(-1, d))
    return kids[_fresh(kids)]
