"""Mother wavelets, dyadic bases, center grids and child selection."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, jv

import cwnn.wavelets as wavelets
from cwnn.wavelets import (KIND, RES, TRANS, BasisKind, CenterGrid,
                           GridError, MotherWavelet, basis_matrix,
                           basis_matrix_tdot, basis_set, build_center_grid,
                           children_centers, lattice_bases)
from children_oracle import children
from quadrature_oracle import adaptive_integral, panel_rule_1d


def w_index(m, n):
    """One wavelet element, a basis set's row."""
    return basis_set(m, [n if isinstance(n, tuple) else (n,)])[0]


def s_index(m, n):
    """One companion element, a basis set's row."""
    return basis_set(m, [n if isinstance(n, tuple) else (n,)],
                     BasisKind.SCALING)[0]


def column(mother, b, X):
    """The values of the element ``b`` (a basis set's row) at the rows of
    ``X``: its column of ``basis_matrix``."""
    return basis_matrix(mother, b[None], X)[:, 0]


def rows(bases):
    """A basis set's rows, or its translations, as tuples."""
    return [tuple(r) for r in bases.tolist()]


def from_rows(triples, d):
    """The basis set of ``(kind, m, n)`` triples of ``d``-axis
    translations, in order."""
    return basis_set([m for _, m, _ in triples],
                     np.reshape([n for _, _, n in triples], (-1, d)),
                     [kind for kind, _, _ in triples])


# ---------------------------------------------------------------- mothers

def test_mexican_hat_point_values():
    mh1 = MotherWavelet.mexican_hat(1)
    assert mh1.eval_mother([[0.0]])[0] == pytest.approx(1.0)
    mh2 = MotherWavelet.mexican_hat(2)
    assert mh2.eval_mother([[1.0, 1.0]])[0] == pytest.approx(0.0, abs=1e-15)
    # generic point against the closed form (d - |x|^2) e^{-|x|^2/2}
    x = np.array([[0.3, -1.2]])
    r2 = float(np.sum(x ** 2))
    assert mh2.eval_mother(x)[0] == pytest.approx((2 - r2) * math.exp(-r2 / 2))


def test_sinc_1d_origin_limit():
    sc = MotherWavelet.sinc(1)
    assert sc.eval_mother([[1e-9]])[0] == pytest.approx(1.0, abs=1e-6)
    # closed form (sin 2x - sin x)/x away from the origin
    assert sc.eval_mother([[1.3]])[0] == pytest.approx(
        (math.sin(2.6) - math.sin(1.3)) / 1.3)


def hankel_profile(d, r):
    """Band-limited profile by quadrature of its Hankel integral,
    sqrt(pi/2) * r**(1 - d/2) * int_1^2 J_{d/2-1}(r s) s**(d/2) ds, with the
    integrand's small-argument limit at r = 0."""
    amp = math.sqrt(math.pi / 2)
    if r == 0.0:
        return amp * (2 ** d - 1) / (d * 2 ** (d / 2 - 1) * gamma(d / 2))
    s, w = panel_rule_1d(1.0, 2.0, panels=16, order=24)
    integral = np.dot(w, jv(d / 2 - 1, r * s) * s ** (d / 2))
    return amp * r ** (1 - d / 2) * integral


PROFILE_RADII = (0.0, 1e-4, 0.999e-3, 1.001e-3, 10.0, 47.9, 48.1, 60.0, 80.0)


def test_sinc_radial_profile_matches_bessel_form():
    # the closed-form profile against an independent quadrature of its
    # Hankel integral, at radii on both sides of the origin series cut-off
    # (1e-3) and of radius 48, on an axis and a diagonal
    r = np.array(PROFILE_RADII)
    for d in (1, 2, 3, 9):
        sc = MotherWavelet.sinc(d)
        want = np.array([hankel_profile(d, v) for v in r])
        on_axis = np.zeros((r.size, d))
        on_axis[:, 0] = r
        diagonal = np.outer(r, np.full(d, 1 / math.sqrt(d)))
        assert np.max(np.abs(sc.eval_mother(on_axis) - want)) < 1e-11, d
        assert np.max(np.abs(sc.eval_mother(diagonal) - want)) < 1e-11, d


def test_sinc_2d_profile_continuous_past_quadrature_window():
    # the profile has unbounded support: no jump at radius 48 and no
    # zero tail beyond it
    sc = MotherWavelet.sinc(2)
    edge = np.array([[48.0 - 1e-9, 0.0], [48.0 + 1e-9, 0.0]])
    below, above = sc.eval_mother(edge)
    assert abs(below - above) < 1e-9
    assert abs(above) > 1e-3
    tail = np.zeros((200, 2))
    tail[:, 0] = np.linspace(48.1, 80.0, 200)
    assert np.max(np.abs(sc.eval_mother(tail))) > 1e-3


def jv_profile(d, r):
    """The profile's Bessel form with ``jv`` at order d/2, in the steps
    the package takes for even d >= 4: ``sqrt(pi/2) * r**-nu * (2**nu
    J_nu(2r) - J_nu(r))``, and the two-term series below the cut-off."""
    nu = d / 2
    amp = math.sqrt(math.pi / 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.multiply(r, 2.0)
        jv(nu, out, out=out)
        out *= 2.0 ** nu
        out -= jv(nu, r)
        out /= r ** nu
        out *= amp
    small = r < wavelets._SERIES_RADIUS
    c0 = (2.0 ** nu - 2.0 ** -nu) / math.gamma(nu + 1.0)
    c2 = (2.0 ** nu - 2.0 ** (-nu - 2.0)) / math.gamma(nu + 2.0)
    out[small] = amp * (c0 - c2 * r[small] * r[small])
    return out


# a dense grid of [0, 50] plus geometric radii through the series cut-off
DENSE_RADII = np.concatenate([np.linspace(0.0, 50.0, 200_001),
                              np.geomspace(1e-6, 2.0, 2_001)])


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_odd_dimension_profile_matches_jv_form(d):
    # the spherical-Bessel form against the jv form as an oracle, within
    # 1e-14 of the profile's peak at 0 (the largest gap measured on this
    # grid is 3.3e-15 of it, at d = 3); the series below the cut-off is
    # the same code on both sides
    r = DENSE_RADII
    peak = wavelets._sinc_profile(d, np.zeros(1))[0]
    got = wavelets._sinc_profile(d, r)
    assert np.max(np.abs(got - jv_profile(d, r))) <= 1e-14 * peak
    small = r < wavelets._SERIES_RADIUS
    assert got[small].tobytes() == jv_profile(d, r)[small].tobytes()


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_odd_dimension_profile_continuous_across_series_radius(d):
    # the two-term series meets the spherical-Bessel form at the cut-off
    # within its truncation error, the r**4 term at r = 1e-3: 6.6e-14 of
    # the peak at d = 3 and less above
    R = wavelets._SERIES_RADIUS
    r = np.array([0.0, R * (1 - 1e-12), R, R * (1 + 1e-12)])
    p = wavelets._sinc_profile(d, r)
    assert np.max(np.abs(np.diff(p[1:]))) <= 1e-13 * p[0]


def test_even_dimension_profile_keeps_jv():
    # d = 4 still takes jv, bit for bit
    r = DENSE_RADII
    assert wavelets._sinc_profile(4, r).tobytes() == jv_profile(4, r).tobytes()


def test_rotation_symmetry():
    rng = np.random.default_rng(11)
    th = rng.uniform(0, 2 * math.pi, size=8)
    x = rng.uniform(-3, 3, size=(8, 2))
    rot = np.stack([np.stack([np.cos(th), -np.sin(th)], axis=1),
                    np.stack([np.sin(th), np.cos(th)], axis=1)], axis=1)
    xr = np.einsum("kij,kj->ki", rot, x)
    mh = MotherWavelet.mexican_hat(2)
    assert np.max(np.abs(mh.eval_mother(x) - mh.eval_mother(xr))) < 1e-9
    sc = MotherWavelet.sinc(2)
    assert np.max(np.abs(sc.eval_mother(x) - sc.eval_mother(xr))) < 1e-6


# ------------------------------------------------------------------ norms

def radial_norm_sq(shell, lo, hi, d):
    """Squared norm of a radial function by quadrature of its shell
    integrand ``shell(r) * |S^(d-1)| * r**(d-1)`` over [lo, hi]."""
    area = 2 * math.pi ** (d / 2) / gamma(d / 2)
    return adaptive_integral(
        lambda p: area * shell(p[:, 0]) * p[:, 0] ** (d - 1), [lo], [hi],
        base_panels=8, order=16, rtol=1e-13, atol=0.0)


def test_mexican_hat_norm_closed_forms():
    # the closed form against the integral of psi^2 over radial shells
    # in space, out to a radius where exp(-r^2) is far below 1e-300
    for d in (1, 2, 3, 9):
        want = radial_norm_sq(lambda r: (d - r * r) ** 2 * np.exp(-r * r),
                              0.0, 28.0, d)
        assert MotherWavelet.mexican_hat(d).norm_sq == pytest.approx(
            want, rel=1e-12), d
    assert MotherWavelet.mexican_hat(1).norm_sq == pytest.approx(
        0.75 * math.sqrt(math.pi), rel=1e-15)


def test_sinc_norm_closed_forms():
    # the closed form against the integral of the spectrum's square,
    # pi/2 on the annulus 1 < |w| <= 2 (Plancherel); in 1-D the norm of
    # (sin 2x - sin x)/x is pi
    for d in (1, 2, 3, 9):
        want = radial_norm_sq(lambda r: np.full_like(r, math.pi / 2),
                              1.0, 2.0, d)
        assert MotherWavelet.sinc(d).norm_sq == pytest.approx(
            want, rel=1e-12), d
    assert MotherWavelet.sinc(1).norm_sq == pytest.approx(math.pi,
                                                          rel=1e-15)


def test_mothers_built_alike_compare_equal():
    # reading the norm leaves no state behind that equality could see
    for make in (MotherWavelet.mexican_hat, MotherWavelet.sinc):
        a, b = make(2), make(2)
        assert a.norm_sq > 0.0
        assert a == b
        assert a.norm_sq == b.norm_sq and a == b
    assert MotherWavelet.sinc(2) != MotherWavelet.mexican_hat(2)
    assert MotherWavelet.sinc(2) != MotherWavelet.sinc(3)


def test_wavelets_leave_out_quadrature():
    # norms and inner products are closed forms, so no module of the
    # package integrates numerically: importing all of it (the CLI too)
    # loads no quadrature module of its own and no scipy.integrate
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavelets.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, cwnn, cwnn.cli; "
             "print(sorted(m for m in sys.modules if 'quadrature' in m "
             "or m.startswith('scipy.integrate')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ------------------------------------------------------------- evaluation

def test_eval_basis_identity_and_scaling():
    mh = MotherWavelet.mexican_hat(1)
    x = np.linspace(-2, 2, 9).reshape(-1, 1)
    assert np.allclose(column(mh, w_index(0, 0), x), mh.eval_mother(x))
    assert column(mh, w_index(1, 0), [[0.0]])[0] == pytest.approx(
        math.sqrt(2.0))
    mh2 = MotherWavelet.mexican_hat(2)
    assert column(mh2, w_index(1, (2, 2)),
                  [[1.0, 1.0]])[0] == pytest.approx(4.0)


def test_eval_scaling_values():
    mh = MotherWavelet.mexican_hat(1)
    assert column(mh, s_index(0, 0), [[0.0]])[0] == pytest.approx(1.0)
    assert column(mh, s_index(1, 2), [[1.0]])[0] == pytest.approx(
        math.sqrt(2.0))
    sc2 = MotherWavelet.sinc(2)
    assert column(sc2, s_index(0, (0, 0)),
                  [[0.0, 0.0]])[0] == pytest.approx(1.0)


def test_eval_dimension_mismatch():
    mh = MotherWavelet.mexican_hat(2)
    with pytest.raises(ValueError):
        column(mh, w_index(0, 0), [[1.0]])


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("n", [(0,), (0, 1, 2)])
@pytest.mark.parametrize("kind", list(BasisKind))
def test_basis_matrix_rejects_a_translation_of_the_wrong_length(family, n,
                                                                kind):
    # a short translation would read only the first input columns; a set
    # that mixes lengths is rejected by numpy as it stacks the translations
    mother = getattr(MotherWavelet, family)(2)
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="mother expects 2"):
        basis_matrix(mother, basis_set(1, [n] * 2, kind), X)
    with pytest.raises(ValueError):
        basis_set(1, [(0, 0), n], kind)
    with pytest.raises(ValueError, match="mother expects 2"):
        column(mother, basis_set(1, [n], kind)[0], [0.5, 0.5])


@pytest.mark.parametrize("n", [[(0.5,)], [(2 ** 31,)], [(-2 ** 31 - 1,)]])
def test_basis_set_refuses_translations_it_cannot_hold(n):
    # a fraction or a value past 31 bits would be cut or wrap in the
    # set's integers
    with pytest.raises(ValueError, match="at most 31 bits"):
        basis_set(0, np.array(n))
    assert basis_set(0, [(2 ** 31 - 1,), (-2 ** 31,)])[:, TRANS].tolist() \
        == [[2 ** 31 - 1], [-2 ** 31]]


def companion(family, t):
    """Low-pass companion shapes in closed form, at points (n, d)."""
    if family == "mexican_hat":
        return np.exp(-0.5 * np.sum(t * t, axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(t == 0.0, 1.0, np.sin(t) / t)
    return np.prod(f, axis=1)


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_matrix_columns_match_eval_basis(family, d, monkeypatch):
    # two resolutions and both kinds in runs of three columns, so every
    # (kind, resolution) pair comes back in a second run, and a block
    # size of two columns, so each run is cut into two blocks;
    # each column against 2^{dm/2} psi(2^m x - n), with the mother from
    # eval_mother and the companion from its closed form
    mother = getattr(MotherWavelet, family)(d)
    rng = np.random.default_rng(40 + d)
    triples = []
    for j in range(24):
        kind = (BasisKind.WAVELET, BasisKind.SCALING)[(j // 3) % 2]
        m = (j // 6) % 2
        n = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        triples.append((kind, m, n))
    bases = from_rows(triples, d)
    X = rng.uniform(-2.0, 2.0, size=(37, d))
    # rows on a center and just off it reach the small-radius series
    X[0] = bases[0, TRANS] * 2.0 ** -bases[0, RES]
    X[1] = X[0] + 3e-4
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 2 * X.size)
    psi = basis_matrix(mother, bases, X)
    assert psi.shape == (37, 24)
    for j, b in enumerate(bases):
        t = 2.0 ** b[RES] * X - b[TRANS]
        shape = (mother.eval_mother(t) if b[KIND] == BasisKind.WAVELET
                 else companion(family, t))
        want = 2.0 ** (d * int(b[RES]) / 2) * shape
        np.testing.assert_allclose(psi[:, j], want, rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(column(mother, b, X), psi[:, j])


def mixed_bases(d, seed):
    """Both kinds at two resolutions in random order, so groups are
    interleaved, with unsorted and repeated translations."""
    rng = np.random.default_rng(seed)
    triples = []
    for j in range(40):
        kind = (BasisKind.WAVELET, BasisKind.SCALING)[int(rng.integers(2))]
        m = int(rng.integers(2))
        n = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        triples.append((kind, m, n))
    triples += triples[5:9] + triples[:3]
    return from_rows(triples, d)


class CountingPool(wavelets.ThreadPoolExecutor):
    opened = 0
    submitted = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)

    def submit(self, *args, **kwargs):
        type(self).submitted += 1
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_matrix_threads_agree_with_serial(family, d, monkeypatch):
    # blocks of three columns, so every group spans several blocks, and
    # a pool threshold of one block, so the call takes the pool path on
    # two CPUs and the inline one on one
    mother = getattr(MotherWavelet, family)(d)
    bases = mixed_bases(d, 60 + d)
    X = np.random.default_rng(70 + d).uniform(-2.0, 2.0, size=(29, d))
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 3 * X.size)
    monkeypatch.setattr(wavelets, "_POOL_ELEMS", 3 * X.size)
    monkeypatch.setattr(wavelets, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "opened", 0)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    serial = basis_matrix(mother, bases, X)
    assert CountingPool.opened == 0
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    threaded = basis_matrix(mother, bases, X)
    assert CountingPool.opened == 1
    np.testing.assert_array_equal(threaded, serial)
    # a single-block call stays inline
    basis_matrix(mother, bases[:2], X)
    assert CountingPool.opened == 1
    # the companion against the per-cell product, bit for bit: the sinc
    # one as 2^{dm/2} prod_k sinc(2^m x_k - n_k) in axis order
    for j, b in enumerate(bases):
        if b[KIND] != BasisKind.SCALING:
            continue
        t = 2.0 ** b[RES] * X - b[TRANS]
        if family == "sinc":
            want = np.sinc(t[:, 0] / np.pi)
            for k in range(1, d):
                want *= np.sinc(t[:, k] / np.pi)
        else:
            want = np.exp(-0.5 * np.sum(t * t, axis=1))
        np.testing.assert_allclose(serial[:, j],
                                   2.0 ** (0.5 * d * int(b[RES])) * want,
                                   rtol=0.0 if family == "sinc" else 1e-14,
                                   atol=0.0)


def _record_tiles(monkeypatch):
    """A list that gathers the (rows, columns) shape of every tile that
    ``basis_matrix`` fills."""
    shapes = []
    real = wavelets._fill

    def spy(mother, X, tile, dest):
        shapes.append(dest.shape)
        real(mother, X, tile, dest)

    monkeypatch.setattr(wavelets, "_fill", spy)
    return shapes


def _record_slabs(monkeypatch):
    """A list that gathers the (rows, columns) shape of every row slab of
    offsets that ``basis_matrix`` evaluates."""
    slabs = []
    real = MotherWavelet._eval_kind

    def spy(self, kind, axes):
        slabs.append(axes[0].shape)
        return real(self, kind, axes)

    monkeypatch.setattr(MotherWavelet, "_eval_kind", spy)
    return slabs


def test_basis_matrix_balances_its_blocks(monkeypatch):
    # the wide fit's 1 081-column expansion on 500 rows of two axes: a
    # block holds at most _BLOCK_ELEMS // 1 000 columns (65 at 2^16), so
    # the group is cut into the fewest blocks that allow (17 of 63 or
    # 64), not into full blocks and a short remainder
    tiles = _record_tiles(monkeypatch)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    mother = MotherWavelet.sinc(2)
    bases = lattice_bases(5, [range(23), range(47)])
    X = np.random.default_rng(5).uniform(0.0, 1.0, size=(500, 2))
    psi = basis_matrix(mother, bases, X)
    sizes = [c for _, c in tiles]
    block = wavelets._BLOCK_ELEMS // X.size
    k = -(-len(bases) // block)
    assert k == 17 and sum(sizes) == len(bases) and len(sizes) == k
    assert set(sizes) == {len(bases) // k, -(-len(bases) // k)}
    # every cell is computed on its own, so one block gives the same bytes
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", psi.size * 2)
    np.testing.assert_array_equal(basis_matrix(mother, bases, X), psi)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family, kind", [
    ("mexican_hat", BasisKind.WAVELET), ("mexican_hat", BasisKind.SCALING),
    ("sinc", BasisKind.WAVELET), ("sinc", BasisKind.SCALING)])
def test_basis_matrix_scratch_stays_within_its_bound(monkeypatch, d, family,
                                                     kind):
    # the bound the _BLOCK_ELEMS comment states: beyond its output, a
    # serial call of one run of bases holds at most 4 * _BLOCK_ELEMS
    # doubles of scratch (and a few kilobytes of bookkeeping: a block's
    # translations, the task list)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    rng = np.random.default_rng(d)
    X = rng.uniform(0.0, 1.0, size=(4096 // d, d))
    cols = 3 * (wavelets._BLOCK_ELEMS // X.size)
    bases = basis_set(2, rng.integers(-2, 6, size=(cols, d)), kind)
    tracemalloc.start()
    try:
        out = basis_matrix(getattr(MotherWavelet, family)(d), bases, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = peak - out.nbytes
    assert scratch <= 4 * wavelets._BLOCK_ELEMS * 8 + 2 ** 16


@pytest.mark.parametrize("n_cols, block", [(1, 1), (7, 3), (9, 3), (10, 4),
                                           (2000, 999)])
def test_basis_matrix_blocks_differ_by_at_most_one(monkeypatch, n_cols,
                                                   block):
    # a design of one row chunk takes the fewest blocks of at most
    # `block` columns; a design of three one-row chunks whose bound fits
    # one column fewer than a floor of `block` takes the most blocks of
    # at least `block` columns
    tiles = _record_tiles(monkeypatch)
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", block * 3)
    basis_matrix(MotherWavelet.mexican_hat(1),
                 lattice_bases(0, [range(n_cols)]), np.zeros((3, 1)))
    sizes = [c for _, c in tiles]
    assert sum(sizes) == n_cols and len(sizes) == -(-n_cols // block)
    assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
    tiles.clear()
    monkeypatch.setattr(wavelets, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", block - 1 or 1)
    monkeypatch.setattr(wavelets, "_BLOCK_COLS", block)
    basis_matrix(MotherWavelet.mexican_hat(1),
                 lattice_bases(0, [range(n_cols)]), np.zeros((3, 1)))
    sizes = [c for _, c in tiles]
    k = max(1, n_cols // block)
    assert sum(sizes) == 3 * n_cols and len(sizes) == 3 * k
    assert min(sizes) >= min(block, n_cols) and max(sizes) - min(sizes) <= 1


def test_basis_matrix_cuts_tall_designs_by_rows(monkeypatch):
    # the 50k fit's shape: 162 columns on 50 000 rows of two axes.  Rows
    # come in the fewest chunks of at most _BLOCK_ROWS (13 of 3 846 or
    # 3 847), and a chunk's columns in the most blocks of at least
    # _BLOCK_COLS (five of 32 or 33), not the eight columns that fit the
    # bound at full chunk height; each block is evaluated in row slabs
    # whose offsets stay within _BLOCK_ELEMS.  A serial call keeps the
    # scratch bound, and full-height blocks give the same bytes
    blocks = _record_tiles(monkeypatch)
    slabs = _record_slabs(monkeypatch)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    mother = MotherWavelet.mexican_hat(2)
    bases = lattice_bases(4, [range(-1, 17), range(-1, 8)])
    X = np.random.default_rng(6).uniform(0.0, 1.0, size=(50_000, 2))
    tracemalloc.start()
    try:
        psi = basis_matrix(mother, bases, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = peak - psi.nbytes
    assert scratch <= 4 * wavelets._BLOCK_ELEMS * 8 + 2 ** 16
    kr = -(-len(X) // wavelets._BLOCK_ROWS)
    k = len(bases) // wavelets._BLOCK_COLS
    assert len(blocks) == kr * k == 13 * 5
    assert {r for r, _ in blocks} == {len(X) // kr, -(-len(X) // kr)}
    assert {c for _, c in blocks} == {len(bases) // k, -(-len(bases) // k)}
    assert min(c for _, c in blocks) >= wavelets._BLOCK_COLS
    assert max(r * c * 2 for r, c in slabs) <= wavelets._BLOCK_ELEMS
    assert len(slabs) > len(blocks)
    assert sum(r * c for r, c in slabs) == psi.size
    # full-height blocks of two columns, each one slab
    monkeypatch.setattr(wavelets, "_BLOCK_ROWS", len(X))
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 2 * X.size)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    slabs.clear()
    assert basis_matrix(mother, bases, X).tobytes() == psi.tobytes()
    assert set(slabs) == {(len(X), 2)}


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tdot_matches_the_matrix_product(family, d, monkeypatch):
    # 5 000 rows (two row chunks) against wavelet runs at two resolutions
    # and a companion run between them, each run cut into blocks of at
    # least 12 columns, evaluated in row slabs of at most 833 rows.
    # Each entry against basis_matrix(...).T @ y within the rounding of
    # a dot product, 16 eps * sum_i |psi_ij y_i| (the largest gap
    # measured here is 3.2 of it) rather than a relative tolerance,
    # which a sum with cancellation would not meet; and the same bytes
    # on one CPU and, on the thread pool, on two
    mother = getattr(MotherWavelet, family)(d)
    rng = np.random.default_rng(120 + d)
    X = rng.uniform(0.0, 1.0, size=(5000, d))
    y = rng.standard_normal(5000)
    per = {1: 40, 2: 7, 3: 4}[d]
    bases = np.concatenate([
        lattice_bases(3, [range(-2, per)] * d),
        lattice_bases(2, [range(-1, per)] * d, BasisKind.SCALING),
        lattice_bases(4, [range(per)] * d)])
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 2500 * d * 4)
    monkeypatch.setattr(wavelets, "_BLOCK_COLS", 12)
    monkeypatch.setattr(wavelets, "_POOL_ELEMS", 2500 * d * 12)
    _, chunks, tiles = wavelets._tiles(mother, bases, X)
    assert chunks == 2 and len(tiles) >= 3 * 2 * chunks
    # every slab's offsets, and its sinc factor tables, of at most 833 rows
    tables, real_sin = [], np.sin
    with pytest.MonkeyPatch.context() as mp:
        slabs = _record_slabs(mp)
        mp.setattr(np, "sin", lambda x, *args, **kwargs: (
            tables.append(x.shape) or real_sin(x, *args, **kwargs)))
        psi = basis_matrix(mother, bases, X)
    assert max(r for r, _ in slabs + tables) <= 833
    bound = 16 * np.finfo(float).eps * np.abs(psi * y[:, None]).sum(axis=0)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    serial = basis_matrix_tdot(mother, bases, X, y)
    assert np.all(np.abs(serial - psi.T @ y) <= bound)
    monkeypatch.setattr(wavelets, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "opened", 0)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    assert basis_matrix_tdot(mother, bases, X, y).tobytes() == serial.tobytes()
    assert CountingPool.opened == 1


def test_tdot_checks_its_target_and_takes_empty_bases():
    mother = MotherWavelet.mexican_hat(1)
    X = np.zeros((4, 1))
    with pytest.raises(ValueError, match="rows"):
        basis_matrix_tdot(mother, lattice_bases(0, [range(3)]), X, np.ones(5))
    empty = lattice_bases(0, [range(0)])
    assert basis_matrix_tdot(mother, empty, X, np.ones(4)).shape == (0,)


def test_sinc_companion_tables_match_np_sinc():
    # rows on lattice points put exact zeros in the factor tables; the
    # in-place tables give np.sinc's bits there and everywhere else
    rng = np.random.default_rng(12)
    centers = rng.integers(-3, 4, size=(50, 2)).astype(float)
    scaled = rng.uniform(-4.0, 4.0, size=(200, 2))
    scaled[:20] = centers[:20]
    got = basis_matrix(MotherWavelet.sinc(2),
                       basis_set(0, centers.astype(int), BasisKind.SCALING),
                       scaled)
    want = np.sinc((scaled[:, None, 0] - centers[:, 0]) / np.pi)
    want *= np.sinc((scaled[:, None, 1] - centers[:, 1]) / np.pi)
    assert np.count_nonzero(got == 1.0) >= 20
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_chunks_agree_with_one_block(family, d, monkeypatch):
    # chunks of 5 or 6 rows, blocks of at least three columns and row
    # slabs of two rows on 23 rows, serial and on two CPUs (a pool
    # threshold of one block), against one block of the whole design
    mother = getattr(MotherWavelet, family)(d)
    bases = mixed_bases(d, 100 + d)
    X = np.random.default_rng(110 + d).uniform(-2.0, 2.0, size=(23, d))
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 6 * d)
    monkeypatch.setattr(wavelets, "_BLOCK_COLS", 3)
    monkeypatch.setattr(wavelets, "_POOL_ELEMS", 6 * 3 * d)
    monkeypatch.setattr(wavelets, "_BLOCK_ROWS", 6)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    serial = basis_matrix(mother, bases, X)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    threaded = basis_matrix(mother, bases, X)
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", X.size * len(bases))
    monkeypatch.setattr(wavelets, "_BLOCK_ROWS", len(X))
    whole = basis_matrix(mother, bases, X)
    assert serial.tobytes() == whole.tobytes()
    assert threaded.tobytes() == whole.tobytes()


def tdot_of_first_axis(mother, bases, X):
    return basis_matrix_tdot(mother, bases, X, X[:, 0])


@pytest.mark.parametrize("evaluate", [basis_matrix, tdot_of_first_axis])
def test_concurrent_callers_get_the_serial_result(monkeypatch, evaluate):
    # four callers at once, as sweep workers call in, each on its own
    # rows and each through its own pool; a shared buffer or a store into
    # another call's matrix or partial sums would break the match.  Row
    # chunks of at most 8 rows give psi^T y four slots per column, and a
    # pool threshold of one block sends every call to its pool
    mother = MotherWavelet.sinc(2)
    bases = mixed_bases(2, 80)
    inputs = [np.random.default_rng(90 + i).uniform(-2.0, 2.0, size=(31, 2))
              for i in range(4)]
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 4 * 8 * 2)
    monkeypatch.setattr(wavelets, "_BLOCK_COLS", 4)
    monkeypatch.setattr(wavelets, "_POOL_ELEMS", 4 * 8 * 2)
    monkeypatch.setattr(wavelets, "_BLOCK_ROWS", 8)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    want = [evaluate(mother, bases, X) for X in inputs]
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 3)
    got = [None] * len(inputs)
    start = threading.Barrier(len(inputs))

    def call(i):
        start.wait(timeout=30)
        for _ in range(20):
            got[i] = evaluate(mother, bases, inputs[i])
            if not np.array_equal(got[i], want[i]):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _slab_tables(mother, bases, X):
    """Bytes of the largest row slab's sinc factor tables, one per axis
    of its tile's distinct translations, plus one axis table more (the
    one being built)."""
    most = 0
    for _, rows, _, kind, _, trans in wavelets._tiles(mother, bases, X)[2]:
        if (kind is BasisKind.SCALING
                and mother.family is wavelets.WaveletFamily.SINC):
            slab = min(rows.stop - rows.start,
                       max(1, wavelets._BLOCK_ELEMS // len(trans)))
            sizes = [slab * len(np.unique(t)) for t in trans.T]
            most = max(most, (sum(sizes) + max(sizes)) * 8)
    return most


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       n=st.one_of(st.integers(1, 300), st.integers(4097, 4600)),
       d=st.sampled_from([1, 2, 3, 9]),
       family=st.sampled_from(["mexican_hat", "sinc"]),
       elems=st.integers(2 ** 11, 2 ** 16), cols=st.integers(1, 64))
def test_any_block_bound_gives_the_whole_design_bytes(data, n, d, family,
                                                      elems, cols):
    # under any per-worker bound and column floor, a serial call gives
    # the bytes of one block of the whole design, and its scratch beyond
    # the output stays within 4 * _BLOCK_ELEMS doubles, one slab's sinc
    # factor tables and a few kilobytes of bookkeeping
    mother = getattr(MotherWavelet, family)(d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    runs = data.draw(st.lists(
        st.tuples(st.sampled_from(list(BasisKind)), st.integers(0, 2),
                  st.integers(1, 10)), min_size=1, max_size=3))
    bases = from_rows([(kind, m, tuple(rng.integers(-3, 5, size=d)))
                       for kind, m, size in runs for _ in range(size)], d)
    X = rng.uniform(-1.0, 2.0, size=(n, d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavelets, "_cpu_count", lambda: 1)
        mp.setattr(wavelets, "_BLOCK_ELEMS", elems)
        mp.setattr(wavelets, "_BLOCK_COLS", cols)
        # a first call warms numpy's and scipy's caches
        basis_matrix(mother, bases, X)
        tracemalloc.start()
        try:
            psi = basis_matrix(mother, bases, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = _slab_tables(mother, bases, X)
        mp.setattr(wavelets, "_BLOCK_ELEMS", X.size * len(bases))
        mp.setattr(wavelets, "_BLOCK_ROWS", n)
        whole = basis_matrix(mother, bases, X)
    assert psi.tobytes() == whole.tobytes()
    scratch = peak - psi.nbytes
    assert scratch <= 4 * elems * 8 + tables + 2 ** 16


def test_a_500_row_162_column_design_runs_inline(monkeypatch):
    # the N = 500 seed design, 162 columns on two axes, is three blocks
    # at the per-worker bound but 162 000 offset elements, under the
    # pool threshold, so it runs inline even with two CPUs
    monkeypatch.setattr(wavelets, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "opened", 0)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    mother = MotherWavelet.sinc(2)
    bases = lattice_bases(2, [range(-1, 17), range(-1, 8)])
    X = np.random.default_rng(3).uniform(0.0, 1.0, size=(500, 2))
    assert len(bases) == 162 and len(wavelets._tiles(mother, bases, X)[2]) == 3
    basis_matrix(mother, bases, X)
    assert CountingPool.opened == 0


def test_a_500_row_probe_level_of_6561_elements_takes_the_pool(monkeypatch):
    # diag's widest probe level, 6 561 sinc elements at m = 6 on 500 rows
    # of two axes, is past the pool threshold: with two CPUs its psi^T y
    # runs on the pool, one future per worker for its 101 blocks, and
    # gives the serial bytes
    mother = MotherWavelet.sinc(2)
    bases = lattice_bases(6, [range(-8, 73), range(-8, 73)])
    X = np.random.default_rng(8).uniform(0.0, 1.0, size=(500, 2))
    y = np.sin(5.0 * X[:, 0]) * X[:, 1]
    monkeypatch.setattr(wavelets, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "opened", 0)
    monkeypatch.setattr(CountingPool, "submitted", 0)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    assert len(wavelets._tiles(mother, bases, X)[2]) == 101
    pooled = basis_matrix_tdot(mother, bases, X, y)
    assert CountingPool.opened == 1 and CountingPool.submitted == 2
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    assert basis_matrix_tdot(mother, bases, X, y).tobytes() == pooled.tobytes()
    assert CountingPool.opened == 1


def test_a_tall_sinc_companion_run_holds_one_slab_of_tables(monkeypatch):
    # 16 384 rows of three axes (four chunks of 4 096) and 48 companions
    # whose translations differ on every axis: a chunk's factor tables
    # are 3 x 4 096 x 48 doubles (4.7 MB), all four chunks' 18.9 MB.
    # _tiles builds none; the run is one tile per chunk, which builds
    # each slab's tables, one axis at a time, from its columns'
    # translations and frees them with the slab.  So each row and
    # distinct translation of an axis takes one sine, and a serial call
    # holds one slab's scratch beyond its output: one table and its sine
    # temporary, the slab's values and one gathered factor
    tables = []
    real_sin = np.sin

    def spy(x, *args, **kwargs):
        tables.append(x.shape)
        return real_sin(x, *args, **kwargs)

    monkeypatch.setattr(np, "sin", spy)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    mother = MotherWavelet.sinc(3)
    bases = basis_set(3, [(j, j, j) for j in range(-8, 40)],
                      BasisKind.SCALING)
    X = np.random.default_rng(9).uniform(0.0, 1.0, size=(4 * 4096, 3))
    assert len(wavelets._tiles(mother, bases, X)[2]) == 4
    assert tables == []
    tracemalloc.start()
    try:
        psi = basis_matrix(mother, bases, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    step = wavelets._BLOCK_ELEMS // len(bases)
    assert {c for _, c in tables} == {len(bases)}
    assert max(r for r, _ in tables) == step
    assert sum(r for r, _ in tables) == 3 * len(X)
    slab = step * len(bases) * 8
    scratch = peak - psi.nbytes
    assert scratch <= 4 * slab + 2 ** 16
    assert scratch < 3 * 4096 * len(bases) * 8


def test_a_tall_sinc_companion_run_takes_fewer_blocks_than_wavelets():
    # the 50k fit's seed: 81 companions and 81 wavelets on a 9 x 9
    # lattice, on rows of two axes past one chunk.  A companion gathers
    # one value a cell where a wavelet evaluates two offsets, so its
    # blocks are twice as wide: its run is one block, each chunk's tile
    # building its tables once, where the wavelets take two
    mother = MotherWavelet.sinc(2)
    X = np.random.default_rng(10).uniform(0.0, 1.0, size=(3 * 4096 + 5, 2))
    grid = [range(9)] * 2
    for kind, blocks in ((BasisKind.SCALING, 1), (BasisKind.WAVELET, 2)):
        _, chunks, tiles = wavelets._tiles(
            mother, lattice_bases(2, grid, kind), X)
        assert len(tiles) == blocks * chunks == blocks * 4


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sinc_companion_evaluates_each_axis_factor_once(d, monkeypatch):
    # a companion group with 30 columns evaluates sin once per row and
    # distinct translation per axis, not once per cell and axis
    mother = MotherWavelet.sinc(d)
    rng = np.random.default_rng(100 + d)
    bases = basis_set(1, rng.integers(-2, 3, size=(30, d)), BasisKind.SCALING)
    X = rng.uniform(-1.0, 1.0, size=(23, d))
    points = []
    real_sin = np.sin

    def spy(x, *args, **kwargs):
        points.append(np.size(x))
        return real_sin(x, *args, **kwargs)

    monkeypatch.setattr(np, "sin", spy)
    psi = basis_matrix(mother, bases, X)
    distinct = [len(np.unique(bases[:, TRANS][:, k])) for k in range(d)]
    assert sum(points) == X.shape[0] * sum(distinct)
    assert sum(points) <= d * max(distinct) * X.shape[0] < psi.size * d


def test_an_element_sits_at_its_center_and_frequency():
    # the element sits at 2^-m n and is the mother dilated by 2^m (its
    # band is 2^m times the mother's): 2^{dm/2} psi(2^m (x - center))
    b = w_index(2, (3, -1))
    center = b[TRANS] * 2.0 ** -b[RES]
    assert np.allclose(center, [0.75, -0.25])
    mh = MotherWavelet.mexican_hat(2)
    t = np.array([[0.0, 0.0], [0.3, -0.7]])
    got = column(mh, b, center + t / 4.0)
    np.testing.assert_allclose(got, 4.0 * mh.eval_mother(t), rtol=1e-14)
    assert got[0] == pytest.approx(8.0)


def test_sinc_cross_band_orthogonality():
    # resolutions two apart occupy disjoint frequency annuli; the sampled
    # inner product must be tiny relative to the element energy
    sc = MotherWavelet.sinc(1)

    def prod(pts):
        return (column(sc, w_index(0, 0), pts)
                * column(sc, w_index(2, 1), pts))

    val = adaptive_integral(prod, (-80.0,), (80.0,), (256,), order=12,
                            rtol=1e-7, atol=1e-9, max_doublings=6)
    assert abs(val) < 1e-3 * sc.norm_sq


# ------------------------------------------------------------------ grids

def test_build_center_grid_examples():
    g = build_center_grid(1, [0.0, 0.0], [1.0, 1.0], margin=1.0,
                          clamp_low=[0.0, 0.0])
    assert g.count == 25
    # lattice values 0, 0.5, ..., 2.0 on both axes
    assert (g.n_lo, g.n_hi) == ((0, 0), (4, 4))
    g0 = build_center_grid(0, [0.0], [1.0], margin=0.0)
    assert (g0.n_lo, g0.n_hi) == ((0,), (1,))
    g2 = build_center_grid(2, [0.0], [1.0], margin=0.0)
    assert g2.count == 5
    assert (g2.n_lo, g2.n_hi) == ((0,), (4,))


def test_grid_at_next_level_halves_spacing():
    g = build_center_grid(1, [0.0], [1.0], margin=0.0)
    f = g.at(g.m + 1)
    assert f.m == g.m + 1
    # every coarse point n is the fine point 2n
    coarse = {2 * n for n in range(g.n_lo[0], g.n_hi[0] + 1)}
    assert coarse <= set(range(f.n_lo[0], f.n_hi[0] + 1))


@pytest.mark.parametrize("m", [-2, 0, 1, 3, 5])
def test_grid_at_is_the_lattice_over_the_same_box(m):
    box = dict(domain_low=[0.0, 0.25], domain_high=[1.0, 2.0], margin=0.3,
               clamp_low=[0.0, 0.0])
    seed = build_center_grid(2, **box)
    assert seed.at(m) == build_center_grid(m, **box)
    assert seed.at(m).at(2) == seed


def test_grid_bases_order_and_kinds():
    g = build_center_grid(0, [0.0, 0.0], [1.0, 1.0], margin=0.0)
    bw = g.bases(BasisKind.WAVELET)
    assert len(bw) == 4 and all(bw[:, KIND] == BasisKind.WAVELET)
    assert all(bw[:, RES] == 0) and bw.dtype == np.int32
    assert rows(bw[:, TRANS]) == sorted(rows(bw[:, TRANS]))
    assert all(g.bases(BasisKind.SCALING)[:, KIND] == BasisKind.SCALING)


def test_degenerate_grid_raises():
    with pytest.raises(GridError):
        build_center_grid(1, [1.0], [0.0], margin=0.0)


# ------------------------------------------------------------ child rule

def test_children_centers_examples():
    fine = CenterGrid(2, (-4.0,), (4.0,), (-16,), (16,))
    ch = children_centers(basis_set(1, [(2,)]), fine)  # parent center 1.0
    assert sorted(ch[:, TRANS][:, 0] * 0.25) == [0.75, 1.0]
    assert all(ch[:, RES] == 2)

    ch = children_centers(basis_set(1, [(1,)]), fine)  # parent center 0.5
    assert sorted(ch[:, TRANS][:, 0] * 0.25) == [0.25, 0.5]


def test_children_centers_2d_clipped():
    fine = CenterGrid(2, (0.0, 0.0), (2.0, 2.0), (0, 0), (8, 8))
    ch = children_centers(basis_set(1, [(0, 0)]), fine)
    centers = set(rows(ch[:, TRANS] * 0.25))
    assert centers == {(0.0, 0.0), (0.0, 0.25), (0.25, 0.0), (0.25, 0.25)}


def test_children_centers_needs_parents_one_level_up():
    fine = CenterGrid(2, (0.0,), (2.0,), (0,), (8,))
    with pytest.raises(GridError):
        children_centers(basis_set([1, 2], [(0,), (0,)]), fine)


def _reference_children(parents, fine):
    """The float nearest-point rule: per parent and axis, the two fine
    lattice values nearest the parent center (ties toward the smaller
    value; one value when the axis has one), their product in
    ``np.ndindex`` order, the first occurrence kept across parents."""
    out = []
    for p in parents:
        center = p[TRANS] * 2.0 ** -p[RES]
        per_dim = []
        for k in range(fine.dim):
            vals = np.arange(fine.n_lo[k], fine.n_hi[k] + 1) * 2.0 ** -fine.m
            order = np.lexsort((vals, np.abs(vals - center[k])))
            per_dim.append([int(round(v * 2.0 ** fine.m))
                            for v in vals[order[:2]]])
        for idx in np.ndindex(*(len(v) for v in per_dim)):
            n = tuple(per_dim[i][j] for i, j in enumerate(idx))
            if n not in out:
                out.append(n)
    return out


# a bound offset from a lattice point: exactly on it, within the grid
# builder's 1e-9 snap either side, just past it, or anywhere in the cell
_JITTER = st.one_of(st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9]),
                    st.floats(-0.49, 0.49))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), m=st.integers(-2, 4))
def test_children_centers_match_the_float_rule(data, dim, m):
    step = 2.0 ** -m
    low, high = [], []
    for _ in range(dim):
        lo = data.draw(st.integers(-6, 6))
        width = data.draw(st.integers(0, 4))
        low.append((lo + data.draw(_JITTER)) * step)
        high.append((lo + width + data.draw(_JITTER)) * step)
    try:
        fine = build_center_grid(m, low, high, margin=0.0)
    except GridError:
        return
    # parent centers 2n reach past the fine grid on both sides
    axis_n = [st.integers((lo - 3) // 2, (hi + 4) // 2)
              for lo, hi in zip(fine.n_lo, fine.n_hi)]
    drawn = data.draw(st.lists(st.tuples(*axis_n), min_size=1, max_size=8))
    ns = data.draw(st.permutations(drawn + drawn[:2]))
    parents = basis_set(m - 1, ns)
    got = children_centers(parents, fine)
    assert rows(got[:, TRANS]) == _reference_children(parents, fine)
    assert all(got[:, RES] == m) and all(got[:, KIND] == BasisKind.WAVELET)
    assert got.dtype == np.int32


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2, 3, 9]),
       m=st.integers(-2, 4))
def test_children_centers_match_the_loop_oracle(data, dim, m):
    # grids of one to five points per axis, one-point axes among them;
    # parents on the grid, on its edges and past them on both sides,
    # repeated, or none at all
    n_lo = data.draw(st.tuples(*[st.integers(-6, 6)] * dim))
    n_hi = tuple(lo + data.draw(st.integers(0, 4)) for lo in n_lo)
    fine = CenterGrid(m, (0.0,) * dim, (1.0,) * dim, n_lo, n_hi)
    axis_n = [st.integers((lo - 3) // 2, (hi + 4) // 2)
              for lo, hi in zip(n_lo, n_hi)]
    ns = data.draw(st.lists(st.tuples(*axis_n), max_size=8))
    parents = basis_set(m - 1, np.reshape(ns + ns[:2], (-1, dim)))
    got = children_centers(parents, fine)
    assert rows(got[:, TRANS]) == children(parents, fine)
    assert all(got[:, RES] == m) and all(got[:, KIND] == BasisKind.WAVELET)
    assert got.shape[1] == 2 + dim
