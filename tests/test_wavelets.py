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
from cwnn.wavelets import (BasisIndex, BasisKind, CenterGrid, GridError,
                           MotherWavelet, basis_matrix, build_center_grid,
                           children_centers, eval_basis, lattice_bases)
from quadrature_oracle import adaptive_integral, panel_rule_1d


def w_index(m, n):
    return BasisIndex(m, n if isinstance(n, tuple) else (n,), BasisKind.WAVELET)


def s_index(m, n):
    return BasisIndex(m, n if isinstance(n, tuple) else (n,), BasisKind.SCALING)


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
    assert np.allclose(eval_basis(mh, w_index(0, 0), x), mh.eval_mother(x))
    assert eval_basis(mh, w_index(1, 0), [[0.0]])[0] == pytest.approx(
        math.sqrt(2.0))
    mh2 = MotherWavelet.mexican_hat(2)
    assert eval_basis(mh2, BasisIndex(1, (2, 2), BasisKind.WAVELET),
                      [[1.0, 1.0]])[0] == pytest.approx(4.0)


def test_eval_scaling_values():
    mh = MotherWavelet.mexican_hat(1)
    assert eval_basis(mh, s_index(0, 0), [[0.0]])[0] == pytest.approx(1.0)
    assert eval_basis(mh, s_index(1, 2), [[1.0]])[0] == pytest.approx(
        math.sqrt(2.0))
    sc2 = MotherWavelet.sinc(2)
    assert eval_basis(sc2, BasisIndex(0, (0, 0), BasisKind.SCALING),
                      [[0.0, 0.0]])[0] == pytest.approx(1.0)


def test_eval_dimension_mismatch():
    mh = MotherWavelet.mexican_hat(2)
    with pytest.raises(ValueError):
        eval_basis(mh, w_index(0, 0), [[1.0]])


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("n", [(0,), (0, 1, 2)])
@pytest.mark.parametrize("kind", list(BasisKind))
def test_basis_matrix_rejects_a_translation_of_the_wrong_length(family, n,
                                                                kind):
    # a short translation would read only the first input columns; a run
    # that mixes lengths is rejected by numpy as it stacks the centers
    mother = getattr(MotherWavelet, family)(2)
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="mother expects 2"):
        basis_matrix(mother, [BasisIndex(1, n, kind)] * 2, X)
    with pytest.raises(ValueError):
        basis_matrix(mother, [BasisIndex(1, (0, 0), kind),
                              BasisIndex(1, n, kind)], X)
    with pytest.raises(ValueError, match="mother expects 2"):
        eval_basis(mother, BasisIndex(1, n, kind), [0.5, 0.5])


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
    bases = []
    for j in range(24):
        kind = (BasisKind.WAVELET, BasisKind.SCALING)[(j // 3) % 2]
        m = (j // 6) % 2
        n = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        bases.append(BasisIndex(m, n, kind))
    X = rng.uniform(-2.0, 2.0, size=(37, d))
    # rows on a center and just off it reach the small-radius series
    X[0] = np.asarray(bases[0].n) * 2.0 ** -bases[0].m
    X[1] = X[0] + 3e-4
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 2 * X.size)
    psi = basis_matrix(mother, bases, X)
    assert psi.shape == (37, 24)
    for j, b in enumerate(bases):
        t = 2.0 ** b.m * X - np.asarray(b.n, dtype=float)
        shape = (mother.eval_mother(t) if b.kind is BasisKind.WAVELET
                 else companion(family, t))
        want = 2.0 ** (d * b.m / 2) * shape
        np.testing.assert_allclose(psi[:, j], want, rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(eval_basis(mother, b, X), psi[:, j])
    # a single point gives a scalar, a (2, 2, d) batch a (2, 2) array
    assert np.ndim(eval_basis(mother, bases[0], X[0])) == 0
    assert eval_basis(mother, bases[0], X[:4].reshape(2, 2, d)).shape == (2, 2)


def mixed_bases(d, seed):
    """Both kinds at two resolutions in random order, so groups are
    interleaved, with unsorted and repeated translations."""
    rng = np.random.default_rng(seed)
    bases = []
    for j in range(40):
        kind = (BasisKind.WAVELET, BasisKind.SCALING)[int(rng.integers(2))]
        m = int(rng.integers(2))
        n = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        bases.append(BasisIndex(m, n, kind))
    bases += bases[5:9] + bases[:3]
    return bases


class CountingPool(wavelets.ThreadPoolExecutor):
    opened = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_matrix_threads_agree_with_serial(family, d, monkeypatch):
    # blocks of three columns, so every group spans several blocks and
    # the call takes the pool path on two CPUs and the inline one on one
    mother = getattr(MotherWavelet, family)(d)
    bases = mixed_bases(d, 60 + d)
    X = np.random.default_rng(70 + d).uniform(-2.0, 2.0, size=(29, d))
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 3 * X.size)
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
        if b.kind is not BasisKind.SCALING:
            continue
        t = 2.0 ** b.m * X - np.asarray(b.n, dtype=float)
        if family == "sinc":
            want = np.sinc(t[:, 0] / np.pi)
            for k in range(1, d):
                want *= np.sinc(t[:, k] / np.pi)
        else:
            want = np.exp(-0.5 * np.sum(t * t, axis=1))
        np.testing.assert_allclose(serial[:, j], 2.0 ** (0.5 * d * b.m) * want,
                                   rtol=0.0 if family == "sinc" else 1e-14,
                                   atol=0.0)


def _record_block_sizes(monkeypatch):
    """A list that gathers the column count of every wavelet block that
    ``basis_matrix`` evaluates."""
    sizes = []
    real = wavelets._offset_shapes

    def spy(*args):
        shapes = real(*args)

        def recording(lo, hi):
            sizes.append(hi - lo)
            return shapes(lo, hi)
        return recording

    monkeypatch.setattr(wavelets, "_offset_shapes", spy)
    return sizes


def test_basis_matrix_balances_its_blocks(monkeypatch):
    # the wide fit's 1 081-column expansion on 500 rows of two axes: a
    # block holds at most _BLOCK_ELEMS // 1 000 columns (262 at 2^18), so
    # the group is cut into the fewest blocks that allow (five of 216 or
    # 217), not into full blocks and a short remainder
    sizes = _record_block_sizes(monkeypatch)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    mother = MotherWavelet.sinc(2)
    bases = lattice_bases(5, [range(23), range(47)])
    X = np.random.default_rng(5).uniform(0.0, 1.0, size=(500, 2))
    psi = basis_matrix(mother, bases, X)
    block = wavelets._BLOCK_ELEMS // X.size
    k = -(-len(bases) // block)
    assert k > 1 and sum(sizes) == len(bases) and len(sizes) == k
    assert set(sizes) == {len(bases) // k, -(-len(bases) // k)}
    # every cell is computed on its own, so one block gives the same bytes
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", psi.size * 2)
    np.testing.assert_array_equal(basis_matrix(mother, bases, X), psi)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family, kind", [
    ("mexican_hat", BasisKind.WAVELET), ("mexican_hat", BasisKind.SCALING),
    ("sinc", BasisKind.WAVELET)])
def test_basis_matrix_scratch_stays_within_its_bound(monkeypatch, d, family,
                                                     kind):
    # the bound the _BLOCK_ELEMS comment states: beyond its output and
    # one scaled copy of X, a serial call of one run of bases holds at
    # most 4 * _BLOCK_ELEMS doubles of scratch (and a few kilobytes of
    # bookkeeping: the centers, the task list)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    rng = np.random.default_rng(d)
    X = rng.uniform(0.0, 1.0, size=(4096 // d, d))
    cols = 3 * (wavelets._BLOCK_ELEMS // X.size)
    bases = [BasisIndex(2, tuple(int(v) for v in rng.integers(-2, 6, size=d)),
                        kind) for _ in range(cols)]
    tracemalloc.start()
    try:
        out = basis_matrix(getattr(MotherWavelet, family)(d), bases, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = peak - out.nbytes - X.nbytes
    assert scratch <= 4 * wavelets._BLOCK_ELEMS * 8 + 2 ** 16


@pytest.mark.parametrize("n_cols, block", [(1, 1), (7, 3), (9, 3), (10, 4),
                                           (2000, 999)])
def test_basis_matrix_blocks_differ_by_at_most_one(monkeypatch, n_cols,
                                                   block):
    sizes = _record_block_sizes(monkeypatch)
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", block * 3)
    basis_matrix(MotherWavelet.mexican_hat(1),
                 lattice_bases(0, [range(n_cols)]), np.zeros((3, 1)))
    assert sum(sizes) == n_cols and len(sizes) == -(-n_cols // block)
    assert max(sizes) <= block and max(sizes) - min(sizes) <= 1


def test_basis_matrix_cuts_tall_designs_by_rows(monkeypatch):
    # the 50k fit's shape: 162 columns on 50 000 rows of two axes.  Rows
    # come in the fewest chunks of at most _BLOCK_ROWS (13 of 3 846 or
    # 3 847), so a block holds 32 or 33 columns instead of the two that
    # full-height blocks of _BLOCK_ELEMS would; a serial call keeps the
    # scratch bound, and full-height blocks give the same bytes
    blocks = []
    real = wavelets._offset_shapes

    def spy(mother, kind, scaled, centers):
        shapes = real(mother, kind, scaled, centers)

        def recording(lo, hi):
            blocks.append((scaled.shape[0], hi - lo))
            return shapes(lo, hi)
        return recording

    monkeypatch.setattr(wavelets, "_offset_shapes", spy)
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
    scratch = peak - psi.nbytes - X.nbytes
    assert scratch <= 4 * wavelets._BLOCK_ELEMS * 8 + 2 ** 16
    kr = -(-len(X) // wavelets._BLOCK_ROWS)
    block = wavelets._BLOCK_ELEMS // (-(-len(X) // kr) * 2)
    k = -(-len(bases) // block)
    assert len(blocks) == kr * k
    assert {r for r, _ in blocks} == {len(X) // kr, -(-len(X) // kr)}
    assert {c for _, c in blocks} == {len(bases) // k, -(-len(bases) // k)}
    assert sum(r * c for r, c in blocks) == psi.size
    assert min(c for _, c in blocks) >= 32
    monkeypatch.setattr(wavelets, "_BLOCK_ROWS", len(X))
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 2)
    assert basis_matrix(mother, bases, X).tobytes() == psi.tobytes()


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_chunks_agree_with_one_block(family, d, monkeypatch):
    # chunks of 5 or 6 rows and blocks of three columns on 23 rows,
    # serial and on two CPUs, against one block of the whole design
    mother = getattr(MotherWavelet, family)(d)
    bases = mixed_bases(d, 100 + d)
    X = np.random.default_rng(110 + d).uniform(-2.0, 2.0, size=(23, d))
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 6 * 3 * d)
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


def test_concurrent_callers_get_the_serial_result(monkeypatch):
    # four callers at once, as sweep workers call in, each on its own
    # rows and each through its own pool; a shared buffer or a store into
    # another call's matrix would break the match
    mother = MotherWavelet.sinc(2)
    bases = mixed_bases(2, 80)
    inputs = [np.random.default_rng(90 + i).uniform(-2.0, 2.0, size=(31, 2))
              for i in range(4)]
    monkeypatch.setattr(wavelets, "_BLOCK_ELEMS", 4 * 31 * 2)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    want = [basis_matrix(mother, bases, X) for X in inputs]
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 3)
    got = [None] * len(inputs)
    start = threading.Barrier(len(inputs))

    def call(i):
        start.wait(timeout=30)
        for _ in range(20):
            got[i] = basis_matrix(mother, bases, inputs[i])
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sinc_companion_evaluates_each_axis_factor_once(d, monkeypatch):
    # a companion group with 30 columns evaluates sinc once per row and
    # distinct translation per axis, not once per cell and axis
    mother = MotherWavelet.sinc(d)
    rng = np.random.default_rng(100 + d)
    bases = [s_index(1, tuple(int(v) for v in rng.integers(-2, 3, size=d)))
             for _ in range(30)]
    X = rng.uniform(-1.0, 1.0, size=(23, d))
    points = []
    real_sinc = np.sinc

    def spy(x):
        points.append(np.size(x))
        return real_sinc(x)

    monkeypatch.setattr(np, "sinc", spy)
    psi = basis_matrix(mother, bases, X)
    distinct = [len({b.n[k] for b in bases}) for k in range(d)]
    assert sum(points) == X.shape[0] * sum(distinct)
    assert sum(points) <= d * max(distinct) * X.shape[0] < psi.size * d


def test_basis_index_center_and_frequency():
    # the element sits at 2^-m n and is the mother dilated by 2^m (its
    # band is 2^m times the mother's): 2^{dm/2} psi(2^m (x - center))
    b = BasisIndex(2, (3, -1), BasisKind.WAVELET)
    assert np.allclose(b.center(), [0.75, -0.25])
    mh = MotherWavelet.mexican_hat(2)
    t = np.array([[0.0, 0.0], [0.3, -0.7]])
    got = eval_basis(mh, b, b.center() + t / 4.0)
    np.testing.assert_allclose(got, 4.0 * mh.eval_mother(t), rtol=1e-14)
    assert got[0] == pytest.approx(8.0)


def test_sinc_cross_band_orthogonality():
    # resolutions two apart occupy disjoint frequency annuli; the sampled
    # inner product must be tiny relative to the element energy
    sc = MotherWavelet.sinc(1)

    def prod(pts):
        return (eval_basis(sc, w_index(0, 0), pts)
                * eval_basis(sc, w_index(2, 1), pts))

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
    assert len(bw) == 4 and all(b.kind is BasisKind.WAVELET for b in bw)
    assert [b.n for b in bw] == sorted(b.n for b in bw)


def test_degenerate_grid_raises():
    with pytest.raises(GridError):
        build_center_grid(1, [1.0], [0.0], margin=0.0)


# ------------------------------------------------------------ child rule

def test_children_centers_examples():
    fine = CenterGrid(2, (-4.0,), (4.0,), (-16,), (16,))
    ch = children_centers([w_index(1, 2)], fine)  # parent center 1.0
    assert sorted(float(c.center()[0]) for c in ch) == [0.75, 1.0]
    assert all(c.m == 2 for c in ch)

    ch = children_centers([w_index(1, 1)], fine)  # parent center 0.5
    assert sorted(float(c.center()[0]) for c in ch) == [0.25, 0.5]


def test_children_centers_2d_clipped():
    fine = CenterGrid(2, (0.0, 0.0), (2.0, 2.0), (0, 0), (8, 8))
    parent = BasisIndex(1, (0, 0), BasisKind.WAVELET)
    ch = children_centers([parent], fine)
    centers = {tuple(np.round(c.center(), 9)) for c in ch}
    assert centers == {(0.0, 0.0), (0.0, 0.25), (0.25, 0.0), (0.25, 0.25)}


def test_children_centers_needs_parents_one_level_up():
    fine = CenterGrid(2, (0.0,), (2.0,), (0,), (8,))
    with pytest.raises(GridError):
        children_centers([w_index(1, 0), w_index(2, 0)], fine)


def _reference_children(parents, fine):
    """The float nearest-point rule: per parent and axis, the two fine
    lattice values nearest the parent center (ties toward the smaller
    value; one value when the axis has one), their product in
    ``np.ndindex`` order, the first occurrence kept across parents."""
    out = []
    for p in parents:
        center = p.center()
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
    parents = [BasisIndex(m - 1, n, BasisKind.WAVELET) for n in ns]
    got = children_centers(parents, fine)
    assert [c.n for c in got] == _reference_children(parents, fine)
    assert all(c.m == m and c.kind is BasisKind.WAVELET for c in got)
    assert all(type(v) is int for c in got for v in c.n)
