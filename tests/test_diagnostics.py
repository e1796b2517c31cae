"""Frame diagnostics: index boxes, closed-form inner products, coefficient
scans, peak counting."""

import math

import numpy as np
import pytest

from cwnn.diagnostics import (DecayReport, TimeFrequencyBox, count_peaks,
                              decay_report, gram, scan_indices)
from cwnn.wavelets import (KIND, RES, TRANS, BasisKind, MotherWavelet,
                           basis_matrix, basis_set)
from quadrature_oracle import adaptive_integral

MH1 = MotherWavelet.mexican_hat(1)
SC1 = MotherWavelet.sinc(1)


def w_index(m, n):
    """One wavelet element, a basis set's row."""
    return basis_set(m, [n if isinstance(n, tuple) else (n,)])[0]


BOX = TimeFrequencyBox(T=(1.0,), t_eps=(1,), m0=4, m1=0)


# ------------------------------------------------------------------- box

def test_box_validation():
    with pytest.raises(ValueError):
        TimeFrequencyBox(T=(1.0,), t_eps=(1,), m0=0, m1=2)  # m1 >= m0
    with pytest.raises(ValueError):
        TimeFrequencyBox(T=(-1.0,), t_eps=(1,), m0=2, m1=0)
    with pytest.raises(ValueError, match="same dimension"):
        TimeFrequencyBox(T=(1.0, 1.0), t_eps=(1,), m0=2, m1=0)


def test_box_membership_rule():
    # inside needs m strictly between the bounds and |n| <= 2^m T + t_eps
    assert BOX.contains(w_index(2, 5))       # 2^2*1 + 1 = 5
    assert not BOX.contains(w_index(2, 6))   # one step past the bound
    assert not BOX.contains(w_index(0, 0))   # resolution bound exclusive
    assert not BOX.contains(w_index(4, 0))
    assert BOX.contains(w_index(1, -3))
    assert BOX.contains(w_index(3, 0))


def test_box_dim_mismatch():
    with pytest.raises(ValueError):
        BOX.contains(w_index(2, (0, 0)))


def test_scan_indices_shape():
    idx = scan_indices(BOX, m_pad=0)
    assert all(idx[:, KIND] == BasisKind.WAVELET)
    ms = sorted(set(idx[:, RES].tolist()))
    assert ms == [1, 2, 3]  # interior resolutions only when unpadded
    for m in ms:
        lim = int(math.floor(2.0 ** m + 1))
        ns = idx[idx[:, RES] == m, TRANS][:, 0].tolist()
        assert ns == list(range(-lim, lim + 1))
    padded = scan_indices(BOX, m_pad=2)
    assert sorted(set(padded[:, RES].tolist())) == [-1, 0, 1, 2, 3, 4, 5]


# ------------------------------------------------------- inner products

def product_integral(mother, a, b, half, panels, **tol):
    """<psi_a, psi_b> by quadrature over the cube [-half, half]^d."""
    d = mother.dim
    return adaptive_integral(
        lambda pts: (basis_matrix(mother, a[None], pts)[:, 0]
                     * basis_matrix(mother, b[None], pts)[:, 0]),
        [-half] * d, [half] * d, [panels] * d, order=16, **tol)


def test_inner_product_recovers_norm():
    for mother in (MH1, SC1, MotherWavelet.mexican_hat(3),
                   MotherWavelet.sinc(2)):
        b = w_index(1, (2,) * mother.dim)
        assert gram(mother, b, b) == pytest.approx(mother.norm_sq,
                                                   rel=1e-14)


def test_inner_product_well_separated_translates_tiny():
    b, other = w_index(1, 0), w_index(1, 12)
    val = gram(MH1, b, other)
    assert 0.0 < abs(val) < 1e-9 * MH1.norm_sq


# (m, n) pairs across levels, translations and both signs of the offset
PAIRS_1D = [((0, 0), (0, 0)), ((1, 2), (0, 0)), ((2, -1), (1, 3)),
            ((3, 5), (-1, 0)), ((0, 4), (2, -3)), ((-1, 1), (3, 7))]


def test_gram_mexican_hat_matches_wide_window_quadrature():
    # the Mexican hat is below 1e-300 past |x| = 40 at these levels, so
    # the window truncates nothing
    for (ma, na), (mb, nb) in PAIRS_1D:
        a, b = w_index(ma, na), w_index(mb, nb)
        want = product_integral(MH1, a, b, 40.0, 512, rtol=1e-14, atol=0.0)
        assert abs(gram(MH1, a, b) - want) < 1e-12, (a, b)
    mh2 = MotherWavelet.mexican_hat(2)
    for a, b in [(w_index(0, (0, 0)), w_index(0, (0, 0))),
                 (w_index(1, (1, 2)), w_index(0, (0, 1))),
                 (w_index(2, (-1, 0)), w_index(1, (1, 1)))]:
        want = product_integral(mh2, a, b, 12.0, 48, rtol=1e-13, atol=0.0,
                                max_doublings=3)
        assert abs(gram(mh2, a, b) - want) < 1e-12, (a, b)


def test_gram_sinc_quadrature_error_shrinks_with_window():
    # the sinc envelope decays like 1/|x|, so a truncated window misses a
    # tail of order 1/width; the closed form is the window's limit
    for a, b in [(w_index(2, 0), w_index(2, 1)),    # same level
                 (w_index(1, 0), w_index(2, 1))]:   # orthogonal levels
        exact = gram(SC1, a, b)
        errors = [abs(product_integral(SC1, a, b, half, 8 * int(half),
                                       rtol=1e-10, atol=1e-13,
                                       max_doublings=6) - exact)
                  for half in (13.0, 50.0, 200.0)]
        assert errors[0] > errors[1] > errors[2], errors
        assert errors[2] < 2e-3, errors


def test_gram_sinc_levels_orthogonal():
    # resolutions occupy disjoint frequency annuli, in every dimension
    for mother in (SC1, MotherWavelet.sinc(2)):
        d = mother.dim
        for ma, mb in [(0, 1), (1, 3), (-1, 2)]:
            a, b = w_index(ma, (1,) * d), w_index(mb, (0,) * d)
            assert gram(mother, a, b) == 0.0
    # one level: the mother's own profile at the integer offset, times pi
    assert gram(SC1, w_index(2, 3), w_index(2, 1)) == pytest.approx(
        math.pi * (math.sin(4.0) - math.sin(2.0)) / 2.0, rel=1e-14)


def test_gram_is_symmetric():
    for mother in (MH1, SC1):
        for (ma, na), (mb, nb) in PAIRS_1D:
            a, b = w_index(ma, na), w_index(mb, nb)
            assert gram(mother, a, b) == gram(mother, b, a)
    for mother in (MotherWavelet.mexican_hat(2), MotherWavelet.sinc(2)):
        a, b = w_index(1, (1, -2)), w_index(1, (3, 0))
        assert gram(mother, a, b) == gram(mother, b, a)


def test_gram_rejects_companions():
    with pytest.raises(ValueError):
        gram(MH1, w_index(0, 0), basis_set(0, [(0,)], BasisKind.SCALING)[0])


# ------------------------------------------------------------ decay scan

def test_decay_report_partition_and_csv(tmp_path):
    b = w_index(2, 0)
    idx = np.array([w_index(2, 0), w_index(2, 5), w_index(2, 6),
                    w_index(5, 0)])
    rep = decay_report([(1.0, b)], MH1, BOX, idx)
    flags = [inside for _, inside, _ in rep.rows]
    assert flags == [True, True, False, False]
    assert rep.max_inside == pytest.approx(MH1.norm_sq, rel=1e-14)
    assert rep.ratio < 1.0
    path = tmp_path / "decay.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,n1,inside,coef_abs"
    assert len(lines) == 5
    assert lines[1].split(",")[:3] == ["2", "0", "1"]


def test_decay_report_sums_the_target_parts():
    parts = [(1.0, w_index(2, -1)), (-0.7, w_index(2, 0)),
             (0.4, w_index(3, 3))]
    idx = np.array([w_index(2, 0), w_index(3, 1), w_index(1, 0)])
    rep = decay_report(parts, MH1, BOX, idx)
    for index, _, coef in rep.rows:
        want = sum(c * gram(MH1, index, b) for c, b in parts)
        assert coef == want
    # sinc: only the parts at the scanned element's own level count
    rep = decay_report(parts, SC1, BOX, idx)
    coefs = [c for _, _, c in rep.rows]
    assert coefs[2] == 0.0
    assert coefs[1] == pytest.approx(0.4 * gram(SC1, w_index(3, 1),
                                                w_index(3, 3)), rel=1e-15)


def test_decay_ratio_edge_cases():
    rep = DecayReport(BOX, rows=[(w_index(2, 0), True, 1.0)])
    assert rep.ratio == 0.0  # nothing outside
    rep2 = DecayReport(BOX, rows=[(w_index(2, 0), True, 0.0),
                                  (w_index(5, 0), False, 0.5)])
    assert rep2.ratio == math.inf


# ------------------------------------------------------------ peak count

def test_count_peaks_basic_shapes():
    assert count_peaks([1.0, 2.0, 1.0]) == 1
    assert count_peaks([3.0, 2.0, 1.0]) == 0
    assert count_peaks([1.0, 2.0, 3.0]) == 0  # still rising at the end
    assert count_peaks([1.0, 3.0, 1.0, 3.0, 1.0]) == 2


def test_count_peaks_tolerates_small_dips():
    # the 2.0 -> 1.99 dip is 0.5%, inside the 2% band: one peak, not two
    assert count_peaks([1.0, 2.0, 1.99, 3.0, 1.0], tol=0.02) == 1
    # sub-tolerance wiggle only: no confirmed peak
    assert count_peaks([1.0, 1.01, 1.0], tol=0.02) == 0
    # the same shape with a strict tolerance is two peaks
    assert count_peaks([1.0, 2.0, 1.99, 3.0, 1.0], tol=1e-6) == 2


def test_count_peaks_degenerate_inputs():
    assert count_peaks([]) == 0
    assert count_peaks([5.0]) == 0
    assert count_peaks([1.0, 1.0, 1.0]) == 0
