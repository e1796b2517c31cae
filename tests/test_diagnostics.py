"""Frame diagnostics: index boxes, coefficient scans, peak counting."""

import math

import numpy as np
import pytest

from cwnn.diagnostics import (DecayReport, TimeFrequencyBox, count_peaks,
                              decay_report, inner_product, scan_indices,
                              support_box)
from cwnn.wavelets import BasisIndex, BasisKind, MotherWavelet, eval_basis

MH1 = MotherWavelet.mexican_hat(1)


def w_index(m, n):
    return BasisIndex(m, n if isinstance(n, tuple) else (n,), BasisKind.WAVELET)


BOX = TimeFrequencyBox(T=(1.0,), t_eps=(1,), m0=4, m1=0)


# ------------------------------------------------------------------- box

def test_box_validation():
    with pytest.raises(ValueError):
        TimeFrequencyBox(T=(1.0,), t_eps=(1,), m0=0, m1=2)  # m1 >= m0
    with pytest.raises(ValueError):
        TimeFrequencyBox(T=(-1.0,), t_eps=(1,), m0=2, m1=0)


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
        BOX.contains(BasisIndex(2, (0, 0), BasisKind.WAVELET))


def test_scan_indices_shape():
    idx = scan_indices(BOX, m_pad=0, n_pad=0)
    ms = sorted({b.m for b in idx})
    assert ms == [1, 2, 3]  # interior resolutions only when unpadded
    for m in ms:
        lim = int(math.floor(2.0 ** m + 1))
        ns = [b.n[0] for b in idx if b.m == m]
        assert min(ns) == -lim and max(ns) == lim
        assert len(ns) == 2 * lim + 1
    padded = scan_indices(BOX, m_pad=2, n_pad=0)
    assert sorted({b.m for b in padded}) == [-1, 0, 1, 2, 3, 4, 5]


def test_support_box_scales_with_resolution():
    lo0, hi0 = support_box(MH1, w_index(0, 0))
    lo2, hi2 = support_box(MH1, w_index(2, 0))
    assert hi0[0] - lo0[0] == pytest.approx(4 * (hi2[0] - lo2[0]))


# ---------------------------------------------------------- inner product

def test_inner_product_recovers_norm():
    b = w_index(1, 2)
    val = inner_product(lambda pts: eval_basis(MH1, b, pts), MH1, b)
    assert val == pytest.approx(MH1.norm_sq, rel=1e-7)


def test_inner_product_well_separated_translates_tiny():
    b, other = w_index(1, 0), w_index(1, 12)
    val = inner_product(lambda pts: eval_basis(MH1, b, pts), MH1, other,
                        lows=(-6.0,), highs=(6.0,))
    assert abs(val) < 1e-9 * MH1.norm_sq


# ------------------------------------------------------------ decay scan

def test_decay_report_partition_and_csv(tmp_path):
    b = w_index(2, 0)
    idx = [w_index(2, 0), w_index(2, 5), w_index(2, 6), w_index(5, 0)]
    rep = decay_report(lambda pts: eval_basis(MH1, b, pts), MH1, BOX, idx,
                       f_lows=(-3.0,), f_highs=(3.0,))
    flags = [inside for _, inside, _ in rep.rows]
    assert flags == [True, True, False, False]
    assert rep.max_inside == pytest.approx(MH1.norm_sq, rel=1e-6)
    assert rep.ratio < 1.0
    path = tmp_path / "decay.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,n1,inside,coef_abs"
    assert len(lines) == 5
    assert lines[1].split(",")[:3] == ["2", "0", "1"]


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
