"""Synthetic generators, CSV ingestion, scaling and splitting."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwnn.datasets import (DataError, Dataset, gen_autoregression,
                           gen_example1, gen_example2_regions, load_csv,
                           minmax_scale, minmax_unscale, split)


def surface(x1, x2):
    return 0.5 + x1 + x2 + np.sin(2 * math.pi * (x1 + x2))


# ------------------------------------------------------------- example 1

def test_example1_surface_values():
    assert surface(0.0, 0.0) == pytest.approx(0.5)
    assert surface(1.0, 1.0) == pytest.approx(2.5)


def test_example1_d1_clean_and_constrained():
    ds = gen_example1("D1", 400, seed=3)
    assert len(ds) == 400 and ds.dim == 2
    x1, x2 = ds.inputs[:, 0], ds.inputs[:, 1]
    assert np.all((0 <= x1) & (x1 <= 1))
    assert np.array_equal(x2, np.sqrt(x1))  # exact constraint
    assert np.allclose(ds.targets, surface(x1, x2))


def test_example1_noise_statistics():
    # D2 noise is zero-mean with sd 0.1(1 - x1^2); crude moment checks
    ds = gen_example1("D2", 100_000, seed=5)
    x1 = ds.inputs[:, 0]
    resid = ds.targets - surface(x1, ds.inputs[:, 1])
    sd = 0.1 * (1 - x1 ** 2)
    z = resid[sd > 1e-3] / sd[sd > 1e-3]
    assert abs(np.mean(z)) < 3.0 / math.sqrt(z.size)
    assert abs(np.var(z) - 1.0) < 0.1
    d3 = gen_example1("D3", 100_000, seed=5)
    resid3 = d3.targets - surface(d3.inputs[:, 0], d3.inputs[:, 1])
    sd3 = 0.2 * (1 - d3.inputs[:, 0] ** 2)
    z3 = resid3[sd3 > 1e-3] / sd3[sd3 > 1e-3]
    assert abs(np.var(z3) - 1.0) < 0.1


def test_example1_determinism_and_variant_errors():
    a = gen_example1("D2", 50, seed=9)
    b = gen_example1("D2", 50, seed=9)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    with pytest.raises((DataError, ValueError)):
        gen_example1("D9", 10, seed=0)


# ------------------------------------------------------------- example 2

def test_example2_region_bounds_and_formula():
    ds1, ds2 = gen_example2_regions(300, seed=4)
    assert np.all(ds1.inputs[:, 0] <= 0.6)
    assert np.all(ds2.inputs[:, 0] >= 0.6)
    for ds in (ds1, ds2):
        assert np.array_equal(ds.inputs[:, 1], np.sqrt(ds.inputs[:, 0]))
        assert np.allclose(ds.targets,
                           surface(ds.inputs[:, 0], ds.inputs[:, 1]))


# --------------------------------------------------------- autoregression

def test_autoregression_first_row():
    ds = gen_autoregression(10, seed=0, noise_sd=0.0)
    # first row: inputs (y2, y1) = (1, 1), target sqrt(arctan(2*pi))
    assert np.allclose(ds.inputs[0], [1.0, 1.0])
    assert ds.targets[0] == pytest.approx(math.sqrt(math.atan(2 * math.pi)))
    assert ds.targets[0] == pytest.approx(1.18868, abs=1e-5)


def test_autoregression_recursion_consistency():
    ds = gen_autoregression(200, seed=0, noise_sd=0.0)
    s = ds.inputs[:, 0] ** 2 + ds.inputs[:, 1] ** 2
    want = np.sqrt(np.arctan(math.pi * s))
    assert np.allclose(ds.targets, want)
    # each target feeds the next row's first input
    assert np.allclose(ds.inputs[1:, 0], ds.targets[:-1])


def test_autoregression_switch():
    k = 60
    ds = gen_autoregression(120, seed=0, switch_at=k, noise_sd=0.0)
    s = ds.inputs[:, 0] ** 2 + ds.inputs[:, 1] ** 2
    base = np.sqrt(np.arctan(math.pi * s))
    extra = np.cos(math.pi * s)
    t = np.arange(3, 121)
    pre = t < k
    assert np.allclose(ds.targets[pre], base[pre])
    assert np.allclose(ds.targets[~pre], (base + extra)[~pre])
    assert not np.allclose(ds.targets[~pre], base[~pre])


def test_autoregression_rows_are_the_lag_embedding_of_one_series():
    # noisy and switched: each row's inputs are the previous row's target
    # and first input, exactly, so the rows are slices of one series
    ds = gen_autoregression(3000, 7, switch_at=1500)
    assert ds.inputs.shape == (2998, 2) and ds.targets.shape == (2998,)
    assert ds.inputs[0].tolist() == [1.0, 1.0]
    np.testing.assert_array_equal(ds.inputs[1:, 0], ds.targets[:-1])
    np.testing.assert_array_equal(ds.inputs[1:, 1], ds.inputs[:-1, 0])


def test_autoregression_noise_level():
    ds = gen_autoregression(20_000, seed=1, noise_sd=0.01)
    s = ds.inputs[:, 0] ** 2 + ds.inputs[:, 1] ** 2
    resid = ds.targets - np.sqrt(np.arctan(math.pi * s))
    assert abs(np.std(resid) - 0.01) < 0.001


def test_autoregression_length_guard():
    with pytest.raises((DataError, ValueError)):
        gen_autoregression(2, seed=0)


# ------------------------------------------------------------------- csv

def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_load_csv_basic(tmp_path):
    p = tmp_path / "t.csv"
    _write_csv(p, ["a", "b", "y"], [[0, 1, 2], [3, 4, 5]])
    ds = load_csv(p, "y")
    assert ds.dim == 2 and len(ds) == 2
    assert np.array_equal(ds.targets, [2.0, 5.0])
    ds2 = load_csv(p, "y", feature_columns=["b"])
    assert ds2.dim == 1
    assert np.array_equal(ds2.inputs[:, 0], [1.0, 4.0])


def test_load_csv_errors_name_location(tmp_path):
    p = tmp_path / "t.csv"
    _write_csv(p, ["a", "y"], [[1, 2], ["oops", 4]])
    with pytest.raises(DataError, match="row 3"):
        load_csv(p, "y")
    with pytest.raises(DataError, match="z"):
        load_csv(p, "z")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_load_csv_rejects_non_finite(tmp_path, bad):
    # float() parses these, so only an explicit check keeps them out
    p = tmp_path / "t.csv"
    _write_csv(p, ["a", "y"], [[1, 2], [3, bad], [5, 6]])
    with pytest.raises(DataError, match=r"row 3, column 'y'.*not finite"):
        load_csv(p, "y")


def test_minmax_scale_endpoints_and_errors(tmp_path):
    ds = Dataset(np.array([[0.0], [5.0], [10.0]]), np.array([1.0, 2.0, 3.0]))
    sc = minmax_scale(ds)
    assert np.allclose(sc.inputs[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(sc.targets, [0.0, 0.5, 1.0])
    const = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(DataError):
        minmax_scale(const)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                min_size=2, max_size=30))
def test_scale_round_trip_property(rows):
    arr = np.asarray(rows, dtype=float)
    spread = arr.max(axis=0) - arr.min(axis=0)
    if np.any(spread < 1e-9):
        return  # constant columns are a rejected input, tested separately
    ds = Dataset(arr[:, :2].copy(), arr[:, 2].copy())
    back = minmax_unscale(minmax_scale(ds))
    assert np.allclose(back.inputs, ds.inputs, atol=1e-9 * max(1, spread.max()))
    assert np.allclose(back.targets, ds.targets,
                       atol=1e-9 * max(1, spread.max()))
    sc = minmax_scale(ds)
    assert sc.inputs.min() >= -1e-12 and sc.inputs.max() <= 1 + 1e-12


def test_scaling_record_rides_through_split():
    # the record that inverts the scaling follows both halves of a split;
    # an unscaled dataset has none to invert
    raw = Dataset(np.arange(10.0).reshape(-1, 1), np.arange(10.0) ** 2)
    assert raw.scaling is None
    with pytest.raises(DataError, match="no scaling record"):
        minmax_unscale(raw)
    scaled = minmax_scale(raw)
    assert scaled.scaling["target_max"] == 81.0
    train, test = split(scaled, 0.8, seed=0)
    assert train.scaling == test.scaling == scaled.scaling
    back = minmax_unscale(test)
    assert back.scaling is None
    np.testing.assert_allclose(back.targets, back.inputs[:, 0] ** 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200), st.floats(0.05, 0.95), st.integers(0, 2 ** 31))
def test_split_partition_property(n, fraction, seed):
    ds = Dataset(np.arange(n, dtype=float).reshape(-1, 1),
                 np.arange(n, dtype=float))
    train, test = split(ds, fraction, seed)
    assert len(train) + len(test) == n
    merged = np.concatenate([train.targets, test.targets])
    assert sorted(merged.tolist()) == list(range(n))  # disjoint and complete
    again = split(ds, fraction, seed)
    assert np.array_equal(again[0].targets, train.targets)


def test_split_exact_example():
    ds = Dataset(np.zeros((10, 1)), np.arange(10.0))
    train, test = split(ds, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2
