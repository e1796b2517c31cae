"""Dominant-band probing: smoothing weight, EMA, energy probes, stop rule."""

import math
import tracemalloc

import numpy as np
import pytest

import cwnn.wavelets as wavelets
from cwnn.frequency import (alpha_from_epsilon, ema_update,
                            estimate_initial_resolution,
                            estimate_subspace_energy, subsample_centers)
from cwnn.model import (Design, TrainLog, TrainingDivergence, WaveletModel,
                        train_to_plateau)
from cwnn.wavelets import (RES, TRANS, MotherWavelet, basis_matrix,
                           basis_set, build_center_grid, lattice_bases)


def test_alpha_values():
    assert alpha_from_epsilon(1.0) == 0.0
    assert alpha_from_epsilon(0.1) == pytest.approx(0.5, abs=1e-12)
    assert alpha_from_epsilon(0.01) == pytest.approx(
        2.0 * math.atan(2.0) / math.pi, abs=1e-12)


def test_alpha_rejects_out_of_range():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            alpha_from_epsilon(bad)


def test_ema_hand_cases():
    assert ema_update(5.0, 7.0, 0.0, 2) == 7.0  # collapses to the raw value
    assert ema_update(1.0, 3.0, 0.5, 2) == pytest.approx(8.0 / 3.0)
    # the double debiasing can push the blend above both inputs
    assert ema_update(1.0, 1.0, 0.5, 2) == pytest.approx(4.0 / 3.0)


def test_ema_rejects_bad_position_and_alpha():
    with pytest.raises(ValueError):
        ema_update(1.0, 1.0, 0.5, 1)
    with pytest.raises(ValueError):
        ema_update(1.0, 1.0, 1.0, 2)


def test_energy_zero_targets():
    mh = MotherWavelet.mexican_hat(1)
    bases = basis_set(1, [(n,) for n in range(3)])
    X = np.linspace(0, 1, 10).reshape(-1, 1)
    e, coeffs = estimate_subspace_energy(mh, bases, X, np.zeros(10), 0.5)
    assert e == 0.0
    assert np.all(coeffs == 0.0)


def test_energy_single_sample_hand_case():
    # one update from zero: c = lr * 2 * y * psi(x); at the center of an
    # m=0 element psi(x)=1, so with lr=0.5, y=1 the energy is ||psi||^2
    mh = MotherWavelet.mexican_hat(1)
    b = basis_set(0, [(0,)])
    e, coeffs = estimate_subspace_energy(mh, b, [[0.0]], [1.0], 0.5)
    assert coeffs[0] == pytest.approx(1.0)
    assert e == pytest.approx(mh.norm_sq, rel=1e-9)
    assert e == pytest.approx(1.32934, abs=1e-5)


@pytest.mark.parametrize("rows", [60, 5])
def test_probe_is_the_training_loops_first_step(rows):
    # the probe's coefficients are a zero model's Design.step and
    # train_to_plateau's first step from zero, bit for bit, on the Gram
    # form (9 bases, 60 rows) and on the residual form (9 bases, 5 rows)
    sc = MotherWavelet.sinc(2)
    bases = build_center_grid(1, [0.0, 0.0], [1.0, 1.0],
                              margin=0.0).bases()
    rng = np.random.default_rng(rows)
    X = rng.uniform(0.0, 1.0, size=(rows, 2))
    y = np.sin(5.0 * X[:, 0]) * X[:, 1]
    e, coeffs = estimate_subspace_energy(sc, bases, X, y, 5e-4)
    stepped = WaveletModel.zeros(sc, bases)
    design = Design(X, y)
    design.sync(stepped)
    assert (design.gram is None) == (len(bases) > rows)
    design.step(stepped, 5e-4, design.objective(stepped.coeffs)[0],
                TrainLog())
    assert coeffs.tobytes() == stepped.coeffs.tobytes()
    model = WaveletModel.zeros(sc, bases)
    train_to_plateau(model, Design(X, y), 5e-4, zeta=0.0, epsilon=-1.0,
                     max_iters=1, log=TrainLog())
    np.testing.assert_array_equal(coeffs, model.coeffs)
    assert e == pytest.approx(np.sum(coeffs ** 2) * sc.norm_sq, rel=1e-15)
    assert e > 0.0


def test_probe_step_checks_divergence():
    # the probe checks its step as Design.step does, so a step size past
    # any stability bound stops the probe as it stops a fit
    sc = MotherWavelet.sinc(2)
    bases = build_center_grid(1, [0.0, 0.0], [1.0, 1.0], margin=0.0).bases()
    X = np.random.default_rng(2).uniform(0.0, 1.0, size=(40, 2))
    with pytest.raises(TrainingDivergence, match="iteration 1"):
        estimate_subspace_energy(sc, bases, X, X[:, 0], 1e200)


def test_probe_scratch_stays_within_the_per_worker_bound(monkeypatch):
    # diag's widest level: 6 561 sinc elements at m = 6 on 500 rows of two
    # axes, whose psi would be 26 MB.  A serial probe never holds it: it
    # stays within the bound the _BLOCK_ELEMS comment gives a worker of
    # the psi^T y path, one slab's scratch (4 * _BLOCK_ELEMS doubles)
    # plus its block's values (rows x columns), on top of one pointer per
    # basis, the partial sums and a few kilobytes of bookkeeping (1.7
    # MB in all, against a bound of 2.5 MB; each block's offsets come
    # from its own rows of the basis set, so no (p, d) float array of
    # translations is held)
    monkeypatch.setattr(wavelets, "_cpu_count", lambda: 1)
    mother = MotherWavelet.sinc(2)
    bases = lattice_bases(6, [range(-8, 73), range(-8, 73)])
    X = np.random.default_rng(8).uniform(0.0, 1.0, size=(500, 2))
    y = np.sin(5.0 * X[:, 0]) * X[:, 1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, c = estimate_subspace_energy(mother, bases, X, y, 5e-4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    values = 500 * (wavelets._BLOCK_ELEMS // X.size)
    kept = (len(bases) + c.size) * 8
    assert peak <= (4 * wavelets._BLOCK_ELEMS + values) * 8 + kept + 2 ** 16
    assert peak < X.shape[0] * len(bases) * 8 / 2


def test_energy_empty_bases():
    mh = MotherWavelet.mexican_hat(1)
    e, coeffs = estimate_subspace_energy(mh, lattice_bases(0, [range(0)]),
                                         [[0.0]], [1.0], 0.5)
    assert e == 0.0 and coeffs.size == 0


def test_subsample_whole_grid_fraction():
    # 5x5 grid, kappa = 9/25: stride 2 keeps exactly 3x3
    g = build_center_grid(1, [0.0, 0.0], [1.0, 1.0], margin=1.0,
                          clamp_low=[0.0, 0.0])
    kept = subsample_centers(g, 0.36)
    assert len(kept) == 9
    centers = set(map(tuple, (kept[:, TRANS] * 2.0 ** -kept[:, RES, None])
                      .tolist()))
    assert centers == {(a, b) for a in (0.0, 1.0, 2.0) for b in (0.0, 1.0, 2.0)}


def test_subsample_per_dimension_fraction():
    # 3-per-dim grid, kappa = 2/3 read per dimension: stride 2 keeps the
    # two endpoints of every axis
    g = build_center_grid(1, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], margin=0.0)
    assert g.count == 27
    kept = subsample_centers(g, 2.0 / 3.0)
    assert len(kept) == 8
    assert set(map(tuple, kept[:, TRANS].tolist())) == {
        (a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)}


def test_subsample_full_grid():
    g = build_center_grid(1, [0.0], [1.0], margin=0.0)
    assert len(subsample_centers(g, 1.0)) == g.count


def test_subsample_rejects_bad_kappa():
    g = build_center_grid(1, [0.0], [1.0], margin=0.0)
    for bad in (0.0, 1.2):
        with pytest.raises(ValueError):
            subsample_centers(g, bad)


def _band_dataset(m_peak=2, n=300, seed=1):
    """Samples of a target living in one detail level of the 1-D family."""
    mh = MotherWavelet.mexican_hat(1)
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    y = np.zeros(n)
    for coef, k in ((0.9, 1), (-0.6, 2), (0.4, 3)):
        y += coef * basis_matrix(mh, basis_set(m_peak, [(k,)]), X)[:, 0]
    return mh, X, y


def test_estimator_finds_planted_band():
    mh, X, y = _band_dataset(m_peak=2)
    grid = build_center_grid(1, [0.0], [1.0], margin=1.0, clamp_low=[0.0])
    res = estimate_initial_resolution(mh, X, y, grid, kappa=1.0, lr=5e-4,
                                      epsilon=0.01)
    assert res.m_init == 2
    assert res.warning is None
    assert [row[0] for row in res.rows] == [1, 2, 3]


def test_estimator_zero_targets_degenerate():
    mh = MotherWavelet.mexican_hat(1)
    X = np.linspace(0, 1, 40).reshape(-1, 1)
    grid = build_center_grid(1, [0.0], [1.0], margin=1.0, clamp_low=[0.0])
    res = estimate_initial_resolution(mh, X, np.zeros(40), grid, kappa=1.0,
                                      lr=5e-4, epsilon=0.01)
    assert res.m_init == grid.m
    assert res.warning is not None and "zero probe energy" in res.warning


def test_estimator_full_trace_mode():
    mh, X, y = _band_dataset(m_peak=2)
    grid = build_center_grid(1, [0.0], [1.0], margin=1.0, clamp_low=[0.0])
    res = estimate_initial_resolution(mh, X, y, grid, kappa=1.0, lr=5e-4,
                                      epsilon=0.01, m_cap=5, stop_early=False)
    assert [row[0] for row in res.rows] == [1, 2, 3, 4, 5]
    # the full trace still reports the stop-rule resolution
    assert res.m_init == 2


def test_estimator_cap_warning():
    # a strong target far above the cap: probe energies keep rising, the
    # stop rule never fires, and the cap is reported with a warning
    mh = MotherWavelet.mexican_hat(1)
    rng = np.random.default_rng(1)
    X = rng.uniform(0.0, 1.0, size=(300, 1))
    y = np.zeros(300)
    for coef, k in ((30.0, 20), (25.0, 33), (20.0, 45)):
        y += coef * basis_matrix(mh, basis_set(6, [(k,)]), X)[:, 0]
    grid = build_center_grid(1, [0.0], [1.0], margin=1.0, clamp_low=[0.0])
    res = estimate_initial_resolution(mh, X, y, grid, kappa=1.0, lr=5e-4,
                                      epsilon=0.01, m_cap=3)
    assert res.m_init == 3
    assert res.warning is not None and "no energy peak" in res.warning


def test_estimator_cap_below_the_start_is_an_error():
    # the probe never visits a level under its start, so it cannot report
    # one; a cap at the start probes that one level and stops there
    mh, X, y = _band_dataset(m_peak=2)
    grid = build_center_grid(1, [0.0], [1.0], margin=1.0, clamp_low=[0.0])
    with pytest.raises(ValueError, match="m_cap must be at least the start "
                                         "resolution 1, got 0"):
        estimate_initial_resolution(mh, X, y, grid, kappa=1.0, lr=5e-4,
                                    epsilon=0.01, m_cap=0)
    res = estimate_initial_resolution(mh, X, y, grid, kappa=1.0, lr=5e-4,
                                      epsilon=0.01, m_cap=1)
    assert res.m_init == 1 and [row[0] for row in res.rows] == [1]


def test_trace_csv_format(tmp_path):
    mh, X, y = _band_dataset()
    grid = build_center_grid(1, [0.0], [1.0], margin=1.0, clamp_low=[0.0])
    res = estimate_initial_resolution(mh, X, y, grid, kappa=1.0, lr=5e-4,
                                      epsilon=0.01)
    path = tmp_path / "trace.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,E_hat,E_bar,n_bases"
    assert len(lines) == 1 + len(res.rows)
    # float cells round-trip exactly
    m, eh, eb, nb = lines[1].split(",")
    assert float(eh) == res.rows[0][1]
