"""Greedy basis growth: selection, expansion, batch and streaming runs."""

import numpy as np
import pytest

from cwnn.growth import (GrowthConfig, WaveletPool, expand_into_next,
                         run_baseline_wnn, run_growth, run_online,
                         select_high_energy)
from cwnn.model import TrainLog, TrainStatus
from cwnn.wavelets import BasisIndex, BasisKind, MotherWavelet, eval_basis

MH1 = MotherWavelet.mexican_hat(1)


def small_config(**kw):
    base = dict(epsilon=1e-6, zeta=1e-10, mu=1 / 2, learning_rate=0.05,
                m_init=1, domain_low=(0.0,), domain_high=(1.0,),
                margin=1.0, clamp_low=(0.0,), max_resolution=4,
                max_iters=20_000)
    base.update(kw)
    return GrowthConfig(**base)


def pool_with_energies(energies):
    """A pool whose m=1 detail coefficients realize the given energies."""
    pool = WaveletPool(MH1, (0.0,), (2.0,))
    pool.ensure_level(1)
    for (b, _), e in zip(pool.detail_items(1), energies):
        pos = pool._pos[b]
        pool.model.coeffs[pos] = np.sqrt(e / MH1.norm_sq)
    return pool


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(mu=0.3)  # not a reciprocal of an integer
    with pytest.raises(ValueError):
        small_config(epsilon=-1.0)
    with pytest.raises(ValueError):
        small_config(m_init=9, max_resolution=4)
    assert small_config(mu=1 / 4).n_phases == 4


# -------------------------------------------------------------- selection

def test_select_prefix_by_cumulative_energy():
    pool = pool_with_energies([4.0, 3.0, 2.0, 1.0])
    chosen = select_high_energy(pool, 1, 0.5)
    es = sorted(round(pool.model.coeffs[pool._pos[b]] ** 2 * MH1.norm_sq)
                for b in chosen)
    assert es == [3, 4]  # 4 + 3 >= 0.5 * 10


def test_select_all_at_full_fraction():
    pool = pool_with_energies([4.0, 3.0, 2.0, 1.0])
    zero_free = [b for b, c in pool.detail_items(1) if c != 0.0]
    assert set(select_high_energy(pool, 1, 1.0)) == set(zero_free)


def test_select_with_exclusion():
    pool = pool_with_energies([4.0, 3.0, 2.0, 1.0])
    top = select_high_energy(pool, 1, 0.5)[0]
    chosen = select_high_energy(pool, 1, 0.5, exclude={top})
    es = sorted(round(pool.model.coeffs[pool._pos[b]] ** 2 * MH1.norm_sq)
                for b in chosen)
    assert es == [2, 3]  # from [3,2,1] until cumulative >= 5


def test_select_never_picks_zero_energy():
    pool = pool_with_energies([4.0, 0.0, 0.0, 1.0])
    chosen = select_high_energy(pool, 1, 1.0)
    assert all(pool.model.coeffs[pool._pos[b]] != 0.0 for b in chosen)


def test_phases_never_repeat_parents_and_cover_level():
    pool = pool_with_energies([5.0, 4.0, 3.0, 2.0, 1.0])
    mu = 1 / 3
    seen = set()
    for k in range(1, 4):
        mu_up = 1.0 if k == 3 else k * mu
        batch = select_high_energy(pool, 1, mu_up, exclude=seen)
        assert not (seen & set(batch))
        seen |= set(batch)
    nonzero = {b for b, c in pool.detail_items(1) if c != 0.0}
    assert seen == nonzero


# -------------------------------------------------------------- expansion

def test_expand_adds_children_and_dedups():
    pool = pool_with_energies([1.0] * 4)
    parents = [b for b, _ in pool.detail_items(1)][:2]  # adjacent centers
    before = pool.model.n_params
    added = expand_into_next(pool, parents)
    assert 0 < len(added) <= 2 * 2
    assert pool.model.n_params == before + len(added)
    assert all(b.m == 2 for b in added)
    # idempotence: same parents again add nothing
    assert expand_into_next(pool, parents) == []


def test_expand_child_locality():
    pool = pool_with_energies([1.0] * 4)
    parents = [b for b, _ in pool.detail_items(1)]
    added = expand_into_next(pool, parents)
    step = 2.0 ** -2
    for ch in added:
        d = min(abs(float(ch.center()[0]) - float(p.center()[0]))
                for p in parents)
        assert d <= step + 1e-12


def test_expand_requires_single_resolution():
    pool = pool_with_energies([1.0] * 4)
    pool.ensure_level(2)
    mixed = [BasisIndex(1, (0,), BasisKind.WAVELET),
             BasisIndex(2, (0,), BasisKind.WAVELET)]
    with pytest.raises(ValueError):
        expand_into_next(pool, mixed)


# ------------------------------------------------------------- batch runs

def _representable_target(config):
    pool = WaveletPool(MH1, (0.0,), (2.0,))
    pool.ensure_level(config.m_init)
    b = pool.detail_items(config.m_init)[2][0]
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(60, 1))
    return X, eval_basis(MH1, b, X)


def test_growth_representable_target_no_growth():
    config = small_config(epsilon=1e-5, learning_rate=0.1,
                          max_iters=50_000)
    X, y = _representable_target(config)
    log = TrainLog()
    res = run_growth(MH1, X, y, config, log)
    assert res.status is TrainStatus.ACHIEVED
    assert res.final_loss <= config.epsilon
    assert [e[1] for e in log.events] == ["seed"]  # no expand/escalate


def test_growth_achieved_loss_bound_and_monotone_params():
    # a harder target forces expansion; params must never shrink
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = small_config(epsilon=5e-3, zeta=5e-6, learning_rate=0.05,
                          mu=1 / 3)
    log = TrainLog()
    res = run_growth(MH1, X, y, config, log)
    assert res.status is TrainStatus.ACHIEVED
    assert res.final_loss <= config.epsilon
    counts = [r[2] for r in log.records]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert any(e[1] == "expand" for e in log.events)


def test_growth_budget_status():
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(100, 1))
    y = np.sin(30.0 * X[:, 0])
    res = run_growth(MH1, X, y, small_config(epsilon=1e-9, max_iters=50))
    assert res.status is TrainStatus.BUDGET
    assert res.model.n_params > 0


def test_growth_resume_from_pool():
    config = small_config(epsilon=5e-3, zeta=5e-6, learning_rate=0.05)
    rng = np.random.default_rng(5)
    X1 = rng.uniform(0.0, 0.5, size=(120, 1))
    y1 = np.sin(6.0 * X1[:, 0])
    log = TrainLog()
    res1 = run_growth(MH1, X1, y1, config, log)
    assert res1.status is TrainStatus.ACHIEVED
    n1 = res1.n_params

    X2 = rng.uniform(0.5, 1.0, size=(120, 1))
    y2 = np.sin(6.0 * X2[:, 0])
    X = np.vstack([X1, X2])
    y = np.concatenate([y1, y2])
    res2 = run_growth(MH1, X, y, config, log, pool=res1.pool)
    assert res2.status is TrainStatus.ACHIEVED
    assert res2.n_params >= n1  # resumed, never reseeded smaller
    iters = [r[0] for r in log.records]
    assert iters == sorted(set(iters))  # one continuous log


def test_growth_resume_rejects_empty_pool():
    pool = WaveletPool(MH1, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        run_growth(MH1, np.zeros((4, 1)), np.ones(4), small_config(),
                   pool=pool)


def test_baseline_escalates_whole_levels_and_is_deterministic():
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = small_config(epsilon=5e-3, zeta=5e-6, learning_rate=0.05)
    logs = []
    for _ in range(2):
        log = TrainLog()
        res = run_baseline_wnn(MH1, X, y, config, log)
        assert res.status is TrainStatus.ACHIEVED
        logs.append((list(log.events),
                     [(it, ls, np_) for it, ls, np_, _ in log.records]))
    assert logs[0] == logs[1]
    events = [e[1] for e in logs[0][0]]
    assert events[0] == "seed" and all(e == "escalate" for e in events[1:])


# --------------------------------------------------------- streaming runs

def test_online_constant_zero_stream_never_grows():
    X = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
    res = run_online(MH1, X, np.zeros(50), small_config(epsilon=1e-4),
                     window=10, patience=3)
    assert res.growth_iterations == []
    assert max(res.window_losses) == 0.0


def test_online_window_one_runs_per_sample():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(25, 1))
    y = np.sin(3.0 * X[:, 0])
    log = TrainLog()
    res = run_online(MH1, X, y, small_config(epsilon=1e-4), window=1,
                     patience=5, log=log)
    assert len(res.window_losses) == 25
    assert len(log.records) == 25


def test_online_short_stream_partial_phase():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(6, 1))
    y = np.sin(3.0 * X[:, 0])
    res = run_online(MH1, X, y, small_config(), window=10, patience=5)
    assert len(res.window_losses) == 1  # one partial window, clean exit
    assert res.growth_iterations == []


def test_online_plateau_triggers_growth():
    # a target too rich for the seed level with a tiny epsilon: the
    # rolling loss stalls above target and growth must fire
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(400, 1))
    y = np.sin(14.0 * X[:, 0])
    config = small_config(epsilon=1e-5, learning_rate=0.02, mu=1 / 2)
    log = TrainLog()
    res = run_online(MH1, X, y, config, window=10, patience=5, log=log)
    assert len(res.growth_iterations) >= 1
    assert any(e[1] in ("expand", "escalate") for e in log.events)
