"""Greedy basis growth: selection, expansion, batch and streaming runs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwnn.growth as growth
from cwnn.growth import (GrowthConfig, OnlineResult, WaveletPool,
                         expand_into_next, run_baseline_wnn, run_growth,
                         run_online, select_high_energy)
from cwnn.model import (DIVERGENCE_LIMIT, TrainLog, TrainStatus,
                        TrainingDivergence)
from cwnn.wavelets import (BasisIndex, BasisKind, MotherWavelet, basis_matrix,
                           build_center_grid, eval_basis)

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


def _check_finite(model, iteration, last_good):
    """The divergence check as the windowed loop ran it before
    ``Design.step``: non-finite or huge coefficients restore
    ``last_good`` and raise."""
    c = model.coeffs
    if (not np.all(np.isfinite(c))
            or np.max(np.abs(c), initial=0.0) > DIVERGENCE_LIMIT):
        model.coeffs = last_good
        raise TrainingDivergence(f"training diverged at iteration {iteration}")


def _reference_online(mother, X, y, config, window=10, patience=40,
                      improvement=0.02, log=None):
    """The windowed loop as it stood before run_online shared the growth
    phase and Design.step: psi per window, its own gradient step, and a
    copied block for the short last window.  Growth follows the
    resolution cap rule: no phase runs at ``max_resolution``."""
    log = log if log is not None else TrainLog()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    grid = build_center_grid(max(config.m_init, 0), config.domain_low,
                             config.domain_high, config.margin,
                             config.clamp_low)
    pool = WaveletPool(mother, grid.low, grid.high)
    m = config.m_init
    added = pool.ensure_level(m)
    log.add_event(log.last_iteration, "seed", m, added)
    sweep = 0
    losses = []
    best_roll = np.inf
    best_at = 0
    growth_iters = []
    step = 0
    n_windows = len(y) // window
    for w in range(n_windows):
        sl = slice(w * window, (w + 1) * window)
        Xw, yw = X[sl], y[sl]
        psi = basis_matrix(mother, pool.model.bases, Xw)
        last_good = pool.model.coeffs.copy()
        resid = yw - psi @ pool.model.coeffs
        pool.model.coeffs += config.learning_rate * (2.0 / len(yw)) * (psi.T @ resid)
        step += 1
        _check_finite(pool.model, step, last_good)
        resid = yw - psi @ pool.model.coeffs
        lw = float(np.mean(resid * resid))
        losses.append(lw)
        log.append(step, lw, pool.model.n_params)
        roll = float(np.mean(losses[-patience:]))
        if np.isinf(best_roll):
            best_roll = roll
            best_at = w
        elif roll < best_roll - max(config.zeta, improvement * best_roll):
            best_roll = roll
            best_at = w
        if roll > config.epsilon and (w - best_at) >= patience:
            if m < config.max_resolution and sweep < config.n_phases:
                sweep += 1
                mu_up = 1.0 if sweep == config.n_phases else sweep * config.mu
                parents = select_high_energy(pool, m, mu_up, pool.expanded[m])
                new = expand_into_next(pool, parents)
                pool.expanded[m].update(parents)
                log.add_event(step, "expand", m, len(new))
                growth_iters.append(step)
            elif m < config.max_resolution:
                m += 1
                new = pool.ensure_level(m)
                sweep = 0
                log.add_event(step, "escalate", m, new)
                growth_iters.append(step)
            best_roll = roll
            best_at = w
    rem = len(y) - n_windows * window
    if rem:
        Xw, yw = X[n_windows * window:], y[n_windows * window:]
        psi = basis_matrix(mother, pool.model.bases, Xw)
        last_good = pool.model.coeffs.copy()
        resid = yw - psi @ pool.model.coeffs
        pool.model.coeffs += config.learning_rate * (2.0 / len(yw)) * (psi.T @ resid)
        step += 1
        _check_finite(pool.model, step, last_good)
        resid = yw - psi @ pool.model.coeffs
        losses.append(float(np.mean(resid * resid)))
        log.append(step, losses[-1], pool.model.n_params)
    return OnlineResult(pool.model, log, losses, growth_iters)


def _rich_stream(rows):
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(rows, 1))
    return X, np.sin(14.0 * X[:, 0])


def _online_both_ways(window):
    X, y = _rich_stream(8 * 80 + 4)
    config = small_config(epsilon=1e-5, learning_rate=0.02, max_resolution=2)
    kw = dict(window=window, patience=3)
    log, ref_log = TrainLog(), TrainLog()
    res = run_online(MH1, X, y, config, log=log, **kw)
    ref = _reference_online(MH1, X, y, config, log=ref_log, **kw)
    # the stream grew up to the resolution cap and ended on a short window
    assert ("escalate", config.max_resolution) in {e[1:3] for e in log.events}
    assert max(b.m for b in res.model.bases) == config.max_resolution
    assert len(y) % window and len(res.window_losses) == -(-len(y) // window)
    assert log.last_iteration == len(res.window_losses)
    assert log.events == ref_log.events
    assert res.growth_iterations == ref.growth_iterations
    assert [r[::2] for r in log.records] == [r[::2] for r in ref_log.records]
    assert res.model.bases == ref.model.bases
    return res, log, ref, ref_log


def test_online_matches_the_reference_loop_bit_for_bit():
    # windows of 8 rows and a last one of 4: both sizes are powers of two,
    # so the reference's lr * (2 / N) and the shared lr * 2 / N are the
    # same double, and the seed level's 10 bases exceed the window, so
    # each window's design runs the residual form, as the reference does
    res, log, ref, ref_log = _online_both_ways(8)
    assert [r[1] for r in log.records] == [r[1] for r in ref_log.records]
    assert res.window_losses == ref.window_losses
    assert np.array_equal(res.model.coeffs, ref.model.coeffs)


def test_online_matches_the_reference_loop_when_rounding_differs():
    # windows of 10: lr * (2 / 10) and lr * 2 / 10 differ in the last
    # bit, and the 10 seed bases fit the window, so the first windows
    # step on the Gram form; the tolerances are the batch runs' Gram
    # against residual ones
    res, log, ref, ref_log = _online_both_ways(10)
    losses = np.array([r[1] for r in log.records])
    ref_losses = np.array([r[1] for r in ref_log.records])
    assert np.max(np.abs(losses - ref_losses)) <= 1e-12
    np.testing.assert_allclose(res.model.coeffs, ref.model.coeffs, rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(ref.model.coeffs)))


# ------------------------------------------------------- resolution cap

def test_batch_runs_stop_at_the_resolution_cap():
    # an unreachable target with a loose plateau gap: growth keeps firing
    # until the cap, long before the iteration budget
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    y = np.sin(30.0 * X[:, 0])
    config = small_config(epsilon=1e-9, zeta=1e-4, max_resolution=2,
                          max_iters=10 ** 6)
    for run in (run_growth, run_baseline_wnn):
        log = TrainLog()
        res = run(MH1, X, y, config, log)
        assert res.status is TrainStatus.BUDGET
        assert res.final_resolution == config.max_resolution
        assert log.last_iteration < config.max_iters
        assert max(e[2] for e in log.events) == config.max_resolution
        assert max(b.m for b in res.model.bases) == config.max_resolution


def test_baseline_seeds_at_a_cap_below_its_start():
    # a cap under BASELINE_START_M: the baseline seeds at the cap and
    # never holds a basis past it
    assert growth.BASELINE_START_M > 0
    X, y = _rich_stream(48)
    config = small_config(epsilon=1e-12, zeta=1.0, m_init=0,
                          max_resolution=0, max_iters=200)
    log = TrainLog()
    res = run_baseline_wnn(MH1, X, y, config, log)
    assert res.status is TrainStatus.BUDGET
    assert res.final_resolution == 0
    assert [e[1:3] for e in log.events] == [("seed", 0)]
    assert max(b.m for b in res.model.bases) == 0


def test_online_streams_past_the_resolution_cap():
    X, y = _rich_stream(8 * 80 + 4)
    kw = dict(window=8, patience=3)
    capped = small_config(epsilon=1e-5, learning_rate=0.02, max_resolution=1)
    log = TrainLog()
    res = run_online(MH1, X, y, capped, log=log, **kw)
    # seeded at the cap, the run never grows; every window is still
    # trained and recorded
    assert [e[1:3] for e in log.events] == [("seed", 1)]
    assert res.growth_iterations == []
    assert all(b.m == 1 for b in res.model.bases)
    assert len(res.window_losses) == 81 and log.last_iteration == 81
    # with room to grow the same stream grows, so plateaus did fire at
    # the cap and logged nothing
    roomy = small_config(epsilon=1e-5, learning_rate=0.02, max_resolution=2)
    free_log = TrainLog()
    free = run_online(MH1, X, y, roomy, log=free_log, **kw)
    assert free_log.events[0] == log.events[0]
    assert free.growth_iterations


# ------------------------------------------------------ pool properties

# energies of the five m=1 detail elements of ``pool_with_energies``;
# a few repeated values make ranking ties common
ENERGIES = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                              st.floats(1e-3, 10.0)),
                    min_size=5, max_size=5)
FRACTIONS = st.floats(0.01, 1.0)


def level_energies(pool, m=1):
    norm = pool.model.mother.norm_sq
    return {b: c * c * norm for b, c in pool.detail_items(m)}


@settings(max_examples=40, deadline=None)
@given(energies=ENERGIES, signs=st.lists(st.sampled_from([-1.0, 1.0]),
                                         min_size=5, max_size=5))
def test_appending_bases_leaves_predictions_unchanged(energies, signs):
    pool = pool_with_energies(energies)
    pool.model.coeffs[:] *= np.resize(signs, pool.model.n_params)
    X = np.linspace(-0.5, 2.5, 41).reshape(-1, 1)
    before = pool.model.predict(X)
    expand_into_next(pool, select_high_energy(pool, 1, 1.0))
    pool.ensure_level(2)
    assert pool.model.n_params > 10
    np.testing.assert_allclose(pool.model.predict(X), before, rtol=0.0,
                               atol=1e-12 * max(1.0, np.abs(before).max()))


@settings(max_examples=60, deadline=None)
@given(energies=ENERGIES, mu_up=FRACTIONS,
       order=st.permutations(range(10)))
def test_selection_is_deterministic(energies, mu_up, order):
    # the same coefficients give the same selection, in the same order,
    # whatever order the pool received its bases in
    pool = pool_with_energies(energies)
    shuffled = WaveletPool(MH1, (0.0,), (2.0,))
    shuffled.add_bases([pool.model.bases[i] for i in order])
    for b, pos in pool._pos.items():
        shuffled.model.coeffs[shuffled._pos[b]] = pool.model.coeffs[pos]
    first = select_high_energy(pool, 1, mu_up)
    assert select_high_energy(pool, 1, mu_up) == first
    assert select_high_energy(shuffled, 1, mu_up) == first


@settings(max_examples=80, deadline=None)
@given(energies=ENERGIES, mu_up=FRACTIONS,
       excluded=st.lists(st.booleans(), min_size=5, max_size=5))
def test_selection_captures_its_fraction_when_it_can(energies, mu_up,
                                                     excluded):
    pool = pool_with_energies(energies)
    energy = level_energies(pool)
    exclude = {b for b, out in zip(energy, excluded) if out}
    total = sum(energy.values())
    chosen = select_high_energy(pool, 1, mu_up, exclude)
    assert not exclude & set(chosen)
    assert all(energy[b] > 0.0 for b in chosen)
    free = sum(e for b, e in energy.items() if b not in exclude)
    if free >= mu_up * total:
        captured = sum(energy[b] for b in chosen)
        assert captured >= mu_up * total - 1e-12 * total


@settings(max_examples=40, deadline=None)
@given(energies=ENERGIES, n_phases=st.integers(1, 4))
def test_growth_phases_never_reuse_a_parent(energies, n_phases):
    # a full schedule of the growth phase at one level: every phase
    # picks fresh parents, and together they cover the level's energy
    config = small_config(mu=1 / n_phases)
    pool = pool_with_energies(energies)
    picked = []

    def spy(*args, **kwargs):
        picked.append(select_high_energy(*args, **kwargs))
        return picked[-1]

    m, sweep = 1, 0
    with mock.patch.object(growth, "select_high_energy", spy):
        for _ in range(n_phases):
            m, sweep = growth._grow(pool, m, sweep, config, TrainLog())
    assert (m, sweep) == (1, n_phases) and len(picked) == n_phases
    parents = [b for batch in picked for b in batch]
    assert len(parents) == len(set(parents))
    assert set(parents) == {b for b, e in level_energies(pool).items()
                            if e > 0.0}


@settings(max_examples=15, deadline=None)
@given(cap=st.integers(1, 3), start=st.integers(0, 3),
       n_phases=st.integers(1, 3),
       run=st.sampled_from(["growth", "baseline", "online"]))
def test_no_run_adds_a_basis_past_the_cap(cap, start, n_phases, run):
    # an unreachable target and a plateau gap every step meets: growth
    # fires at every chance until the cap stops it
    config = small_config(epsilon=1e-12, zeta=1.0, mu=1 / n_phases,
                          m_init=min(start, cap), max_resolution=cap,
                          max_iters=200)
    X, y = _rich_stream(48)
    if run == "online":
        res = run_online(MH1, X, y, config, window=4, patience=1)
    else:
        runner = run_growth if run == "growth" else run_baseline_wnn
        res = runner(MH1, X, y, config)
    assert max(b.m for b in res.model.bases) <= cap
