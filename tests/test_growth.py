"""Greedy basis growth: selection, expansion, batch and streaming runs."""

import copy
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwnn.growth as growth
from cwnn.growth import (GrowthConfig, WaveletPool, expand_into_next,
                         run_baseline_wnn, run_growth, run_online,
                         run_seed_phase, select_high_energy)
from cwnn.model import (DIVERGENCE_LIMIT, Design, TrainLog, TrainStatus,
                        TrainingDivergence, WaveletModel)
from cwnn.wavelets import (KIND, RES, TRANS, BasisKind, MotherWavelet,
                           basis_matrix, basis_set, build_center_grid)
from children_oracle import appended
from divergence_oracle import check_finite

MH1 = MotherWavelet.mexican_hat(1)


def small_config(**kw):
    base = dict(epsilon=1e-6, zeta=1e-10, mu=1 / 2, learning_rate=0.05,
                max_resolution=4, max_iters=20_000)
    base.update(kw)
    return GrowthConfig(**base)


def start_grid(m=1):
    """The lattice at resolution ``m`` over [0, 1] with a one-span
    margin, clamped at 0."""
    return build_center_grid(m, (0.0,), (1.0,), margin=1.0, clamp_low=(0.0,))


def start_pool(m=1):
    """An empty pool a run seeds at resolution ``m``."""
    return WaveletPool(MH1, start_grid(m))


def empty_pool(high=2.0):
    """An empty pool seeded on the lattice over [0, high]."""
    return WaveletPool(MH1, build_center_grid(0, (0.0,), (high,), margin=0.0))


def rows(bases):
    """A basis set's rows as tuples, for comparisons."""
    return [tuple(r) for r in bases.tolist()]


def details(pool, m):
    """The detail elements at resolution m, in model order, as a basis
    set."""
    b = pool.model.bases
    return b[(b[:, KIND] == BasisKind.WAVELET) & (b[:, RES] == m)]


def coeff(pool, b):
    """The coefficient of the element ``b`` (a row or a tuple)."""
    return pool.model.coeffs[rows(pool.model.bases).index(tuple(b))]


def pool_with_energies(energies):
    """A pool whose m=1 detail coefficients realize the given energies."""
    pool = empty_pool()
    pool.ensure_level(1)
    for b, e in zip(rows(details(pool, 1)), energies):
        pool.model.coeffs[rows(pool.model.bases).index(b)] = \
            np.sqrt(e / MH1.norm_sq)
    return pool


def window_losses(res):
    """The online run's loss after each window, from its log."""
    return [r[1] for r in res.log.records]


def growth_iterations(res):
    """The windows at which the online run grew, from its log."""
    return [e[0] for e in res.log.events if e[1] != "seed"]


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(mu=0.3)  # not a reciprocal of an integer
    with pytest.raises(ValueError):
        small_config(epsilon=-1.0)
    for max_iters in (0, -5):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            small_config(max_iters=max_iters)
    assert small_config(mu=1 / 4).n_phases == 4


@pytest.mark.parametrize("mu", [0.0, -0.5, -1.0, 2.0, 1e10, np.inf, np.nan,
                                5e-324])
def test_config_rejects_a_mu_that_is_no_positive_reciprocal(mu):
    # -0.5 would give n_phases -2, 1e10 and inf n_phases 0, 0 a bare
    # ZeroDivisionError and 5e-324 (whose reciprocal is inf) an
    # OverflowError
    with pytest.raises(ValueError, match="reciprocal of a positive integer"):
        small_config(mu=mu)


# -------------------------------------------------------------- selection

def test_select_prefix_by_cumulative_energy():
    pool = pool_with_energies([4.0, 3.0, 2.0, 1.0])
    chosen = select_high_energy(pool, 1, 0.5)
    es = sorted(round(coeff(pool, b) ** 2 * MH1.norm_sq) for b in chosen)
    assert es == [3, 4]  # 4 + 3 >= 0.5 * 10


def test_select_all_at_full_fraction():
    pool = pool_with_energies([4.0, 3.0, 2.0, 1.0])
    zero_free = [b for b in rows(details(pool, 1)) if coeff(pool, b) != 0.0]
    assert set(rows(select_high_energy(pool, 1, 1.0))) == set(zero_free)


def test_select_with_exclusion():
    pool = pool_with_energies([4.0, 3.0, 2.0, 1.0])
    top = select_high_energy(pool, 1, 0.5)[:1]
    chosen = select_high_energy(pool, 1, 0.5, exclude=top)
    es = sorted(round(coeff(pool, b) ** 2 * MH1.norm_sq) for b in chosen)
    assert es == [2, 3]  # from [3,2,1] until cumulative >= 5


def test_select_never_picks_zero_energy():
    pool = pool_with_energies([4.0, 0.0, 0.0, 1.0])
    chosen = select_high_energy(pool, 1, 1.0)
    assert all(coeff(pool, b) != 0.0 for b in chosen)


def test_phases_never_repeat_parents_and_cover_level():
    pool = pool_with_energies([5.0, 4.0, 3.0, 2.0, 1.0])
    mu = 1 / 3
    seen = pool.model.bases[:0]
    for k in range(1, 4):
        mu_up = 1.0 if k == 3 else k * mu
        batch = select_high_energy(pool, 1, mu_up, exclude=seen)
        assert not (set(rows(seen)) & set(rows(batch)))
        seen = np.concatenate([seen, batch])
    nonzero = {b for b in rows(details(pool, 1)) if coeff(pool, b) != 0.0}
    assert set(rows(seen)) == nonzero and len(seen) == len(nonzero)


# ------------------------------------------------------------------- pool

def test_selection_follows_the_model_after_repeated_adds():
    pool = empty_pool()
    level = pool.grid.at(1)
    wavelets = level.bases(BasisKind.WAVELET)
    scaling = level.bases(BasisKind.SCALING)
    assert rows(pool.add_bases(np.concatenate(
        [wavelets[::-1], wavelets[:2]]))) == rows(wavelets[::-1])
    assert rows(pool.add_bases(np.concatenate(
        [scaling, wavelets[::2]]))) == rows(scaling)
    assert rows(pool.add_bases(wavelets)) == []
    assert rows(pool.model.bases) == rows(wavelets[::-1]) + rows(scaling)
    # coefficients rise with the model position, so the ranking runs
    # back through the reversed details
    pool.model.coeffs[:] = np.arange(pool.model.n_params) + 0.5
    assert rows(select_high_energy(pool, 1, 1.0)) == rows(wavelets)
    assert len(select_high_energy(pool, 2, 1.0)) == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 3))
def test_add_bases_matches_the_dict_reference(data, d):
    # batches with repeats, within a batch and of the model's elements,
    # both kinds and a few resolutions: an append keeps each row's first
    # occurrence and skips the rows the model already has
    row = st.tuples(st.sampled_from(list(BasisKind)), st.integers(-1, 2),
                    st.tuples(*[st.integers(-2, 2)] * d))
    pool = WaveletPool(MotherWavelet.mexican_hat(d), build_center_grid(
        0, (0.0,) * d, (1.0,) * d, margin=0.0))
    for batch in data.draw(st.lists(st.lists(row, max_size=12),
                                    max_size=4)):
        bases = basis_set([m for _, m, _ in batch],
                          np.reshape([n for _, _, n in batch], (-1, d)),
                          [kind for kind, _, _ in batch])
        had = rows(pool.model.bases)
        want = appended(pool.model.bases, bases)
        assert rows(pool.add_bases(bases)) == want
        assert rows(pool.model.bases) == had + want
        assert pool.model.n_params == len(pool.model.coeffs)


# -------------------------------------------------------------- expansion

def test_expand_adds_children_and_dedups():
    pool = pool_with_energies([1.0] * 4)
    parents = details(pool, 1)[:2]  # adjacent centers
    before = pool.model.n_params
    added = expand_into_next(pool, parents)
    assert 0 < len(added) <= 2 * 2
    assert pool.model.n_params == before + len(added)
    assert all(added[:, RES] == 2)
    # idempotence: same parents again add nothing
    assert len(expand_into_next(pool, parents)) == 0


def test_expand_child_locality():
    pool = pool_with_energies([1.0] * 4)
    parents = details(pool, 1)
    added = expand_into_next(pool, parents)
    step = 2.0 ** -2
    for ch in added[:, TRANS] * 2.0 ** -2:
        d = np.min(np.abs(ch - parents[:, TRANS] * 2.0 ** -1))
        assert d <= step + 1e-12


def test_expand_requires_single_resolution():
    pool = pool_with_energies([1.0] * 4)
    pool.ensure_level(2)
    mixed = basis_set([1, 2], [(0,), (0,)])
    with pytest.raises(ValueError):
        expand_into_next(pool, mixed)


# ------------------------------------------------------------- batch runs

def _representable_target():
    # a detail element at m = 1, where start_pool() seeds
    pool = empty_pool()
    pool.ensure_level(1)
    b = details(pool, 1)[2]
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(60, 1))
    return X, basis_matrix(MH1, b[None], X)[:, 0]


def test_growth_representable_target_no_growth():
    config = small_config(epsilon=1e-5, learning_rate=0.1,
                          max_iters=50_000)
    X, y = _representable_target()
    res = run_growth(start_pool(), Design(X, y), config)
    assert res.status is TrainStatus.ACHIEVED
    assert res.final_loss <= config.epsilon
    assert [e[1] for e in res.log.events] == ["seed"]  # no expand/escalate


def test_growth_achieved_loss_bound_and_monotone_params():
    # a harder target forces expansion; params must never shrink
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = small_config(epsilon=5e-3, zeta=5e-6, learning_rate=0.05,
                          mu=1 / 3)
    res = run_growth(start_pool(), Design(X, y), config)
    log = res.log
    assert res.status is TrainStatus.ACHIEVED
    assert res.final_loss <= config.epsilon
    counts = [r[2] for r in log.records]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert any(e[1] == "expand" for e in log.events)


def test_growth_budget_status():
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(100, 1))
    y = np.sin(30.0 * X[:, 0])
    res = run_growth(start_pool(), Design(X, y),
                     small_config(epsilon=1e-9, max_iters=50))
    assert res.status is TrainStatus.BUDGET
    assert res.model.n_params > 0


def test_growth_resume_from_pool():
    config = small_config(epsilon=5e-3, zeta=5e-6, learning_rate=0.05)
    rng = np.random.default_rng(5)
    X1 = rng.uniform(0.0, 0.5, size=(120, 1))
    y1 = np.sin(6.0 * X1[:, 0])
    res1 = run_growth(start_pool(), Design(X1, y1), config)
    log = res1.log
    assert res1.status is TrainStatus.ACHIEVED
    n1 = res1.n_params

    X2 = rng.uniform(0.5, 1.0, size=(120, 1))
    y2 = np.sin(6.0 * X2[:, 0])
    X = np.vstack([X1, X2])
    y = np.concatenate([y1, y2])
    res2 = run_growth(res1, Design(X, y), config)
    assert res2 is res1 and res2.status is TrainStatus.ACHIEVED
    assert res2.n_params >= n1  # resumed, never reseeded smaller
    iters = [r[0] for r in log.records]
    assert iters == sorted(set(iters))  # one continuous log


def test_a_resumed_pool_grows_first_at_its_finest_basis_resolution():
    # a plateau gap every step meets: each phase trains two steps, so a
    # budget of two ends the first run right after its first expand
    # phase, growing at m = 1 one phase into its schedule and holding
    # children at m = 2; the resume restarts the schedule at m = 2 and
    # continues the pool's own log
    X, y = _rich_stream(48)
    config = small_config(epsilon=1e-12, zeta=1.0, mu=1 / 3, max_iters=2)
    pool = run_growth(start_pool(), Design(X, y), config)
    assert [e[1:3] for e in pool.log.events] == [("seed", 1), ("expand", 1)]
    assert (pool.m, pool.sweep) == (1, 1)
    assert pool.model.bases[:, RES].max() == 2
    records, events = list(pool.log.records), list(pool.log.events)
    grow, at_growth = growth._grow, []

    def spy(pool_, config_, whole_levels=False):
        at_growth.append((pool_.m, pool_.sweep))
        return grow(pool_, config_, whole_levels)

    with mock.patch.object(growth, "_grow", spy):
        assert run_growth(pool, Design(X, y), config) is pool
    assert at_growth == [(2, 0)]
    assert pool.log.records[:len(records)] == records
    assert pool.log.last_iteration > records[-1][0]
    assert pool.log.events[:len(events)] == events
    assert [e[1:3] for e in pool.log.events[len(events):]] == [("expand", 2)]
    assert (pool.m, pool.sweep) == (2, 1)


# ------------------------------------------------------------ forked runs

def _forked_problem(rows):
    """A target the seed level at m = 1 (10 bases) cannot meet, so runs
    expand and escalate after the seed phase: on 200 rows every phase
    trains in the Gram form, on 8 every phase trains in the residual
    form (p > N from the seed level on)."""
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(rows, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = small_config(epsilon=5e-3 if rows > 8 else 1e-4, zeta=5e-6,
                          learning_rate=0.05, mu=1 / 3)
    return X, y, config


def _assert_same_run(got, want):
    """Bit for bit: bases, coefficients, every record but its clock,
    events, expanded sets, resolution, schedule and status."""
    assert np.array_equal(got.model.bases, want.model.bases)
    assert np.array_equal(got.model.coeffs, want.model.coeffs)
    assert ([r[:3] for r in got.log.records]
            == [r[:3] for r in want.log.records])
    assert got.log.events == want.log.events
    assert np.array_equal(got.expanded, want.expanded)
    assert (got.m, got.sweep, got.status) == (want.m, want.sweep,
                                              want.status)


@pytest.mark.parametrize("rows", [200, 8], ids=["gram", "residual"])
def test_a_forked_pool_grows_as_an_unforked_one(rows):
    X, y, config = _forked_problem(rows)
    design = Design(X, y)
    seed = run_seed_phase(start_pool(), design, config)
    assert seed.status is TrainStatus.PLATEAU
    assert [e[1] for e in seed.log.events] == ["seed"]
    assert (design.gram is None) == (rows == 8)
    fork, twin = seed.fork(), design.fork()
    got = run_growth(fork, twin, config)
    assert got is fork and got.status is TrainStatus.ACHIEVED
    assert "escalate" in {e[1] for e in got.log.events}
    # the forked design synced on in the same form
    assert len(twin.blocks) > len(design.blocks)
    assert (twin.gram is None) == (rows == 8)
    _assert_same_run(got, run_growth(start_pool(), Design(X, y), config))


@pytest.mark.parametrize("rows", [200, 8], ids=["gram", "residual"])
def test_training_a_fork_leaves_its_parent_untouched(rows):
    # two forks grown in turn, as a sweep grows them, on two schedules
    X, y, config = _forked_problem(rows)
    design = Design(X, y)
    seed = run_seed_phase(start_pool(), design, config)
    before = copy.deepcopy(seed)
    bases, blocks = design.bases.copy(), list(design.blocks)
    held = [blk.copy() for blk in blocks]
    gram, b = design.gram, design.b
    gram_was = None if gram is None else (gram.copy(), b.copy())
    for mu in (1 / 2, 1 / 3):
        fork = run_growth(seed.fork(), design.fork(),
                          replace(config, mu=mu))
        assert fork.n_params > seed.n_params
    _assert_same_run(seed, before)
    assert seed.log.records == before.log.records  # the clock too
    assert np.array_equal(design.bases, bases)
    assert len(design.blocks) == len(blocks)
    for blk, was, copied in zip(design.blocks, blocks, held):
        assert blk is was and np.array_equal(blk, copied)
    assert design.gram is gram and design.b is b
    if gram is not None:
        assert np.array_equal(gram, gram_was[0])
        assert np.array_equal(b, gram_was[1])


def test_a_pool_fork_copies_what_a_run_writes_in_place():
    # a pool with an expanded set, whose fork is changed everywhere a
    # run changes a pool
    X, y = _rich_stream(48)
    pool = run_growth(start_pool(), Design(X, y), small_config(
        epsilon=1e-12, zeta=1.0, mu=1 / 3, max_iters=2))
    assert len(pool.expanded)
    before = copy.deepcopy(pool)
    fork = pool.fork()
    fork.add_bases(basis_set(3, [(0,)]))
    fork.model.coeffs[0] += 1.0
    fork.log.append(0.5, fork.n_params)
    fork.log.add_event("expand", 2, 1)
    fork.expanded = np.concatenate([fork.expanded, pool.model.bases[:1]])
    fork.m, fork.sweep, fork.status = 3, 2, TrainStatus.ACHIEVED
    _assert_same_run(pool, before)
    assert fork.model.mother is pool.model.mother and fork.grid is pool.grid


def test_runs_refuse_a_pool_they_cannot_start_from():
    # a pool above the cap, for every run; a pool that holds bases, for
    # the two runs that only start afresh (run_growth resumes it)
    X, y = _rich_stream(48)
    config = small_config(max_resolution=1)
    runs = {"growth": lambda pool: run_growth(pool, Design(X, y), config),
            "baseline": lambda pool: run_baseline_wnn(pool, Design(X, y),
                                                      config),
            "online": lambda pool: run_online(pool, Design(X, y), config,
                                              window=4, patience=1)}
    for run in runs.values():
        pool = start_pool(2)
        with pytest.raises(ValueError, match="above max_resolution 1"):
            run(pool)
        assert (len(pool.model.bases), pool.log.events) == (0, [])
    held = run_growth(start_pool(), Design(X, y), small_config(max_iters=2))
    state = (rows(held.model.bases), list(held.log.records),
             list(held.log.events))
    for name in ("baseline", "online"):
        with pytest.raises(ValueError, match="empty pool"):
            runs[name](held)
        assert (rows(held.model.bases), held.log.records,
                held.log.events) == state


def test_baseline_escalates_whole_levels_and_is_deterministic():
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = small_config(epsilon=5e-3, zeta=5e-6, learning_rate=0.05)
    logs = []
    for _ in range(2):
        res = run_baseline_wnn(start_pool(), Design(X, y), config)
        log = res.log
        assert res.status is TrainStatus.ACHIEVED
        logs.append((list(log.events),
                     [(it, ls, np_) for it, ls, np_, _ in log.records]))
    assert logs[0] == logs[1]
    events = [e[1] for e in logs[0][0]]
    assert events[0] == "seed" and all(e == "escalate" for e in events[1:])


# --------------------------------------------------------- streaming runs

def test_online_constant_zero_stream_never_grows():
    X = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
    res = run_online(start_pool(), Design(X, np.zeros(50)),
                     small_config(epsilon=1e-4), window=10, patience=3)
    assert growth_iterations(res) == []
    assert max(window_losses(res)) == 0.0


def test_online_refuses_an_empty_stream_before_seeding():
    # it seeded the pool and returned with no window run
    pool = start_pool()
    with pytest.raises(ValueError, match="empty batch"):
        run_online(pool, Design(np.zeros((0, 1)), np.zeros(0)),
                   small_config(), window=4, patience=1)
    assert (pool.n_params, pool.log.records, pool.log.events) == (0, [], [])


@pytest.mark.parametrize("window, patience, name", [
    (0, 1, "window"), (4, 0, "patience"), (-1, 3, "window")])
def test_online_refuses_a_window_or_patience_below_one(window, patience,
                                                      name):
    # refused before the pool is seeded
    pool = start_pool()
    X = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        run_online(pool, Design(X, np.zeros(8)), small_config(),
                   window=window, patience=patience)
    assert (pool.n_params, pool.log.records, pool.log.events) == (0, [], [])


def test_online_window_one_runs_per_sample():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(25, 1))
    y = np.sin(3.0 * X[:, 0])
    res = run_online(start_pool(), Design(X, y), small_config(epsilon=1e-4),
                     window=1, patience=5)
    assert len(window_losses(res)) == 25
    assert len(res.log.records) == 25


def test_online_short_stream_partial_phase():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(6, 1))
    y = np.sin(3.0 * X[:, 0])
    res = run_online(start_pool(), Design(X, y), small_config(), window=10,
                     patience=5)
    assert len(window_losses(res)) == 1  # one partial window, clean exit
    assert growth_iterations(res) == []


def test_online_plateau_triggers_growth():
    # a target too rich for the seed level with a tiny epsilon: the
    # rolling loss stalls above target and growth must fire
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(400, 1))
    y = np.sin(14.0 * X[:, 0])
    config = small_config(epsilon=1e-5, learning_rate=0.02, mu=1 / 2)
    res = run_online(start_pool(), Design(X, y), config, window=10,
                     patience=5)
    assert len(growth_iterations(res)) >= 1
    assert any(e[1] in ("expand", "escalate") for e in res.log.events)


class OnlineRecord(NamedTuple):
    """What the reference loop returns: the model, the loss after each
    window and the windows at which it grew."""
    model: WaveletModel
    window_losses: list
    growth_iterations: list


def _reference_online(mother, grid, X, y, config, window=10, patience=40,
                      improvement=0.02, log=None):
    """The windowed loop as it stood before run_online shared the growth
    phase and Design.step, seeded at the resolution of ``grid``: psi per
    window, its own gradient step, and a copied block for the short last
    window.  Growth follows the resolution cap rule: no phase runs at
    ``max_resolution``."""
    log = log if log is not None else TrainLog()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    pool = WaveletPool(mother, grid)
    m = grid.m
    added = pool.ensure_level(m)
    log.add_event("seed", m, added)
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
        check_finite(pool.model, step, last_good)
        resid = yw - psi @ pool.model.coeffs
        lw = float(np.mean(resid * resid))
        losses.append(lw)
        log.append(lw, pool.model.n_params)
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
                parents = select_high_energy(pool, m, mu_up, pool.expanded)
                new = expand_into_next(pool, parents)
                pool.expanded = np.concatenate([pool.expanded, parents])
                log.add_event("expand", m, len(new))
                growth_iters.append(step)
            elif m < config.max_resolution:
                m += 1
                new = pool.ensure_level(m)
                sweep = 0
                log.add_event("escalate", m, new)
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
        check_finite(pool.model, step, last_good)
        resid = yw - psi @ pool.model.coeffs
        losses.append(float(np.mean(resid * resid)))
        log.append(losses[-1], pool.model.n_params)
    return OnlineRecord(pool.model, losses, growth_iters)


def _rich_stream(rows):
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(rows, 1))
    return X, np.sin(14.0 * X[:, 0])


def _online_both_ways(window):
    X, y = _rich_stream(8 * 80 + 4)
    config = small_config(epsilon=1e-5, learning_rate=0.02, max_resolution=2)
    kw = dict(window=window, patience=3)
    ref_log = TrainLog()
    res = run_online(start_pool(), Design(X, y), config, **kw)
    log = res.log
    ref = _reference_online(MH1, start_grid(), X, y, config, log=ref_log,
                            **kw)
    # the stream grew up to the resolution cap and ended on a short window
    assert ("escalate", config.max_resolution) in {e[1:3] for e in log.events}
    assert res.model.bases[:, RES].max() == config.max_resolution
    assert isinstance(res, WaveletPool) and res.status is TrainStatus.BUDGET
    assert len(y) % window and len(window_losses(res)) == -(-len(y) // window)
    assert log.last_iteration == len(window_losses(res))
    assert log.events == ref_log.events
    assert growth_iterations(res) == ref.growth_iterations
    assert [r[::2] for r in log.records] == [r[::2] for r in ref_log.records]
    assert np.array_equal(res.model.bases, ref.model.bases)
    return res, log, ref, ref_log


def test_online_matches_the_reference_loop_bit_for_bit():
    # windows of 8 rows and a last one of 4: both sizes are powers of two,
    # so the reference's lr * (2 / N) and the shared lr * 2 / N are the
    # same double, and the seed level's 10 bases exceed the window, so
    # each window's design runs the residual form, as the reference does
    res, log, ref, ref_log = _online_both_ways(8)
    assert [r[1] for r in log.records] == [r[1] for r in ref_log.records]
    assert window_losses(res) == ref.window_losses
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


# -------------------------------------------------------------- run logs

def _logged_run(name, pool, learning_rate=None):
    """Run ``name`` on ``pool`` with a target that makes it grow; returns
    the pool and the rows of its last call.  ``resumed`` grows the pool
    on half the interval and resumes it on both halves; ``online`` ends
    on a short window.  A ``learning_rate`` replaces the last call's."""
    rate = {} if learning_rate is None else {"learning_rate": learning_rate}
    if name == "online":
        X, y = _rich_stream(8 * 80 + 4)
        config = small_config(epsilon=1e-5, learning_rate=0.02,
                              max_resolution=2)
        return (run_online(pool, Design(X, y), replace(config, **rate),
                           window=8, patience=3), X, y)
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(240, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = small_config(epsilon=1e-3, zeta=5e-6, mu=1 / 3,
                          learning_rate=0.05)
    if name == "resumed":
        first = X[:, 0] < 0.5
        run_growth(pool, Design(X[first], y[first]), config)
    run = run_baseline_wnn if name == "baseline" else run_growth
    return run(pool, Design(X, y), replace(config, **rate)), X, y


def _assert_numbered(log):
    """Records numbered 1..n with no gap, and every event stamped at a
    record number: the seed at 0, a growth phase after a step."""
    n = log.last_iteration
    assert [r[0] for r in log.records] == list(range(1, n + 1))
    stamps = [e[0] for e in log.events]
    assert stamps == sorted(stamps) and stamps[-1] <= n
    assert [e[0] for e in log.events if e[1] == "seed"] == [0]
    assert all(e[0] >= 1 for e in log.events if e[1] != "seed")


@pytest.mark.parametrize("name", ["fresh", "resumed", "baseline", "online"])
def test_every_run_logs_each_committed_step_once(name):
    with mock.patch.object(Design, "step", autospec=True,
                           side_effect=Design.step) as step:
        pool, X, y = _logged_run(name, start_pool())
    log = pool.log
    _assert_numbered(log)
    assert log.last_iteration == step.call_count  # none refused
    assert len(log.events) > 2  # the run grew
    if name == "online":
        assert len(y) % 8 and log.last_iteration == -(-len(y) // 8)
    # a step past the coefficient limit is refused and recorded nowhere
    design = Design(X, y)
    design.sync(pool.model)
    records, coeffs = list(log.records), pool.model.coeffs.copy()
    with pytest.raises(TrainingDivergence, match=(
            f"^training diverged at iteration {log.last_iteration + 1}$")):
        design.step(pool.model, DIVERGENCE_LIMIT * len(y),
                    np.ones(pool.model.n_params), log)
    assert log.records == records
    np.testing.assert_array_equal(pool.model.coeffs, coeffs)


@pytest.mark.parametrize("name", ["fresh", "resumed", "baseline", "online"])
def test_a_diverging_run_names_the_step_after_its_last_record(name):
    # the run stops at the step it refuses, a few steps in; the steps it
    # committed before are in its log, numbered as ever
    pool = start_pool()
    with pytest.raises(TrainingDivergence) as got:
        _logged_run(name, pool, learning_rate=50.0)
    _assert_numbered(pool.log)
    assert pool.log.last_iteration >= 1
    assert str(got.value) == (f"training diverged at iteration "
                              f"{pool.log.last_iteration + 1}")


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
        res = run(start_pool(), Design(X, y), config)
        log = res.log
        assert res.status is TrainStatus.BUDGET
        assert res.m == config.max_resolution
        assert log.last_iteration < config.max_iters
        assert max(e[2] for e in log.events) == config.max_resolution
        assert res.model.bases[:, RES].max() == config.max_resolution


def test_a_capped_run_leaves_its_record_in_the_pool():
    # the returned pool holds the run's own log, the cap it stopped at as
    # its resolution, and its status
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    y = np.sin(30.0 * X[:, 0])
    config = small_config(epsilon=1e-9, zeta=1e-4, max_resolution=2,
                          max_iters=10 ** 6)
    for run in (run_growth, run_baseline_wnn):
        pool = run(start_pool(), Design(X, y), config)
        assert isinstance(pool, WaveletPool)
        assert (pool.m, pool.sweep) == (config.max_resolution, 0)
        assert pool.status is TrainStatus.BUDGET
        assert pool.log.events[0][1] == "seed"
        assert pool.log.events[-1][1:3] == ("escalate", config.max_resolution)
        assert pool.final_loss == pool.log.records[-1][1]
        assert pool.n_params == pool.model.n_params == pool.log.records[-1][2]
        # at the cap the schedule is spent: a phase grows and logs nothing
        before = (pool.m, pool.sweep, pool.n_params, list(pool.log.events))
        assert growth._grow(pool, config) is False
        assert (pool.m, pool.sweep, pool.n_params, pool.log.events) == before


def test_baseline_seeds_at_a_cap_below_its_start():
    # a pool at a cap under the baseline's usual start (the command line's
    # BASELINE_START_M): the baseline seeds at the cap and never holds a
    # basis past it
    X, y = _rich_stream(48)
    config = small_config(epsilon=1e-12, zeta=1.0, max_resolution=0,
                          max_iters=200)
    res = run_baseline_wnn(start_pool(0), Design(X, y), config)
    assert res.status is TrainStatus.BUDGET
    assert res.m == 0
    assert [e[1:3] for e in res.log.events] == [("seed", 0)]
    assert res.model.bases[:, RES].max() == 0


def test_online_streams_past_the_resolution_cap():
    X, y = _rich_stream(8 * 80 + 4)
    kw = dict(window=8, patience=3)
    capped = small_config(epsilon=1e-5, learning_rate=0.02, max_resolution=1)
    res = run_online(start_pool(), Design(X, y), capped, **kw)
    log = res.log
    # seeded at the cap, the run never grows; every window is still
    # trained and recorded
    assert [e[1:3] for e in log.events] == [("seed", 1)]
    assert growth_iterations(res) == []
    assert all(res.model.bases[:, RES] == 1)
    assert len(window_losses(res)) == 81 and log.last_iteration == 81
    # with room to grow the same stream grows, so plateaus did fire at
    # the cap and logged nothing
    roomy = small_config(epsilon=1e-5, learning_rate=0.02, max_resolution=2)
    free = run_online(start_pool(), Design(X, y), roomy, **kw)
    assert free.log.events[0] == log.events[0]
    assert growth_iterations(free)


# ------------------------------------------------------ pool properties

# energies of the five m=1 detail elements of ``pool_with_energies``;
# a few repeated values make ranking ties common
ENERGIES = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                              st.floats(1e-3, 10.0)),
                    min_size=5, max_size=5)
FRACTIONS = st.floats(0.01, 1.0)


def level_energies(pool, m=1):
    norm = pool.model.mother.norm_sq
    return {b: coeff(pool, b) ** 2 * norm for b in rows(details(pool, m))}


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
    shuffled = empty_pool()
    shuffled.add_bases(pool.model.bases[list(order)])
    for pos, b in enumerate(rows(pool.model.bases)):
        shuffled.model.coeffs[rows(shuffled.model.bases).index(b)] = \
            pool.model.coeffs[pos]
    first = rows(select_high_energy(pool, 1, mu_up))
    assert rows(select_high_energy(pool, 1, mu_up)) == first
    assert rows(select_high_energy(shuffled, 1, mu_up)) == first


@settings(max_examples=80, deadline=None)
@given(energies=ENERGIES, mu_up=FRACTIONS,
       excluded=st.lists(st.booleans(), min_size=5, max_size=5))
def test_selection_captures_its_fraction_when_it_can(energies, mu_up,
                                                     excluded):
    pool = pool_with_energies(energies)
    energy = level_energies(pool)
    exclude = {b for b, out in zip(energy, excluded) if out}
    total = sum(energy.values())
    chosen = rows(select_high_energy(
        pool, 1, mu_up, basis_set(1, [b[TRANS] for b in exclude] or
                                  np.zeros((0, 1), int))))
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

    pool.m = 1
    with mock.patch.object(growth, "select_high_energy", spy):
        for _ in range(n_phases):
            assert growth._grow(pool, config) is True
    assert (pool.m, pool.sweep) == (1, n_phases) and len(picked) == n_phases
    parents = [b for batch in picked for b in rows(batch)]
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
                          max_resolution=cap, max_iters=200)
    X, y = _rich_stream(48)
    pool = start_pool(min(start, cap))
    if run == "online":
        res = run_online(pool, Design(X, y), config, window=4, patience=1)
    else:
        runner = run_growth if run == "growth" else run_baseline_wnn
        res = runner(pool, Design(X, y), config)
    assert res.model.bases[:, RES].max() <= cap
