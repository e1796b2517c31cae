"""Constructive network growth: seed at the estimated resolution, train to
a plateau, then expand capacity where the energy sits.

Each growth phase selects the highest-energy detail elements at the
current resolution (an increasing energy fraction mu, 2*mu, ..., 1 across
phases), adds the next-resolution elements nearest to their centers, and
retrains.  Once the fraction schedule is exhausted the whole next level is
seeded and the schedule restarts there.  A non-constructive baseline that
escalates full detail grids level by level is included for comparison, as
is a windowed online variant that triggers the same growth phases on a
sustained loss plateau.  Each run grows the pool it is given, seeded on
the caller's start lattice (``run_growth`` resumes a pool that holds
bases), through ``_grow``, and returns it: the run's model, log,
resolution and status.  Every run trains on its caller's ``Design``,
the batch runs in one train-to-plateau loop, each step ``Design.step``.
A run paused at its first plateau (``run_seed_phase``) can be forked,
pool and design, and each fork grown on as a run of its own: the sweep
over mu trains that seed phase once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .model import (Design, TrainLog, TrainStatus, WaveletModel,
                    train_to_plateau)
from .wavelets import (KIND, RES, TRANS, BasisKind, CenterGrid,
                       MotherWavelet, _fresh, basis_set, children_centers)

# relative drop in the online rolling loss that counts as improvement
ONLINE_IMPROVEMENT = 0.02


@dataclass
class GrowthConfig:
    """Knobs for a growth run.  ``epsilon`` is the loss target, ``zeta``
    the plateau threshold, ``mu`` the per-phase energy fraction (must be a
    reciprocal of a positive integer), ``max_iters`` at least 1."""

    epsilon: float
    zeta: float
    mu: float
    learning_rate: float
    max_resolution: int
    max_iters: int

    def __post_init__(self):
        if self.epsilon <= 0 or self.zeta <= 0 or self.learning_rate <= 0:
            raise ValueError("epsilon, zeta and learning_rate must be positive")
        inv = 1.0 / self.mu if self.mu > 0 else 0.0  # nan fails here too
        if not (0.5 < inv < np.inf and abs(inv - round(inv)) <= 1e-9):
            raise ValueError(f"mu must be the reciprocal of a positive "
                             f"integer, got {self.mu}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, "
                             f"got {self.max_iters}")

    @property
    def n_phases(self) -> int:
        return int(round(1.0 / self.mu))


class WaveletPool:
    """A growth run's record: the growing ``model``, whose basis set holds
    its elements, the start ``grid`` whose bounds every level's lattice
    shares, the run's ``log``, the resolution ``m`` it grows at, the
    ``sweep`` of phases run there, the ``status`` and ``final_loss`` it
    ended with, and the parents ``expanded`` so far (a basis set), so
    phases pick fresh ones."""

    def __init__(self, mother: MotherWavelet, grid: CenterGrid):
        self.model = WaveletModel.zeros(
            mother, basis_set(grid.m, np.zeros((0, grid.dim), int)))
        self.grid = grid
        self.log = TrainLog()
        self.m = grid.m
        self.sweep = 0
        self.status = None
        self.final_loss = float("nan")
        self.expanded = self.model.bases

    def fork(self) -> "WaveletPool":
        """A pool that grows on from this one's state and leaves it as it
        is: its own coefficients and log (``TrainLog.fork``); the basis
        sets it shares are replaced as a run grows, never written into."""
        twin = copy.copy(self)
        twin.model = replace(self.model, coeffs=self.model.coeffs.copy())
        twin.log = self.log.fork()
        return twin

    @property
    def n_params(self) -> int:
        return self.model.n_params

    @property
    def finest_m(self) -> int:
        """The finest resolution of the pool's bases, where ``run_growth``
        resumes it."""
        return int(self.model.bases[:, RES].max())

    def add_bases(self, bases) -> np.ndarray:
        """Append the rows of the basis set ``bases`` that the model lacks
        (first occurrence kept); returns them as a basis set."""
        new = bases[_fresh(bases, self.model.bases)]
        self.model.append_bases(new)
        return new

    def ensure_level(self, m: int) -> int:
        """Add the full scaling and detail grids at resolution ``m``;
        returns how many elements were new."""
        grid = self.grid.at(m)
        return (len(self.add_bases(grid.bases(BasisKind.SCALING)))
                + len(self.add_bases(grid.bases(BasisKind.WAVELET))))


def select_high_energy(pool: WaveletPool, m: int, mu_up: float,
                       exclude=None) -> np.ndarray:
    """Highest-energy detail elements at resolution ``m`` holding a
    ``mu_up`` fraction of the level's total energy, in rank order.

    Elements already used as parents (rows of the basis set ``exclude``)
    are skipped but still count toward the total, so successive phases
    with growing ``mu_up`` reach deeper into the energy ranking.
    Zero-energy elements are never selected.  Ordering ties break on the
    translation, so selection is deterministic.
    """
    bases = pool.model.bases
    at = (bases[:, KIND] == BasisKind.WAVELET) & (bases[:, RES] == m)
    level, c = bases[at], pool.model.coeffs[at]
    energy = c * c * pool.model.mother.norm_sq
    # sums add one energy at a time, in model and in rank order
    total = np.cumsum(np.append(0.0, energy))[-1]
    order = np.lexsort((*level[:, TRANS].T[::-1], -energy))
    level, energy = level[order], energy[order]
    take = (energy != 0.0) & _fresh(level, exclude)
    # the energy held before each element never falls, so the elements
    # taken below the target are a prefix of the ranking's
    before = np.cumsum(np.append(0.0, np.where(take, energy, 0.0)))[:-1]
    return level[take & (before < mu_up * total
                         - 1e-12 * max(total, 1e-300))]


def expand_into_next(pool: WaveletPool, parents):
    """Add the children of each parent one resolution finer; returns the
    newly created elements (zero coefficients, predictions unchanged).
    Parents on more than one resolution raise ``GridError``."""
    if not len(parents):
        return parents
    return pool.add_bases(children_centers(
        parents, pool.grid.at(int(parents[0, RES]) + 1)))


def _start(pool: WaveletPool, config: GrowthConfig,
           resume: bool = False) -> WaveletPool:
    """Seed an empty pool with its two grids at its resolution ``m`` (the
    ``seed`` event); with ``resume``, a pool that holds bases continues at
    its finest basis resolution with a fresh schedule.  Any other pool,
    or one above ``config.max_resolution``, is a ValueError."""
    if len(pool.model.bases):
        if not resume:
            raise ValueError("this run starts from an empty pool")
        pool.m, pool.sweep = pool.finest_m, 0
    if pool.m > config.max_resolution:
        raise ValueError(f"the pool is at resolution {pool.m}, above "
                         f"max_resolution {config.max_resolution}")
    if not len(pool.model.bases):
        pool.log.add_event("seed", pool.m, pool.ensure_level(pool.m))
    return pool


def _grow(pool: WaveletPool, config: GrowthConfig,
          whole_levels: bool = False) -> bool:
    """One growth phase at the pool's resolution ``m``, ``sweep`` phases
    after the pool reached it; it advances ``m`` and ``sweep``.  Returns
    False, growing nothing, when ``m`` is ``config.max_resolution``: no
    phase adds bases past the cap, so there the schedule is spent.

    The constructive rule expands the parents holding the next energy
    fraction (mu, 2 mu, ..., 1) into m + 1; once that schedule is spent
    it escalates: the scaling and detail grids of m + 1 join the pool
    and the schedule restarts there.  The whole-level baseline
    (``whole_levels``) escalates at every phase and adds the detail grid
    of m + 1 only.
    """
    m = pool.m
    if m >= config.max_resolution:
        return False
    if not whole_levels and pool.sweep < config.n_phases:
        pool.sweep += 1
        mu_up = 1.0 if pool.sweep == config.n_phases else pool.sweep * config.mu
        parents = select_high_energy(pool, m, mu_up, pool.expanded)
        new = expand_into_next(pool, parents)
        pool.expanded = np.concatenate([pool.expanded, parents])
        pool.log.add_event("expand", m, len(new))
        return True
    pool.m, pool.sweep = m + 1, 0
    if whole_levels:
        level = pool.grid.at(pool.m).bases(BasisKind.WAVELET)
        added = len(pool.add_bases(level))
    else:
        added = pool.ensure_level(pool.m)
    pool.log.add_event("escalate", pool.m, added)
    return True


def _train(pool: WaveletPool, design: Design, config: GrowthConfig,
           budget: int) -> None:
    """Train for at most ``budget`` steps and set the pool's ``status`` and
    ``final_loss``: the last step's, or the loss met before any step."""
    steps = pool.log.last_iteration
    pool.status = train_to_plateau(
        pool.model, design, config.learning_rate, config.zeta,
        config.epsilon, budget, pool.log)
    pool.final_loss = (design.objective(pool.model.coeffs)[1]
                       if pool.log.last_iteration == steps
                       else pool.log.records[-1][1])


def _grow_to_target(pool: WaveletPool, design: Design,
                    config: GrowthConfig, whole_levels: bool) -> WaveletPool:
    """Train to a plateau, grow, and repeat until the loss target is met
    (Achieved) or the iterations or resolutions run out (Budget), and
    set the pool's ``status`` to that.  Every phase trains on ``design``.

    A pool paused at a plateau (a fork of ``run_seed_phase``'s pool)
    grows first, and its budget counts from iteration 0, as the run it
    continues began there; any other pool trains first, with
    ``config.max_iters`` iterations past its log."""
    paused = pool.status is TrainStatus.PLATEAU
    stop_at = config.max_iters + (0 if paused else pool.log.last_iteration)
    while True:
        if (pool.status is TrainStatus.PLATEAU
                and not _grow(pool, config, whole_levels)):
            break
        if pool.log.last_iteration >= stop_at:
            break
        _train(pool, design, config, stop_at - pool.log.last_iteration)
        if pool.status is not TrainStatus.PLATEAU:
            return pool
    pool.status = TrainStatus.BUDGET
    return pool


def run_growth(pool: WaveletPool, design: Design,
               config: GrowthConfig) -> WaveletPool:
    """Grow ``pool`` and train until the loss target is met (Achieved) or
    the iteration/resolution budget runs out (Budget); returns the pool.

    An empty pool is seeded at its resolution.  A pool that already holds
    bases (a previous run's, e.g. before new data arrives) is resumed in
    its own log, at its finest basis resolution with a fresh
    expansion-phase schedule.  Every phase trains on the caller's
    ``design``, so each column is evaluated once per design, and a
    resumed pool's columns are built anew on a design of new rows.

    A fork of a pool ``run_seed_phase`` paused, given with a fork of its
    ``design``, continues the paused run (its seed level is its finest,
    so the resume rule leaves it as it is) and ends as a run that never
    paused.
    """
    return _grow_to_target(_start(pool, config, resume=True), design,
                           config, whole_levels=False)


def run_seed_phase(pool: WaveletPool, design: Design,
                   config: GrowthConfig) -> WaveletPool:
    """Seed an empty pool and train it on ``design`` to its first
    plateau, the part of a ``run_growth`` that mu does not touch, and
    leave it paused there with status Plateau.  A seed phase that meets
    the target or spends ``config.max_iters`` ends the run (Achieved or
    Budget) as ``run_growth`` would."""
    _start(pool, config)
    _train(pool, design, config, config.max_iters)
    return pool


def run_baseline_wnn(pool: WaveletPool, design: Design,
                     config: GrowthConfig) -> WaveletPool:
    """Non-constructive reference: seed an empty pool's scaling and detail
    grids at its resolution, then add whole detail grids level by level
    on ``design`` whenever training plateaus above the target."""
    return _grow_to_target(_start(pool, config), design, config,
                           whole_levels=True)


def run_online(pool: WaveletPool, design: Design, config: GrowthConfig,
               window: int, patience: int) -> WaveletPool:
    """Windowed streaming variant: seed an empty pool at its resolution,
    then consume ``window`` rows of the caller's stream ``design`` per
    cycle, take one gradient step on that window, and run one growth
    phase whenever the rolling window loss sits above the loss target
    without improving for ``patience`` cycles.

    Improvement means the rolling loss dropped below its best by more
    than ``zeta`` absolutely or by the relative ``ONLINE_IMPROVEMENT``
    fraction (the relative branch keeps slow-but-real recovery after a
    regime switch from firing growth on every patience interval).

    Each window takes one ``Design.step`` on a design of its rows, which
    records the post-step loss, so the records are numbered by window
    from 1; a short last window never triggers growth.  Each growth
    phase is an event at its window's number.  The stream running out
    ends the run, and the pool it returns has status
    ``TrainStatus.BUDGET``.  A diverging step raises
    :class:`TrainingDivergence` with the model as it was before that
    window; a ``window`` or ``patience`` below 1, a pool that holds bases
    or one above the resolution cap raise ``ValueError`` and leave the
    pool as it was.
    """
    for name, value in (("window", window), ("patience", patience)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    _start(pool, config)
    X, y = design.X, design.y
    best_roll, best_at = np.inf, 0
    for w, start in enumerate(range(0, len(y), window), 1):
        part = Design(X[start:start + window], y[start:start + window])
        part.sync(pool.model)
        direction, _ = part.objective(pool.model.coeffs)
        part.step(pool.model, config.learning_rate, direction, pool.log)
        if part.y.size < window:
            # a short last window: its step and record only, no growth
            # trigger on a boundary fragment
            break
        roll = float(np.mean([r[1]
                              for r in pool.log.records[-patience:]]))
        gap = max(config.zeta, ONLINE_IMPROVEMENT * best_roll)
        if np.isinf(best_roll) or roll < best_roll - gap:
            best_roll, best_at = roll, w
        if roll > config.epsilon and (w - best_at) >= patience:
            # sustained plateau above target: one growth phase; at the
            # resolution cap keep streaming plain steps and just restart
            # the patience clock
            _grow(pool, config)
            best_roll, best_at = roll, w
    pool.status, pool.final_loss = TrainStatus.BUDGET, pool.log.records[-1][1]
    return pool
