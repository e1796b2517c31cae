"""Constructive network growth: seed at the estimated resolution, train to
a plateau, then expand capacity where the energy sits.

Each growth phase selects the highest-energy detail elements at the
current resolution (an increasing energy fraction mu, 2*mu, ..., 1 across
phases), adds the next-resolution elements nearest to their centers, and
retrains.  Once the fraction schedule is exhausted the whole next level is
seeded and the schedule restarts there.  A non-constructive baseline that
escalates full detail grids level by level is included for comparison, as
is a windowed online variant that triggers the same growth phases on a
sustained loss plateau.  All three seed through ``_seed`` and grow
through ``_grow``; the batch runs share one train-to-plateau loop, and
every gradient step, batch or windowed, is ``Design.step``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .model import (Design, TrainLog, TrainStatus, WaveletModel,
                    train_to_plateau)
from .wavelets import (BasisKind, MotherWavelet, build_center_grid,
                       children_centers, _grid_from_bounds)

# resolution the whole-level baseline seeds its scaling and detail grids at
BASELINE_START_M = 1

# relative drop in the online rolling loss that counts as improvement
ONLINE_IMPROVEMENT = 0.02


@dataclass
class GrowthConfig:
    """Knobs for a growth run.  ``epsilon`` is the loss target, ``zeta``
    the plateau threshold, ``mu`` the per-phase energy fraction (must be a
    reciprocal of a positive integer)."""

    epsilon: float
    zeta: float
    mu: float
    learning_rate: float
    m_init: int
    domain_low: tuple = (0.0,)
    domain_high: tuple = (1.0,)
    margin: float = 1.0
    clamp_low: tuple | None = None
    max_resolution: int = 10
    max_iters: int = 50_000

    def __post_init__(self):
        if self.epsilon <= 0 or self.zeta <= 0 or self.learning_rate <= 0:
            raise ValueError("epsilon, zeta and learning_rate must be positive")
        inv = 1.0 / self.mu
        if abs(inv - round(inv)) > 1e-9:
            raise ValueError(f"mu must be the reciprocal of a positive "
                             f"integer, got {self.mu}")
        if self.m_init > self.max_resolution:
            raise ValueError("m_init exceeds max_resolution")

    @property
    def n_phases(self) -> int:
        return int(round(1.0 / self.mu))


class WaveletPool:
    """The active basis set of a growing model plus expansion bookkeeping.

    Tracks which detail elements have already served as expansion parents
    at each resolution so repeated phases pick fresh ones.
    """

    def __init__(self, mother: MotherWavelet, low, high):
        self.model = WaveletModel.zeros(mother, [])
        self.low = tuple(float(v) for v in np.atleast_1d(low))
        self.high = tuple(float(v) for v in np.atleast_1d(high))
        self.expanded = defaultdict(set)
        self._pos = {}

    def grid(self, m: int):
        return _grid_from_bounds(m, self.low, self.high)

    def add_bases(self, bases) -> list:
        new = []
        start = self.model.n_params
        for b in bases:
            if b not in self._pos:
                self._pos[b] = start + len(new)
                new.append(b)
        self.model.append_bases(new)
        return new

    def ensure_level(self, m: int) -> int:
        """Add the full scaling and detail grids at resolution ``m``;
        returns how many elements were new."""
        grid = self.grid(m)
        added = self.add_bases(grid.bases(BasisKind.SCALING))
        added += self.add_bases(grid.bases(BasisKind.WAVELET))
        return len(added)

    def detail_items(self, m: int):
        """(index, coefficient) pairs for detail elements at resolution m."""
        out = []
        for b, pos in self._pos.items():
            if b.kind is BasisKind.WAVELET and b.m == m:
                out.append((b, float(self.model.coeffs[pos])))
        return out

    def top_resolution(self):
        """Finest resolution present in the pool, or None when empty."""
        return max((b.m for b in self._pos), default=None)


def select_high_energy(pool: WaveletPool, m: int, mu_up: float, exclude=frozenset()):
    """Highest-energy detail elements at resolution ``m`` holding a
    ``mu_up`` fraction of the level's total energy.

    Elements already used as parents (``exclude``) are skipped but still
    count toward the total, so successive phases with growing ``mu_up``
    reach deeper into the energy ranking.  Zero-energy elements are never
    selected.  Ordering ties break on the index itself, so selection is
    deterministic.
    """
    items = pool.detail_items(m)
    norm = pool.model.mother.norm_sq
    energies = {b: c * c * norm for b, c in items}
    total = sum(energies.values())
    target = mu_up * total
    ranked = sorted(items, key=lambda bc: (-energies[bc[0]], bc[0].sort_key()))
    chosen = []
    acc = 0.0
    for b, _ in ranked:
        if acc >= target - 1e-12 * max(total, 1e-300):
            break
        e = energies[b]
        if e == 0.0 or b in exclude:
            continue
        chosen.append(b)
        acc += e
    return chosen


def expand_into_next(pool: WaveletPool, parents):
    """Add the children of each parent one resolution finer; returns the
    newly created elements (zero coefficients, predictions unchanged).
    Parents on more than one resolution raise ``GridError``."""
    if not parents:
        return []
    return pool.add_bases(children_centers(parents,
                                           pool.grid(parents[0].m + 1)))


@dataclass
class GrowthResult:
    model: WaveletModel
    log: TrainLog
    status: TrainStatus
    final_resolution: int
    pool: "WaveletPool | None" = None

    @property
    def n_params(self) -> int:
        return self.model.n_params

    @property
    def final_loss(self) -> float:
        return self.log.records[-1][1] if self.log.records else float("nan")


def _seed(mother: MotherWavelet, config: GrowthConfig, m: int,
          log: TrainLog) -> WaveletPool:
    """A pool over the configured domain holding the scaling and detail
    grids at resolution ``m``, logged as the ``seed`` event."""
    grid = build_center_grid(m, config.domain_low, config.domain_high,
                             config.margin, config.clamp_low)
    pool = WaveletPool(mother, grid.low, grid.high)
    log.add_event(log.last_iteration, "seed", m, pool.ensure_level(m))
    return pool


def _grow(pool: WaveletPool, m: int, sweep: int, config: GrowthConfig,
          log: TrainLog, whole_levels: bool = False):
    """One growth phase at resolution ``m``, ``sweep`` phases after the
    pool reached it, logged at the log's last iteration.  Returns the new
    ``(m, sweep)``, or None when ``m`` is ``config.max_resolution``: no
    phase adds bases past the cap, so there the schedule is spent.

    The constructive rule expands the parents holding the next energy
    fraction (mu, 2 mu, ..., 1) into m + 1; once that schedule is spent
    it escalates: the scaling and detail grids of m + 1 join the pool
    and the schedule restarts there.  The whole-level baseline
    (``whole_levels``) escalates at every phase and adds the detail grid
    of m + 1 only.
    """
    if m >= config.max_resolution:
        return None
    if not whole_levels and sweep < config.n_phases:
        sweep += 1
        mu_up = 1.0 if sweep == config.n_phases else sweep * config.mu
        parents = select_high_energy(pool, m, mu_up, pool.expanded[m])
        new = expand_into_next(pool, parents)
        pool.expanded[m].update(parents)
        log.add_event(log.last_iteration, "expand", m, len(new))
        return m, sweep
    m += 1
    if whole_levels:
        added = len(pool.add_bases(pool.grid(m).bases(BasisKind.WAVELET)))
    else:
        added = pool.ensure_level(m)
    log.add_event(log.last_iteration, "escalate", m, added)
    return m, 0


def _grow_to_target(pool: WaveletPool, m: int, X, y, config: GrowthConfig,
                    log: TrainLog, whole_levels: bool) -> GrowthResult:
    """Train to a plateau, grow, and repeat until the loss target is met
    (Achieved) or the iterations or resolutions run out (Budget).  Every
    phase trains on one design of ``X`` and ``y``."""
    design = Design(X, y)
    start_iter = log.last_iteration
    sweep = 0
    while True:
        remaining = config.max_iters - (log.last_iteration - start_iter)
        if remaining <= 0:
            return GrowthResult(pool.model, log, TrainStatus.BUDGET, m, pool)
        st = train_to_plateau(pool.model, design, config.learning_rate,
                              config.zeta, config.epsilon, remaining, log)
        if st is not TrainStatus.PLATEAU:
            return GrowthResult(pool.model, log, st, m, pool)
        grown = _grow(pool, m, sweep, config, log, whole_levels)
        if grown is None:
            return GrowthResult(pool.model, log, TrainStatus.BUDGET, m, pool)
        m, sweep = grown


def run_growth(mother: MotherWavelet, X, y, config: GrowthConfig,
               log: TrainLog | None = None,
               pool: WaveletPool | None = None) -> GrowthResult:
    """Grow and train until the loss target is met (Achieved) or the
    iteration/resolution budget runs out (Budget).

    Passing an existing ``pool`` continues a previous run (e.g. after new
    data arrives) instead of seeding afresh: training resumes at the
    pool's finest resolution with a fresh expansion-phase schedule.
    Every phase trains on one design of ``X`` and ``y``, so each column
    is evaluated once per call, and a resumed pool's columns are built
    anew on the rows given here.
    """
    log = log if log is not None else TrainLog()
    if pool is None:
        m = config.m_init
        pool = _seed(mother, config, m, log)
    else:
        m = pool.top_resolution()
        if m is None:
            raise ValueError("cannot resume from an empty pool")
    return _grow_to_target(pool, m, X, y, config, log, whole_levels=False)


def run_baseline_wnn(mother: MotherWavelet, X, y, config: GrowthConfig,
                     log: TrainLog | None = None) -> GrowthResult:
    """Non-constructive reference: seed scaling + detail grids at the
    start resolution (``BASELINE_START_M``, or the resolution cap when
    that is lower), then add whole detail grids level by level whenever
    training plateaus above the target."""
    log = log if log is not None else TrainLog()
    m = min(BASELINE_START_M, config.max_resolution)
    pool = _seed(mother, config, m, log)
    return _grow_to_target(pool, m, X, y, config, log, whole_levels=True)


@dataclass
class OnlineResult:
    model: WaveletModel
    log: TrainLog
    window_losses: list
    growth_iterations: list = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return self.model.n_params


def run_online(mother: MotherWavelet, X, y, config: GrowthConfig,
               window: int = 10, patience: int = 40,
               log: TrainLog | None = None) -> OnlineResult:
    """Windowed streaming variant: consume ``window`` samples per cycle,
    take one gradient step on that window, and run one growth phase
    whenever the rolling window loss sits above the loss target without
    improving for ``patience`` cycles.

    Improvement means the rolling loss dropped below its best by more
    than ``zeta`` absolutely or by the relative ``ONLINE_IMPROVEMENT``
    fraction (the relative branch keeps slow-but-real recovery after a
    regime switch from firing growth on every patience interval).

    Each window takes one ``Design.step`` on a design of its rows and
    logs the post-step loss as one record numbered by window from 1; a
    short last window never triggers growth.  A diverging step raises
    :class:`TrainingDivergence` with the model as it was before that
    window, and a ``window`` or ``patience`` below 1 ``ValueError``.
    """
    for name, value in (("window", window), ("patience", patience)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    log = log if log is not None else TrainLog()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    m = config.m_init
    pool = _seed(mother, config, m, log)
    sweep = 0
    losses = []
    best_roll = np.inf
    best_at = 0
    growth_iters = []
    for w, start in enumerate(range(0, len(y), window), 1):
        design = Design(X[start:start + window], y[start:start + window])
        design.sync(pool.model)
        direction, _ = design.objective(pool.model.coeffs)
        _, lw = design.step(pool.model, config.learning_rate, direction, w)
        losses.append(lw)
        log.append(w, lw, pool.model.n_params)
        if design.y.size < window:
            # a short last window: its step and record only, no growth
            # trigger on a boundary fragment
            break
        roll = float(np.mean(losses[-patience:]))
        gap = max(config.zeta, ONLINE_IMPROVEMENT * best_roll)
        if np.isinf(best_roll) or roll < best_roll - gap:
            best_roll = roll
            best_at = w
        if roll > config.epsilon and (w - best_at) >= patience:
            # sustained plateau above target: one growth phase; at the
            # resolution cap keep streaming plain steps and just restart
            # the patience clock
            grown = _grow(pool, m, sweep, config, log)
            if grown is not None:
                m, sweep = grown
                growth_iters.append(w)
            best_roll = roll
            best_at = w
    return OnlineResult(pool.model, log, losses, growth_iters)
