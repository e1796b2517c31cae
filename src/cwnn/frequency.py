"""Dominant-frequency-band probing for an unknown mapping.

Starting from a coarse detail subspace, each resolution is probed with a
cheap energy estimate (coefficients after one gradient step from zero,
weighted by the element norm).  The step needs only psi^T y, which is
summed block by block as the design matrix's blocks are evaluated, so a
level of 2**d times the elements of the one before costs time but not
its N x p matrix in memory.  A debiased exponential moving average
smooths the sequence; probing stops once the smoothed energy at the
current resolution is no longer exceeded by the raw estimate one level
finer, and that resolution seeds the network build.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .model import DIVERGENCE_LIMIT, TrainingDivergence
from .wavelets import (CenterGrid, MotherWavelet, basis_matrix_tdot,
                       children_centers, lattice_bases)


def alpha_from_epsilon(epsilon: float) -> float:
    """Smoothing weight tied to the accuracy target: stricter targets put
    more weight on history.  Defined for 0 < epsilon <= 1."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return 2.0 * math.atan(-math.log10(epsilon)) / math.pi


def ema_update(prev_bar: float, current_hat: float, alpha: float, m: int) -> float:
    """Debiased EMA step: (alpha*prev + (1-alpha)*current) / (1 - alpha**m).

    ``m`` is the 1-based position in the sequence and must be >= 2 (the
    first position simply takes the raw value).
    """
    if m < 2:
        raise ValueError("ema_update applies from the second position on")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return (alpha * prev_bar + (1.0 - alpha) * current_hat) / (1.0 - alpha ** m)


def estimate_subspace_energy(mother: MotherWavelet, bases, X, y, lr: float):
    """Energy held by a set of elements after one gradient step from zero.

    The step is ``c = (2 lr / N) psi^T y``, and it raises
    ``TrainingDivergence`` past ``DIVERGENCE_LIMIT`` as a zero model's
    ``Design.step`` does, without holding psi: ``psi^T y`` is summed
    block by block as the blocks are evaluated (``basis_matrix_tdot``),
    so the probe holds one block per worker, not N x p doubles.  Once the
    elements span several blocks, ``c`` may differ from that step's in
    the last bits.  Returns ``(sum_j c_j**2 * ||psi||**2, c)``.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty batch")
    c = lr * 2.0 / y.size * basis_matrix_tdot(mother, bases, X, y)
    # a NaN coefficient fails the comparison too
    if not np.abs(c).max(initial=0.0) <= DIVERGENCE_LIMIT:
        raise TrainingDivergence("training diverged at iteration 1")
    return float(np.sum(c * c) * mother.norm_sq), c


def subsample_centers(grid: CenterGrid, kappa: float):
    """Uniform stride subsample of a grid keeping per-dimension endpoints.

    The stride (shared by all dimensions) is chosen so the kept fraction
    matches ``kappa`` as closely as possible from above, where the kept
    fraction may be read per dimension or over the whole grid — an exact
    match under either reading wins, otherwise the smallest whole-grid
    fraction at or above ``kappa`` is used.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must be in (0, 1], got {kappa}")
    spans = [hi - lo for lo, hi in zip(grid.n_lo, grid.n_hi)]
    strides = [s for s in range(1, max(2, max(spans) + 1))
               if all(sp % s == 0 for sp in spans)]
    totals = [(s, math.prod(sp // s + 1 for sp in spans) / grid.count)
              for s in strides]
    exact = [s for s, total in totals if abs(total - kappa) <= 1e-9
             or abs(total ** (1.0 / grid.dim) - kappa) <= 1e-9]
    chosen = exact[0] if exact else min(
        (total, s) for s, total in totals if total >= kappa - 1e-12)[1]
    return lattice_bases(grid.m, [range(lo, hi + 1, chosen)
                                  for lo, hi in zip(grid.n_lo, grid.n_hi)])


@dataclass
class EnergyTrace:
    """Per-resolution raw and smoothed energy estimates from probing, the
    resolution ``m_init`` they pick, and the probe's warning, if any."""

    alpha: float
    rows: list = field(default_factory=list)  # (m, e_hat, e_bar, n_bases)
    m_init: int | None = None
    warning: str | None = None

    def append(self, m: int, e_hat: float, e_bar: float, n_bases: int) -> None:
        self.rows.append((m, e_hat, e_bar, n_bases))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["m", "E_hat", "E_bar", "n_bases"])
            for m, eh, eb, nb in self.rows:
                w.writerow([m, repr(eh), repr(eb), nb])


def estimate_initial_resolution(mother: MotherWavelet, X, y,
                                start_grid: CenterGrid, kappa: float,
                                lr: float, epsilon: float, m_cap: int = 10,
                                stop_early: bool = True) -> EnergyTrace:
    """Probe detail subspaces upward in resolution until energy peaks.

    The starting grid is stride-subsampled by ``kappa``; each following
    resolution probes the children of every element probed at the level
    before.  Because the probe count multiplies by up to 2**dim per level,
    levels are compared by energy *per probed element* (the summed
    estimate divided by the probe count) — the summed estimate alone grows
    with the probe set and has no peak to find.  Probing continues while
    the smoothed per-element energy at the current level lies strictly
    below the raw value one level finer; the exit level seeds the build.

    Returns the trace, whose ``m_init`` is the exit level (``m_cap``,
    with a warning, if the rule never fired).  With ``stop_early=False``
    the chain records the full trace up to ``m_cap`` (band diagnostics)
    while still reporting where the stop rule first fired.  ``m_cap``
    below the start resolution is an error: the probe never visits a
    level under its start.
    """
    if m_cap < start_grid.m:
        raise ValueError(f"m_cap must be at least the start resolution "
                         f"{start_grid.m}, got {m_cap}")
    alpha = alpha_from_epsilon(epsilon)
    trace = EnergyTrace(alpha=alpha)
    grid, probes = start_grid, subsample_centers(start_grid, kappa)
    exit_m = None
    while True:
        e_sum, _ = estimate_subspace_energy(mother, probes, X, y, lr)
        e_hat = e_sum / len(probes)
        if trace.rows:
            prev_m, _, prev_bar, _ = trace.rows[-1]
            e_bar = ema_update(prev_bar, e_hat, alpha, len(trace.rows) + 1)
            if prev_bar >= e_hat and exit_m is None:
                exit_m = prev_m
        else:
            trace.warning = ("zero probe energy at the start resolution; "
                             "the stop rule fires immediately"
                             if e_sum == 0.0 else None)
            e_bar = e_hat
        trace.append(grid.m, e_hat, e_bar, len(probes))
        if (exit_m is not None and stop_early) or grid.m >= m_cap:
            break
        grid = grid.at(grid.m + 1)
        probes = children_centers(probes, grid)
    if exit_m is None:
        exit_m, trace.warning = m_cap, f"no energy peak found up to m={m_cap}"
    trace.m_init = exit_m
    return trace
