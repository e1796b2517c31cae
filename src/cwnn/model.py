"""Linear-in-parameters wavelet expansion with batch gradient training.

The model is a plain weighted sum of basis elements.  Training is
full-batch gradient descent on mean squared error; a run ends when the
loss target is met (Achieved), the loss stops moving (Plateau), or the
iteration budget runs out (Budget).

Every gradient step, the plateau loop's and the online windows', is
:meth:`Design.step`, which also owns the divergence check.  A
:class:`Design` is the N x p design matrix psi of one dataset, kept in
step with a model whose basis only grows.  Each sync evaluates only the
columns of bases appended since the last one, so a growth run builds
every column once, and psi is held once: as the list of column blocks
the syncs evaluated, which are never joined into one matrix, so a sync
allocates its new block and not a copy of the old ones.  While psi has
no more columns than rows (p <= N) the design also holds G = psi^T psi,
b = psi^T y and y^T y, extended at each sync by the border blocks
psi_old^T psi_new (one product per held block) and psi_new^T psi_new,
and each step costs one p x p product instead of two N x p ones.  The
first sync that takes p past N drops G for good (p never shrinks), and
the residual form r = y - psi c runs from then on, one product per block
each way, where G would be both larger and slower per step.  The rule
depends only on the shapes.  The Gram-form loss
(y^T y - 2 c^T b + c^T G c) / N is a difference of terms of size y^T y,
so its rounding floor is a few ulp of y^T y / N: about 1e-15 on the
example1 presets (y^T y / N is about 3.1, one ulp 4.4e-16), far below
any loss target or plateau gap in use.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .wavelets import (BasisIndex, BasisKind, MotherWavelet, WaveletFamily,
                       basis_matrix)

# coefficients beyond this magnitude are treated as divergence
DIVERGENCE_LIMIT = 1e12


class TrainStatus(enum.Enum):
    ACHIEVED = "achieved"
    PLATEAU = "plateau"
    BUDGET = "budget"


class TrainingDivergence(RuntimeError):
    """A gradient step's loss or coefficients blew up; the model keeps the
    coefficients from before that step."""


@dataclass
class WaveletModel:
    """Weighted sum of basis elements.  ``scaling`` is the min-max record
    of the data the model was fitted on (see ``datasets.minmax_scale``),
    kept so a saved model can map its outputs back to original units."""

    mother: MotherWavelet
    bases: list
    coeffs: np.ndarray
    scaling: dict | None = None

    @classmethod
    def zeros(cls, mother: MotherWavelet, bases) -> "WaveletModel":
        return cls(mother, list(bases), np.zeros(len(bases)))

    @property
    def n_params(self) -> int:
        return len(self.bases)

    def predict(self, X) -> np.ndarray:
        """Model output for inputs of shape (n, dim) or a single (dim,)."""
        single = np.asarray(X).ndim == 1
        psi = basis_matrix(self.mother, self.bases, X)
        out = psi @ self.coeffs
        return float(out[0]) if single else out

    def append_bases(self, new_bases) -> None:
        """Add elements with zero coefficient (predictions unchanged)."""
        self.bases.extend(new_bases)
        self.coeffs = np.concatenate([self.coeffs, np.zeros(len(new_bases))])

    def to_dict(self) -> dict:
        out = {
            "family": self.mother.family.value,
            "dim": self.mother.dim,
            "bases": [
                {"kind": b.kind.value, "m": b.m, "n": list(b.n), "c": float(c)}
                for b, c in zip(self.bases, self.coeffs)
            ],
        }
        if self.scaling is not None:
            out["scaling"] = self.scaling
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "WaveletModel":
        mother = MotherWavelet(WaveletFamily(payload["family"]), int(payload["dim"]))
        bases = [BasisIndex(int(e["m"]), tuple(int(v) for v in e["n"]),
                            BasisKind(e["kind"]))
                 for e in payload["bases"]]
        coeffs = np.array([float(e["c"]) for e in payload["bases"]])
        return cls(mother, bases, coeffs, payload.get("scaling"))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "WaveletModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def loss(model: WaveletModel, X, y) -> float:
    """Mean squared error of the model on a batch."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty batch")
    resid = y - model.predict(np.atleast_2d(X))
    return float(np.mean(resid * resid))


@dataclass
class TrainLog:
    """Iteration records and structural growth events for one run.

    Records are ``(iteration, loss, n_params, elapsed_ms)`` rows with a
    strictly increasing global iteration counter; growth events are
    ``(last_iteration, event, resolution, added)`` rows.
    """

    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    @property
    def last_iteration(self) -> int:
        return self.records[-1][0] if self.records else 0

    def append(self, iteration: int, loss_value: float, n_params: int) -> None:
        if self.records and iteration <= self.records[-1][0]:
            raise ValueError("iteration counter must strictly increase")
        ms = (time.perf_counter() - self._t0) * 1000.0
        self.records.append((iteration, loss_value, n_params, ms))

    def add_event(self, event: str, resolution: int, added: int) -> None:
        self.events.append((self.last_iteration, event, resolution, added))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "loss", "n_params", "elapsed_ms"])
            for it, lv, np_, ms in self.records:
                w.writerow([it, repr(lv), np_, f"{ms:.3f}"])

    def events_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "event", "resolution", "added"])
            for row in self.events:
                w.writerow(list(row))


class Design:
    """The design matrix of the data ``X``, ``y``, kept in step with a
    model whose bases are only ever appended (see the module docstring).

    ``blocks`` holds psi once, as the ``basis_matrix`` output of each
    sync in order: its columns, joined, are one per synced basis.  While
    p <= N, ``gram``, ``b`` and ``yy`` hold psi^T psi, psi^T y and y^T y;
    past N ``gram`` is None.  A design belongs to one dataset: data with
    other rows need a new design.
    """

    def __init__(self, X, y):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float)
        if self.y.size == 0:
            raise ValueError("empty batch")
        self.bases = []
        self.blocks = []
        self.gram = np.empty((0, 0))
        self.b = np.empty(0)
        self.yy = float(self.y @ self.y)

    def sync(self, model: WaveletModel) -> None:
        """Evaluate the columns of the bases ``model`` gained since the
        last sync as one new block and border G and b with them."""
        p_old = len(self.bases)
        if model.bases[:p_old] != self.bases:
            raise ValueError("the model's bases do not extend the design's")
        new_bases = model.bases[p_old:]
        if not new_bases:
            return
        new = basis_matrix(model.mother, new_bases, self.X)
        if self.gram is not None and model.n_params <= self.y.size:
            # new[:0] is the empty border of a first sync
            cross = np.vstack([blk.T @ new for blk in self.blocks] or [new[:0]])
            self.gram = np.block([[self.gram, cross], [cross.T, new.T @ new]])
            self.b = np.concatenate([self.b, new.T @ self.y])
        else:
            self.gram = self.b = None
        self.blocks.append(new)
        self.bases.extend(new_bases)

    def objective(self, c):
        """The descent direction ``g = psi^T (y - psi c)`` and the mean
        squared error at ``c``."""
        if self.gram is not None:
            g = self.b - self.gram @ c
            return g, (self.yy - float(c @ (self.b + g))) / self.y.size
        resid = self.y.copy()
        lo = 0
        for blk in self.blocks:
            resid -= blk @ c[lo:lo + blk.shape[1]]
            lo += blk.shape[1]
        direction = np.concatenate([blk.T @ resid for blk in self.blocks])
        return direction, float(np.mean(resid * resid))

    def step(self, model: WaveletModel, lr: float, direction, iteration: int):
        """One gradient step ``c + (2 lr / N) direction`` on a synced
        model; returns the direction and the loss at the new ``c``.  The
        step is committed only when that loss is finite and no coefficient
        exceeds ``DIVERGENCE_LIMIT`` in magnitude; otherwise
        :class:`TrainingDivergence` names ``iteration``."""
        c = model.coeffs + lr * 2.0 / self.y.size * direction
        # a NaN coefficient fails the comparison too; a runaway step
        # raises before its loss is taken, where it would overflow
        if np.abs(c).max(initial=0.0) <= DIVERGENCE_LIMIT:
            direction, new = self.objective(c)
            if math.isfinite(new):
                model.coeffs = c
                return direction, new
        raise TrainingDivergence(f"training diverged at iteration {iteration}")


def train_to_plateau(model: WaveletModel, design: Design, lr: float,
                     zeta: float, epsilon: float, max_iters: int,
                     log: TrainLog | None = None) -> TrainStatus:
    """Run gradient steps until the loss target, a plateau, or the budget.

    The loss is checked before the first step, so a model already at or
    below ``epsilon`` returns Achieved without stepping.  A plateau is a
    consecutive-loss change of at most ``zeta``.  Every step is
    ``design.step``, which raises on divergence and leaves the model at
    its last committed coefficients.

    ``design`` is synced to the model first: a caller that trains one
    growing model in phases passes the same design each time, so psi
    keeps its blocks across phases and G is bordered rather than
    rebuilt.  Steps run on the Gram form while p <= N and on the residual
    form after (see the module docstring).
    """
    design.sync(model)
    direction, current = design.objective(model.coeffs)
    if current <= epsilon:
        return TrainStatus.ACHIEVED
    offset = log.last_iteration if log is not None else 0
    for k in range(1, max_iters + 1):
        direction, new = design.step(model, lr, direction, offset + k)
        if log is not None:
            log.append(offset + k, new, model.n_params)
        if new <= epsilon:
            return TrainStatus.ACHIEVED
        # the plateau gap compares consecutive post-step losses, so the
        # earliest possible plateau exit is after the second step
        if k >= 2 and abs(new - current) <= zeta:
            return TrainStatus.PLATEAU
        current = new
    return TrainStatus.BUDGET
