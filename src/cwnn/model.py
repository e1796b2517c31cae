"""Linear-in-parameters wavelet expansion with batch gradient training.

The model is a plain weighted sum of basis elements.  Training is
full-batch gradient descent on mean squared error; a run ends when the
loss target is met (Achieved), the loss stops moving (Plateau), or the
iteration budget runs out (Budget).

Every gradient step, the plateau loop's and the online windows', is
:meth:`Design.step`, which also owns the divergence check and appends
each step it commits to the run's :class:`TrainLog`, so a log holds
every committed step once, in order, and a refused step leaves it
unchanged.  A
:class:`Design` is the N x p design matrix psi of one dataset, kept in
step with a model whose basis only grows.  Each sync evaluates only the
columns of bases appended since the last one, so a growth run builds
every column once, and psi is held once: as the list of column blocks
the syncs evaluated, which are never joined into one matrix, so a sync
allocates its new block and not a copy of the old ones.  While psi has
no more columns than rows (p <= N) the design also holds G = psi^T psi,
b = psi^T y and y^T y, extended at each sync by the border blocks
psi_old^T psi_new (one product per held block) and psi_new^T psi_new,
and each step costs one p x p product instead of two N x p ones.  Past
4,096 rows (``wavelets._BLOCK_ROWS``) the border is summed by the row
chunks of ``wavelets._row_chunks``: each chunk's products go to their
own slot on the tile pool and the slots are added in chunk order, so G
and b are the same bytes on any CPU count; a design of at most 4,096
rows is one chunk and takes the products over all its rows.  The
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

import copy
import csv
import enum
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .wavelets import (KIND, RES, TRANS, BasisKind, MotherWavelet,
                       WaveletFamily, _each_tile, _row_chunks, basis_matrix,
                       basis_set)

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
    """Weighted sum of a basis set's elements; an append replaces the set.
    ``scaling`` is the min-max record of the data it was fitted on (see
    ``datasets.minmax_scale``), so a saved model maps back to its units."""

    mother: MotherWavelet
    bases: np.ndarray
    coeffs: np.ndarray
    scaling: dict | None = None

    @classmethod
    def zeros(cls, mother: MotherWavelet, bases) -> "WaveletModel":
        return cls(mother, bases, np.zeros(len(bases)))

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
        """Add a basis set with zero coefficients (predictions unchanged)."""
        self.bases = np.concatenate([self.bases, new_bases])
        self.coeffs = np.concatenate([self.coeffs, np.zeros(len(new_bases))])

    def to_dict(self) -> dict:
        out = {
            "family": self.mother.family.value,
            "dim": self.mother.dim,
            "bases": [
                {"kind": BasisKind(b[KIND]).name.lower(), "m": b[RES],
                 "n": b[TRANS], "c": c}
                for b, c in zip(self.bases.tolist(), self.coeffs.tolist())
            ],
        }
        if self.scaling is not None:
            out["scaling"] = self.scaling
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "WaveletModel":
        mother = MotherWavelet(WaveletFamily(payload["family"]), int(payload["dim"]))
        entries = payload["bases"]
        n = np.reshape([e["n"] for e in entries], (-1, mother.dim))
        bases = basis_set([e["m"] for e in entries], n,
                          [BasisKind[e["kind"].upper()] for e in entries])
        coeffs = np.array([float(e["c"]) for e in entries])
        return cls(mother, bases, coeffs, payload.get("scaling"))

    def save(self, path) -> None:
        """One line of key-sorted JSON: ``json.dumps`` without an indent
        takes the C encoder, where ``json.dump`` and any indent take the
        pure-Python one."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")

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

    Records are ``(iteration, loss, n_params, elapsed_ms)`` rows, numbered
    1, 2, ... by the log itself, so ``last_iteration`` is the record
    count; growth events are ``(last_iteration, event, resolution,
    added)`` rows.
    """

    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    @property
    def last_iteration(self) -> int:
        return len(self.records)

    def append(self, loss_value: float, n_params: int) -> None:
        ms = (time.perf_counter() - self._t0) * 1000.0
        self.records.append((len(self.records) + 1, loss_value, n_params, ms))

    def add_event(self, event: str, resolution: int, added: int) -> None:
        self.events.append((self.last_iteration, event, resolution, added))

    def fork(self) -> "TrainLog":
        """A log that goes on from this one's records and events and
        leaves them as they are.  Its clock runs on from the last record,
        so its ``elapsed_ms`` reads as if the run had never paused."""
        paused_ms = self.records[-1][3] if self.records else 0.0
        return TrainLog(list(self.records), list(self.events),
                        time.perf_counter() - paused_ms / 1000.0)

    def to_csv(self, path) -> None:
        # the rows csv.writer would write, \r\n line ending included, in
        # one write: no field holds a comma or a quote
        with open(path, "w", newline="") as fh:
            fh.write("iter,loss,n_params,elapsed_ms\r\n" + "".join(
                f"{it},{lv!r},{np_},{ms:.3f}\r\n"
                for it, lv, np_, ms in self.records))

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
    past N ``gram`` is None.  A design belongs to one dataset, whose X
    and y have one row count: data with other rows need a new design.
    """

    def __init__(self, X, y):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float)
        if self.y.size == 0:
            raise ValueError("empty batch")
        if self.y.shape != (len(self.X),):
            raise ValueError(f"X has {len(self.X)} rows and y "
                             f"{self.y.size} values")
        self.bases = np.empty((0, 0), np.int32)
        self.blocks = []
        self.gram = np.empty((0, 0))
        self.b = np.empty(0)
        self.yy = float(self.y @ self.y)

    def sync(self, model: WaveletModel) -> None:
        """Evaluate the columns of the bases ``model`` gained since the
        last sync as one new block and border G and b with them, summed
        by row chunk (see the module docstring)."""
        p_old = len(self.bases)
        if p_old and not np.array_equal(model.bases[:p_old], self.bases):
            raise ValueError("the model's bases do not extend the design's")
        new_bases = model.bases[p_old:]
        if not len(new_bases):
            return
        new = basis_matrix(model.mother, new_bases, self.X)
        if self.gram is not None and model.n_params <= self.y.size:
            chunks = _row_chunks(self.y.size)
            parts = [None] * len(chunks)

            def border(chunk):
                r = chunks[chunk]
                # new[:0] is the empty border of a first sync
                parts[chunk] = (
                    np.vstack([blk[r].T @ new[r] for blk in self.blocks]
                              or [new[:0]]),
                    new[r].T @ new[r], new[r].T @ self.y[r])

            _each_tile(border, range(len(chunks)),
                       self.y.size * model.n_params)
            cross, nn, nb = parts[0]
            for c, g, b in parts[1:]:
                cross += c
                nn += g
                nb += b
            self.gram = np.block([[self.gram, cross], [cross.T, nn]])
            self.b = np.concatenate([self.b, nb])
        else:
            self.gram = self.b = None
        self.blocks.append(new)
        self.bases = model.bases

    def fork(self) -> "Design":
        """A design of the same data that syncs on from this one's columns
        and leaves it as it is.  It has its own ``blocks`` list; the block
        arrays, which no later sync writes, and the basis set, G, b and
        y^T y, which a sync replaces and never writes into, it shares."""
        twin = copy.copy(self)
        twin.blocks = list(self.blocks)
        return twin

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

    def step(self, model: WaveletModel, lr: float, direction, log: TrainLog):
        """One gradient step ``c + (2 lr / N) direction`` on a synced
        model; returns the direction and the loss at the new ``c``.  The
        step is committed only when that loss is finite and no coefficient
        exceeds ``DIVERGENCE_LIMIT`` in magnitude, and a committed step
        is appended to ``log``; otherwise nothing is recorded and
        :class:`TrainingDivergence` names ``log.last_iteration + 1``."""
        c = model.coeffs + lr * 2.0 / self.y.size * direction
        # a NaN coefficient fails the comparison too; a runaway step
        # raises before its loss is taken, where it would overflow
        if np.abs(c).max(initial=0.0) <= DIVERGENCE_LIMIT:
            direction, new = self.objective(c)
            if math.isfinite(new):
                model.coeffs = c
                log.append(new, model.n_params)
                return direction, new
        raise TrainingDivergence(
            f"training diverged at iteration {log.last_iteration + 1}")


def train_to_plateau(model: WaveletModel, design: Design, lr: float,
                     zeta: float, epsilon: float, max_iters: int,
                     log: TrainLog) -> TrainStatus:
    """Run gradient steps until the loss target, a plateau, or the budget.

    The loss is checked before the first step, so a model already at or
    below ``epsilon`` returns Achieved without stepping.  A plateau is a
    consecutive-loss change of at most ``zeta``.  Every step is
    ``design.step``, which records it in ``log`` after the records
    already there, and which raises on divergence and leaves the model
    at its last committed coefficients.

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
    for k in range(1, max_iters + 1):
        direction, new = design.step(model, lr, direction, log)
        if new <= epsilon:
            return TrainStatus.ACHIEVED
        # the plateau gap compares consecutive post-step losses, so the
        # earliest possible plateau exit is after the second step
        if k >= 2 and abs(new - current) <= zeta:
            return TrainStatus.PLATEAU
        current = new
    return TrainStatus.BUDGET
