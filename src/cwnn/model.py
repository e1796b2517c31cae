"""Linear-in-parameters wavelet expansion with batch gradient training.

The model is a plain weighted sum of basis elements.  Training is
full-batch gradient descent on mean squared error; a run ends when the
loss target is met (Achieved), the loss stops moving (Plateau), or the
iteration budget runs out (Budget).

Plateau training runs on the Gram form whenever the N x p design matrix
psi has no more columns than rows (p <= N): G = psi^T psi, b = psi^T y
and y^T y are built once and psi is dropped, so each step costs one
p x p product instead of two N x p ones.  The rule is that G never takes
more memory than psi; it depends only on the input shapes.  A wider
basis (p > N) keeps the residual form r = y - psi c, where G would be
both larger and slower per step.  The Gram-form loss
(y^T y - 2 c^T b + c^T G c) / N is a difference of terms of size y^T y,
so its rounding floor is a few ulp of y^T y / N: about 1e-15 on the
example1 presets (y^T y / N is about 3.1, one ulp 4.4e-16), far below
any loss target or plateau gap in use.
"""

from __future__ import annotations

import csv
import enum
import json
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
    """Loss or coefficients blew up; carries the last finite model state."""

    def __init__(self, message, model=None, iteration=None):
        super().__init__(message)
        self.model = model
        self.iteration = iteration


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


def gradient_step(model: WaveletModel, X, y, lr: float) -> WaveletModel:
    """One full-batch MSE gradient update, in place.

    Each coefficient moves by ``lr * (2/N) * sum_i resid_i * psi_j(x_i)``.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty batch")
    psi = basis_matrix(model.mother, model.bases, X)
    resid = y - psi @ model.coeffs
    model.coeffs += lr * (2.0 / y.size) * (psi.T @ resid)
    _check_finite(model, None)
    return model


def _check_finite(model, iteration, last_good=None):
    bad = not np.all(np.isfinite(model.coeffs))
    if not bad and np.max(np.abs(model.coeffs), initial=0.0) > DIVERGENCE_LIMIT:
        bad = True
    if bad:
        if last_good is not None:
            model.coeffs = last_good
        raise TrainingDivergence(
            f"training diverged at iteration {iteration}", model=model,
            iteration=iteration)


@dataclass
class TrainLog:
    """Iteration records and structural growth events for one run.

    Records are ``(iteration, loss, n_params, elapsed_ms)`` rows with a
    strictly increasing global iteration counter; growth events are
    ``(iteration, event, resolution, added)`` rows.
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

    def add_event(self, iteration: int, event: str, resolution: int, added: int) -> None:
        self.events.append((iteration, event, resolution, added))

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


def _objective(psi, y):
    """Return ``f(c) -> (g, loss)``: the descent direction
    ``g = psi^T (y - psi c)`` and the mean squared error at ``c``.

    With p <= N, ``f`` holds only G, b and y^T y (see the module
    docstring); with p > N it holds psi and forms the residual.
    """
    n = y.size
    if psi.shape[1] <= n:
        gram, b, yy = psi.T @ psi, psi.T @ y, float(y @ y)

        def f(c):
            g = b - gram @ c
            return g, (yy - float(c @ (b + g))) / n
    else:
        def f(c):
            resid = y - psi @ c
            return psi.T @ resid, float(np.mean(resid * resid))
    return f


def train_to_plateau(model: WaveletModel, X, y, lr: float, zeta: float,
                     epsilon: float, max_iters: int, log: TrainLog | None = None
                     ) -> TrainStatus:
    """Run gradient steps until the loss target, a plateau, or the budget.

    The loss is checked before the first step, so a model already at or
    below ``epsilon`` returns Achieved without stepping.  A plateau is a
    consecutive-loss change of at most ``zeta``.  Divergence (non-finite
    loss or huge coefficients) raises, restoring the last finite state.

    Each step is ``c += (2 lr / N) g``.  When p <= N the step runs on the
    Gram form: ``g = b - G c`` and the loss is ``(y^T y - c.(b + g)) / N``,
    so one p x p product gives both the loss at the new coefficients and
    the next direction.  G is p x p <= N x p, so it never takes more memory
    than the design matrix it replaces, which is released once G is built.
    When p > N the residual form ``r = y - psi c``, ``g = psi^T r`` runs
    instead.  The Gram loss carries a rounding floor of a few ulp of
    ``y^T y / N``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty batch")
    objective = _objective(basis_matrix(model.mother, model.bases, X), y)
    scale = lr * 2.0 / y.size
    direction, current = objective(model.coeffs)
    if current <= epsilon:
        return TrainStatus.ACHIEVED
    offset = log.last_iteration if log is not None else 0
    for k in range(1, max_iters + 1):
        last_good = model.coeffs.copy()
        model.coeffs += scale * direction
        direction, new = objective(model.coeffs)
        if not np.isfinite(new):
            _check_finite(model, offset + k, last_good)
            model.coeffs = last_good
            raise TrainingDivergence(f"loss became non-finite at iteration {offset + k}",
                                     model=model, iteration=offset + k)
        _check_finite(model, offset + k, last_good)
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
