"""Benchmark data generators and CSV input and output.

Generators cover a two-input static benchmark with graded heteroscedastic
noise, a two-region variant of the same surface, and a second-order
chaotic autoregression whose governing map can switch mid-stream.  All
randomness flows through a seeded numpy Generator, and a min-max scaled
dataset carries the scaling record that inverts it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data (CSV parse issues, bad columns)."""


@dataclass
class Dataset:
    inputs: np.ndarray   # (n, dim)
    targets: np.ndarray  # (n,)
    scaling: dict | None = None  # the min-max record, once scaled

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataError("inputs and targets disagree on sample count")

    def __len__(self):
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _surface(x1, x2):
    return 0.5 + x1 + x2 + np.sin(2.0 * math.pi * (x1 + x2))


_NOISE_SCALE = {"D1": 0.0, "D2": 0.1, "D3": 0.2}


def gen_example1(variant: str, n: int, seed: int) -> Dataset:
    """Static two-input benchmark: x2 = sqrt(x1) on [0, 1], target
    0.5 + x1 + x2 + sin(2*pi*(x1 + x2)) plus graded noise.

    Variants: D1 noiseless, D2 and D3 add zero-mean Gaussian noise with
    input-dependent spread 0.1*(1 - x1**2) and 0.2*(1 - x1**2).
    """
    if variant not in _NOISE_SCALE:
        raise DataError(f"unknown variant {variant!r}; expected D1, D2 or D3")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 1.0, size=n)
    x2 = np.sqrt(x1)
    y = _surface(x1, x2)
    scale = _NOISE_SCALE[variant]
    if scale > 0.0:
        y = y + rng.normal(0.0, 1.0, size=n) * scale * (1.0 - x1 * x1)
    return Dataset(np.column_stack([x1, x2]), y)


def gen_example2_regions(n_per_region: int, seed: int):
    """The same surface restricted to two disjoint input regions:
    x1 in [0, 0.6] and x1 in [0.6, 1] (noiseless).  Returns (DS1, DS2)."""
    rng = np.random.default_rng(seed)
    out = []
    for lo, hi in ((0.0, 0.6), (0.6, 1.0)):
        x1 = rng.uniform(lo, hi, size=n_per_region)
        x2 = np.sqrt(x1)
        y = _surface(x1, x2)
        out.append(Dataset(np.column_stack([x1, x2]), y))
    return tuple(out)


def armap_base(y1: float, y2: float) -> float:
    """Pre-switch autoregression map sqrt(arctan(pi*(y1^2 + y2^2)))."""
    return math.sqrt(math.atan(math.pi * (y1 * y1 + y2 * y2)))


def armap_switched(y1: float, y2: float) -> float:
    """Post-switch map: adds cos(pi*(y1^2 + y2^2)) to the base map."""
    return armap_base(y1, y2) + math.cos(math.pi * (y1 * y1 + y2 * y2))


def gen_autoregression(length: int, seed: int, switch_at: int | None = None,
                       noise_sd: float = 0.01) -> Dataset:
    """Simulate the second-order autoregression y_t = f(y_{t-1}, y_{t-2}) + noise.

    Initial values y_1 = y_2 = 1.  When ``switch_at`` is given, time steps
    t >= switch_at use the switched map.  Rows are (inputs (y_{t-1},
    y_{t-2}), target y_t) for t = 3..length, so noisy outputs feed back
    into later inputs.
    """
    if length < 3:
        raise DataError("length must be at least 3")
    rng = np.random.default_rng(seed)
    y = np.empty(length + 1)
    y[1] = y[2] = 1.0
    for t in range(3, length + 1):
        f = armap_base if switch_at is None or t < switch_at else armap_switched
        y[t] = f(y[t - 1], y[t - 2]) + rng.normal(0.0, noise_sd)
    return Dataset(np.column_stack([y[2:-1], y[1:-2]]), y[3:])


def load_csv(path, target_column: str, feature_columns=None) -> Dataset:
    """Load a numeric CSV with a header row.

    The header may not name a column twice.  ``feature_columns`` defaults
    to every column except the target, and may not be empty or list the
    target or any column twice.  Parse failures and values that are not
    finite (``nan``, ``inf``) name the offending row and column; these
    and a file that cannot be opened are ``DataError``s.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        twice = [h for j, h in enumerate(header) if h in header[:j]]
        if twice:
            raise DataError(f"{path}: header names column {twice[0]!r} twice")
        if target_column not in header:
            raise DataError(f"{path}: target column {target_column!r} not in "
                            f"header {header}")
        if feature_columns is None:
            feature_columns = [h for h in header if h != target_column]
        if not feature_columns:
            raise DataError(f"{path}: no feature columns beside the target "
                            f"{target_column!r}")
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise DataError(f"{path}: feature columns {missing} not in header")
        for j, name in enumerate(feature_columns):
            why = ("is the target" if name == target_column else
                   "is listed twice" if name in feature_columns[:j] else "")
            if why:
                raise DataError(f"{path}: feature column {name!r} {why}")
        cols = {name: header.index(name) for name in [*feature_columns, target_column]}
        xs, ys = [], []
        for i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            vals = {}
            for name, j in cols.items():
                if j >= len(row):
                    raise DataError(f"{path}: row {i} has no column {name!r}")
                try:
                    vals[name] = float(row[j])
                except ValueError:
                    raise DataError(f"{path}: row {i}, column {name!r}: "
                                    f"cannot parse {row[j]!r} as a number") from None
                if not math.isfinite(vals[name]):
                    raise DataError(f"{path}: row {i}, column {name!r}: "
                                    f"value {row[j]!r} is not finite")
            xs.append([vals[c] for c in feature_columns])
            ys.append(vals[target_column])
    if not xs:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.array(xs), np.array(ys))


def write_csv(path, header: str, lines) -> None:
    """Write comma-joined ``header`` and ``lines``, whose fields hold no
    comma or quote, as ``csv.writer`` would: each ends in ``\\r\\n``."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *lines, ""]))


def minmax_scale(ds: Dataset, feature_range=(0.0, 1.0)) -> Dataset:
    """Scale each input column (and the target) to ``feature_range``.

    The per-column minima and maxima are recorded in ``scaling``
    so the transform can be inverted.  A constant column cannot be scaled
    and raises with the column named.
    """
    lo, hi = feature_range
    cols_min = ds.inputs.min(axis=0)
    cols_max = ds.inputs.max(axis=0)
    t_min, t_max = float(ds.targets.min()), float(ds.targets.max())
    for j, (a, b) in enumerate(zip(cols_min, cols_max)):
        if a == b:
            raise DataError(f"column x{j + 1} is constant; cannot min-max scale")
    if t_min == t_max:
        raise DataError("target column is constant; cannot min-max scale")
    X = lo + (ds.inputs - cols_min) / (cols_max - cols_min) * (hi - lo)
    y = lo + (ds.targets - t_min) / (t_max - t_min) * (hi - lo)
    return Dataset(X, y, {
        "feature_range": [lo, hi],
        "input_min": cols_min.tolist(),
        "input_max": cols_max.tolist(),
        "target_min": t_min,
        "target_max": t_max,
    })


def minmax_unscale(ds: Dataset) -> Dataset:
    """Invert :func:`minmax_scale` using the recorded column extrema."""
    rec = ds.scaling
    if rec is None:
        raise DataError("dataset has no scaling record to invert")
    lo, hi = rec["feature_range"]
    in_min = np.asarray(rec["input_min"])
    in_max = np.asarray(rec["input_max"])
    X = in_min + (ds.inputs - lo) / (hi - lo) * (in_max - in_min)
    y = rec["target_min"] + (ds.targets - lo) / (hi - lo) * (rec["target_max"] - rec["target_min"])
    return Dataset(X, y)


def split(ds: Dataset, train_fraction: float, seed: int):
    """Random train/test split; returns (train, test) covering every row
    exactly once."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ds))
    n_train = int(round(train_fraction * len(ds)))
    tr, te = perm[:n_train], perm[n_train:]
    return (Dataset(ds.inputs[tr], ds.targets[tr], ds.scaling),
            Dataset(ds.inputs[te], ds.targets[te], ds.scaling))
