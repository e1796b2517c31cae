"""Constructive wavelet network library.

Approximates an unknown mapping from samples by (1) probing for the
resolution where its detail energy peaks, (2) seeding a linear-in-
parameters wavelet model there, and (3) greedily growing the basis set —
highest-energy elements first — until a loss target is met.  Frame-level
diagnostics verify the localization properties the construction relies
on.
"""

from .datasets import (Dataset, DataError, gen_autoregression, gen_example1,
                       gen_example2_regions, load_csv, minmax_scale,
                       minmax_unscale, split)
from .diagnostics import (DecayReport, TimeFrequencyBox, count_peaks,
                          decay_report, gram, scan_indices)
from .frequency import (EnergyTrace, estimate_initial_resolution,
                        estimate_subspace_energy)
from .growth import (GrowthConfig, WaveletPool, expand_into_next,
                     run_baseline_wnn, run_growth, run_online,
                     select_high_energy)
from .model import (TrainLog, TrainStatus, TrainingDivergence, WaveletModel,
                    loss, train_to_plateau)
from .wavelets import (BasisKind, CenterGrid, GridError, MotherWavelet,
                       WaveletFamily, basis_matrix, basis_set,
                       build_center_grid, children_centers)

__version__ = "0.1.0"

__all__ = [
    "BasisKind", "CenterGrid", "DataError", "Dataset", "DecayReport",
    "EnergyTrace", "GridError", "GrowthConfig", "MotherWavelet",
    "TimeFrequencyBox", "TrainLog", "TrainStatus", "TrainingDivergence",
    "WaveletFamily", "WaveletModel", "WaveletPool", "basis_matrix",
    "basis_set", "build_center_grid", "children_centers", "count_peaks",
    "decay_report", "estimate_initial_resolution", "estimate_subspace_energy",
    "expand_into_next", "gen_autoregression", "gen_example1",
    "gen_example2_regions", "gram", "load_csv", "loss", "minmax_scale",
    "minmax_unscale", "run_baseline_wnn", "run_growth", "run_online",
    "scan_indices", "select_high_energy", "split", "train_to_plateau",
]
