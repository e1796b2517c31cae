"""The divergence check as the training loops ran it before
``Design.step``, the tests' reference loops' oracle."""

import numpy as np

from cwnn.model import DIVERGENCE_LIMIT, TrainingDivergence


def check_finite(model, iteration, last_good):
    """Non-finite or huge coefficients restore ``last_good`` and raise."""
    c = model.coeffs
    if (not np.all(np.isfinite(c))
            or np.max(np.abs(c), initial=0.0) > DIVERGENCE_LIMIT):
        model.coeffs = last_good
        raise TrainingDivergence(f"training diverged at iteration {iteration}")
