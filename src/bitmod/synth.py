"""Synthetic weight-tensor generators.

Ship with the CLI so every experiment runs without downloading model
checkpoints.  All generators are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

DISTRIBUTIONS = ("gaussian", "laplacian", "outlier_mixture")
DEFAULT_SEED = 20250823


def sample(dist: str, shape, seed: int = DEFAULT_SEED,
           rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw a float32 tensor from one of the bundled distributions.

    ``outlier_mixture`` is Gaussian bulk with ~1% of entries scaled by 6,
    mimicking weight groups with one-sided outliers.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if dist == "gaussian":
        x = rng.standard_normal(shape)
    elif dist == "laplacian":
        x = rng.laplace(0.0, 1.0, size=shape)
    elif dist == "outlier_mixture":
        x = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.01
        x = np.where(mask, 6.0 * x, x)
    else:
        raise ValueError(f"unknown distribution {dist!r}; "
                         f"choose from {DISTRIBUTIONS}")
    return x.astype(np.float32)

