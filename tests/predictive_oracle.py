"""Posterior predictive replicates drawn directly in n dimensions.

The decision stage prices its path entries against replicates drawn in the
span of the aggregated design and the curve scores; these full draws x n
replicates are the reference it is checked against.
"""

import numpy as np

from sofreg.gibbs import subsample_indices


def predictive_means(draws, design, idx):
    """Fitted response at draws ``idx``: curve and scalar fits (draws x n)."""
    return draws.coeffs[idx] @ design.scores.T + draws.alpha[idx] @ design.z.T


def predictive_draws(draws, design, rng, size=1000):
    """Posterior predictive replicates of the response, one row per subsampled draw."""
    idx = subsample_indices(draws.n_draws, size)
    mean = predictive_means(draws, design, idx)
    return mean + np.sqrt(draws.sigma2[idx])[:, None] * rng.standard_normal(mean.shape)
