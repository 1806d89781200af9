"""Mixing estimators, written apart from the package under test.

``ess`` is the multi-chain effective sample size with Geyer's initial
monotone sequence (Geyer 1992; the pooled form of Vehtari, Gelman,
Simpson, Carpenter and Buerkner 2021, without rank normalisation).
``split_rhat`` is the split potential scale reduction factor of
Gelman et al. (BDA3, section 11.4).
"""

from __future__ import annotations

import numpy as np


def _as_chains(draws) -> np.ndarray:
    x = np.asarray(draws, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("need a (chains, draws) array with at least 4 draws per chain")
    if not np.all(np.isfinite(x)):
        raise ValueError("draws must be finite")
    return x


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..N-1, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(spec * spec.conj(), size, axis=1)[:, :n] / n


def ess(draws) -> float:
    """Effective sample size of a scalar pooled over chains.

    ``draws`` is (chains, draws) or one chain.  Autocorrelations are
    combined across chains through the between/within variance estimate,
    so chains that disagree yield a smaller ESS.  Pairs of consecutive
    autocorrelations are summed until the first non-positive pair and
    forced to be non-increasing.
    """
    x = _as_chains(draws)
    m, n = x.shape
    acov = _autocovariance(x)
    within = float(np.mean(acov[:, 0] * n / (n - 1.0)))
    between = float(np.var(x.mean(axis=1), ddof=1)) if m > 1 else 0.0
    var_plus = within * (n - 1.0) / n + between
    if not var_plus > 0.0:
        raise ValueError("draws have no variance")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[: stop[0]]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    return m * n / tau


def split_rhat(draws) -> float:
    """Split-R-hat: each chain is halved, then between/within variances compared."""
    x = _as_chains(draws)
    half = x.shape[1] // 2
    halves = np.concatenate([x[:, :half], x[:, x.shape[1] - half :]], axis=0)
    n = halves.shape[1]
    within = float(np.mean(np.var(halves, axis=1, ddof=1)))
    between = float(np.var(halves.mean(axis=1), ddof=1))
    if not within > 0.0:
        raise ValueError("draws have no within-chain variance")
    var_plus = within * (n - 1.0) / n + between
    return float(np.sqrt(var_plus / within))
