"""Shrinkage-process conditionals checked against dense linear algebra,
closed-form moments, and independent constructions of the same laws."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import polygamma, psi

from sofreg.dhs import (
    LOG_CHI2_MEAN,
    LOG_CHI2_PROB,
    LOG_CHI2_VAR,
    LOG_SQUARE_JITTER,
    _PG_TRUNC,
    DhsConfig,
    DhsState,
    _level_log_density,
    _log_vol_level_joint,
    _pg_rtigauss,
    _site_log_densities,
    dhs_step,
    init_dhs_state,
    polya_gamma_mean,
    prior_step,
    sample_ar_level_collapsed,
    sample_ar_persistence,
    sample_boundary_scale,
    sample_log_vols_and_level,
    sample_log_vols_sitewise,
    sample_mixture_indicators,
    sample_polya_gamma_vec,
    sample_z_dist,
    update_innovation_auxiliaries,
)


def pg_gamma_sum_oracle(tilt: float, rng: np.random.Generator, n: int, terms: int = 2000):
    """Independent construction of PG(1, tilt) as an infinite gamma sum."""
    k = np.arange(1, terms + 1)
    denom = (k - 0.5) ** 2 + tilt**2 / (4 * math.pi**2)
    g = rng.standard_exponential(size=(n, terms))  # Gamma(1, 1)
    return (g / denom).sum(axis=1) / (2 * math.pi**2)


def _z_log_density(x: float, a: float, b: float) -> float:
    return a * x - (a + b) * (max(x, 0.0) + math.log1p(math.exp(-abs(x))))


def site_log_density(
    hk: float,
    k: int,
    h: np.ndarray,
    ystar_k: float,
    mu: float,
    phi: float,
    a: float,
    b: float,
) -> float:
    """Collapsed log density of one volatility given its neighbours, one site at a time.

    The exact log chi-squared observation density plus the Z(a, b) laws of
    the site's own innovation and, when there is a next site, of the next
    site's innovation: the scalar reference for the sampler's array version.
    """
    eps = ystar_k - hk
    if eps > 690.0:
        return -math.inf
    val = 0.5 * (eps - math.exp(eps))
    prev = h[k - 1] - mu if k > 0 else 0.0
    val += _z_log_density((hk - mu) - phi * prev, a, b)
    if k + 1 < h.size:
        val += _z_log_density((h[k + 1] - mu) - phi * (hk - mu), a, b)
    return val


# --- Polya-Gamma sampler ----------------------------------------------------


@pytest.mark.parametrize("tilt", [0.0, 0.7, 2.0, -3.0])
def test_pg_devroye_moments(tilt):
    rng = np.random.default_rng(12)
    draws = sample_polya_gamma_vec(np.full(40_000, tilt), rng)
    mean = polya_gamma_mean(tilt)
    assert abs(draws.mean() - mean) < 6 * draws.std() / math.sqrt(draws.size)
    if tilt == 0.0:
        assert abs(draws.var() - 1.0 / 24.0) < 2e-3


@pytest.mark.parametrize("tilt", [0.0, 1.5])
def test_pg_devroye_distribution_matches_gamma_sum(tilt):
    rng = np.random.default_rng(13)
    devroye = sample_polya_gamma_vec(np.full(4000, tilt), rng)
    oracle = pg_gamma_sum_oracle(tilt, rng, 4000)
    assert stats.ks_2samp(devroye, oracle).pvalue > 1e-3


def test_pg_interleaved_tilts_in_one_call():
    # one call with mixed tilts: a mask slip in the array rounds would move a
    # draw into another entry's slot, and tilts of 4 and more reach the
    # inverse-Gaussian branch of the truncated proposal (|tilt| >= 3.125)
    tilts = np.array([0.0, 0.7, -3.0, 4.0, 12.0, 40.0])
    n = 4000
    rng = np.random.default_rng(14)
    draws = sample_polya_gamma_vec(np.tile(tilts, n), rng).reshape(n, tilts.size)
    for j, tilt in enumerate(tilts):
        col = draws[:, j]
        assert abs(col.mean() - polya_gamma_mean(tilt)) < 6 * col.std() / math.sqrt(n), tilt
        p = stats.ks_2samp(col, pg_gamma_sum_oracle(tilt, rng, n)).pvalue
        assert p > 1e-3, f"tilt {tilt}: KS p={p:.3g}"


@pytest.mark.parametrize("z", [0.0, 1.0, 1.6, 5.0])
def test_pg_truncated_inverse_gaussian_proposal_matches_scipy(z):
    # IG(1/z, 1) truncated to (0, 0.64]: z < 1/0.64 takes the inverse
    # chi-square branch (z = 0 is the Levy law), larger z the inverse Gaussian
    rng = np.random.default_rng(15)
    draws = _pg_rtigauss(np.full(20_000, z), rng)
    assert np.all((draws > 0) & (draws <= _PG_TRUNC))
    if z == 0.0:
        law = lambda q: stats.norm.sf(1.0 / np.sqrt(q)) / stats.norm.sf(1.0 / math.sqrt(_PG_TRUNC))
    else:
        ig = stats.invgauss(mu=1.0 / z, scale=1.0)
        law = lambda q: ig.cdf(q) / ig.cdf(_PG_TRUNC)
    assert stats.kstest(draws, law).pvalue > 1e-3


def test_config_requires_innovation_parameters_summing_to_one():
    with pytest.raises(ValueError, match=r"a \+ b = 1"):
        DhsConfig(a=0.3, b=0.5)
    with pytest.raises(ValueError, match=r"a > 0"):
        DhsConfig(a=0.0, b=1.0)
    DhsConfig(a=0.3, b=0.7)  # asymmetric innovations stay allowed


# --- Z distribution and the half-Cauchy identity ----------------------------


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (2.0, 3.0)])
def test_z_distribution_moments(a, b):
    rng = np.random.default_rng(16)
    draws = sample_z_dist(a, b, rng, size=100_000)
    assert abs(draws.mean() - (psi(a) - psi(b))) < 0.05
    assert abs(draws.var() - (polygamma(1, a) + polygamma(1, b))) < 0.5


def test_z_half_half_exponential_is_half_cauchy():
    # exp(z/2) with z ~ Z(1/2, 1/2) is standard half-Cauchy
    rng = np.random.default_rng(17)
    lam = np.exp(sample_z_dist(0.5, 0.5, rng, size=20_000) / 2.0)
    assert stats.kstest(lam, stats.halfcauchy.cdf).pvalue > 0.01


# --- log chi-square mixture --------------------------------------------------


def test_mixture_constants_match_log_chi_square():
    assert abs(LOG_CHI2_PROB.sum() - 1.0) < 1e-9
    mean = LOG_CHI2_PROB @ LOG_CHI2_MEAN
    var = LOG_CHI2_PROB @ (LOG_CHI2_VAR + LOG_CHI2_MEAN**2) - mean**2
    assert abs(mean - (psi(0.5) + math.log(2.0))) < 5e-4
    assert abs(var - polygamma(1, 0.5)) < 5e-3
    w = np.linspace(-20, 6, 4001)
    exact = np.exp(w / 2 - np.exp(w) / 2) / math.sqrt(2 * math.pi)
    approx = sum(
        p * np.exp(-((w - m) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)
        for p, m, v in zip(LOG_CHI2_PROB, LOG_CHI2_MEAN, LOG_CHI2_VAR)
    )
    assert np.max(np.abs(approx - exact)) < 1e-3


def test_mixture_indicator_frequencies_match_exact_posterior():
    rng = np.random.default_rng(18)
    d2 = np.array([0.3])
    h = np.array([-1.0])
    resid = math.log(d2[0] ** 2 + LOG_SQUARE_JITTER) - h[0]
    dens = LOG_CHI2_PROB * stats.norm.pdf(resid, LOG_CHI2_MEAN, np.sqrt(LOG_CHI2_VAR))
    exact = dens / dens.sum()
    n = 100_000
    counts = np.bincount(
        np.concatenate([sample_mixture_indicators(d2, h, rng) for _ in range(n)]), minlength=10
    )
    assert np.max(np.abs(counts / n - exact)) < 0.01


# --- joint log-volatility draw ----------------------------------------------


def _random_state(m, seed, phi=0.6, mu_h=-1.0):
    rng = np.random.default_rng(seed)
    return (
        DhsState(
            h=rng.normal(size=m),
            mu_h=mu_h,
            phi=phi,
            lambda0=1.0,
            indicators=rng.integers(0, 10, size=m),
            xi=rng.gamma(2.0, 0.3, size=m) + 0.05,
            xi_mu=0.3,
        ),
        rng.normal(size=m) * 0.5,  # second differences
    )


def _dense_log_vol_terms(d2, state, config):
    """Brute-force precision and linear term via explicit matrices."""
    m = state.size
    ystar = np.log(d2**2 + LOG_SQUARE_JITTER)
    obs_var = LOG_CHI2_VAR[state.indicators]
    obs_mean = LOG_CHI2_MEAN[state.indicators]
    T = np.eye(m)
    for k in range(1, m):
        T[k, k - 1] = -state.phi
    Xi = np.diag(state.xi)
    kappa = (config.a - config.b) / 2.0
    u = kappa / state.xi + state.mu_h * (T @ np.ones(m))
    Q = np.diag(1.0 / obs_var) + T.T @ Xi @ T
    lin = (ystar - obs_mean) / obs_var + T.T @ Xi @ u
    return Q, lin


@pytest.mark.parametrize("m,phi", [(10, 0.6), (10, -0.4), (25, 0.95)])
def test_log_vol_conditional_matches_dense_oracle(m, phi):
    # the h | mu_h conditional read off the joint (h, mu_h) terms matches
    # the explicit-matrix construction with the level held fixed
    config = DhsConfig()
    state, d2 = _random_state(m, seed=21, phi=phi)
    diag, offdiag, lin_h, coupling, _, _ = _log_vol_level_joint(d2, state, config)
    Q, lin_dense = _dense_log_vol_terms(d2, state, config)
    band = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    assert np.max(np.abs(band - Q)) < 1e-12
    assert np.max(np.abs(lin_h - coupling * state.mu_h - lin_dense)) < 1e-12


def _dense_joint_level_terms(d2, state, config):
    """(m+1)-dimensional precision and linear term for (h, mu_h) via matrices."""
    m = state.size
    Q_hh, lin_dense = _dense_log_vol_terms(d2, state, config)
    # strip the level contribution baked into lin_dense by _dense_log_vol_terms
    T = np.eye(m)
    for k in range(1, m):
        T[k, k - 1] = -state.phi
    Xi = np.diag(state.xi)
    ones_col = T @ np.ones(m)
    kappa = (config.a - config.b) / 2.0
    c = kappa / state.xi
    ystar = np.log(d2**2 + LOG_SQUARE_JITTER)
    obs_var = LOG_CHI2_VAR[state.indicators]
    obs_mean = LOG_CHI2_MEAN[state.indicators]
    lin_h = (ystar - obs_mean) / obs_var + T.T @ Xi @ c
    q = np.zeros((m + 1, m + 1))
    q[:m, :m] = Q_hh
    q[:m, m] = -(T.T @ Xi @ ones_col)
    q[m, :m] = q[:m, m]
    q[m, m] = state.xi_mu + ones_col @ Xi @ ones_col
    lin = np.r_[lin_h, -(ones_col @ Xi @ c)]
    return q, lin


@pytest.mark.parametrize("m,phi", [(8, 0.6), (15, -0.3), (20, 0.97)])
def test_joint_level_path_terms_match_dense_oracle(m, phi):
    config = DhsConfig()
    state, d2 = _random_state(m, seed=31, phi=phi)
    diag, offdiag, lin_h, coupling, level_prec, level_lin = _log_vol_level_joint(
        d2, state, config
    )
    q, lin = _dense_joint_level_terms(d2, state, config)
    band = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    assert np.max(np.abs(band - q[:m, :m])) < 1e-12
    assert np.max(np.abs(coupling - q[:m, m])) < 1e-12
    assert abs(level_prec - q[m, m]) < 1e-12
    assert np.max(np.abs(lin_h - lin[:m])) < 1e-12
    assert abs(level_lin - lin[m]) < 1e-12


def test_joint_level_path_draw_moments():
    # repeated draws match the dense (m+1)-dimensional Gaussian
    config = DhsConfig()
    state, d2 = _random_state(6, seed=32)
    q, lin = _dense_joint_level_terms(d2, state, config)
    cov = np.linalg.inv(q)
    mean = cov @ lin
    rng = np.random.default_rng(33)
    draws = np.empty((30_000, 7))
    for i in range(draws.shape[0]):
        h, mu = sample_log_vols_and_level(d2, state, config, rng)
        draws[i, :6] = h
        draws[i, 6] = mu
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 6 * se)
    emp = np.cov(draws.T)
    assert np.max(np.abs(emp - cov)) < 0.05 * np.max(np.diag(cov))


def test_level_slice_targets_exact_collapsed_conditional():
    rng = np.random.default_rng(34)
    h = np.array([0.3, -1.2, 0.8, 2.0, -0.5, 1.1])
    config = DhsConfig()
    state = DhsState(h=h, mu_h=0.4, phi=0.7, lambda0=1.0,
                     indicators=np.zeros(6, dtype=int), xi=np.ones(6), xi_mu=1.0)
    grid = np.linspace(-30, 30, 120_001)
    logd = np.array([_level_log_density(g, h, 0.7, 0.5, 0.5) for g in grid])
    dens = np.exp(logd - logd.max())
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    draws = np.empty(4000)
    for i in range(draws.size):
        state.mu_h = sample_ar_level_collapsed(state, config, rng)
        draws[i] = state.mu_h
    assert stats.kstest(draws[::5], lambda x: np.interp(x, grid, cdf)).pvalue > 1e-3


def test_level_slice_escapes_unidentified_tail_state():
    # with phi ~ 1 the path carries almost no level information, so the
    # collapsed draw should renew from near the prior immediately; the
    # augmented draw would crawl away from a tail start instead
    config = DhsConfig()
    rng = np.random.default_rng(35)
    state = DhsState(h=np.array([0.3, -1.2, 0.8, 2.0, -0.5, 1.1]), mu_h=8.0,
                     phi=0.999, lambda0=1.0, indicators=np.zeros(6, dtype=int),
                     xi=np.ones(6), xi_mu=1.0)
    seq = np.empty(2000)
    for i in range(seq.size):
        state.mu_h = sample_ar_level_collapsed(state, config, rng)
        seq[i] = state.mu_h
    x = seq - seq.mean()
    lag1 = (x[:-1] @ x[1:]) / (x @ x)
    assert abs(lag1) < 0.1
    assert abs(seq.mean()) < 1.0


@pytest.mark.parametrize("m", [1, 2, 7])
def test_site_log_densities_match_scalar_oracle(m):
    # both parity classes, the first and last sites, and the -inf guard
    # where the observation term underflows (eps > 690)
    rng = np.random.default_rng(39)
    h = rng.normal(size=m) * 2.0
    ystar = rng.normal(size=m) * 3.0
    mu, phi = 0.4, -0.7
    for sites in (np.arange(0, m, 2), np.arange(1, m, 2)):
        x = rng.normal(size=sites.size) * 4.0
        x[:1] = ystar[sites[:1]] - 700.0
        got = _site_log_densities(sites, h, ystar, mu, phi, 0.3, 0.7)(x)
        want = np.array([site_log_density(xi, k, h, ystar[k], mu, phi, 0.3, 0.7)
                         for xi, k in zip(x, sites)])
        assert np.all(got[:1] == -np.inf) and np.all(want[:1] == -np.inf)
        assert np.allclose(got[1:], want[1:], rtol=1e-12, atol=1e-12)


def test_sitewise_slice_invariant_law_matches_exact_density():
    # one site, so no neighbour ordering: the chain's stationary law is the
    # collapsed conditional itself, available on a grid
    config = DhsConfig()
    rng = np.random.default_rng(36)
    d2 = np.array([0.7])
    ystar = math.log(d2[0] ** 2 + LOG_SQUARE_JITTER)
    mu, phi = 0.3, 0.6
    grid = np.linspace(-30, 30, 120_001)
    logd = np.array(
        [site_log_density(g, 0, np.zeros(1), ystar, mu, phi, 0.5, 0.5) for g in grid]
    )
    dens = np.exp(logd - logd.max())
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    state = DhsState(h=np.zeros(1), mu_h=mu, phi=phi, lambda0=1.0,
                     indicators=np.zeros(1, dtype=int), xi=np.ones(1), xi_mu=1.0)
    draws = np.empty(30_000)
    for i in range(draws.size):
        sample_log_vols_sitewise(d2, state, config, rng)
        draws[i] = state.h[0]
    assert stats.kstest(draws[1000::5], lambda x: np.interp(x, grid, cdf)).pvalue > 1e-3


def _dense_joint_site_law(d2, mu, phi, grid):
    """The collapsed conditional of the whole path on a dense m-dimensional grid.

    Site k's density on the path cut after k holds only its observation
    and its own innovation, so those terms summed over k are the joint log
    density; each depends on (h[k-1], h[k]) alone and is tabulated once.
    """
    m, g = d2.size, grid.size
    ystar = np.log(d2**2 + LOG_SQUARE_JITTER)
    logp = np.zeros((g,) * m)
    for k in range(m):
        if k == 0:
            term = np.array([site_log_density(x, 0, np.array([x]), ystar[0], mu, phi, 0.5, 0.5)
                             for x in grid])
            shape = (g,) + (1,) * (m - 1)
        else:
            cut = np.zeros(k + 1)
            term = np.empty((g, g))
            for i, xp in enumerate(grid):
                cut[k - 1] = xp
                for j, x in enumerate(grid):
                    cut[k] = x
                    term[i, j] = site_log_density(x, k, cut, ystar[k], mu, phi, 0.5, 0.5)
            shape = (1,) * (k - 1) + (g, g) + (1,) * (m - k - 1)
        logp = logp + term.reshape(shape)
    p = np.exp(logp - logp.max())
    return p / p.sum()


def _grid_cdf(values, mass):
    # each grid point's mass spread over its cell, linear between cell edges
    step = values[1] - values[0]
    edges = np.r_[values[0] - step / 2, values + step / 2]
    cdf = np.r_[0.0, np.cumsum(mass)]
    return lambda x: np.interp(x, edges, cdf)


@pytest.mark.parametrize("d2", [np.array([0.7, 0.05]), np.array([0.3, 2.2, 0.01])])
def test_parity_blocked_slice_matches_dense_joint_grid(d2):
    # m = 2 and 3: a first site with no previous one, a last with no next one,
    # and at m = 3 an odd site between two even ones.  The marginals and the
    # neighbour differences of the chain must match the dense joint law; the
    # differences see the dependence between the two parity classes.
    config = DhsConfig()
    mu, phi = 0.3, 0.8
    m = d2.size
    grid = np.linspace(-24.0, 16.0, 161)
    law = _dense_joint_site_law(d2, mu, phi, grid)
    state = DhsState(h=np.zeros(m), mu_h=mu, phi=phi, lambda0=1.0,
                     indicators=np.zeros(m, dtype=int), xi=np.ones(m), xi_mu=1.0)
    rng = np.random.default_rng(100)
    draws = np.empty((12_000, m))
    for i in range(draws.shape[0]):
        sample_log_vols_sitewise(d2, state, config, rng)
        draws[i] = state.h
    draws = draws[500::3]
    for k in range(m):
        marginal = law.sum(axis=tuple(j for j in range(m) if j != k))
        p = stats.kstest(draws[:, k], _grid_cdf(grid, marginal)).pvalue
        assert p > 1e-3, f"site {k}: KS p={p:.3g}"
    step = grid[1] - grid[0]
    offsets = np.arange(-(grid.size - 1), grid.size)
    for k in range(m - 1):
        pair = law.sum(axis=tuple(j for j in range(m) if j not in (k, k + 1)))
        i0, i1 = np.indices(pair.shape)
        diff_mass = np.bincount((i1 - i0).ravel() + grid.size - 1, weights=pair.ravel())
        p = stats.kstest(draws[:, k + 1] - draws[:, k], _grid_cdf(offsets * step, diff_mass)).pvalue
        assert p > 1e-3, f"sites {k}, {k + 1}: KS p={p:.3g}"


def _draw_path_given_level(d2, state, config, rng):
    """h | mu_h from the joint (h, mu_h) conditional terms, by a dense solve."""
    diag, offdiag, lin_h, coupling, _, _ = _log_vol_level_joint(d2, state, config)
    q = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    mean = np.linalg.solve(q, lin_h - coupling * state.mu_h)
    chol = np.linalg.cholesky(q)
    return mean + np.linalg.solve(chol.T, rng.standard_normal(diag.size))


def test_sitewise_and_augmented_chains_share_invariant_law():
    # two independent mechanisms for p(h | d2, mu, phi): collapsed slices
    # versus mixture indicators plus Polya-Gamma with a blocked draw
    config = DhsConfig()
    rng = np.random.default_rng(37)
    d2 = np.array([0.3, -1.1, 0.05, 2.2, -0.4])
    mu, phi = 0.3, 0.6

    def run_chain(kind, n):
        st = DhsState(h=np.zeros(5), mu_h=mu, phi=phi, lambda0=1.0,
                      indicators=np.zeros(5, dtype=int),
                      xi=np.full(5, polya_gamma_mean(0.0)), xi_mu=1.0)
        out = np.empty(n)
        for i in range(n):
            if kind == "site":
                sample_log_vols_sitewise(d2, st, config, rng)
            else:
                st.indicators = sample_mixture_indicators(d2, st.h, rng)
                st.h = _draw_path_given_level(d2, st, config, rng)
                update_innovation_auxiliaries(st, rng)
            out[i] = st.h[2]
        return out

    a = run_chain("site", 30_000)[2000::7]
    b = run_chain("augmented", 30_000)[2000::7]
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_ar_persistence_slice_targets_exact_conditional():
    config = DhsConfig()
    rng = np.random.default_rng(25)
    m = 40
    state = DhsState(
        h=0.3 + np.cumsum(rng.normal(size=m)) * 0.3,
        mu_h=0.3,
        phi=0.5,
        lambda0=1.0,
        indicators=np.zeros(m, dtype=int),
        xi=rng.gamma(3.0, 0.2, size=m) + 0.1,
        xi_mu=0.3,
    )
    centered = state.h - state.mu_h
    grid = np.linspace(-1 + 1e-6, 1 - 1e-6, 4001)
    logdens = np.array(
        [
            -0.5 * np.sum(state.xi[1:] * (centered[1:] - p * centered[:-1]) ** 2)
            + (config.phi_a - 1) * np.log((1 + p) / 2)
            + (config.phi_b - 1) * np.log((1 - p) / 2)
            for p in grid
        ]
    )
    dens = np.exp(logdens - logdens.max())
    cdf_grid = np.cumsum(dens)
    cdf_grid /= cdf_grid[-1]

    draws = []
    for _ in range(3000):
        state.phi = sample_ar_persistence(state, config, rng)
        draws.append(state.phi)
    draws = np.array(draws[200:])
    result = stats.kstest(draws, lambda q: np.interp(q, grid, cdf_grid))
    assert result.pvalue > 1e-3


def test_boundary_scale_conjugate_distribution():
    rng = np.random.default_rng(26)
    b1, bk = 0.8, -1.4
    draws = np.array([sample_boundary_scale(b1, bk, rng) for _ in range(30_000)])
    shape = 0.01 + 1.0
    rate = 0.01 + 0.5 * (b1**2 + bk**2)
    assert stats.kstest(draws**-2.0, stats.gamma(shape, scale=1.0 / rate).cdf).pvalue > 0.01


def test_init_state_levels_and_clamping():
    state = init_dhs_state(np.array([1e-12, -1e-12, 1e-12]))
    assert np.all(state.h == -20.0)
    state = init_dhs_state(np.array([1e30, -1e30, 1e30]))
    assert np.all(state.h == 20.0)
    state = init_dhs_state(np.array([0.5, -0.2, 0.9, 0.0]))
    assert state.phi == 0.9 and state.lambda0 == 1.0
    assert state.mu_h == state.h[0]
    assert np.all(np.isfinite(state.xi)) and state.xi_mu > 0


def test_dhs_step_stays_finite_and_in_support():
    config = DhsConfig()
    rng = np.random.default_rng(27)
    d2 = rng.normal(size=30) * np.r_[np.full(15, 0.01), np.full(15, 2.0)]
    state = init_dhs_state(d2)
    for _ in range(300):
        dhs_step(d2, state, config, rng)
        assert np.all(np.isfinite(state.h))
        assert -1.0 < state.phi < 1.0
        assert np.all(state.xi > 0)
    # adaptivity: rough half should carry much larger local scales
    assert state.h[20:].mean() > state.h[:10].mean() + 2.0


def test_prior_step_with_zero_persistence_gives_half_cauchy_scales():
    config = DhsConfig()
    rng = np.random.default_rng(28)
    state = init_dhs_state(np.ones(50))
    state.mu_h = 0.0
    state.phi = 0.0
    lams = []
    for _ in range(400):
        prior_step(state, config, rng)
        lams.append(np.exp(state.h / 2.0))
    lams = np.concatenate(lams)
    assert stats.kstest(lams, stats.halfcauchy.cdf).pvalue > 0.01
