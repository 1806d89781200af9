"""Dynamic shrinkage process: a stochastic-volatility prior on local scales.

The second differences of the regression-function coefficients get scales
``lambda_k = exp(h_k / 2)`` whose logs follow a stationary AR(1) with
Z-distributed innovations.  With innovation parameters (1/2, 1/2) and unit
AR scale this makes each marginal scale a half-Cauchy: a horseshoe whose
local scales are dependent along the domain, shrinking flat stretches hard
while letting neighbouring coefficients share evidence of curvature.

Every conditional here is conjugate after two data augmentations:

* the observation equation ``log(d_k^2) = h_k + log chi^2_1`` is linearised
  by the ten-component Gaussian mixture of Omori, Chib, Shephard and
  Nakajima (2007) for the log chi-square error;
* the Z-distributed innovations (and the matching prior on the AR level)
  are conditionally Gaussian given Polya-Gamma auxiliaries, sampled
  exactly by the Devroye rejection algorithm.

The joint update of the whole log-volatility path is a tridiagonal
Gaussian solve, so one sweep costs O(K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded
from scipy.special import expit, log_ndtr, ndtr, ndtri

# Ten-component Gaussian mixture for the log chi^2_1 distribution
# (Omori, Chib, Shephard and Nakajima, 2007, Table 1).
LOG_CHI2_PROB = np.array(
    [0.00609, 0.04775, 0.13057, 0.20674, 0.22715, 0.18842, 0.12047, 0.05591, 0.01575, 0.00115]
)
LOG_CHI2_MEAN = np.array(
    [1.92677, 1.34744, 0.73504, 0.02266, -0.85173, -1.97278, -3.46788, -5.55246, -8.68384, -14.65000]
)
LOG_CHI2_VAR = np.array(
    [0.11265, 0.17788, 0.26768, 0.40611, 0.62699, 0.98583, 1.57469, 2.54498, 4.16591, 7.33342]
)

LOG_SQUARE_JITTER = 1e-10  # keeps log(d^2) finite when a difference hits zero


# --- Polya-Gamma sampling ---------------------------------------------------

_PG_TRUNC = 0.64  # switch point between the two series representations
_PG_TIG_BATCH = 4  # truncated inverse-Gaussian proposals per entry and round
_PG_TAIL_MASS = float(ndtr(-1.0 / math.sqrt(_PG_TRUNC)))  # P(1/chi^2_1 <= _PG_TRUNC) / 2


def _pg_a_coef(n: int, x: np.ndarray) -> np.ndarray:
    # alternating-series coefficients for the Jacobi density
    k = n + 0.5
    return np.where(
        x > _PG_TRUNC,
        math.pi * k * np.exp(-(k**2) * math.pi**2 * x / 2.0),
        math.pi * k * (2.0 / (math.pi * x)) ** 1.5 * np.exp(-2.0 * k**2 / x),
    )


def _pg_mass_texpon(z: np.ndarray) -> np.ndarray:
    # probability that the proposal comes from the exponential tail piece
    t = _PG_TRUNC
    fz = math.pi**2 / 8.0 + z**2 / 2.0
    b = math.sqrt(1.0 / t) * (t * z - 1.0)
    a = -math.sqrt(1.0 / t) * (t * z + 1.0)
    x0 = np.log(fz) + fz * t
    xb = x0 - z + log_ndtr(b)
    xa = x0 + z + log_ndtr(a)
    # 1 / (1 + q/p) with q/p = 4/pi * (e^xb + e^xa), kept finite for large z
    return expit(-(math.log(4.0 / math.pi) + np.logaddexp(xb, xa)))


def _pg_rtigauss(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # inverse-Gaussian(1/z, 1) truncated to (0, _PG_TRUNC], one draw per entry.
    # Each round makes _PG_TIG_BATCH proposals for every entry still open and
    # keeps the first accepted, which is plain rejection sampling in batches.
    t = _PG_TRUNC
    out = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        zt = z[todo]
        x = np.empty((todo.size, _PG_TIG_BATCH))
        ok = np.empty(x.shape, dtype=bool)
        small = zt < 1.0 / t
        # small z: 1/Z^2 with Z a standard normal beyond 1/sqrt(t), drawn by
        # inverting its tail from a uniform on (0, 1], so x is 1/chi^2_1
        # truncated to (0, t]; kept with probability exp(-z^2 x / 2)
        zs = zt[small, None]
        tail = ndtri((1.0 - rng.random((zs.size, _PG_TIG_BATCH))) * _PG_TAIL_MASS)
        xs = 1.0 / (tail * tail)
        x[small] = xs
        ok[small] = rng.random(xs.shape) <= np.exp(-0.5 * zs * zs * xs)
        # large z: an untruncated inverse Gaussian, kept when it falls below t
        mu = 1.0 / zt[~small, None]
        y = rng.standard_normal((mu.size, _PG_TIG_BATCH)) ** 2
        xl = mu + 0.5 * mu * mu * y - 0.5 * mu * np.sqrt(4.0 * mu * y + (mu * y) ** 2)
        xl = np.where(rng.random(xl.shape) > mu / (mu + xl), mu * mu / xl, xl)
        x[~small] = xl
        ok[~small] = xl <= t
        done = ok.any(axis=1)
        first = ok.argmax(axis=1)
        out[todo[done]] = x[done, first[done]]
        todo = todo[~done]
    return out


def _pg_series_accepts(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Devroye's alternating-series test of each proposal against the Jacobi density
    s = _pg_a_coef(0, x)
    y = rng.random(x.size) * s
    accept = np.zeros(x.size, dtype=bool)
    open_ = np.ones(x.size, dtype=bool)
    n = 0
    while open_.any():
        n += 1
        if n % 2 == 1:
            s = s - _pg_a_coef(n, x)
            hit = open_ & (y <= s)
            accept |= hit
            open_ &= ~hit
        else:
            s = s + _pg_a_coef(n, x)
            open_ &= y <= s
    return accept


def sample_polya_gamma_vec(tilts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent PG(1, tilt_k) draws, one per entry of a 1-D array.

    Exact by Devroye's method (Polson, Scott and Windle, 2013): each round
    proposes for every entry still open, from the exponential tail piece
    or the truncated inverse Gaussian, and runs the alternating-series
    test on all of them at once; rejected entries propose again.
    """
    z = np.abs(np.asarray(tilts, dtype=float)) / 2.0
    fz = math.pi**2 / 8.0 + z**2 / 2.0
    p_texpon = _pg_mass_texpon(z)
    out = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        from_texpon = rng.random(todo.size) < p_texpon[todo]
        x = np.empty(todo.size)
        tail = todo[from_texpon]
        x[from_texpon] = _PG_TRUNC + rng.standard_exponential(tail.size) / fz[tail]
        x[~from_texpon] = _pg_rtigauss(z[todo[~from_texpon]], rng)
        ok = _pg_series_accepts(x, rng)
        out[todo[ok]] = x[ok] / 4.0
        todo = todo[~ok]
    return out


def polya_gamma_mean(tilt: float) -> float:
    """E[PG(1, tilt)]; closed form used for initialization and tests."""
    if tilt == 0.0:
        return 0.25
    return math.tanh(tilt / 2.0) / (2.0 * tilt)


# --- Z distribution ---------------------------------------------------------


def sample_z_dist(a: float, b: float, rng: np.random.Generator, size=None) -> np.ndarray | float:
    """Draw from the Z(a, b) distribution: the logit of a Beta(a, b)."""
    x = rng.beta(a, b, size=size)
    return np.log(x) - np.log1p(-x)


# --- state and configuration ------------------------------------------------


@dataclass
class DhsConfig:
    """Hyperparameters of the shrinkage process.

    The innovations are Z(a, b) with a + b = 1, so that their Polya-Gamma
    auxiliaries are PG(1, .) and drawn exactly; other sums are rejected.
    ``a = b = 1/2`` gives the horseshoe-type calibration; the AR
    persistence has a Beta(phi_a, phi_b) prior on (phi+1)/2.
    """

    a: float = 0.5
    b: float = 0.5
    phi_a: float = 10.0
    phi_b: float = 2.0
    refresh: int = 5

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0 and abs(self.a + self.b - 1.0) <= 1e-12):
            raise ValueError(
                f"DHS innovation parameters need a > 0, b > 0 and a + b = 1; "
                f"got a={self.a}, b={self.b}"
            )


@dataclass
class DhsState:
    """Current values of the latent shrinkage process for one coefficient block."""

    h: np.ndarray
    mu_h: float
    phi: float
    lambda0: float
    indicators: np.ndarray
    xi: np.ndarray
    xi_mu: float

    @property
    def size(self) -> int:
        return self.h.size

    def local_variances(self) -> np.ndarray:
        return np.exp(self.h)


def init_dhs_state(d2: np.ndarray) -> DhsState:
    """Deterministic starting state given initial second differences."""
    d2 = np.asarray(d2, dtype=float)
    m = d2.size
    if m < 2:
        raise ValueError("need at least two interior coefficients")
    level = float(np.clip(np.log(max(d2.var(), 1e-300)), -20.0, 20.0))
    return DhsState(
        h=np.full(m, level),
        mu_h=level,
        phi=0.9,
        lambda0=1.0,
        indicators=np.full(m, int(np.argmax(LOG_CHI2_PROB))),
        xi=np.full(m, polya_gamma_mean(0.0)),
        xi_mu=polya_gamma_mean(0.0),
    )


# --- conditional updates ----------------------------------------------------


def sample_mixture_indicators(
    d2: np.ndarray, h: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Mixture component for each log squared difference given its volatility."""
    resid = np.log(np.asarray(d2) ** 2 + LOG_SQUARE_JITTER) - np.asarray(h)
    logw = (
        np.log(LOG_CHI2_PROB)[None, :]
        - 0.5 * np.log(LOG_CHI2_VAR)[None, :]
        - 0.5 * (resid[:, None] - LOG_CHI2_MEAN[None, :]) ** 2 / LOG_CHI2_VAR[None, :]
    )
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    u = rng.random(resid.size)
    return (w.cumsum(axis=1) < u[:, None]).sum(axis=1)


def _banded_chol(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    band = np.zeros((2, diag.size))
    band[0] = diag
    band[1, :-1] = offdiag
    return cholesky_banded(band, lower=True)


def _banded_noise(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    # solve L' x = z so that x has covariance (L L')^{-1}
    upper = np.zeros_like(chol)
    upper[0, 1:] = chol[1, :-1]
    upper[1] = chol[0]
    return solve_banded((0, 1), upper, z)


def _log_vol_level_joint(
    d2: np.ndarray, state: DhsState, config: DhsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Precision pieces of the joint Gaussian for (h, mu_h).

    Returns (diag, offdiag, lin_h, coupling, level_prec, level_lin): the
    tridiagonal h block, the h linear term with the level terms removed,
    the dense h-level coupling column, and the level's own precision and
    linear term.
    """
    m = state.size
    ystar = np.log(np.asarray(d2) ** 2 + LOG_SQUARE_JITTER)
    obs_mean = LOG_CHI2_MEAN[state.indicators]
    obs_var = LOG_CHI2_VAR[state.indicators]
    xi = state.xi
    phi = state.phi
    kappa = (config.a - config.b) / 2.0
    c = kappa / xi

    diag = 1.0 / obs_var + xi
    diag[:-1] += phi**2 * xi[1:]
    offdiag = -phi * xi[1:]

    lin_h = (ystar - obs_mean) / obs_var
    lin_h += xi * c
    lin_h[:-1] -= phi * xi[1:] * c[1:]

    ar_ones = np.r_[1.0, np.full(m - 1, 1.0 - phi)]  # row sums of the AR operator
    coupling = -xi * ar_ones
    coupling[:-1] += phi * xi[1:] * ar_ones[1:]
    level_prec = state.xi_mu + float(xi @ ar_ones**2)
    level_lin = -float((xi * c) @ ar_ones)
    return diag, offdiag, lin_h, coupling, level_prec, level_lin


def sample_log_vols_and_level(
    d2: np.ndarray, state: DhsState, config: DhsConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """One Gaussian draw of the path and its level together.

    Updating h and mu_h separately mixes poorly: the likelihood pins the
    path only weakly, so the pair performs a random walk.  Marginalizing
    the path out of the level draw (a banded Schur complement) removes
    that coupling at the same O(size) cost.
    """
    diag, offdiag, lin_h, coupling, level_prec, level_lin = _log_vol_level_joint(
        d2, state, config
    )
    chol = _banded_chol(diag, offdiag)
    h_inv_coupling = cho_solve_banded((chol, True), coupling)
    h_inv_lin = cho_solve_banded((chol, True), lin_h)
    marg_prec = level_prec - float(coupling @ h_inv_coupling)
    marg_lin = level_lin - float(coupling @ h_inv_lin)
    mu = marg_lin / marg_prec + rng.standard_normal() / math.sqrt(marg_prec)
    mean_h = h_inv_lin - h_inv_coupling * mu
    h = mean_h + _banded_noise(chol, rng.standard_normal(diag.size))
    return h, float(mu)


def update_innovation_auxiliaries(state: DhsState, rng: np.random.Generator) -> None:
    """Refresh the PG(1, eta_k) innovation variables and the level's PG(1, mu_h).

    Given the path, the level and phi these are independent, so one
    Polya-Gamma call of size m + 1 draws them together.
    """
    centered = state.h - state.mu_h
    tilts = np.empty(state.size + 1)
    tilts[0] = centered[0]
    tilts[1:-1] = centered[1:] - state.phi * centered[:-1]
    tilts[-1] = state.mu_h
    draws = sample_polya_gamma_vec(tilts, rng)
    state.xi = draws[:-1]
    state.xi_mu = float(draws[-1])


def _phi_log_density(phi: float, state: DhsState, config: DhsConfig) -> float:
    centered = state.h - state.mu_h
    resid = centered[1:] - phi * centered[:-1] - (config.a - config.b) / (2.0 * state.xi[1:])
    loglik = -0.5 * float(np.sum(state.xi[1:] * resid**2))
    logprior = (config.phi_a - 1.0) * math.log((1.0 + phi) / 2.0) + (
        config.phi_b - 1.0
    ) * math.log((1.0 - phi) / 2.0)
    return loglik + logprior


def sample_ar_persistence(state: DhsState, config: DhsConfig, rng: np.random.Generator) -> float:
    """Slice sampler for phi on (-1, 1) with interval shrinkage."""
    current = state.phi
    height = _phi_log_density(current, state, config) - rng.standard_exponential()
    lo, hi = -1.0 + 1e-12, 1.0 - 1e-12
    while True:
        cand = rng.uniform(lo, hi)
        if _phi_log_density(cand, state, config) > height:
            return cand
        if cand < current:
            lo = cand
        else:
            hi = cand


def _z_log_density(x: np.ndarray, a: float, b: float) -> np.ndarray:
    return a * x - (a + b) * np.logaddexp(0.0, x)


def _site_log_densities(
    sites: np.ndarray,
    h: np.ndarray,
    ystar: np.ndarray,
    mu: float,
    phi: float,
    a: float,
    b: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Collapsed log densities of the given sites, as one function of their values.

    No two of ``sites`` may be neighbours: each density holds the rest of
    ``h`` fixed, so its neighbour terms are read once, here.  Uses the
    exact log chi-squared observation density, so neither the mixture
    indicators nor the Polya-Gamma scales appear.
    """
    obs = ystar[sites]
    # the site's own innovation is x - back; the next site's is ahead - phi * x
    back = mu + np.where(sites > 0, phi * (h[sites - 1] - mu), 0.0)
    ahead = h[np.minimum(sites + 1, h.size - 1)] - (1.0 - phi) * mu
    has_next = (sites + 1 < h.size).astype(float)

    def logdens(x: np.ndarray) -> np.ndarray:
        eps = obs - x
        val = 0.5 * (eps - np.exp(np.minimum(eps, 690.0)))
        val[eps > 690.0] = -np.inf
        val += _z_log_density(x - back, a, b)
        val += has_next * _z_log_density(ahead - phi * x, a, b)
        return val

    return logdens


def sample_log_vols_sitewise(
    d2: np.ndarray, state: DhsState, config: DhsConfig, rng: np.random.Generator
) -> None:
    """One pass of single-site slice updates on the volatility path, in place.

    Complements the blocked Gaussian draw: that draw conditions on the
    auxiliary variables, and the pair (path, auxiliaries) relaxes only
    geometrically in the tails where the auxiliaries shrink like the
    reciprocal of the innovation.  Here the auxiliaries are integrated
    out exactly, so tail states renew in O(1) sweeps.  Each site density
    is log-concave, hence the step-out slice terminates quickly.

    Site k's collapsed density depends on the path only through h[k-1]
    and h[k+1].  So given the odd sites the even sites are independent,
    and the joint conditional of the even class is the product of their
    site densities; likewise the odd class given the even.  Each class is
    updated as one array (Neal, 2003): a slice height and a placement
    uniform per site, then step-out and shrinkage loops that run while
    any site is unfinished, each site moving only its own bracket.  Each
    site's update leaves its factor invariant, so the class update leaves
    the class's joint conditional invariant, and the pass is exact.
    """
    ystar = np.log(np.asarray(d2) ** 2 + LOG_SQUARE_JITTER)
    h = state.h
    width = 6.0
    step = np.array([[-width], [width]])  # step-out moves of the two bracket ends
    for sites in (np.arange(0, h.size, 2), np.arange(1, h.size, 2)):
        logdens = _site_log_densities(sites, h, ystar, state.mu_h, state.phi, config.a, config.b)
        current = h[sites]
        drop = rng.standard_exponential(sites.size)
        lo = current - width * rng.uniform(size=sites.size)
        # rows: the current value, then the lower and upper bracket ends
        points = np.stack([current, lo, lo + width])
        dens = logdens(points)
        height = dens[0] - drop
        ends = points[1:]
        stepping = dens[1:] > height
        while stepping.any():
            ends += stepping * step
            stepping &= logdens(ends) > height
        lo, hi = ends
        # shrinkage; an accepted site's bracket collapses onto its new value,
        # so later rounds redraw that value unchanged and accept it again
        while True:
            cand = rng.uniform(lo, hi)
            hit = logdens(cand) > height
            if hit.all():
                break
            below = cand < current
            lo = np.where(hit | below, cand, lo)
            hi = np.where(hit | ~below, cand, hi)
        h[sites] = cand


def _level_log_density(mu: float, h: np.ndarray, phi: float, a: float, b: float) -> float:
    """Log density of the level given the path, all auxiliaries integrated out.

    The innovations eta_k(mu) keep their closed-form Z(a, b) law, and the
    level itself is Z(1/2, 1/2), so the collapsed conditional is a sum of
    log-concave terms: a * eta - (a + b) * log(1 + exp(eta)).
    """
    eta = np.empty_like(h)
    eta[0] = h[0] - mu
    eta[1:] = (h[1:] - mu) - phi * (h[:-1] - mu)
    loglik = float(a * eta.sum() - (a + b) * np.logaddexp(0.0, eta).sum())
    logprior = 0.5 * mu - math.log1p(math.exp(-abs(mu))) - max(mu, 0.0)
    return loglik + logprior


def sample_ar_level_collapsed(state: DhsState, config: DhsConfig, rng: np.random.Generator) -> float:
    """Slice sampler for the level with the augmentation variables collapsed.

    The Polya-Gamma route leaves the pair (level, auxiliary) nearly frozen
    in the tails (the auxiliary shrinks like 1/|level|), so a direct draw
    from the marginalized conditional is needed for the level to traverse
    its heavy-tailed prior.  The target is log-concave, hence unimodal, so
    interval shrinkage from a generous bracket terminates quickly.
    """
    current = state.mu_h

    def logdens(mu: float) -> float:
        return _level_log_density(mu, state.h, state.phi, config.a, config.b)

    height = logdens(current) - rng.standard_exponential()
    width = 8.0
    lo = current - width * rng.uniform()
    hi = lo + width
    while logdens(lo) > height:
        lo -= width
    while logdens(hi) > height:
        hi += width
    while True:
        cand = rng.uniform(lo, hi)
        if logdens(cand) > height:
            return cand
        if cand < current:
            lo = cand
        else:
            hi = cand


def sample_boundary_scale(
    b_first: float,
    b_last: float,
    rng: np.random.Generator,
    shape: float = 0.01,
    rate: float = 0.01,
) -> float:
    """Scale of the two unpenalized boundary coefficients (conjugate gamma)."""
    post_shape = shape + 1.0
    post_rate = rate + 0.5 * (b_first**2 + b_last**2)
    return float(1.0 / math.sqrt(rng.gamma(post_shape, 1.0 / post_rate)))


def dhs_step(d2: np.ndarray, state: DhsState, config: DhsConfig, rng: np.random.Generator) -> None:
    """One full sweep over the latent shrinkage process, in place.

    Order: mixture indicators, the blocked (path, level) draw, the
    sitewise slice over the path, the collapsed level slice, the
    Polya-Gamma auxiliaries, persistence.  The level's auxiliary is drawn
    with the innovation auxiliaries: it depends only on the level, which
    nothing changes between that draw and the next blocked draw, and the
    persistence conditional does not use it.  Any fixed order of valid
    blocks leaves the conditional law invariant.

    The cycle runs ``config.refresh`` times.  The auxiliary variables
    (mixture indicators, Polya-Gamma scales) and the latent path relax
    slowly relative to the coefficient block, so repeats shorten their
    autocorrelation time.  They are not cheap: each cycle costs as much
    as the first.  At 53 coefficients and n=500 a sweep took 1.8 ms with
    one cycle and 8.2 ms with five, on one core of a 2-CPU machine.
    """
    for _ in range(config.refresh):
        state.indicators = sample_mixture_indicators(d2, state.h, rng)
        state.h, state.mu_h = sample_log_vols_and_level(d2, state, config, rng)
        sample_log_vols_sitewise(d2, state, config, rng)
        state.mu_h = sample_ar_level_collapsed(state, config, rng)
        update_innovation_auxiliaries(state, rng)
        state.phi = sample_ar_persistence(state, config, rng)


def prior_step(state: DhsState, config: DhsConfig, rng: np.random.Generator) -> None:
    """Redraw the path and its auxiliaries from the prior given (mu_h, phi), in place.

    The path is forward-simulated as an AR(1) with Z(a, b) innovations;
    the innovation and level Polya-Gamma variables are then drawn given
    the new path.  Used by the prior simulators that validate the sampler.
    """
    m = state.size
    eta = sample_z_dist(config.a, config.b, rng, size=m)
    h = np.empty(m)
    h[0] = state.mu_h + eta[0]
    for k in range(1, m):
        h[k] = state.mu_h + state.phi * (h[k - 1] - state.mu_h) + eta[k]
    state.h = h
    update_innovation_auxiliaries(state, rng)
