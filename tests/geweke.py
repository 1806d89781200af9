"""Prior and successive-conditional simulators for joint distribution tests.

Geweke (2004, *Getting it right: joint distribution tests of posterior
simulators*): draws of the parameters from their prior, and a chain that
alternates simulating a response with one posterior sweep, have the same
marginal law exactly when every conditional of the sampler is coded
right.  The simulators act on a ``_GibbsCore``, so the sweep they check is
the one ``fit`` runs.
"""

import math

import numpy as np

from sofreg.dhs import (
    PHI_PRIOR,
    DhsState,
    sample_mixture_indicators,
    update_innovation_auxiliaries,
)
from sofreg.funcdata import RegressionDesign
from sofreg.gibbs import FitConfig, _GibbsCore


def sample_z_dist(a: float, b: float, rng: np.random.Generator, size=None) -> np.ndarray | float:
    """Draw from the Z(a, b) distribution: the logit of a Beta(a, b)."""
    x = rng.beta(a, b, size=size)
    return np.log(x) - np.log1p(-x)


def prior_step(state: DhsState, rng: np.random.Generator) -> None:
    """Redraw the path and its auxiliaries from the prior given (mu_h, phi), in place.

    The path is forward-simulated as an AR(1) with Z(1/2, 1/2) innovations;
    the innovation and level Polya-Gamma variables are then drawn given
    the new path.
    """
    m = state.size
    eta = sample_z_dist(0.5, 0.5, rng, size=m)
    h = np.empty(m)
    h[0] = state.mu_h + eta[0]
    for k in range(1, m):
        h[k] = state.mu_h + state.phi * (h[k - 1] - state.mu_h) + eta[k]
    state.h = h
    update_innovation_auxiliaries(state, rng)


def prior_draw(core: _GibbsCore, rng: np.random.Generator) -> None:
    """Exact draw of every parameter of ``core`` from its prior.

    Only possible when all scalar columns carry proper priors; the flat
    intercept prior has no generative counterpart.
    """
    cfg = core.config
    scales = core.scales
    m = core.diff_op.shape[0] - 2
    scales.lambda0 = 1.0 / math.sqrt(rng.gamma(cfg.scale_shape, 1.0 / cfg.scale_rate))
    if cfg.prior == "dhs":
        scales.dhs_state = DhsState(
            h=np.zeros(m),
            mu_h=float(sample_z_dist(0.5, 0.5, rng)),
            phi=2.0 * rng.beta(*PHI_PRIOR) - 1.0,
            indicators=np.zeros(m, dtype=int),
            xi=np.full(m, 0.25),
            xi_mu=0.25,
        )
    elif cfg.prior == "pspline":
        scales.smooth_var = 1.0 / rng.gamma(cfg.scale_shape, 1.0 / cfg.scale_rate)
    else:
        scales.local_var = 1.0 / rng.gamma(cfg.scale_shape, 1.0 / cfg.scale_rate, size=m)
    core.alpha_scales2 = 1.0 / rng.gamma(cfg.var_shape, 1.0 / cfg.var_rate, size=core.alpha.size)
    core.sigma2 = 1.0 / rng.gamma(cfg.var_shape, 1.0 / cfg.var_rate)
    refresh_latents_from_prior(core, rng)


def simulate_y(core: _GibbsCore, rng: np.random.Generator) -> np.ndarray:
    """Generate a response vector from the current parameters of ``core``."""
    mean = core.x @ core.beta + core.z @ core.alpha
    return mean + math.sqrt(core.sigma2) * rng.standard_normal(core.n)


def refresh_latents_from_prior(core: _GibbsCore, rng: np.random.Generator) -> None:
    """Redraw volatilities, auxiliaries and coefficients given the hyperparameters.

    Together with a subsequent response simulation this is an exact
    conditional draw of (path, auxiliaries, coefficients, response) given
    (level, persistence, scales, noise variance), valid as an extra block
    in the self-consistency chain.  Without it those latents anchor one
    another through the regenerated response and relax only by diffusion,
    collapsing the chain's effective sample size; the persistent
    hyperparameters are exactly the quantities the check records.
    """
    cfg = core.config
    if not np.all(core.design.penalized):
        raise ValueError("prior simulation requires all scalar columns penalized")
    scales, dop = core.scales, core.diff_op
    if cfg.prior == "dhs":
        prior_step(scales.dhs_state, rng)
    lam = scales.variance_vector(cfg.prior, dop.shape[0])
    core.beta = np.linalg.solve(dop, np.sqrt(lam) * rng.standard_normal(lam.size))
    if cfg.prior == "dhs":
        d2 = (dop @ core.beta)[1:-1]
        state = scales.dhs_state
        state.indicators = sample_mixture_indicators(d2, state.h, rng)
    core.alpha = np.sqrt(core.alpha_scales2) * rng.standard_normal(core.alpha.size)


def prior_parameter_draws(
    design: RegressionDesign, config: FitConfig, n_draws: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Independent prior draws of the parameters tracked by the validation check."""
    core = _GibbsCore(design, config)
    out = {"sigma2": np.empty(n_draws)}
    if config.prior == "dhs":
        out["phi"] = np.empty(n_draws)
        out["mu_h"] = np.empty(n_draws)
    for i in range(n_draws):
        prior_draw(core, rng)
        out["sigma2"][i] = core.sigma2
        if config.prior == "dhs":
            out["phi"][i] = core.scales.dhs_state.phi
            out["mu_h"][i] = core.scales.dhs_state.mu_h
    return out


def successive_conditional_draws(
    design: RegressionDesign,
    config: FitConfig,
    n_sweeps: int,
    rng: np.random.Generator,
    thin: int = 1,
) -> dict[str, np.ndarray]:
    """Chain that alternates data simulation with one posterior sweep.

    If the sampler's conditionals are mutually consistent, the recorded
    parameters are marginally distributed according to the prior, which
    ``prior_parameter_draws`` samples directly; comparing the two exposes
    coding errors in any conditional.
    """
    core = _GibbsCore(design, config)
    prior_draw(core, rng)
    kept = n_sweeps // thin
    out = {"sigma2": np.empty(kept)}
    if config.prior == "dhs":
        out["phi"] = np.empty(kept)
        out["mu_h"] = np.empty(kept)
    s = 0
    for it in range(n_sweeps):
        core.set_y(simulate_y(core, rng))
        core.sweep(rng)
        core.check_finite(it)
        if it % thin == 0 and s < kept:
            out["sigma2"][s] = core.sigma2
            if config.prior == "dhs":
                out["phi"][s] = core.scales.dhs_state.phi
                out["mu_h"][s] = core.scales.dhs_state.mu_h
            s += 1
        # decouples the latents from the simulated response, which
        # otherwise anchor each other and stall the chain
        refresh_latents_from_prior(core, rng)
    return out
