"""Gibbs sampler for scalar-on-function regression with adaptive shrinkage.

The model: response = intercept + scalar effects + integral of the curve
against a coefficient function + Gaussian noise.  The coefficient function
is a spline whose second differences get one of three priors:

* ``dhs``            dynamic shrinkage process (dependent local scales),
* ``pspline``        one global smoothing scale,
* ``local-pspline``  independent local scales.

All variants share a conjugate Gaussian block structure, so the sampler
alternates exact conditional draws; no tuning is required.  Per-iteration
cost is linear in the number of subjects and cubic only in the (small)
number of basis coefficients.

Besides ``fit``, this module provides the prior and successive-conditional
simulators used to validate the sampler against itself, posterior curve
summaries, model-free predictive draws, and a flat-file draw archive.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy.linalg import cho_solve, solve_triangular

from sofreg.basis import BSplineBasis, Domain, eval_basis_matrix, second_difference_matrix
from sofreg.dhs import (
    DhsConfig,
    DhsState,
    dhs_step,
    init_dhs_state,
    polya_gamma_mean,
    prior_step,
    sample_boundary_scale,
    sample_mixture_indicators,
    sample_z_dist,
)
from sofreg.funcdata import RegressionDesign

log = logging.getLogger(__name__)

PRIOR_KINDS = ("dhs", "pspline", "local-pspline")


class NumericalError(RuntimeError):
    """Raised when a conditional draw cannot be computed stably."""


@dataclass
class FitConfig:
    """Sampler settings.

    ``var_shape``/``var_rate`` parameterize the gamma priors on inverse
    noise and scalar-coefficient variances; ``scale_shape``/``scale_rate``
    those on inverse squared smoothing scales (global, local, and boundary).
    The defaults are the diffuse (0.01, 0.01) choices; sampler-validation
    harnesses use tamer proper values.
    """

    prior: str = "dhs"
    burnin: int = 10000
    draws: int = 10000
    thin: int = 1
    var_shape: float = 0.01
    var_rate: float = 0.01
    scale_shape: float = 0.01
    scale_rate: float = 0.01
    dhs: DhsConfig = field(default_factory=DhsConfig)

    def __post_init__(self) -> None:
        if self.prior not in PRIOR_KINDS:
            raise ValueError(f"unknown prior {self.prior!r}; expected one of {PRIOR_KINDS}")
        if self.draws < 1 or self.burnin < 0 or self.thin < 1:
            raise ValueError("need draws >= 1, burnin >= 0, thin >= 1")


@dataclass
class BlockDraws:
    """Posterior draws for one spline-expanded covariate effect."""

    name: str
    basis: BSplineBasis
    coeffs: np.ndarray


@dataclass
class PosteriorDraws:
    """Stored posterior sample and enough metadata to reuse it later."""

    coeffs: np.ndarray
    basis: BSplineBasis
    alpha: np.ndarray
    alpha_names: list[str]
    penalized: np.ndarray
    sigma2: np.ndarray
    alpha_scales2: np.ndarray
    lambda0: np.ndarray
    prior: str
    config: FitConfig
    y_hat: np.ndarray
    blocks: list[BlockDraws] = field(default_factory=list)
    h: np.ndarray | None = None
    mu_h: np.ndarray | None = None
    phi: np.ndarray | None = None
    smooth_var: np.ndarray | None = None
    local_var: np.ndarray | None = None
    seed: int | None = None

    @property
    def n_draws(self) -> int:
        return self.coeffs.shape[0]

    def block(self, name: str) -> BlockDraws:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(f"no adaptive block named {name!r}")


def stable_hash(payload: dict) -> str:
    """Short deterministic hash of a JSON-serializable dictionary."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def sample_gaussian_by_precision(
    prec: np.ndarray, lin: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw from N(prec^-1 lin, prec^-1) via Cholesky of the precision.

    One trace-scaled jitter retry is attempted before giving up, so a
    marginally indefinite matrix from roundoff does not kill a long run;
    the retry is logged as a warning.
    """
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        bump = 1e-8 * np.trace(prec) / prec.shape[0]
        log.warning(
            "%d x %d precision matrix failed its Cholesky factorization; "
            "retrying with %.3g added to the diagonal",
            prec.shape[0], prec.shape[0], bump,
        )
        try:
            chol = np.linalg.cholesky(prec + bump * np.eye(prec.shape[0]))
        except np.linalg.LinAlgError as err:
            raise NumericalError("coefficient precision matrix is not positive definite") from err
    mean = cho_solve((chol, True), lin)
    z = rng.standard_normal(lin.size)
    return mean + solve_triangular(chol, z, lower=True, trans="T")


# --- internal sampler core ---------------------------------------------------


@dataclass
class _SplineScales:
    """Scale state for one spline coefficient block under any prior kind."""

    lambda0: float = 1.0
    dhs_state: DhsState | None = None
    smooth_var: float = 1.0
    local_var: np.ndarray | None = None

    def variance_vector(self, prior: str, size: int) -> np.ndarray:
        lam = np.empty(size)
        lam[0] = lam[-1] = self.lambda0**2
        if prior == "dhs":
            lam[1:-1] = self.dhs_state.local_variances()
        elif prior == "pspline":
            lam[1:-1] = self.smooth_var
        else:
            lam[1:-1] = self.local_var
        return lam


class _GibbsCore:
    """Precomputed cross-products plus the current state of every block.

    Coefficient blocks are handled uniformly: the functional coefficient
    and any adaptive covariate blocks carry a spline shrinkage prior, the
    scalar block carries independent normal priors (flat on unpenalized
    columns).  Conditional linear terms use cached cross-products, so only
    fitted-vector updates and the residual sum touch all n subjects.
    """

    def __init__(self, design: RegressionDesign, config: FitConfig):
        self.config = config
        self.design = design
        self.names = ["beta"] + [b.name for b in design.adaptive_blocks] + ["alpha"]
        mats = [design.scores] + [b.design for b in design.adaptive_blocks] + [design.z]
        self.mats = dict(zip(self.names, mats))
        self.spline_names = self.names[:-1]
        self.n = design.n

        self.gram = {
            a: {b: self.mats[a].T @ self.mats[b] for b in self.names} for a in self.names
        }
        self.diff_op = {name: second_difference_matrix(self.mats[name].shape[1])
                        for name in self.spline_names}

        self.theta = {name: np.zeros(self.mats[name].shape[1]) for name in self.names}
        self.fitted = {name: np.zeros(self.n) for name in self.names}
        self.scales = {name: _SplineScales() for name in self.spline_names}
        self.alpha_scales2 = np.where(design.penalized, 1.0, np.inf)
        self.sigma2 = 1.0
        self.y = np.zeros(self.n)
        self.ydot = {name: np.zeros(self.mats[name].shape[1]) for name in self.names}

    # -- state preparation --

    def set_y(self, y: np.ndarray) -> None:
        self.y = y
        for name in self.names:
            self.ydot[name] = self.mats[name].T @ y

    def _refresh_fitted(self, name: str) -> None:
        self.fitted[name] = self.mats[name] @ self.theta[name]

    def init_from_data(self) -> None:
        """Deterministic warm start: ridge fits and method-of-moments scales."""
        cfg = self.config
        for name in self.spline_names:
            mat, dop = self.mats[name], self.diff_op[name]
            ridge = self.gram[name][name] + dop.T @ dop + 1e-10 * np.eye(dop.shape[0])
            self.theta[name] = np.linalg.solve(ridge, self.ydot[name])
            self._refresh_fitted(name)
            d2 = (dop @ self.theta[name])[1:-1]
            scales = self.scales[name]
            scales.lambda0 = 1.0
            if cfg.prior == "dhs":
                scales.dhs_state = init_dhs_state(d2)
            else:
                level = float(np.clip(d2.var(), 1e-10, 1e10))
                scales.smooth_var = level
                scales.local_var = np.full(d2.size, level)
        self.theta["alpha"] = np.zeros(self.mats["alpha"].shape[1])
        self._refresh_fitted("alpha")
        var_y = float(self.y.var(ddof=1)) if self.n > 1 else 1.0
        self.sigma2 = var_y if var_y > 0 else 1.0
        self.alpha_scales2 = np.where(self.design.penalized, 1.0, np.inf)

    def prior_draw(self, rng: np.random.Generator) -> None:
        """Exact draw of every parameter from its prior.

        Only possible when all scalar columns carry proper priors; the
        flat intercept prior has no generative counterpart.
        """
        cfg = self.config
        for name in self.spline_names:
            scales = self.scales[name]
            m = self.diff_op[name].shape[0] - 2
            scales.lambda0 = 1.0 / math.sqrt(rng.gamma(cfg.scale_shape, 1.0 / cfg.scale_rate))
            if cfg.prior == "dhs":
                scales.dhs_state = DhsState(
                    h=np.zeros(m),
                    mu_h=float(sample_z_dist(0.5, 0.5, rng)),
                    phi=2.0 * rng.beta(cfg.dhs.phi_a, cfg.dhs.phi_b) - 1.0,
                    lambda0=1.0,
                    indicators=np.zeros(m, dtype=int),
                    xi=np.full(m, polya_gamma_mean(0.0)),
                    xi_mu=polya_gamma_mean(0.0),
                )
            elif cfg.prior == "pspline":
                scales.smooth_var = 1.0 / rng.gamma(cfg.scale_shape, 1.0 / cfg.scale_rate)
            else:
                scales.local_var = 1.0 / rng.gamma(cfg.scale_shape, 1.0 / cfg.scale_rate, size=m)
        p = self.mats["alpha"].shape[1]
        self.alpha_scales2 = 1.0 / rng.gamma(cfg.var_shape, 1.0 / cfg.var_rate, size=p)
        self.sigma2 = 1.0 / rng.gamma(cfg.var_shape, 1.0 / cfg.var_rate)
        self.refresh_latents_from_prior(rng)

    def simulate_y(self, rng: np.random.Generator) -> np.ndarray:
        """Generate a response vector from the current parameters."""
        mean = sum(self.fitted.values())
        return mean + math.sqrt(self.sigma2) * rng.standard_normal(self.n)

    def refresh_latents_from_prior(self, rng: np.random.Generator) -> None:
        """Redraw volatilities, auxiliaries and coefficients given the hyperparameters.

        Together with a subsequent response simulation this is an exact
        conditional draw of (path, auxiliaries, coefficients, response)
        given (level, persistence, scales, noise variance), valid as an
        extra block in the self-consistency chain.  Without it those
        latents anchor one another through the regenerated response and
        relax only by diffusion, collapsing the chain's effective sample
        size; the persistent hyperparameters are exactly the quantities
        the check records.
        """
        cfg = self.config
        if not np.all(self.design.penalized):
            raise ValueError("prior simulation requires all scalar columns penalized")
        for name in self.spline_names:
            scales = self.scales[name]
            dop = self.diff_op[name]
            if cfg.prior == "dhs":
                prior_step(scales.dhs_state, cfg.dhs, rng)
            lam = scales.variance_vector(cfg.prior, dop.shape[0])
            self.theta[name] = np.linalg.solve(dop, np.sqrt(lam) * rng.standard_normal(lam.size))
            self._refresh_fitted(name)
            if cfg.prior == "dhs":
                d2 = (dop @ self.theta[name])[1:-1]
                state = scales.dhs_state
                state.indicators = sample_mixture_indicators(d2, state.h, rng)
        p = self.mats["alpha"].shape[1]
        self.theta["alpha"] = np.sqrt(self.alpha_scales2) * rng.standard_normal(p)
        self._refresh_fitted("alpha")

    # -- conditional draws --

    def _prior_precision(self, name: str) -> np.ndarray:
        if name == "alpha":
            return np.diag(np.where(np.isinf(self.alpha_scales2), 0.0, 1.0 / self.alpha_scales2))
        dop = self.diff_op[name]
        lam = self.scales[name].variance_vector(self.config.prior, dop.shape[0])
        return dop.T @ (dop / lam[:, None])

    def _draw_block(self, name: str, rng: np.random.Generator) -> None:
        if self.theta[name].size == 0:
            return
        lin = self.ydot[name].copy()
        for other in self.names:
            if other != name:
                lin -= self.gram[name][other] @ self.theta[other]
        lin /= self.sigma2
        prec = self.gram[name][name] / self.sigma2 + self._prior_precision(name)
        self.theta[name] = sample_gaussian_by_precision(prec, lin, rng)
        self._refresh_fitted(name)

    def _update_spline_scales(self, name: str, rng: np.random.Generator) -> None:
        cfg = self.config
        theta = self.theta[name]
        scales = self.scales[name]
        d2 = (self.diff_op[name] @ theta)[1:-1]
        if cfg.prior == "dhs":
            dhs_step(d2, scales.dhs_state, cfg.dhs, rng)
        elif cfg.prior == "pspline":
            rate = cfg.scale_rate + 0.5 * float(d2 @ d2)
            scales.smooth_var = 1.0 / rng.gamma(cfg.scale_shape + 0.5 * d2.size, 1.0 / rate)
        else:
            rates = cfg.scale_rate + 0.5 * d2**2
            scales.local_var = 1.0 / rng.gamma(cfg.scale_shape + 0.5, 1.0 / rates)
        scales.lambda0 = sample_boundary_scale(
            theta[0], theta[-1], rng, shape=cfg.scale_shape, rate=cfg.scale_rate
        )

    def sweep(self, rng: np.random.Generator) -> None:
        """One full scan: coefficient blocks, shrinkage scales, variances."""
        cfg = self.config
        for name in self.names:
            self._draw_block(name, rng)
        for name in self.spline_names:
            self._update_spline_scales(name, rng)
        alpha = self.theta["alpha"]
        pen = self.design.penalized
        if pen.any():
            rates = cfg.var_rate + 0.5 * alpha[pen] ** 2
            self.alpha_scales2[pen] = 1.0 / rng.gamma(cfg.var_shape + 0.5, 1.0 / rates)
        resid = self.y - sum(self.fitted.values())
        rate = cfg.var_rate + 0.5 * float(resid @ resid)
        self.sigma2 = 1.0 / rng.gamma(cfg.var_shape + 0.5 * self.n, 1.0 / rate)

    def check_finite(self, iteration: int) -> None:
        ok = np.isfinite(self.sigma2) and all(
            np.all(np.isfinite(self.theta[name])) for name in self.names
        )
        if not ok:
            raise NumericalError(f"non-finite sampler state at iteration {iteration}")


# --- public fitting interface ------------------------------------------------


def fit(
    design: RegressionDesign,
    config: FitConfig | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> PosteriorDraws:
    """Run the Gibbs sampler and collect thinned post-burnin draws."""
    config = config or FitConfig()
    if rng is None:
        rng = np.random.default_rng(seed)
    core = _GibbsCore(design, config)
    core.set_y(design.y)
    core.init_from_data()

    kept = config.draws // config.thin
    k = design.basis_b.size
    p = design.z.shape[1]
    coeffs = np.empty((kept, k))
    alpha = np.empty((kept, p))
    sigma2 = np.empty(kept)
    alpha_scales2 = np.empty((kept, p))
    lambda0 = np.empty(kept)
    is_dhs = config.prior == "dhs"
    h = np.empty((kept, k - 2)) if is_dhs else None
    mu_h = np.empty(kept) if is_dhs else None
    phi = np.empty(kept) if is_dhs else None
    smooth_var = np.empty(kept) if config.prior == "pspline" else None
    local_var = np.empty((kept, k - 2)) if config.prior == "local-pspline" else None
    block_coeffs = {
        blk.name: np.empty((kept, blk.basis.size)) for blk in design.adaptive_blocks
    }
    y_hat = np.zeros(design.n)

    s = 0
    for it in range(config.burnin + config.draws):
        core.sweep(rng)
        core.check_finite(it)
        post = it - config.burnin
        if post < 0 or post % config.thin:
            continue
        if s == kept:
            continue  # leftover iterations when draws % thin != 0
        coeffs[s] = core.theta["beta"]
        alpha[s] = core.theta["alpha"]
        sigma2[s] = core.sigma2
        alpha_scales2[s] = core.alpha_scales2
        beta_scales = core.scales["beta"]
        lambda0[s] = beta_scales.lambda0
        if is_dhs:
            h[s] = beta_scales.dhs_state.h
            mu_h[s] = beta_scales.dhs_state.mu_h
            phi[s] = beta_scales.dhs_state.phi
        elif config.prior == "pspline":
            smooth_var[s] = beta_scales.smooth_var
        else:
            local_var[s] = beta_scales.local_var
        for name in block_coeffs:
            block_coeffs[name][s] = core.theta[name]
        y_hat += sum(core.fitted.values())
        s += 1
    y_hat /= kept

    blocks = [
        BlockDraws(blk.name, blk.basis, block_coeffs[blk.name])
        for blk in design.adaptive_blocks
    ]
    return PosteriorDraws(
        coeffs=coeffs,
        basis=design.basis_b,
        alpha=alpha,
        alpha_names=list(design.z_names),
        penalized=design.penalized.copy(),
        sigma2=sigma2,
        alpha_scales2=alpha_scales2,
        lambda0=lambda0,
        prior=config.prior,
        config=config,
        y_hat=y_hat,
        blocks=blocks,
        h=h,
        mu_h=mu_h,
        phi=phi,
        smooth_var=smooth_var,
        local_var=local_var,
        seed=seed,
    )


# --- sampler self-validation harnesses ---------------------------------------


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
        core.prior_draw(rng)
        out["sigma2"][i] = core.sigma2
        if config.prior == "dhs":
            out["phi"][i] = core.scales["beta"].dhs_state.phi
            out["mu_h"][i] = core.scales["beta"].dhs_state.mu_h
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
    core.prior_draw(rng)
    kept = n_sweeps // thin
    out = {"sigma2": np.empty(kept)}
    if config.prior == "dhs":
        out["phi"] = np.empty(kept)
        out["mu_h"] = np.empty(kept)
    s = 0
    for it in range(n_sweeps):
        core.set_y(core.simulate_y(rng))
        core.sweep(rng)
        core.check_finite(it)
        if it % thin == 0 and s < kept:
            out["sigma2"][s] = core.sigma2
            if config.prior == "dhs":
                out["phi"][s] = core.scales["beta"].dhs_state.phi
                out["mu_h"][s] = core.scales["beta"].dhs_state.mu_h
            s += 1
        # decouples the latents from the simulated response, which
        # otherwise anchor each other and stall the chain
        core.refresh_latents_from_prior(rng)
    return out


# --- posterior summaries ------------------------------------------------------


@dataclass
class CurveSummary:
    """Pointwise posterior summary of a coefficient function on a grid."""

    grid: np.ndarray
    mean: np.ndarray
    lower50: np.ndarray
    upper50: np.ndarray
    lower95: np.ndarray
    upper95: np.ndarray


def coefficient_draws_on_grid(
    draws: PosteriorDraws, grid: np.ndarray, block: str | None = None
) -> np.ndarray:
    """(draws, grid) matrix of coefficient-function values."""
    if block is None:
        basis, coeffs = draws.basis, draws.coeffs
    else:
        blk = draws.block(block)
        basis, coeffs = blk.basis, blk.coeffs
    return coeffs @ eval_basis_matrix(basis, np.asarray(grid, dtype=float)).T


def summarize_coefficient(
    draws: PosteriorDraws,
    grid: np.ndarray | None = None,
    block: str | None = None,
    points: int = 101,
) -> CurveSummary:
    """Posterior mean and central 50%/95% bands of a coefficient function."""
    basis = draws.basis if block is None else draws.block(block).basis
    if grid is None:
        grid = np.linspace(basis.domain.lo, basis.domain.hi, points)
    grid = np.asarray(grid, dtype=float)
    vals = coefficient_draws_on_grid(draws, grid, block=block)
    lo95, lo50, hi50, hi95 = np.quantile(vals, [0.025, 0.25, 0.75, 0.975], axis=0)
    return CurveSummary(grid, vals.mean(axis=0), lo50, hi50, lo95, hi95)


def subsample_indices(n_draws: int, size: int | None) -> np.ndarray:
    """Deterministic, evenly spaced draw indices for predictive work."""
    if size is None or size >= n_draws:
        return np.arange(n_draws)
    return np.unique(np.linspace(0, n_draws - 1, size).round().astype(int))


def block_fit_draws(
    draws: PosteriorDraws, design: RegressionDesign, idx: np.ndarray
) -> np.ndarray | None:
    """Summed fit of the adaptive covariate blocks at draws ``idx``; None without blocks."""
    parts = None
    for blk in draws.blocks:
        for dblk in design.adaptive_blocks:
            if dblk.name == blk.name:
                term = blk.coeffs[idx] @ dblk.design.T
                parts = term if parts is None else parts + term
    return parts


def predictive_draws(
    draws: PosteriorDraws,
    design: RegressionDesign,
    rng: np.random.Generator,
    size: int | None = 1000,
    block_fits: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior predictive replicates of the response, one row per draw.

    ``block_fits``, the adaptive-block fit at every draw as returned by
    ``block_fit_draws``, is reused when given instead of being recomputed.
    """
    idx = subsample_indices(draws.n_draws, size)
    mean = draws.coeffs[idx] @ design.scores.T + draws.alpha[idx] @ design.z.T
    blocks = block_fit_draws(draws, design, idx) if block_fits is None else block_fits[idx]
    if blocks is not None:
        mean += blocks
    # built in place: draws x n is the largest array of the decision stage
    out = rng.standard_normal(mean.shape)
    out *= np.sqrt(draws.sigma2[idx])[:, None]
    out += mean
    return out


# --- flat-file draw archive ----------------------------------------------------


def _basis_meta(basis: BSplineBasis) -> dict:
    return {
        "lo": float(basis.domain.lo),
        "hi": float(basis.domain.hi),
        "size": int(basis.size),
        "degree": int(basis.degree),
    }


def _basis_from_meta(meta: dict) -> BSplineBasis:
    return BSplineBasis(Domain(meta["lo"], meta["hi"]), meta["size"], meta["degree"])


def save_draws(draws: PosteriorDraws, directory) -> str:
    """Write the draw archive: a manifest plus raw little-endian arrays.

    Returns the configuration hash recorded in the manifest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        "coeffs": draws.coeffs,
        "alpha": draws.alpha,
        "sigma2": draws.sigma2,
        "alpha_scales2": draws.alpha_scales2,
        "lambda0": draws.lambda0,
        "y_hat": draws.y_hat,
    }
    for name in ("h", "mu_h", "phi", "smooth_var", "local_var"):
        value = getattr(draws, name)
        if value is not None:
            arrays[name] = value
    for blk in draws.blocks:
        arrays[f"block:{blk.name}"] = blk.coeffs

    config_dict = asdict(draws.config)
    config_hash = stable_hash(
        {"config": config_dict, "basis": _basis_meta(draws.basis), "n_draws": draws.n_draws}
    )
    manifest = {
        "format": "sofreg-draws-v1",
        "prior": draws.prior,
        "seed": draws.seed,
        "config": config_dict,
        "config_hash": config_hash,
        "basis": _basis_meta(draws.basis),
        "alpha_names": list(draws.alpha_names),
        "penalized": [bool(v) for v in draws.penalized],
        "blocks": [{"name": blk.name, "basis": _basis_meta(blk.basis)} for blk in draws.blocks],
        "arrays": {},
    }
    for name, arr in arrays.items():
        fname = name.replace(":", "_") + ".bin"
        arr = np.ascontiguousarray(arr, dtype="<f8")
        arr.tofile(directory / fname)
        manifest["arrays"][name] = {"file": fname, "shape": list(arr.shape)}
    with open(directory / "manifest.yaml", "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    return config_hash


def load_draws(directory) -> PosteriorDraws:
    """Rebuild a ``PosteriorDraws`` from an archive directory."""
    directory = Path(directory)
    with open(directory / "manifest.yaml") as fh:
        manifest = yaml.safe_load(fh)
    if manifest.get("format") != "sofreg-draws-v1":
        raise ValueError(f"{directory}: not a draw archive")
    arrays = {}
    for name, meta in manifest["arrays"].items():
        data = np.fromfile(directory / meta["file"], dtype="<f8")
        arrays[name] = data.reshape(meta["shape"])
    config_dict = dict(manifest["config"])
    config_dict["dhs"] = DhsConfig(**config_dict["dhs"])
    config = FitConfig(**config_dict)
    blocks = [
        BlockDraws(bm["name"], _basis_from_meta(bm["basis"]), arrays[f"block:{bm['name']}"])
        for bm in manifest["blocks"]
    ]
    return PosteriorDraws(
        coeffs=arrays["coeffs"],
        basis=_basis_from_meta(manifest["basis"]),
        alpha=arrays["alpha"],
        alpha_names=list(manifest["alpha_names"]),
        penalized=np.array(manifest["penalized"], dtype=bool),
        sigma2=arrays["sigma2"],
        alpha_scales2=arrays["alpha_scales2"],
        lambda0=arrays["lambda0"],
        prior=manifest["prior"],
        config=config,
        y_hat=arrays["y_hat"],
        blocks=blocks,
        h=arrays.get("h"),
        mu_h=arrays.get("mu_h"),
        phi=arrays.get("phi"),
        smooth_var=arrays.get("smooth_var"),
        local_var=arrays.get("local_var"),
        seed=manifest.get("seed"),
    )
