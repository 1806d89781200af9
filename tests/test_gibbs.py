"""Sampler correctness: dense oracles for each conditional, a prior-vs-chain
consistency check, and an independent augmentation route for the phi=0 case."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
import yaml
from scipy import signal, stats

from sofreg import dhs
from sofreg.basis import BSplineBasis, Domain, second_difference_matrix
from sofreg.funcdata import CurveSet, RegressionDesign, fit_curves
from sofreg.gibbs import (
    ArchivedCurves,
    FitConfig,
    NumericalError,
    _GibbsCore,
    coefficient_draws_on_grid,
    effective_sample_size,
    fit,
    load_curves,
    load_draws,
    sample_gaussian_by_precision,
    save_draws,
    stable_hash,
    subsample_indices,
    summarize_coefficient,
)

from geweke import prior_draw, prior_parameter_draws, successive_conditional_draws
from predictive_oracle import predictive_draws, predictive_means


def toy_design(n=40, k=6, p=2, seed=0, intercept=True):
    rng = np.random.default_rng(seed)
    basis = BSplineBasis(Domain(0.0, 1.0), k, 3)
    z_cols = p + (1 if intercept else 0)
    z = rng.normal(size=(n, p))
    names = [f"w{j}" for j in range(p)]
    penalized = [True] * p
    if intercept:
        z = np.column_stack([z, np.ones(n)])
        names.append("(intercept)")
        penalized.append(False)
    return RegressionDesign(
        y=rng.normal(size=n),
        scores=rng.normal(size=(n, k)) * 0.7,
        basis_b=basis,
        z=z if z_cols else np.empty((n, 0)),
        z_names=names,
        penalized=np.array(penalized, dtype=bool),
    )


# --- Gaussian-by-precision draws ---------------------------------------------


def test_gaussian_precision_draw_matches_dense_path():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(8, 8))
    prec = a @ a.T + 8 * np.eye(8)
    lin = rng.normal(size=8)
    got = sample_gaussian_by_precision(prec, lin, np.random.default_rng(5))
    z = np.random.default_rng(5).standard_normal(8)
    chol = np.linalg.cholesky(prec)
    want = np.linalg.solve(prec, lin) + np.linalg.solve(chol.T, z)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gaussian_precision_draw_moments():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(4, 4))
    prec = a @ a.T + 4 * np.eye(4)
    lin = rng.normal(size=4)
    draws = np.stack(
        [sample_gaussian_by_precision(prec, lin, rng) for _ in range(30_000)]
    )
    cov = np.linalg.inv(prec)
    mean = cov @ lin
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 6 * se)
    assert np.max(np.abs(np.cov(draws.T) - cov)) < 0.05 * np.max(np.diag(cov))


def test_gaussian_precision_jitter_retry_and_failure(caplog):
    caplog.set_level(logging.WARNING, logger="sofreg.gibbs")
    # well conditioned: no retry, no warning
    sample_gaussian_by_precision(np.eye(3) * 2.0, np.ones(3), np.random.default_rng(0))
    assert not caplog.records
    # slightly indefinite from roundoff: retry succeeds and is logged
    prec = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-15]])
    draw = sample_gaussian_by_precision(prec, np.zeros(2), np.random.default_rng(0))
    assert np.all(np.isfinite(draw))
    (record,) = caplog.records
    assert record.name == "sofreg.gibbs" and record.levelname == "WARNING"
    assert "2 x 2" in record.getMessage() and "1e-08 added" in record.getMessage()
    with pytest.raises(NumericalError):
        sample_gaussian_by_precision(
            np.array([[1.0, 0.0], [0.0, -5.0]]), np.zeros(2), np.random.default_rng(0)
        )


# --- block conditionals against dense formulas --------------------------------


def _prepared_core():
    design = toy_design(seed=3)
    config = FitConfig(prior="dhs", burnin=5, draws=5)
    core = _GibbsCore(design, config)
    core.set_y(design.y)
    core.init_from_data()
    rng = np.random.default_rng(44)
    for _ in range(3):
        core.sweep(rng)
    return design, core


def dense_coefficient_draw(design, lam, alpha_prior_prec, sigma2, rng):
    """Seeded dense replay of the joint [beta; alpha] draw.

    One precision over [X | Z] (the second-difference prior with variances
    ``lam`` on beta, ``alpha_prior_prec`` on the diagonal for alpha) and one
    standard normal of the full size, so equality with the sampler's draw
    pins the conditional mean and precision.
    """
    k = design.basis_b.size
    xz = np.column_stack([design.scores, design.z])
    dop = second_difference_matrix(k)
    prior_prec = np.zeros((xz.shape[1], xz.shape[1]))
    prior_prec[:k, :k] = dop.T @ np.diag(1.0 / lam) @ dop
    prior_prec[k:, k:] = np.diag(alpha_prior_prec)
    prec = xz.T @ xz / sigma2 + prior_prec
    lin = xz.T @ design.y / sigma2
    z = rng.standard_normal(prec.shape[0])
    chol = np.linalg.cholesky(prec)
    theta = np.linalg.solve(prec, lin) + np.linalg.solve(chol.T, z)
    return theta[:k], theta[k:]


def test_coefficient_conditional_flat_intercept_and_oracle():
    design, core = _prepared_core()
    lam = core.scales.variance_vector("dhs", design.basis_b.size)
    # the flat prior on the intercept contributes zero precision
    alpha_prior_prec = [1.0 / core.alpha_scales2[0], 1.0 / core.alpha_scales2[1], 0.0]
    want_beta, want_alpha = dense_coefficient_draw(
        design, lam, alpha_prior_prec, core.sigma2, np.random.default_rng(91)
    )
    core.sweep(np.random.default_rng(91))  # the coefficients are its first draw
    assert np.max(np.abs(core.beta - want_beta)) < 1e-8
    assert np.max(np.abs(core.alpha - want_alpha)) < 1e-8


def test_functional_block_conditional_matches_dense_oracle():
    # With theta = mean + L^-T z and L the lower Cholesky factor of the joint
    # precision, beta = E[beta | alpha] + chol(Q_bb)^-T z[:K]: the joint draw's
    # beta is the functional block's conditional draw given the drawn alpha.
    design, core = _prepared_core()
    k = design.basis_b.size
    x = design.scores
    dop = second_difference_matrix(k)
    lam = core.scales.variance_vector("dhs", k)
    sigma2 = core.sigma2
    core.sweep(np.random.default_rng(91))
    prec = x.T @ x / sigma2 + dop.T @ np.diag(1.0 / lam) @ dop
    lin = x.T @ (design.y - design.z @ core.alpha) / sigma2
    z = np.random.default_rng(91).standard_normal(k + design.z.shape[1])[:k]
    chol = np.linalg.cholesky(prec)
    want = np.linalg.solve(prec, lin) + np.linalg.solve(chol.T, z)
    assert np.max(np.abs(core.beta - want)) < 1e-8


def test_scalar_block_conditional_flat_intercept_and_oracle():
    # The joint draw's alpha is its marginal draw, beta integrated out: mean
    # S^-1 (b_a - Q_ab Q_bb^-1 b_b), precision the Schur complement S, whose
    # Cholesky factor is the trailing block of the joint one.
    design, core = _prepared_core()
    k = design.basis_b.size
    x, z_mat = design.scores, design.z
    dop = second_difference_matrix(k)
    lam = core.scales.variance_vector("dhs", k)
    sigma2 = core.sigma2
    prior_prec = np.diag(
        [1.0 / core.alpha_scales2[0], 1.0 / core.alpha_scales2[1], 0.0]
    )  # flat prior on the intercept contributes zero precision
    core.sweep(np.random.default_rng(92))
    q_bb = x.T @ x / sigma2 + dop.T @ np.diag(1.0 / lam) @ dop
    q_ab = z_mat.T @ x / sigma2
    q_aa = z_mat.T @ z_mat / sigma2 + prior_prec
    b_b, b_a = x.T @ design.y / sigma2, z_mat.T @ design.y / sigma2
    schur = q_aa - q_ab @ np.linalg.solve(q_bb, q_ab.T)
    mean = np.linalg.solve(schur, b_a - q_ab @ np.linalg.solve(q_bb, b_b))
    z = np.random.default_rng(92).standard_normal(k + 3)[k:]
    chol = np.linalg.cholesky(schur)
    want = mean + np.linalg.solve(chol.T, z)
    assert np.max(np.abs(core.alpha - want)) < 1e-8


@pytest.mark.parametrize("prior", ["pspline", "dhs"])
def test_intercept_draws_do_not_creep(prior):
    # the intercept column is nearly in the span of the curve scores; a
    # sampler that drew beta and alpha in turn would move the intercept by
    # small steps along that direction (lag-1 autocorrelation above 0.9 here)
    from sofreg.funcdata import assemble_design
    from sofreg.simulate import SimulationDesign, replicate_data

    curves, y, _sigma = replicate_data(SimulationDesign(n=200, snr=5.0, seed=3), 0)
    design = assemble_design(curves, y, 20, 20, 3)[1]
    assert design.z_names == ["(intercept)"]
    draws = fit(design, FitConfig(prior=prior, burnin=200, draws=400, refresh=1), seed=1)
    intercept = draws.alpha[:, 0]
    lag1 = np.corrcoef(intercept[:-1], intercept[1:])[0, 1]
    assert lag1 < 0.5, lag1


def test_variance_conditionals_match_inverse_gamma():
    design, core = _prepared_core()
    rng = np.random.default_rng(93)
    cfg = core.config
    sig_draws = np.empty(20_000)
    scale_draws = np.empty(20_000)
    theta_alpha = core.alpha.copy()
    resid = design.y - design.scores @ core.beta - design.z @ theta_alpha
    for i in range(20_000):
        rate = cfg.var_rate + 0.5 * float(resid @ resid)
        sig_draws[i] = 1.0 / rng.gamma(cfg.var_shape + 0.5 * design.n, 1.0 / rate)
        scale_draws[i] = 1.0 / rng.gamma(
            cfg.var_shape + 0.5, 1.0 / (cfg.var_rate + 0.5 * theta_alpha[0] ** 2)
        )
    a = cfg.var_shape + 0.5 * design.n
    b = cfg.var_rate + 0.5 * float(resid @ resid)
    assert stats.kstest(sig_draws, stats.invgamma(a, scale=b).cdf).pvalue > 0.01
    a2 = cfg.var_shape + 0.5
    b2 = cfg.var_rate + 0.5 * theta_alpha[0] ** 2
    assert stats.kstest(scale_draws, stats.invgamma(a2, scale=b2).cdf).pvalue > 0.01


def test_smoothing_scale_conditionals_for_pspline_variants():
    rng = np.random.default_rng(94)
    for prior in ("pspline", "local-pspline"):
        design = toy_design(seed=7)
        config = FitConfig(prior=prior, burnin=2, draws=2)
        core = _GibbsCore(design, config)
        core.set_y(design.y)
        core.init_from_data()
        d2 = (second_difference_matrix(design.basis_b.size) @ core.beta)[1:-1]
        draws = []
        for _ in range(20_000):
            core._update_scales(rng)
            scales = core.scales
            draws.append(scales.smooth_var if prior == "pspline" else scales.local_var[0])
        draws = np.array(draws)
        if prior == "pspline":
            a = config.scale_shape + 0.5 * d2.size
            b = config.scale_rate + 0.5 * float(d2 @ d2)
        else:
            a = config.scale_shape + 0.5
            b = config.scale_rate + 0.5 * d2[0] ** 2
        assert stats.kstest(draws, stats.invgamma(a, scale=b).cdf).pvalue > 0.01


def test_nan_guard_reports_iteration():
    design, core = _prepared_core()
    core.sigma2 = float("nan")
    with pytest.raises(NumericalError, match="iteration 17"):
        core.check_finite(17)


# --- prior-vs-successive-conditional consistency ------------------------------


def geweke_design(n=15, k=8, seed=1):
    rng = np.random.default_rng(seed)
    basis = BSplineBasis(Domain(0.0, 1.0), k, 3)
    return RegressionDesign(
        y=np.zeros(n),
        scores=rng.normal(size=(n, k)) * 0.5,
        basis_b=basis,
        z=rng.normal(size=(n, 1)),
        z_names=["w0"],
        penalized=np.array([True]),
    )


GEWEKE_CONFIG = FitConfig(
    prior="dhs", var_shape=2.0, var_rate=2.0, scale_shape=2.0, scale_rate=2.0,
    burnin=0, draws=1,
)


@pytest.mark.slow
def test_successive_conditional_chain_matches_prior():
    design = geweke_design()
    rng = np.random.default_rng(202)
    prior = prior_parameter_draws(design, GEWEKE_CONFIG, 4000, rng)
    chain = successive_conditional_draws(design, GEWEKE_CONFIG, 10000, rng, thin=10)
    for name in ("sigma2", "phi", "mu_h"):
        p = stats.ks_2samp(prior[name], chain[name]).pvalue
        assert p > 0.01, f"{name}: KS p={p:.4g}"


def test_prior_draw_requires_proper_scalar_priors():
    design = toy_design()  # has a flat-prior intercept
    core = _GibbsCore(design, GEWEKE_CONFIG)
    with pytest.raises(ValueError, match="penalized"):
        prior_draw(core, np.random.default_rng(0))


# --- independent-route check: zero persistence is the plain horseshoe ---------


def horseshoe_gibbs_oracle(y, x, dop, n_iter, rng, hyper=0.01):
    """Textbook horseshoe sampler via inverse-gamma augmentation.

    Local and global scales use the slice-free parameter expansion of
    Makalic and Schmidt (2016); boundary coefficients and the noise follow
    the same conjugate updates as the main sampler but are coded afresh.
    """
    n, k = x.shape
    m = k - 2
    beta = np.linalg.solve(x.T @ x + dop.T @ dop, x.T @ y)
    sigma2, tau2, lam0 = 1.0, 1.0, 1.0
    gam2 = np.ones(m)
    nu = np.ones(m)
    omega = 1.0
    keep = np.empty((n_iter, k))
    xtx = x.T @ x
    xty = x.T @ y
    for it in range(n_iter):
        lam_vec = np.r_[lam0**2, tau2 * gam2, lam0**2]
        prec = xtx / sigma2 + dop.T @ (dop / lam_vec[:, None])
        chol = np.linalg.cholesky(prec)
        mean = np.linalg.solve(prec, xty / sigma2)
        beta = mean + np.linalg.solve(chol.T, rng.standard_normal(k))
        w = dop @ beta
        d2 = w[1:-1]
        gam2 = 1.0 / rng.gamma(1.0, 1.0 / (1.0 / nu + d2**2 / (2.0 * tau2)))
        nu = 1.0 / rng.gamma(1.0, 1.0 / (1.0 + 1.0 / gam2))
        tau2 = 1.0 / rng.gamma(
            0.5 * (m + 1), 1.0 / (1.0 / omega + 0.5 * np.sum(d2**2 / gam2))
        )
        omega = 1.0 / rng.gamma(1.0, 1.0 / (1.0 + 1.0 / tau2))
        lam0 = 1.0 / math.sqrt(
            rng.gamma(hyper + 1.0, 1.0 / (hyper + 0.5 * (w[0] ** 2 + w[-1] ** 2)))
        )
        resid = y - x @ beta
        sigma2 = 1.0 / rng.gamma(
            hyper + 0.5 * n, 1.0 / (hyper + 0.5 * float(resid @ resid))
        )
        keep[it] = beta
    return keep


@pytest.mark.slow
def test_zero_persistence_posterior_matches_horseshoe_oracle(monkeypatch):
    rng = np.random.default_rng(55)
    n, k = 40, 8
    basis = BSplineBasis(Domain(0.0, 1.0), k, 3)
    x = rng.normal(size=(n, k))
    beta_true = np.array([0.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    y = x @ beta_true + 0.5 * rng.standard_normal(n)
    design = RegressionDesign(
        y=y,
        scores=x,
        basis_b=basis,
        z=np.empty((n, 0)),
        z_names=[],
        penalized=np.zeros(0, dtype=bool),
    )
    # pin the AR persistence at (essentially) zero: scales become independent
    monkeypatch.setattr(dhs, "PHI_PRIOR", (2e6, 2e6))
    config = FitConfig(prior="dhs", burnin=2000, draws=12_000)
    ours = fit(design, config, rng=np.random.default_rng(56))
    assert np.max(np.abs(ours.phi)) < 0.01

    dop = second_difference_matrix(k)
    oracle = horseshoe_gibbs_oracle(y, x, dop, 14_000, np.random.default_rng(57))[2000:]

    for j in range(k):
        a, b = ours.coeffs[::10, j], oracle[::10, j]
        scale = max(b.std(), 1e-6)
        assert abs(a.mean() - b.mean()) < 0.15 * scale
        assert 0.8 < a.std() / b.std() < 1.25
    p = stats.ks_2samp(ours.coeffs[::60, 3], oracle[::60, 3]).pvalue
    assert p > 1e-3


# --- fit, summaries, predictive, archive --------------------------------------


def quick_config(prior="dhs", **kw):
    return FitConfig(prior=prior, burnin=200, draws=300, **kw)


def test_fit_shapes_and_prior_specific_fields():
    design = toy_design(seed=11)
    draws = fit(design, quick_config(), seed=1)
    assert draws.coeffs.shape == (300, 6)
    assert draws.alpha.shape == (300, 3)
    assert draws.h.shape == (300, 4)
    assert draws.smooth_var is None and draws.local_var is None
    assert np.all(draws.sigma2 > 0) and np.all(draws.lambda0 > 0)
    assert np.all(np.abs(draws.phi) < 1)
    assert draws.y_hat.shape == (40,)
    assert np.all(np.isinf(draws.alpha_scales2[:, -1]))  # flat intercept

    ps = fit(toy_design(seed=11), quick_config("pspline"), seed=2)
    assert ps.h is None and ps.smooth_var.shape == (300,)
    lps = fit(toy_design(seed=11), quick_config("local-pspline"), seed=3)
    assert lps.local_var.shape == (300, 4)


def test_fit_thinning_keeps_every_kth():
    design = toy_design(seed=12)
    draws = fit(design, FitConfig(burnin=50, draws=100, thin=4), seed=4)
    assert draws.n_draws == 25


def test_fit_y_hat_is_the_mean_fit_over_kept_draws():
    # thin=3 with draws % thin != 0: the leftover sweep is not averaged in
    design = toy_design(seed=16)
    draws = fit(design, FitConfig(burnin=20, draws=61, thin=3), seed=5)
    assert draws.n_draws == 20
    want = predictive_means(draws, design, np.arange(draws.n_draws)).mean(axis=0)
    assert np.max(np.abs(draws.y_hat - want)) <= 1e-12 * np.max(np.abs(want))


def test_fit_recovers_signal_and_beats_noise():
    rng = np.random.default_rng(60)
    n, k = 300, 12
    basis = BSplineBasis(Domain(0.0, 1.0), k, 3)
    grid = np.linspace(0, 1, 25)
    from sofreg.basis import eval_basis_matrix

    coeff_true = np.sin(np.linspace(0, np.pi, k)) * 3.0
    x = rng.normal(size=(n, k)) * 0.8
    y = x @ coeff_true + rng.standard_normal(n) * 0.3
    design = RegressionDesign(
        y=y, scores=x, basis_b=basis,
        z=np.ones((n, 1)), z_names=["(intercept)"], penalized=np.array([False]),
    )
    draws = fit(design, FitConfig(burnin=500, draws=500), seed=5)
    err = np.linalg.norm(draws.coeffs.mean(axis=0) - coeff_true)
    assert err < 0.15 * np.linalg.norm(coeff_true)
    resid = y - draws.y_hat
    assert resid.std() < 0.5  # fitted values absorb the signal


def test_summarize_coefficient_band_ordering():
    design = toy_design(seed=13)
    draws = fit(design, quick_config(), seed=6)
    summary = summarize_coefficient(draws, points=41)
    assert summary.grid[0] == 0.0 and summary.grid[-1] == 1.0
    assert np.all(summary.lower95 <= summary.lower50 + 1e-12)
    assert np.all(summary.lower50 <= summary.upper50)
    assert np.all(summary.upper50 <= summary.upper95 + 1e-12)
    assert np.all(summary.lower95 <= summary.mean) and np.all(summary.mean <= summary.upper95)
    vals = coefficient_draws_on_grid(draws, summary.grid)
    assert vals.shape == (300, 41)


def test_predictive_draws_center_on_fitted_values():
    design = toy_design(n=60, seed=14)
    draws = fit(design, quick_config(), seed=7)
    reps = predictive_draws(draws, design, np.random.default_rng(8), size=200)
    assert reps.shape[0] <= 200 and reps.shape[1] == 60
    gap = np.abs(reps.mean(axis=0) - draws.y_hat)
    tol = 6 * np.sqrt(draws.sigma2.mean() / reps.shape[0]) + 0.3
    assert np.mean(gap) < tol


def _ar1_columns(rho: float, n: int, columns: int, seed: int) -> np.ndarray:
    """Stationary AR(1) chains, one per column, with unit marginal variance."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, columns)) * math.sqrt(1.0 - rho**2)
    e[0] = rng.standard_normal(columns)  # stationary start
    return signal.lfilter([1.0], [1.0, -rho], e, axis=0)


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_effective_sample_size_matches_ar1_theory_per_column(rho):
    # ESS of an AR(1) chain is n (1 - rho) / (1 + rho); at n = 50 000 the
    # estimator's spread is about 1.5% (iid) and 2.6% (rho = 0.5) per column
    n = 50000
    x = _ar1_columns(rho, n, columns=4, seed=31)
    got = effective_sample_size(x)
    assert got.shape == (4,)
    assert np.allclose(got / (n * (1.0 - rho) / (1.0 + rho)), 1.0, rtol=0.0, atol=0.10), got
    # one FFT over all columns gives each column's own estimate
    each = [float(effective_sample_size(x[:, j])) for j in range(4)]
    assert np.allclose(got, each, rtol=1e-12, atol=0.0)


def test_effective_sample_size_of_a_constant_column_is_nan():
    x = np.column_stack([np.ones(200), np.random.default_rng(2).standard_normal(200)])
    got = effective_sample_size(x)
    assert np.isnan(got[0]) and np.isfinite(got[1])


def test_subsample_indices_deterministic_and_bounded():
    idx = subsample_indices(1000, 100)
    assert idx[0] == 0 and idx[-1] == 999 and len(idx) == 100
    assert np.array_equal(idx, subsample_indices(1000, 100))
    assert np.array_equal(subsample_indices(50, None), np.arange(50))
    assert np.array_equal(subsample_indices(50, 100), np.arange(50))
    for size in (0, -3):
        with pytest.raises(ValueError, match=f"subsample size must be at least 1, got {size}"):
            subsample_indices(50, size)


def test_archive_round_trip(tmp_path):
    design = toy_design(seed=15)
    draws = fit(design, quick_config(), seed=9)
    cfg_hash = save_draws(draws, tmp_path / "arch")
    assert len(cfg_hash) == 12
    back = load_draws(tmp_path / "arch")
    for name in ("coeffs", "alpha", "sigma2", "alpha_scales2", "lambda0", "h", "mu_h", "phi", "y_hat"):
        assert np.array_equal(getattr(draws, name), getattr(back, name)), name
    assert back.smooth_var is None
    assert back.alpha_names == draws.alpha_names
    assert np.array_equal(back.penalized, draws.penalized)
    assert back.basis == draws.basis
    assert back.config == draws.config
    assert back.seed == 9


def test_archive_keeps_fitted_curves_with_their_layout(tmp_path):
    # two grids on two domains give two coefficient groups; subject ids hold
    # commas and quotes, which the JSON id file keeps
    rng = np.random.default_rng(4)
    grids = [np.linspace(0.0, 1.0, 12), np.linspace(0.2, 0.9, 9)]
    t = [grids[i % 2] for i in range(7)]
    curves = CurveSet.from_columns(
        [f'id {i}, "q"' for i in range(7)],
        np.array([g.size for g in t]),
        np.concatenate(t),
        np.concatenate([rng.normal(size=g.size) for g in t]),
    )
    coefs = fit_curves(curves, BSplineBasis(Domain(0.0, 1.0), 6, 2))
    grid = np.unique(np.concatenate(grids))
    draws = fit(toy_design(seed=3), quick_config(), seed=2)
    save_draws(draws, tmp_path / "arch", ArchivedCurves(coefs, grid, "ab" * 32))

    back = load_curves(tmp_path / "arch")
    assert back.sha256 == "ab" * 32
    assert np.array_equal(back.grid, grid)
    assert back.coefs.ids == coefs.ids
    assert len(back.coefs.groups) == 2
    for got, want in zip(back.coefs.groups, coefs.groups):
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.coeffs.strides == want.coeffs.strides  # products with it sum as in the fit
        assert got.basis == want.basis and got.domain == want.domain
    assert np.array_equal(load_draws(tmp_path / "arch").coeffs, draws.coeffs)


def test_archive_without_curves_loads_draws_but_no_curves(tmp_path):
    draws = fit(toy_design(seed=5), quick_config(), seed=3)
    save_draws(draws, tmp_path / "arch")
    assert np.array_equal(load_draws(tmp_path / "arch").coeffs, draws.coeffs)
    with pytest.raises(ValueError, match="keeps no fitted curves"):
        load_curves(tmp_path / "arch")


def test_archive_requires_the_common_arrays_only(tmp_path):
    save_draws(fit(toy_design(seed=5), quick_config("pspline"), seed=3), tmp_path / "arch")
    back = load_draws(tmp_path / "arch")
    assert back.smooth_var.shape == (300,)
    assert back.h is None and back.mu_h is None and back.phi is None and back.local_var is None

    manifest_path = tmp_path / "arch" / "manifest.yaml"
    manifest = yaml.safe_load(manifest_path.read_text())
    # an empty block list, as earlier versions wrote it, still loads
    manifest_path.write_text(yaml.safe_dump({**manifest, "blocks": []}))
    assert np.array_equal(load_draws(tmp_path / "arch").coeffs, back.coeffs)
    # draws of adaptive covariate blocks, which earlier versions could archive
    blocks = [{"name": "g", "basis": {"lo": 0.0, "hi": 1.0, "size": 5, "degree": 2}}]
    manifest_path.write_text(yaml.safe_dump({**manifest, "blocks": blocks}))
    with pytest.raises(ValueError, match="adaptive covariate blocks") as err:
        load_draws(tmp_path / "arch")
    assert str(tmp_path / "arch") in str(err.value)
    del manifest["arrays"]["sigma2"]
    manifest_path.write_text(yaml.safe_dump(manifest))
    with pytest.raises(ValueError, match="lacks required arrays: sigma2") as err:
        load_draws(tmp_path / "arch")
    assert str(tmp_path / "arch") in str(err.value)


def test_archive_with_nested_dhs_settings_loads(tmp_path):
    # archives written before refresh joined FitConfig nest it, with the
    # process's fixed hyperparameters, under ``dhs``
    draws = fit(toy_design(seed=5), quick_config("pspline", refresh=2), seed=3)
    save_draws(draws, tmp_path / "arch")
    manifest_path = tmp_path / "arch" / "manifest.yaml"
    manifest = yaml.safe_load(manifest_path.read_text())
    nested = {"a": 0.5, "b": 0.5, "phi_a": 10.0, "phi_b": 2.0, "refresh": manifest["config"].pop("refresh")}
    manifest["config"]["dhs"] = nested
    manifest_path.write_text(yaml.safe_dump(manifest))
    assert load_draws(tmp_path / "arch").config == draws.config


def test_archive_rejects_foreign_directory(tmp_path):
    (tmp_path / "manifest.yaml").write_text("format: something-else\n")
    with pytest.raises(ValueError, match="archive"):
        load_draws(tmp_path)


def test_stable_hash_is_order_insensitive():
    assert stable_hash({"a": 1, "b": [1, 2]}) == stable_hash({"b": [1, 2], "a": 1})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_fit_config_rejects_thin_above_draws():
    with pytest.raises(ValueError, match=r"thin \(5\) exceeds draws \(3\)"):
        FitConfig(draws=3, thin=5)
    assert FitConfig(draws=5, thin=5).draws == 5


def test_fit_config_validation():
    with pytest.raises(ValueError, match="prior"):
        FitConfig(prior="ridge")
    with pytest.raises(ValueError, match="draws"):
        FitConfig(draws=0)
    for refresh in (0, -2):  # no latent move would run: phi and h would freeze
        with pytest.raises(ValueError, match="refresh >= 1"):
            FitConfig(refresh=refresh)
