"""Sampler correctness: dense oracles for each conditional, a prior-vs-chain
consistency check, and an independent augmentation route for the phi=0 case."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from scipy import stats

from sofreg.basis import BSplineBasis, Domain, second_difference_matrix
from sofreg.dhs import DhsConfig
from sofreg.funcdata import RegressionDesign
from sofreg.gibbs import (
    FitConfig,
    NumericalError,
    PosteriorDraws,
    _GibbsCore,
    coefficient_draws_on_grid,
    fit,
    load_draws,
    predictive_draws,
    prior_parameter_draws,
    sample_gaussian_by_precision,
    save_draws,
    stable_hash,
    subsample_indices,
    successive_conditional_draws,
    summarize_coefficient,
)


def toy_design(n=40, k=6, p=2, seed=0, intercept=True, adaptive=False):
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
    blocks = []
    if adaptive:
        from sofreg.funcdata import AdaptiveBlock

        bb = BSplineBasis(Domain(0.0, 1.0), 5, 2)
        from sofreg.basis import eval_basis_matrix

        blocks = [AdaptiveBlock("g", bb, eval_basis_matrix(bb, rng.uniform(0, 1, n)))]
    return RegressionDesign(
        y=rng.normal(size=n),
        scores=rng.normal(size=(n, k)) * 0.7,
        basis_b=basis,
        z=z if z_cols else np.empty((n, 0)),
        z_names=names,
        penalized=np.array(penalized, dtype=bool),
        subject_ids=[f"s{i}" for i in range(n)],
        adaptive_blocks=blocks,
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


def _prepared_core(adaptive=False):
    design = toy_design(adaptive=adaptive, seed=3)
    config = FitConfig(prior="dhs", burnin=5, draws=5)
    core = _GibbsCore(design, config)
    core.set_y(design.y)
    core.init_from_data()
    rng = np.random.default_rng(44)
    for _ in range(3):
        core.sweep(rng)
    return design, core


def test_functional_block_conditional_matches_dense_oracle():
    design, core = _prepared_core(adaptive=True)
    x = design.scores
    others = core.fitted["alpha"] + core.fitted["g"]
    dop = second_difference_matrix(design.basis_b.size)
    lam = core.scales["beta"].variance_vector("dhs", design.basis_b.size)
    prec = x.T @ x / core.sigma2 + dop.T @ np.diag(1.0 / lam) @ dop
    lin = x.T @ (design.y - others) / core.sigma2

    seed_rng = np.random.default_rng(91)
    core._draw_block("beta", seed_rng)
    z = np.random.default_rng(91).standard_normal(design.basis_b.size)
    chol = np.linalg.cholesky(prec)
    want = np.linalg.solve(prec, lin) + np.linalg.solve(chol.T, z)
    assert np.max(np.abs(core.theta["beta"] - want)) < 1e-8
    assert np.max(np.abs(core.fitted["beta"] - x @ want)) < 1e-8


def test_scalar_block_conditional_flat_intercept_and_oracle():
    design, core = _prepared_core()
    z_mat = design.z
    prior_prec = np.diag(
        [1.0 / core.alpha_scales2[0], 1.0 / core.alpha_scales2[1], 0.0]
    )  # flat prior on the intercept contributes zero precision
    prec = z_mat.T @ z_mat / core.sigma2 + prior_prec
    lin = z_mat.T @ (design.y - core.fitted["beta"]) / core.sigma2
    seed_rng = np.random.default_rng(92)
    core._draw_block("alpha", seed_rng)
    z = np.random.default_rng(92).standard_normal(3)
    chol = np.linalg.cholesky(prec)
    want = np.linalg.solve(prec, lin) + np.linalg.solve(chol.T, z)
    assert np.max(np.abs(core.theta["alpha"] - want)) < 1e-8


def test_variance_conditionals_match_inverse_gamma():
    design, core = _prepared_core()
    rng = np.random.default_rng(93)
    cfg = core.config
    sig_draws = np.empty(20_000)
    scale_draws = np.empty(20_000)
    theta_alpha = core.theta["alpha"].copy()
    resid = design.y - sum(core.fitted.values())
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
        d2 = (second_difference_matrix(design.basis_b.size) @ core.theta["beta"])[1:-1]
        draws = []
        for _ in range(20_000):
            core._update_spline_scales("beta", rng)
            scales = core.scales["beta"]
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
        subject_ids=[f"s{i}" for i in range(n)],
    )


GEWEKE_CONFIG = FitConfig(
    prior="dhs", var_shape=2.0, var_rate=2.0, scale_shape=2.0, scale_rate=2.0,
    burnin=0, draws=1,
)


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
        core.prior_draw(np.random.default_rng(0))


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
def test_zero_persistence_posterior_matches_horseshoe_oracle():
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
        subject_ids=[f"s{i}" for i in range(n)],
    )
    # pin the AR persistence at (essentially) zero: scales become independent
    config = FitConfig(
        prior="dhs", burnin=2000, draws=12_000, dhs=DhsConfig(phi_a=2e6, phi_b=2e6)
    )
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
    design = toy_design(adaptive=True, seed=11)
    draws = fit(design, quick_config(), seed=1)
    assert draws.coeffs.shape == (300, 6)
    assert draws.alpha.shape == (300, 3)
    assert draws.h.shape == (300, 4)
    assert draws.smooth_var is None and draws.local_var is None
    assert np.all(draws.sigma2 > 0) and np.all(draws.lambda0 > 0)
    assert np.all(np.abs(draws.phi) < 1)
    assert draws.y_hat.shape == (40,)
    assert draws.block("g").coeffs.shape == (300, 5)
    assert np.all(np.isinf(draws.alpha_scales2[:, -1]))  # flat intercept

    ps = fit(toy_design(seed=11), quick_config("pspline"), seed=2)
    assert ps.h is None and ps.smooth_var.shape == (300,)
    lps = fit(toy_design(seed=11), quick_config("local-pspline"), seed=3)
    assert lps.local_var.shape == (300, 4)


def test_fit_thinning_keeps_every_kth():
    design = toy_design(seed=12)
    draws = fit(design, FitConfig(burnin=50, draws=100, thin=4), seed=4)
    assert draws.n_draws == 25


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
        subject_ids=[f"s{i}" for i in range(n)],
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


def test_subsample_indices_deterministic_and_bounded():
    idx = subsample_indices(1000, 100)
    assert idx[0] == 0 and idx[-1] == 999 and len(idx) == 100
    assert np.array_equal(idx, subsample_indices(1000, 100))
    assert np.array_equal(subsample_indices(50, None), np.arange(50))
    assert np.array_equal(subsample_indices(50, 100), np.arange(50))


def test_archive_round_trip(tmp_path):
    design = toy_design(adaptive=True, seed=15)
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
    assert np.array_equal(back.block("g").coeffs, draws.block("g").coeffs)
    assert back.block("g").basis == draws.block("g").basis


def test_archive_rejects_foreign_directory(tmp_path):
    (tmp_path / "manifest.yaml").write_text("format: something-else\n")
    with pytest.raises(ValueError, match="archive"):
        load_draws(tmp_path)


def test_stable_hash_is_order_insensitive():
    assert stable_hash({"a": 1, "b": [1, 2]}) == stable_hash({"b": [1, 2], "a": 1})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_fit_config_validation():
    with pytest.raises(ValueError, match="prior"):
        FitConfig(prior="ridge")
    with pytest.raises(ValueError, match="draws"):
        FitConfig(draws=0)
