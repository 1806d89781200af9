"""Acceptance gate: one test per headline criterion.

Run ``pytest -v tests/test_acceptance.py``; each test name doubles as the
pass/fail line for its criterion.  Statistical orderings run at reduced
scale with fixed seeds; numeric tolerances and runtime budgets are
asserted inside the tests.  Detail lines are printed for inspection with
``-s`` or on failure.
"""

from __future__ import annotations

import copy
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import BSpline

from sofreg.basis import (
    BSplineBasis,
    Domain,
    cross_gram,
    eval_basis_matrix,
    second_difference_matrix,
)
from sofreg.decision import (
    AcceptableFamily,
    PathDiagnostics,
    Partition,
    acceptable_family,
    analyze,
    ci_selection,
    fused_lasso_path,
    kkt_residual,
    path_delta_at,
    selection_on_grid,
)
from sofreg.dhs import (
    _log_vol_level_joint,
    dhs_step,
    sample_log_vols_and_level,
)
from sofreg.funcdata import (
    CurveGroup,
    CurveSet,
    RegressionDesign,
    fit_curves,
    functional_scores,
)
from sofreg.gibbs import (
    FitConfig,
    _GibbsCore,
    summarize_coefficient,
)
from sofreg.methods import MethodSettings, _fit_once, build_methods, default_partition
from sofreg.simulate import (
    GpSettings,
    LocallyConstantTruth,
    SimulationDesign,
    SmoothTruth,
    evaluate,
    method_rng,
    replicate_data,
    run_replicate,
)
from geweke import prior_parameter_draws, successive_conditional_draws
from test_decision import prox_gradient_k3, random_problem
from test_gibbs import dense_coefficient_draw, toy_design


def _small_design(n=15, k=8, seed=11) -> RegressionDesign:
    rng = np.random.default_rng(seed)
    basis = BSplineBasis(Domain(0.0, 1.0), k, 3)
    z = np.column_stack([rng.normal(size=n), np.ones(n)])
    return RegressionDesign(
        y=rng.normal(size=n),
        scores=rng.normal(size=(n, k)) * 0.6,
        basis_b=basis,
        z=z,
        z_names=["w0", "(intercept)"],
        penalized=np.array([True, False]),
    )


# --- criterion 1: every full conditional matches a dense/closed-form oracle ----------


def _replay_one_sweep(prior: str, design: RegressionDesign | None = None, warmup: int = 3) -> None:
    """Replay a full sweep with dense algebra and closed-form updates.

    Seeded-draw equality pins both the conditional mean and the
    conditional precision of every draw: the coefficients [beta; alpha]
    are one Gaussian draw, mean + chol(prec)^-T z over the stacked
    [X | Z], and a variance draw is rate/gamma(shape), so any mismatch in
    the conditional parameters breaks equality at machine precision.  The replay forms the residual densely, so it also pins
    the noise variance's residual sum of squares.
    """
    design = design or _small_design()
    k = design.basis_b.size
    cfg = FitConfig(prior=prior, burnin=2, draws=2, refresh=1)
    core = _GibbsCore(design, cfg)
    core.set_y(design.y)
    core.init_from_data()
    warm = np.random.default_rng(7)
    for _ in range(warmup):
        core.sweep(warm)

    # freeze the pre-sweep state
    lam = core.scales.variance_vector(prior, k).copy()
    sigma2 = core.sigma2
    alpha_scales2 = core.alpha_scales2.copy()
    dhs_state0 = copy.deepcopy(core.scales.dhs_state) if prior == "dhs" else None

    rng_live = np.random.default_rng(123)
    rng_replay = np.random.default_rng(123)
    core.sweep(rng_live)

    dop = second_difference_matrix(k)
    alpha_prior_prec = np.where(design.penalized, 1.0 / alpha_scales2, 0.0)
    beta_new, alpha_new = dense_coefficient_draw(design, lam, alpha_prior_prec, sigma2, rng_replay)
    assert np.max(np.abs(core.beta - beta_new)) < 1e-8, "functional block"
    assert np.max(np.abs(core.alpha - alpha_new)) < 1e-8, "scalar block"

    d2 = (dop @ beta_new)[1:-1]
    if prior == "dhs":
        # latent-process draw replayed with the same generator; its own
        # conditionals are checked against dense oracles separately
        dhs_step(d2, dhs_state0, cfg.refresh, rng_replay)
    elif prior == "pspline":
        rate = cfg.scale_rate + 0.5 * float(d2 @ d2)
        smooth = 1.0 / rng_replay.gamma(cfg.scale_shape + 0.5 * d2.size, 1.0 / rate)
        assert abs(core.scales.smooth_var - smooth) < 1e-8 * smooth, "global scale"
    else:
        rates = cfg.scale_rate + 0.5 * d2**2
        local = 1.0 / rng_replay.gamma(cfg.scale_shape + 0.5, 1.0 / rates)
        err = np.max(np.abs(core.scales.local_var - local) / local)
        assert err < 1e-8, "local scales"

    rate0 = cfg.scale_rate + 0.5 * (beta_new[0] ** 2 + beta_new[-1] ** 2)
    lam0 = 1.0 / math.sqrt(rng_replay.gamma(cfg.scale_shape + 1.0, 1.0 / rate0))
    assert abs(core.scales.lambda0 - lam0) < 1e-8 * lam0, "boundary scale"

    pen = design.penalized
    rates_a = cfg.var_rate + 0.5 * alpha_new[pen] ** 2
    scales_new = 1.0 / rng_replay.gamma(cfg.var_shape + 0.5, 1.0 / rates_a)
    assert np.max(np.abs(core.alpha_scales2[pen] - scales_new)) < 1e-8, "scalar prior scales"

    resid = design.y - design.scores @ beta_new - design.z @ alpha_new
    rate_s = cfg.var_rate + 0.5 * float(resid @ resid)
    sigma2_new = 1.0 / rng_replay.gamma(cfg.var_shape + 0.5 * design.n, 1.0 / rate_s)
    assert abs(core.sigma2 - sigma2_new) < 1e-8 * sigma2_new, "noise variance"


def _tight_design(scale: float, noise: float, offset: float, n: int = 200) -> RegressionDesign:
    """A linear truth (no smoothing bias) fit almost exactly: ``noise`` is the
    noise's share of the signal's standard deviation."""
    design = _small_design(n=n)
    rng = np.random.default_rng(5)
    signal = scale * (design.scores @ np.linspace(-1.0, 1.0, design.basis_b.size) + design.z @ [0.5, 0.3])
    design.y = signal + noise * signal.std() * rng.normal(size=n) + offset
    return design


@pytest.mark.parametrize(
    "scale, noise, offset", [(1e3, 1e-6, 0.0), (1.0, 1.0, 1e4)], ids=["near-noiseless", "offset"]
)
def test_noise_variance_draw_survives_cancellation(scale, noise, offset):
    # the residual sum of squares is taken from cross-products, which cancel
    # to a few digits when the fit is tight (at the replayed sweep RSS is
    # about 5e-11 y'y in the near-noiseless case and 1.4e-8 y'y under the
    # offset); the sweep must still draw the noise variance the dense replay
    # draws
    design = _tight_design(scale, noise, offset)
    for prior in ("pspline", "dhs"):
        _replay_one_sweep(prior, design, warmup=20)


def _log_vol_dense_oracle() -> None:
    """Banded joint (path, level) conditional vs an explicit (m+1)-dimensional construction.

    The Gaussian pieces are written as matrices on x = (h, mu_h): the
    observation precision on h, the mean-zero innovations eta = D x with
    Polya-Gamma precisions, and the level's own Polya-Gamma precision.  The seeded draw
    is replayed densely, the level from its Schur-complement marginal and
    the path given the level, and that replay is checked to have the
    joint's mean and covariance.
    """
    from sofreg.dhs import (
        LOG_CHI2_MEAN,
        LOG_CHI2_VAR,
        LOG_SQUARE_JITTER,
        DhsState,
    )

    rng = np.random.default_rng(21)
    m = 6
    state = DhsState(
        h=rng.normal(size=m),
        mu_h=-0.7,
        phi=0.55,
        indicators=rng.integers(0, 10, size=m),
        xi=rng.gamma(2.0, 0.3, size=m) + 0.05,
        xi_mu=0.3,
    )
    d2 = rng.normal(size=m) * 0.5

    ystar = np.log(d2**2 + LOG_SQUARE_JITTER)
    obs_var = LOG_CHI2_VAR[state.indicators]
    obs_mean = LOG_CHI2_MEAN[state.indicators]
    trans = np.eye(m)
    for j in range(1, m):
        trans[j, j - 1] = -state.phi
    innov = np.hstack([trans, -(trans @ np.ones((m, 1)))])  # eta = innov @ (h, mu_h)
    prec = innov.T @ np.diag(state.xi) @ innov
    prec[:m, :m] += np.diag(1.0 / obs_var)
    prec[m, m] += state.xi_mu
    lin = np.r_[(ystar - obs_mean) / obs_var, 0.0]

    diag, offdiag, lin_h, coupling, level_prec = _log_vol_level_joint(d2, state)
    band = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    assert np.max(np.abs(band - prec[:m, :m])) < 1e-10
    assert np.max(np.abs(coupling - prec[:m, m])) < 1e-10
    assert abs(level_prec - prec[m, m]) < 1e-10
    assert np.max(np.abs(lin_h - lin[:m])) < 1e-10

    h_banded, mu_banded = sample_log_vols_and_level(d2, state, np.random.default_rng(0))
    replay = np.random.default_rng(0)
    q_hh, q_hm = prec[:m, :m], prec[:m, m]
    schur = prec[m, m] - q_hm @ np.linalg.solve(q_hh, q_hm)
    schur_lin = lin[m] - q_hm @ np.linalg.solve(q_hh, lin[:m])
    chol = np.linalg.cholesky(q_hh)
    # the replay is the affine map x = center + loading @ (z_mu, z_h)
    center = np.r_[np.linalg.solve(q_hh, lin[:m] - q_hm * schur_lin / schur), schur_lin / schur]
    loading = np.zeros((m + 1, m + 1))
    loading[:m, 0] = -np.linalg.solve(q_hh, q_hm) / math.sqrt(schur)
    loading[m, 0] = 1.0 / math.sqrt(schur)
    loading[:m, 1:] = np.linalg.inv(chol.T)
    cov = np.linalg.inv(prec)
    assert np.max(np.abs(center - cov @ lin)) < 1e-8
    assert np.max(np.abs(loading @ loading.T - cov)) < 1e-8
    draw_dense = center + loading @ np.r_[replay.standard_normal(), replay.standard_normal(m)]
    assert np.max(np.abs(h_banded - draw_dense[:m])) < 1e-8
    assert abs(mu_banded - draw_dense[m]) < 1e-8


def test_criterion_01_sampler_conditional_oracles():
    start = time.monotonic()
    for prior in ("dhs", "pspline", "local-pspline"):
        _replay_one_sweep(prior)
    _log_vol_dense_oracle()
    elapsed = time.monotonic() - start
    print(f"criterion 1: all conditionals match dense/closed-form oracles ({elapsed:.1f}s)")
    assert elapsed < 60.0


# --- criterion 2: Geweke prior-reproduction ------------------------------------------


@pytest.mark.slow
def test_criterion_02_geweke_prior_reproduction():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    basis = BSplineBasis(Domain(0.0, 1.0), 8, 3)
    n = 15
    design = RegressionDesign(
        y=np.zeros(n),
        scores=rng.normal(size=(n, 8)) * 0.5,
        basis_b=basis,
        z=rng.normal(size=(n, 1)),
        z_names=["w0"],
        penalized=np.array([True]),
    )
    # proper hyperpriors: the joint prior must be samplable for this test
    cfg = FitConfig(
        prior="dhs", var_shape=2.0, var_rate=2.0, scale_shape=2.0, scale_rate=2.0,
        burnin=0, draws=1,
    )
    prior = prior_parameter_draws(design, cfg, 4000, rng)
    chain = successive_conditional_draws(design, cfg, 10_000, rng, thin=10)
    pvals = {}
    for name in ("sigma2", "phi", "mu_h"):
        pvals[name] = stats.ks_2samp(prior[name], chain[name]).pvalue
    elapsed = time.monotonic() - start
    print(f"criterion 2: Geweke KS p-values {pvals} ({elapsed:.1f}s)")
    assert all(p > 0.01 for p in pvals.values()), pvals
    assert elapsed < 300.0


# --- criterion 3: estimation/UQ ordering on the seasonal design ----------------------


@pytest.mark.slow
def test_criterion_03_seasonal_estimation_ordering():
    start = time.monotonic()
    design = SimulationDesign(
        n=500,
        snr=5.0,
        grid=np.linspace(0.0, 1.0, 101),
        gp=GpSettings(),
        truth=SmoothTruth(),
        replicates=10,
        seed=1,
    )
    methods = build_methods(["dhs", "pspline", "local-pspline"], MethodSettings())
    collected: dict[tuple[str, str], list[float]] = {}
    for rep in range(design.replicates):
        for row in run_replicate(design, methods, rep):
            assert row["metric"] != "error", row
            if row["metric"] in ("l2_error", "mean_width", "coverage"):
                collected.setdefault((row["method"], row["metric"]), []).append(row["value"])

    med_l2 = {m: float(np.median(collected[(m, "l2_error")])) for m in methods}
    width = {m: float(np.mean(collected[(m, "mean_width")])) for m in methods}
    cover = {m: float(np.mean(collected[(m, "coverage")])) for m in methods}
    elapsed = time.monotonic() - start
    print(
        f"criterion 3: median L2 {med_l2}; mean width {width}; "
        f"mean coverage {cover} ({elapsed:.0f}s)"
    )
    assert med_l2["dhs"] < med_l2["local-pspline"], (med_l2, "L2 vs local scales")
    assert med_l2["dhs"] < med_l2["pspline"], (med_l2, "L2 vs global scale")
    assert width["dhs"] < width["local-pspline"], (width, "interval width")
    assert cover["dhs"] >= 0.90, cover
    assert elapsed < 1800.0


# --- criterion 4: window-selection ordering, decision analysis vs intervals ----------


@pytest.mark.slow
def test_criterion_04_window_selection_ordering():
    start = time.monotonic()
    design = SimulationDesign(
        n=5000,
        snr=0.5,
        grid=np.linspace(0.0, 1.0, 101),
        gp=GpSettings(),
        truth=LocallyConstantTruth(breakpoints=(0.35, 0.65), levels=(-0.5, 0.25, -1.0)),
        replicates=10,
        seed=1,
    )
    settings = MethodSettings()
    grid = design.grid
    truth_vals = np.asarray(design.truth(grid), dtype=float)

    rows = []
    for rep in range(design.replicates):
        curves, y, _sigma = replicate_data(design, rep)
        rng = method_rng(design, rep, "dhs-da")
        # one shrinkage fit per replicate; both selectors read the same posterior
        coef_curves, reg_design, draws = _fit_once("dhs", curves, y, rng, settings)
        summary = summarize_coefficient(draws, grid=grid)
        ci_sel = ci_selection(summary.lower95, summary.upper95)
        decision = analyze(
            draws,
            reg_design,
            coef_curves,
            default_partition(design, settings),
            np.asarray(y, dtype=float),
            rng,
            epsilon=settings.epsilon,
            zero_tol=settings.zero_tol,
            pred_draws=settings.pred_draws,
        )
        da_sel = selection_on_grid(decision.estimate, grid, settings.zero_tol)
        m_ci = evaluate(grid, summary.mean, summary.lower95, summary.upper95, truth_vals, ci_sel)
        m_da = evaluate(
            grid, decision.estimate.level_at(grid), summary.lower95, summary.upper95,
            truth_vals, da_sel,
        )
        rows.append((m_da.tpr, m_ci.tpr, m_da.tnr, m_ci.tnr, m_da.l2_error, m_ci.l2_error))

    arr = np.array(rows)
    wins = int(np.sum(arr[:, 0] > arr[:, 1]))
    tnr_da, tnr_ci = arr[:, 2].mean(), arr[:, 3].mean()
    l2_lc, l2_pm = arr[:, 4].mean(), arr[:, 5].mean()
    elapsed = time.monotonic() - start
    print(
        f"criterion 4: DA TPR beats CI TPR in {wins}/10; mean TNR DA {tnr_da:.3f} "
        f"vs CI {tnr_ci:.3f}; mean L2 step {l2_lc:.3f} vs posterior mean {l2_pm:.3f} "
        f"({elapsed:.0f}s)"
    )
    assert wins >= 8, arr[:, :2]
    assert tnr_da >= 0.8 * tnr_ci, (tnr_da, tnr_ci)
    assert l2_lc <= 1.2 * l2_pm, (l2_lc, l2_pm)
    assert elapsed < 3600.0


# --- criterion 5: fused-lasso path correctness ----------------------------------------


def test_criterion_05_fused_lasso_path_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(5)

    # KKT residuals at every knot and between knots, 20 random designs
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 51))
        n = int(rng.integers(k + 5, k + 60))
        r, agg = random_problem(rng, n, k)
        path = fused_lasso_path(r, agg)
        lams = path.lambdas
        probe = np.concatenate([lams, (lams[:-1] + lams[1:]) / 2.0])
        for lam in probe:
            res = kkt_residual(path_delta_at(path, lam), r, agg, lam)
            worst = max(worst, res)
    assert worst <= 1e-8, worst

    # endpoint identities
    r, agg = random_problem(rng, 40, 12)
    path = fused_lasso_path(r, agg)
    lstsq = np.linalg.lstsq(agg, r, rcond=None)[0]
    assert np.max(np.abs(path_delta_at(path, 0.0) - lstsq)) < 1e-8
    total = agg.sum(axis=1)
    const = float(total @ r / (total @ total))
    at_top = path_delta_at(path, path.lambdas[0])
    assert np.max(np.abs(at_top - const)) < 1e-8

    # prox-gradient oracle on K=3 toys
    for seed in (1, 2, 3):
        rng3 = np.random.default_rng(seed)
        r3, agg3 = random_problem(rng3, 12, 3)
        path3 = fused_lasso_path(r3, agg3)
        n3 = r3.size
        for frac in (0.75, 0.4, 0.1):
            lam = frac * path3.lambdas[0]
            oracle = prox_gradient_k3(r3, agg3, n3 * lam / 2.0)
            assert np.max(np.abs(path_delta_at(path3, lam) - oracle)) < 1e-8

    elapsed = time.monotonic() - start
    print(f"criterion 5: worst KKT residual {worst:.2e}; endpoints and prox oracle agree ({elapsed:.0f}s)")
    assert elapsed < 120.0


# --- criterion 6: the one pass over the subjects is linear in n; a sweep is n-free ----------


@pytest.mark.slow
def test_criterion_06_linear_scaling_in_n():
    # Building the core (`_GibbsCore` and `set_y`) forms every cross-product
    # with the subjects' rows, the only work that must grow with n; it must
    # grow linearly.  A sweep then works on those cross-products alone, so its
    # time must not grow with n.  Each sweep is timed less its shrinkage-scale
    # update: that update sees only the K - 2 second differences, and at this
    # K it outweighs the rest, so drifts in machine speed would hide a
    # growth.  The sweep figure per size is the median over 1000 sweeps, so a
    # burst of load moves one sweep, not the figure; three rounds interleave
    # the sizes and the fastest round counts.
    sizes = (500, 5000, 50000)
    settings = MethodSettings(curve_basis_size=53, coef_basis_size=53)
    cfg = FitConfig(prior="dhs", burnin=900, draws=100, refresh=1)
    from sofreg.funcdata import assemble_design

    designs = []
    for n in sizes:
        design = SimulationDesign(
            n=n,
            snr=5.0,
            grid=np.linspace(0.0, 1.0, 101),
            gp=GpSettings(),
            truth=SmoothTruth(),
            replicates=1,
            seed=17,
        )
        curves, y, _sigma = replicate_data(design, 0)
        designs.append(
            assemble_design(
                curves, y, settings.curve_basis_size, settings.coef_basis_size, settings.degree
            )[1]
        )

    rounds = np.empty((3, len(sizes)))
    setup_rounds = np.empty((3, len(sizes)))
    sweep_times = np.empty(cfg.burnin + cfg.draws)
    for r in range(rounds.shape[0]):
        for j, reg_design in enumerate(designs):
            t0 = time.perf_counter()
            core = _GibbsCore(reg_design, cfg)
            core.set_y(reg_design.y)
            setup_rounds[r, j] = time.perf_counter() - t0
            core.init_from_data()
            scale_time = [0.0]
            update_scales = core._update_scales

            def timed_update(rng, update_scales=update_scales, scale_time=scale_time):
                t0 = time.perf_counter()
                update_scales(rng)
                scale_time[0] += time.perf_counter() - t0

            core._update_scales = timed_update
            rng = np.random.default_rng(3)
            for i in range(sweep_times.size):
                scale_time[0] = 0.0
                t0 = time.perf_counter()
                core.sweep(rng)
                sweep_times[i] = time.perf_counter() - t0 - scale_time[0]
            rounds[r, j] = 1000.0 * np.median(sweep_times)  # per 1000 sweeps
    times = rounds.min(axis=0)
    setup = setup_rounds.min(axis=0)

    x = np.array(sizes, dtype=float)
    slope, intercept = np.polyfit(x, setup, 1)
    pred = intercept + slope * x
    ss_res = float(np.sum((setup - pred) ** 2))
    ss_tot = float(np.sum((setup - setup.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    per_1000 = {n: f"{ti:.3f}s" for n, ti in zip(sizes, times)}
    per_setup = {n: f"{1000.0 * ti:.2f}ms" for n, ti in zip(sizes, setup)}
    print(
        f"criterion 6: set-up {per_setup}, linear fit R^2={r2:.4f}; "
        f"per-1000-sweep times {per_1000}, ratio {times[-1] / times[0]:.2f}"
    )
    assert r2 >= 0.95, (setup, r2)
    assert slope > 0, setup
    assert times[-1] <= 1.5 * times[0], times


class _Untouchable:
    """Stands in for an n-sized array: any use of it raises."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("a sweep touched an n-sized array")

    __array_ufunc__ = None  # numpy defers every operator to the methods below
    __getattr__ = __getitem__ = __iter__ = __len__ = __array__ = _fail
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _fail
    __matmul__ = __rmatmul__ = _fail


def test_sweep_touches_no_subject_sized_array():
    # the deterministic half of criterion 6: on a loosely fitting design (pure
    # noise response, so the residual sum of squares never cancels) sweeps run
    # without the design matrices or the response; of the design, only the
    # scalar columns' penalty mask is left
    design = toy_design(seed=3)
    for prior in ("dhs", "pspline", "local-pspline"):
        core = _GibbsCore(design, FitConfig(prior=prior, burnin=1, draws=1))
        core.set_y(design.y)
        core.init_from_data()
        core.x, core.z, core.y = _Untouchable(), _Untouchable(), _Untouchable()
        core.design = SimpleNamespace(penalized=design.penalized)
        rng = np.random.default_rng(8)
        for it in range(50):
            core.sweep(rng)
            core.check_finite(it)


# --- criterion 7: quadrature and design identities -------------------------------------


def test_criterion_07_quadrature_and_design_identities():
    start = time.monotonic()
    domain = Domain(0.0, 1.0)
    b_row = BSplineBasis(domain, 11, 3)
    b_col = BSplineBasis(domain, 7, 3)

    # cross-Gram vs a 1e5-point midpoint Riemann sum, relative 1e-6
    gram = cross_gram(b_row, b_col)
    mid = np.linspace(0.0, 1.0, 100_001)
    mid = (mid[:-1] + mid[1:]) / 2.0
    h = 1.0 / 100_000
    riemann = eval_basis_matrix(b_row, mid).T @ eval_basis_matrix(b_col, mid) * h
    rel = np.max(np.abs(gram - riemann)) / np.max(np.abs(gram))
    assert rel <= 1e-6, rel

    # design-row identity: score row dotted with arbitrary spline coefficients
    # equals a high-resolution quadrature of the curve-times-spline product
    rng = np.random.default_rng(77)
    t_obs = np.sort(rng.uniform(0.0, 1.0, 60))
    t_obs[0], t_obs[-1] = 0.0, 1.0
    curve_basis = BSplineBasis(domain, 9, 3)
    x_obs = np.sin(3.0 * t_obs) + 0.2 * rng.normal(size=60)
    curves = CurveSet(["s0"], [CurveGroup(np.arange(1), t_obs, x_obs[None])])
    coef_curves = fit_curves(curves, curve_basis)
    scores = functional_scores(coef_curves, b_col)
    delta = rng.normal(size=b_col.size)
    dense = np.linspace(0.0, 1.0, 2_097_153)
    dense_mid = (dense[:-1] + dense[1:]) / 2.0
    hd = dense[1] - dense[0]
    curve_vals = BSpline(curve_basis.knots, coef_curves[0].coeffs, 3)(dense_mid)
    delta_vals = BSpline(b_col.knots, delta, 3)(dense_mid)
    quad = float(np.sum(curve_vals * delta_vals) * hd)
    assert abs(float(scores[0] @ delta) - quad) <= 1e-8

    # partition of unity on a dense grid
    dense_t = np.linspace(0.0, 1.0, 20_001)
    for basis in (b_row, b_col, curve_basis):
        sums = eval_basis_matrix(basis, dense_t).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    elapsed = time.monotonic() - start
    print(f"criterion 7: cross-Gram rel err {rel:.2e}; design-row and unity identities hold ({elapsed:.0f}s)")
    assert elapsed < 60.0


# --- criterion 8: acceptable-family counting mechanics ---------------------------------


def test_criterion_08_acceptable_family_mechanics():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n_grid = int(rng.integers(2, 12))
        n_draws = int(rng.integers(1, 40))
        idx_min = int(rng.integers(0, n_grid))
        pct = rng.normal(0.5, 2.0, size=(n_grid, n_draws))
        pct[idx_min] = 0.0  # the empirical optimum prices itself at zero loss
        levels = rng.integers(0, 6, size=n_grid)
        lambdas = np.sort(rng.uniform(0.01, 1.0, size=n_grid))[::-1]
        diag = PathDiagnostics(
            lambdas=lambdas,
            deltas=np.zeros((n_grid, 3)),
            n_level_changes=levels,
            empirical=rng.uniform(size=n_grid),
            percent_increase=pct,
            idx_lambda_min=idx_min,
        )
        epsilon = float(rng.uniform(0.0, 0.6))
        fam = acceptable_family(diag, epsilon)
        assert isinstance(fam, AcceptableFamily)

        need = math.ceil(epsilon * n_draws)
        oracle = np.array(
            [int(np.sum(pct[i] <= 0.0)) >= need for i in range(n_grid)], dtype=bool
        )
        assert np.array_equal(fam.members, oracle)
        assert fam.members[idx_min], "empirical optimum must always be acceptable"

        member_idx = np.flatnonzero(oracle)
        best = member_idx[np.argmin(levels[member_idx])]
        assert fam.idx_simplest == best  # first index = largest penalty on ties
    print("criterion 8: membership, optimum inclusion, and simplest selection match counting oracles")
