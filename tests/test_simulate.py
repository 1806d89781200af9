"""Synthetic-data generators against their kernel and counting oracles."""

import math

import numpy as np
import pytest

from sofreg.basis import BSplineBasis, Domain
from sofreg.simulate import (
    EvalMetrics,
    GpSettings,
    LocallyConstantTruth,
    MethodResult,
    SimulationDesign,
    SmoothTruth,
    evaluate,
    functional_signals,
    gen_curves,
    gen_responses,
    run_replicate,
    true_beta_smooth,
)


def small_design(**kw):
    base = dict(n=4, snr=5.0, seed=1)
    base.update(kw)
    return SimulationDesign(**base)


# --- truths -------------------------------------------------------------------------


def test_smooth_truth_fixed_points():
    # at the bump centers both exponentials equal one, so the values are
    # plain rationals; elsewhere exponential dominance pins the tails near 0
    assert true_beta_smooth(1.0 / 3.0) == pytest.approx(2.0, abs=1e-7)
    assert true_beta_smooth(2.0 / 3.0) == pytest.approx(-3.0, abs=1e-7)
    assert abs(true_beta_smooth(0.0)) < 1e-7
    assert abs(true_beta_smooth(1.0)) < 1e-7


def test_locally_constant_truth_steps_and_validation():
    truth = LocallyConstantTruth(breakpoints=(0.25, 0.5), levels=(1.0, 0.0, -2.0))
    got = truth(np.array([0.0, 0.2, 0.25, 0.4, 0.5, 0.9, 1.0]))
    assert got.tolist() == [1.0, 1.0, 0.0, 0.0, -2.0, -2.0, -2.0]
    with pytest.raises(ValueError, match="one more level"):
        LocallyConstantTruth(breakpoints=(0.5,), levels=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        LocallyConstantTruth(breakpoints=(0.6, 0.4), levels=(1.0, 0.0, -1.0))


def test_design_validation():
    with pytest.raises(ValueError, match="snr"):
        small_design(snr=0.0)
    with pytest.raises(ValueError, match="grid"):
        small_design(grid=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError, match="signal route"):
        small_design(signal_route="simpson")
    assert small_design().grid.size == 101


# --- curve generation -----------------------------------------------------------------


def test_gp_marginal_variance_matches_kernel():
    # zero-mean design so the per-subject phase does not inflate the
    # cross-subject variance; the kernel diagonal is sigma_x^2 = 0.49
    flat = small_design(n=10_000, gp=GpSettings(seasonal=False, sigma_x=0.7))
    curves = gen_curves(flat, np.random.default_rng(3))
    x = np.stack([c.x for c in curves])
    n = x.shape[0]
    for t_idx in (0, 50, 100):
        var = x[:, t_idx].var(ddof=1)
        se = 0.49 * math.sqrt(2.0 / (n - 1))
        assert abs(var - 0.49) < 3.0 * se


def test_gp_neighbor_correlation_matches_kernel():
    flat = small_design(n=10_000, gp=GpSettings(seasonal=False))
    curves = gen_curves(flat, np.random.default_rng(4))
    x = np.stack([c.x for c in curves])
    want = math.exp(-0.5)  # squared-exponential at one grid step
    n = x.shape[0]
    for t_idx in (10, 60):
        corr = np.corrcoef(x[:, t_idx], x[:, t_idx + 1])[0, 1]
        se = (1.0 - want**2) / math.sqrt(n - 3)  # Fisher-z scale approximation
        assert abs(corr - want) < 3.0 * se


def test_gp_tiny_amplitude_reduces_to_mean():
    design = small_design(n=5, gp=GpSettings(seasonal=True, sigma_x=1e-7))
    curves = gen_curves(design, np.random.default_rng(5))
    for c in curves:
        # the curve should be a pure sinusoid: amplitude one, mean near zero
        assert np.max(np.abs(c.x)) < 1.0 + 1e-2
        assert np.std(np.diff(c.x)) < 0.1


def test_gen_curves_deterministic_under_seed():
    design = small_design(n=3)
    a = gen_curves(design, np.random.default_rng(9))
    b = gen_curves(design, np.random.default_rng(9))
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.x, cb.x)


# --- signals and responses -------------------------------------------------------------


def test_signal_routes_agree():
    design = small_design(n=40)
    curves = gen_curves(design, np.random.default_rng(6))
    basis = BSplineBasis(design.domain, 53, 3)
    via_spline = functional_signals(curves, SmoothTruth(), basis=basis, route="spline")
    via_trap = functional_signals(curves, SmoothTruth(), route="trapezoid")
    scale = np.max(np.abs(via_trap))
    assert np.max(np.abs(via_spline - via_trap)) < 1e-2 * scale


def test_gen_responses_snr_identity_and_tail():
    rng = np.random.default_rng(7)
    signals = rng.standard_normal(200)
    y, sigma = gen_responses(signals, snr=5.0, rng=rng)
    assert float(np.var(signals, ddof=1)) / sigma**2 == pytest.approx(5.0, rel=1e-12)
    y_hi, sigma_hi = gen_responses(signals, snr=1e12, rng=rng)
    assert np.max(np.abs(y_hi - signals)) < 1e-4


def test_gen_responses_rejects_degenerate_signal():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="degenerate signal"):
        gen_responses(np.zeros(50), snr=2.0, rng=rng)
    design = small_design(n=6)
    curves = gen_curves(design, rng)
    zero = LocallyConstantTruth(levels=(0.0, 0.0, 0.0))
    signals = functional_signals(curves, zero, route="trapezoid")
    with pytest.raises(ValueError, match="degenerate signal"):
        gen_responses(signals, snr=2.0, rng=rng)


# --- metrics ---------------------------------------------------------------------------


def test_evaluate_perfect_fit():
    grid = np.linspace(0.0, 1.0, 11)
    truth = np.sin(grid)
    m = evaluate(grid, truth, truth - 0.1, truth + 0.1, truth)
    assert m.l2_error == 0.0
    assert m.pointwise_coverage == 1.0
    assert m.mean_ci_width == pytest.approx(0.2)
    assert m.width_finite


def test_evaluate_infinite_band_flagged():
    grid = np.linspace(0.0, 1.0, 5)
    truth = np.ones(5)
    m = evaluate(grid, np.zeros(5), np.full(5, -np.inf), np.full(5, np.inf), truth)
    assert m.pointwise_coverage == 1.0
    assert not m.width_finite
    assert math.isinf(m.mean_ci_width)


def test_evaluate_l2_matches_quadrature_oracle():
    grid = np.linspace(0.0, 1.0, 201)
    beta_hat = np.cos(3 * grid)
    truth = np.cos(3 * grid) + 0.5 * grid
    m = evaluate(grid, beta_hat, beta_hat, beta_hat, truth)
    want = math.sqrt(np.trapezoid((0.5 * grid) ** 2, grid))
    assert m.l2_error == pytest.approx(want, rel=1e-12)


def test_evaluate_detection_rates_hand_counted():
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    truth = np.array([1.0, 1.0, 0.0, -1.0, -1.0])
    sel = np.array([1, 0, 1, -1, 1])
    m = evaluate(grid, truth, truth, truth, truth, selection=sel)
    # two truth-positive points, one labeled +; two negatives, one labeled -
    assert m.tpr == pytest.approx(0.5)
    assert m.tnr == pytest.approx(0.5)
    none_labeled = evaluate(grid, truth, truth, truth, truth)
    assert math.isnan(none_labeled.tpr) and math.isnan(none_labeled.tnr)


def test_evaluate_rejects_grid_mismatch():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="grid"):
        evaluate(grid, np.zeros(4), np.zeros(5), np.zeros(5), np.zeros(5))


# --- study runner ----------------------------------------------------------------------


def _noisy_truth_method(curves, y, design, rng):
    truth = np.asarray(design.truth(design.grid), dtype=float)
    est = truth + 0.01 * rng.standard_normal(truth.size)
    return MethodResult(
        beta_hat=est,
        lower=est - 0.5,
        upper=est + 0.5,
        selection=np.sign(est).astype(int),
    )


def _failing_method(curves, y, design, rng):
    raise RuntimeError("deliberate test failure")


def test_run_study_is_deterministic_and_tidy():
    design = small_design(n=12, replicates=2, seed=42, signal_route="trapezoid")
    methods = {"noisy": _noisy_truth_method}
    rows_a = [row for rep in range(2) for row in run_replicate(design, methods, rep)]
    rows_b = [row for rep in range(2) for row in run_replicate(design, methods, rep)]
    assert rows_a == rows_b
    got = {(r["replicate"], r["method"], r["metric"]) for r in rows_a}
    for rep in (0, 1):
        assert (rep, "_data", "sigma") in got
        for metric in ("l2_error", "coverage", "mean_width", "tpr", "tnr"):
            assert (rep, "noisy", metric) in got


def test_run_study_records_failures_without_aborting():
    design = small_design(n=10, replicates=2, seed=3, signal_route="trapezoid")
    methods = {"ok": _noisy_truth_method, "bad": _failing_method}
    rows = [row for rep in range(2) for row in run_replicate(design, methods, rep)]
    errors = [r for r in rows if r["metric"] == "error"]
    assert len(errors) == 2 and all(r["method"] == "bad" for r in errors)
    ok_rows = [r for r in rows if r["method"] == "ok" and r["metric"] == "l2_error"]
    assert len(ok_rows) == 2
    assert all(r["value"] < 0.1 for r in ok_rows)


def test_run_study_method_order_does_not_change_data():
    design = small_design(n=8, replicates=1, seed=11, signal_route="trapezoid")
    one = run_replicate(design, {"a": _noisy_truth_method, "b": _noisy_truth_method}, 0)
    two = run_replicate(design, {"b": _noisy_truth_method, "a": _noisy_truth_method}, 0)
    val = lambda rows, name: [
        r["value"] for r in rows if r["method"] == name and r["metric"] == "l2_error"
    ]
    assert val(one, "a") == val(two, "a")
    assert val(one, "b") == val(two, "b")
