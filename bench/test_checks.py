"""Tests of the benchmark's own estimators and checkers.

Each checker must pass a right answer and reject a deliberately wrong
one.  Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import lfilter

import checks
import mcmc

BREAKS = (0.35, 0.65)
LEVELS = (-0.5, 0.25, -1.0)
GRID = np.linspace(0.0, 1.0, 101)


def ar1(rho: float, chains: int, n: int, seed: int, shift=0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((chains, n)) * np.sqrt(1.0 - rho**2)
    e[:, 0] = rng.standard_normal(chains)  # stationary start
    return lfilter([1.0], [1.0, -rho], e, axis=1) + np.reshape(shift, (-1, 1))


# --- mixing estimators -----------------------------------------------------------------


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.3])
def test_ess_matches_ar1_theory(rho):
    x = ar1(rho, chains=4, n=20000, seed=11)
    expected = x.size * (1.0 - rho) / (1.0 + rho)
    assert mcmc.ess(x) == pytest.approx(expected, rel=0.15)


def test_ess_of_one_chain_and_of_disagreeing_chains():
    x = ar1(0.5, chains=1, n=20000, seed=3)
    assert mcmc.ess(x[0]) == pytest.approx(20000 / 3.0, rel=0.15)
    agree = ar1(0.5, chains=4, n=2000, seed=5)
    disagree = ar1(0.5, chains=4, n=2000, seed=5, shift=[0.0, 0.0, 3.0, 3.0])
    assert mcmc.ess(disagree) < 0.2 * mcmc.ess(agree)


def test_split_rhat_near_one_for_a_common_target():
    assert mcmc.split_rhat(ar1(0.9, chains=4, n=5000, seed=7)) < 1.02
    assert checks.check_rhat("x", ar1(0.9, chains=4, n=5000, seed=7)) == []


def test_split_rhat_rejects_chains_with_different_targets():
    x = ar1(0.5, chains=4, n=1000, seed=9, shift=[0.0, 0.0, 0.0, 2.0])
    assert mcmc.split_rhat(x) > 1.1
    assert checks.check_rhat("x", x)
    # per-column form: one bad column is enough
    good = ar1(0.5, chains=4, n=1000, seed=9)
    assert checks.check_rhat("beta", np.stack([good, x], axis=2))


def test_split_rhat_rejects_a_drifting_chain():
    x = ar1(0.5, chains=4, n=1000, seed=13) + np.linspace(0.0, 4.0, 1000)
    assert mcmc.split_rhat(x) > 1.1


def test_estimators_refuse_degenerate_input():
    with pytest.raises(ValueError):
        mcmc.ess(np.ones((2, 100)))
    with pytest.raises(ValueError):
        mcmc.split_rhat(np.zeros((2, 3)))


# --- curves -------------------------------------------------------------------------------


def greville(size: int, degree: int = 3) -> np.ndarray:
    knots = checks._knots(size, degree)
    return np.array([knots[j + 1 : j + degree + 1].mean() for j in range(size)])


def test_curve_values_reproduce_constants_and_lines():
    ones = checks.curve_values(np.ones((1, 53)), 53, GRID)
    line = checks.curve_values(greville(53), 53, GRID)
    np.testing.assert_allclose(ones, 1.0, atol=1e-12)
    np.testing.assert_allclose(line[0], GRID, atol=1e-12)


def test_cell_integrals_of_constants_and_lines():
    breaks = np.linspace(0.0, 1.0, 21)
    coeffs = np.stack([np.ones(53), greville(53)])
    out = checks.cell_integrals(coeffs, breaks)
    np.testing.assert_allclose(out[0], np.diff(breaks), atol=1e-12)
    np.testing.assert_allclose(out[1], np.diff(breaks**2) / 2.0, atol=1e-12)


# --- posterior summaries -----------------------------------------------------------------


def band_draws(center: np.ndarray, sd: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return center + sd * rng.standard_normal((2000, center.size))


def test_posterior_curve_check_accepts_truth_and_rejects_a_shift():
    truth = checks.smooth_truth(GRID)
    assert checks.check_posterior_curve(GRID, band_draws(truth, 0.1), truth, 0.2, 0.9) == []
    shifted = checks.check_posterior_curve(GRID, band_draws(truth + 0.5, 0.1), truth, 0.2, 0.9)
    assert any("L2 error" in p for p in shifted) and any("covers" in p for p in shifted)


def test_beta_summary_check_rejects_a_shifted_mean():
    truth = checks.step_truth(GRID, BREAKS, (2.0, 0.0, -2.0))
    lo, hi = truth - 0.3, truth + 0.3
    assert checks.check_beta_summary(GRID, truth, lo, hi, truth, 0.5, truth - 0.1, truth + 0.1) == []
    shifted = checks.check_beta_summary(GRID, truth + 0.6, lo + 0.6, hi + 0.6, truth, 0.5)
    assert any("L2 error" in p for p in shifted)


def test_beta_summary_check_rejects_disordered_bands():
    truth = checks.step_truth(GRID, BREAKS, (2.0, 0.0, -2.0))
    problems = checks.check_beta_summary(GRID, truth, truth + 0.3, truth - 0.3, truth, 0.5)
    assert problems


def test_noise_variance_check():
    draws = np.full(100, 1.05)
    assert checks.check_noise_variance(draws, 1.0) == []
    assert checks.check_noise_variance(draws * 1.5, 1.0)


# --- windows ------------------------------------------------------------------------------


RIGHT = [(0.0, 0.35, "-"), (0.35, 0.64, "+"), (0.64, 1.0, "-")]


def test_window_signs_accept_the_truth():
    assert checks.check_window_signs(RIGHT, GRID, BREAKS, LEVELS) == []
    # a missed weak window is not a sign error
    merged = [(0.0, 0.35, "-"), (0.35, 0.64, "0"), (0.64, 1.0, "-")]
    assert checks.check_window_signs(merged, GRID, BREAKS, LEVELS) == []


def test_window_signs_reject_flipped_signs():
    flip = {"+": "-", "-": "+", "0": "0"}
    flipped = [(a, b, flip[lab]) for a, b, lab in RIGHT]
    assert checks.check_window_signs(flipped, GRID, BREAKS, LEVELS)


def test_window_signs_reject_a_missed_strong_window():
    missed = [(0.0, 0.35, "-"), (0.35, 0.64, "+"), (0.64, 1.0, "0")]
    problems = checks.check_window_signs(missed, GRID, BREAKS, LEVELS)
    assert any("strongest region" in p for p in problems)


# --- fused-lasso stationarity --------------------------------------------------------------


def test_stationarity_of_two_point_solutions():
    a = np.eye(2)  # n = 2 rows, so the standard-form penalty equals lam
    r = np.array([0.0, 3.0])
    assert checks.stationarity_violation([1.0, 2.0], r, a, 1.0) < 1e-14  # unfused
    assert checks.stationarity_violation([1.5, 1.5], r, a, 2.0) < 1e-14  # fused
    assert checks.stationarity_violation([1.1, 1.9], r, a, 1.0) > 1e-3
    assert checks.stationarity_violation([1.5, 1.5], r, a, 1.0) > 1e-3  # should not fuse
    assert checks.stationarity_violation([2.0, 1.0], r, a, 1.0) > 1e-3  # wrong sign


def test_stationarity_of_full_fusion_on_a_general_design():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 6))
    r = rng.standard_normal(40)
    col = a.sum(axis=1)  # all levels equal: least squares on the row sums
    level = float(col @ r / (col @ col))
    delta = np.full(6, level)
    grad = a.T @ (r - a @ delta)
    lam_s = float(np.max(np.abs(np.cumsum(grad)[:-1])))
    lam = 2.0 * lam_s / 40
    assert checks.stationarity_violation(delta, r, a, lam * 1.01) < 1e-12
    assert checks.stationarity_violation(delta, r, a, lam * 0.5) > 1e-3
    assert checks.stationarity_violation(delta + 0.1, r, a, lam * 1.01) > 1e-3


# --- acceptable family ---------------------------------------------------------------------


def family_case():
    empirical = np.array([5.0, 3.0, 1.0, 2.0])
    pct = np.array(
        [[5.0, 6.0, 7.0, 8.0], [-1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0], [-1.0, -2.0, 1.0, 1.0]]
    )
    members = np.array([False, True, True, True])
    return empirical, pct, members, [0, 1, 3, 4]


def test_family_check_accepts_the_definition():
    empirical, pct, members, changes = family_case()
    assert checks.check_family(empirical, pct, members, 2, 1, changes, 0.25) == []


def test_family_check_rejects_wrong_answers():
    empirical, pct, members, changes = family_case()
    no_opt = members.copy()
    no_opt[2] = False
    assert checks.check_family(empirical, pct, no_opt, 2, 1, changes, 0.25)
    assert checks.check_family(empirical, pct, members, 3, 1, changes, 0.25)  # wrong optimum
    assert checks.check_family(empirical, pct, members, 2, 3, changes, 0.25)  # not simplest
    extra = members.copy()
    extra[0] = True
    assert checks.check_family(empirical, pct, extra, 2, 0, changes, 0.25)
