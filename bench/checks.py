"""Output checkers, computed apart from the package under test.

Each checker returns a list of problems; an empty list means the output
passed.  Truth functions, spline evaluation and the fused-lasso
stationarity test are written here from their definitions, so a fault
in the package cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import BSpline

from mcmc import split_rhat

# --- truths and curves ---------------------------------------------------------


def smooth_truth(t) -> np.ndarray:
    """The two-bump coefficient function: up at 1/3, down at 2/3."""
    t = np.asarray(t, dtype=float)
    up = 8.0 / (2.0 + np.exp(20.0 - 60.0 * t) + np.exp(60.0 * t - 20.0))
    down = 12.0 / (2.0 + np.exp(40.0 - 60.0 * t) + np.exp(60.0 * t - 40.0))
    return up - down


def step_truth(t, breakpoints, levels) -> np.ndarray:
    """Step function; a point on a breakpoint takes the level to its right."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, float(levels[0]))
    for bp, level in zip(breakpoints, levels[1:]):
        out[t >= bp] = level
    return out


def _knots(size: int, degree: int) -> np.ndarray:
    """Clamped knots on [0, 1] with equally spaced interior knots, as in the package's basis."""
    interior = np.linspace(0.0, 1.0, size - degree + 1)[1:-1]
    return np.r_[np.zeros(degree + 1), interior, np.ones(degree + 1)]


def curve_values(coeffs: np.ndarray, size: int, grid, degree: int = 3) -> np.ndarray:
    """Values on ``grid`` of clamped splines on [0, 1], one row per coefficient row."""
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    return BSpline(_knots(size, degree), coeffs.T, degree, extrapolate=False)(np.asarray(grid, dtype=float)).T


def cell_integrals(coeffs: np.ndarray, breaks, degree: int = 3) -> np.ndarray:
    """(curves, cells) integrals over [breaks[k], breaks[k+1]] of splines as in ``curve_values``."""
    anti = BSpline(_knots(coeffs.shape[1], degree), np.asarray(coeffs, dtype=float).T, degree).antiderivative()
    return np.diff(anti(np.asarray(breaks, dtype=float)), axis=0).T


def l2_distance(grid, f, g) -> float:
    """Trapezoid-rule L2 distance of two functions tabulated on ``grid``."""
    d2 = (np.asarray(f, dtype=float) - np.asarray(g, dtype=float)) ** 2
    grid = np.asarray(grid, dtype=float)
    return math.sqrt(float(np.sum(0.5 * (d2[1:] + d2[:-1]) * np.diff(grid))))


# --- mixing ----------------------------------------------------------------------

RHAT_MAX = 1.1


def check_rhat(name: str, chains, limit: float = RHAT_MAX) -> list[str]:
    """Split-R-hat of a (chains, draws) array, or of each column of (chains, draws, k)."""
    x = np.asarray(chains, dtype=float)
    cols = [x] if x.ndim == 2 else [x[:, :, j] for j in range(x.shape[2])]
    worst = max(split_rhat(c) for c in cols)
    return [] if worst <= limit else [f"{name}: split-R-hat {worst:.3f} > {limit}"]


def check_posterior_curve(
    grid, draws_on_grid: np.ndarray, truth_values, max_l2: float, min_coverage: float
) -> list[str]:
    """Posterior-mean L2 error and pointwise 95% band coverage of the truth."""
    mean = draws_on_grid.mean(axis=0)
    lo, hi = np.quantile(draws_on_grid, [0.025, 0.975], axis=0)
    problems = []
    err = l2_distance(grid, mean, truth_values)
    if not err <= max_l2:
        problems.append(f"posterior-mean L2 error {err:.3g} > {max_l2:.3g}")
    cover = float(np.mean((lo <= truth_values) & (truth_values <= hi)))
    if not cover >= min_coverage:
        problems.append(f"95% band covers the truth at {cover:.2f} of the grid < {min_coverage}")
    return problems


def check_noise_variance(sigma2_draws, true_sigma2: float, rel_tol: float = 0.25) -> list[str]:
    """Posterior mean of the noise variance against the generating value."""
    ratio = float(np.mean(sigma2_draws)) / true_sigma2
    if abs(ratio - 1.0) <= rel_tol:
        return []
    return [f"posterior sigma2 / generating sigma2 = {ratio:.3f}, outside 1 +- {rel_tol}"]


# --- windows ---------------------------------------------------------------------


def labels_on_grid(windows, grid) -> np.ndarray:
    """Sign label (-1, 0, +1) of each grid point from (start, end, label) windows."""
    grid = np.asarray(grid, dtype=float)
    out = np.zeros(grid.size, dtype=int)
    code = {"+": 1, "-": -1, "0": 0}
    for start, end, label in windows:
        out[(grid >= start) & (grid <= end)] = code[label]
    return out


def check_window_signs(
    windows, grid, breakpoints, levels, margin: float = 0.05, min_detect: float = 0.8
) -> list[str]:
    """Window labels against the signs of a step truth.

    Away from the breakpoints (by ``margin``) no point may carry the
    opposite sign of the truth, and the region of largest |level| must
    carry its own sign on at least ``min_detect`` of its points.
    """
    grid = np.asarray(grid, dtype=float)
    labels = labels_on_grid(windows, grid)
    truth = np.sign(step_truth(grid, breakpoints, levels)).astype(int)
    away = np.ones(grid.size, dtype=bool)
    for bp in breakpoints:
        away &= np.abs(grid - bp) > margin
    problems = []
    wrong = away & (truth != 0) & (labels == -truth)
    if wrong.any():
        problems.append(f"{int(wrong.sum())} grid points carry the opposite sign of the truth")
    edges = np.r_[-np.inf, np.asarray(breakpoints, dtype=float), np.inf]
    k = int(np.argmax(np.abs(levels)))
    region = away & (grid >= edges[k]) & (grid < edges[k + 1])
    hit = float(np.mean(labels[region] == np.sign(levels[k])))
    if hit < min_detect:
        problems.append(f"strongest region labelled with its sign at {hit:.2f} < {min_detect}")
    return problems


def check_beta_summary(
    grid, mean, lower95, upper95, truth_values, max_l2: float, lower50=None, upper50=None
) -> list[str]:
    """A tabulated posterior summary against the truth and its own band order."""
    problems = []
    slack = 1e-9 * (1.0 + float(np.max(np.abs(mean))))
    bands = [lower95] + ([lower50, upper50] if lower50 is not None else []) + [upper95]
    for a, b in zip(bands[:-1], bands[1:]):
        if np.any(np.asarray(a) > np.asarray(b) + slack):
            problems.append("credible bands are not nested")
            break
    if np.any(mean < lower95 - slack) or np.any(mean > upper95 + slack):
        problems.append("posterior mean outside its 95% band")
    err = l2_distance(grid, mean, truth_values)
    if not err <= max_l2:
        problems.append(f"posterior-mean L2 error {err:.3g} > {max_l2:.3g}")
    return problems


# --- decision analysis --------------------------------------------------------------

KKT_TOL = 1e-8


def stationarity_violation(delta, targets, a: np.ndarray, lam: float) -> float:
    """How far ``delta`` is from minimising n^-1 ||r - A d||^2 + lam * sum |d_k - d_{k-1}|.

    Stationarity asks for a dual vector u with D'u = A'(r - A d), where D
    takes first differences, u_k = lam_s * sign(d_{k+1} - d_k) where the
    levels differ and |u_k| <= lam_s where they are fused (lam_s = n lam / 2).
    D' has full column rank, so u is the least-squares solution of that
    system; the result is the largest violation, relative to
    max(1, lam_s, |A'r|_inf).
    """
    delta = np.asarray(delta, dtype=float)
    r = np.asarray(targets, dtype=float)
    n, size = a.shape
    lam_s = 0.5 * n * lam
    g = a.T @ (r - a @ delta)
    diff_op = np.eye(size)[1:] - np.eye(size)[:-1]
    u = np.linalg.lstsq(diff_op.T, g, rcond=None)[0]
    viol = float(np.max(np.abs(diff_op.T @ u - g)))
    steps = np.diff(delta)
    fused = np.abs(steps) <= 1e-9 * max(1.0, float(np.max(np.abs(steps), initial=0.0)))
    if fused.any():
        viol = max(viol, float(np.max(np.abs(u[fused]) - lam_s)))
    if (~fused).any():
        viol = max(viol, float(np.max(np.abs(u[~fused] - lam_s * np.sign(steps[~fused])))))
    scale = max(1.0, lam_s, float(np.max(np.abs(a.T @ r))))
    return viol / scale


def check_family(
    empirical, percent_increase, members, idx_lambda_min: int, idx_simplest: int,
    level_changes, epsilon: float,
) -> list[str]:
    """The acceptable family recomputed from its definition.

    The empirical optimum has zero percent increase on every draw, so it
    must be a member; membership is "at least ceil(epsilon * draws) draws
    show no increase"; the simplest member has the fewest level changes.
    """
    problems = []
    best = int(np.argmin(empirical))
    if best != idx_lambda_min:
        problems.append(f"empirical optimum is entry {best}, reported {idx_lambda_min}")
    pct = np.asarray(percent_increase)
    if np.any(pct[best] != 0.0):
        problems.append("percent increase at the empirical optimum is not zero")
    need = math.ceil(epsilon * pct.shape[1])
    expect = np.sum(pct <= 0.0, axis=1) >= need
    if not expect[best] or not members[best]:
        problems.append("the empirical optimum is not in the acceptable family")
    if np.any(expect != np.asarray(members)):
        problems.append("acceptable-family membership differs from its definition")
    changes = np.asarray(level_changes)
    if not members[idx_simplest] or changes[idx_simplest] != changes[np.asarray(members)].min():
        problems.append("reported simplest member is not a member with fewest level changes")
    return problems


def count_level_changes(delta) -> int:
    steps = np.abs(np.diff(np.asarray(delta, dtype=float)))
    return int(np.sum(steps > 1e-9 * max(1.0, float(steps.max(initial=0.0)))))
