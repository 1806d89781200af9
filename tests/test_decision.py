"""Decision-analysis layer: oracles first, then path, pricing, and windows.

The fused-lasso homotopy is validated against two independent solvers that
share none of its machinery: a scaled ADMM for general cell counts, and a
proximal-gradient method whose three-cell total-variation prox is computed
exactly by enumerating fusion patterns.  Stationarity is checked through
the cumulative-gradient dual recovery in ``kkt_residual``.
"""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from sofreg.basis import BSplineBasis, Domain, cross_gram, eval_basis_matrix, integrate_basis
from sofreg.decision import (
    LocallyConstantEstimate,
    Partition,
    Window,
    acceptable_family,
    aggregate,
    analyze,
    build_estimate,
    ci_selection,
    count_level_changes,
    evaluate_path,
    extract_windows,
    fused_lasso_path,
    kkt_residual,
    path_delta_at,
    selection_on_grid,
    PathDiagnostics,
    SolutionPath,
)
from sofreg import decision
from sofreg.funcdata import (
    CoefGroup,
    CoefSet,
    CurveGroup,
    CurveSet,
    build_design,
    fit_curves,
    functional_scores,
)
from sofreg.gibbs import FitConfig, PosteriorDraws, subsample_indices

from predictive_oracle import predictive_draws, predictive_means


# --- independent solvers used as oracles -------------------------------------------


def admm_fused_lasso(r, a, lam_std, iters=400_000, tol=1e-13):
    """Scaled ADMM for 1/2||r - Ax||^2 + lam_std ||Dx||_1, D = first differences."""
    n, k = a.shape
    d = np.diff(np.eye(k), axis=0)
    rho = max(lam_std, 1.0)
    lhs = a.T @ a + rho * d.T @ d
    chol = np.linalg.cholesky(lhs)
    atr = a.T @ r

    def solve(v):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, v))

    x = solve(atr)
    z = d @ x
    u = np.zeros(k - 1)
    thr = lam_std / rho
    for _ in range(iters):
        x = solve(atr + rho * d.T @ (z - u))
        dx = d @ x
        z_new = np.sign(dx + u) * np.maximum(np.abs(dx + u) - thr, 0.0)
        primal = np.max(np.abs(dx - z_new))
        dual = rho * np.max(np.abs(d.T @ (z_new - z)))
        u = u + dx - z_new
        z = z_new
        if primal < tol and dual < tol:
            break
    return x


def tv_prox_3(v, gamma):
    """Exact argmin of 1/2||x - v||^2 + gamma(|x2-x1| + |x3-x2|), by enumeration.

    For each contiguous fusion pattern and boundary sign assignment the
    stationary point is available in closed form; sign-consistent candidates
    are compared on the exact objective.  The fully fused candidate needs no
    consistency check, so the optimum is always among the candidates.
    """
    v = np.asarray(v, dtype=float)
    patterns = [
        [[0, 1, 2]],
        [[0], [1, 2]],
        [[0, 1], [2]],
        [[0], [1], [2]],
    ]
    best_x, best_obj = np.full(3, v.mean()), None
    for blocks in patterns:
        nb = len(blocks)
        sign_sets = [()] if nb == 1 else itertools.product((-1.0, 1.0), repeat=nb - 1)
        for signs in sign_sets:
            m = np.empty(nb)
            for b, blk in enumerate(blocks):
                s_prev = signs[b - 1] if b > 0 else 0.0
                s_next = signs[b] if b < nb - 1 else 0.0
                m[b] = np.mean(v[blk]) - gamma * (s_prev - s_next) / len(blk)
            if any(np.sign(m[b + 1] - m[b]) != signs[b] for b in range(nb - 1)):
                continue
            x = np.empty(3)
            for b, blk in enumerate(blocks):
                x[blk] = m[b]
            obj = 0.5 * np.sum((x - v) ** 2) + gamma * np.sum(np.abs(np.diff(x)))
            if best_obj is None or obj < best_obj:
                best_obj, best_x = obj, x
    return best_x


def prox_gradient_k3(r, a, lam_std, iters=500_000, tol=1e-15):
    step = 1.0 / np.linalg.eigvalsh(a.T @ a)[-1]
    x = np.zeros(3)
    for _ in range(iters):
        x_new = tv_prox_3(x - step * (a.T @ (a @ x - r)), step * lam_std)
        if np.max(np.abs(x_new - x)) < tol:
            return x_new
        x = x_new
    return x


def aggregate_oracle(curves, partition):
    """Cell integrals by one ``coeffs @ weights`` per subject and cell."""
    span = partition.span
    cells = partition.cells()
    memo = {}
    rows = np.zeros((len(curves), partition.size))
    for i, curve in enumerate(curves):
        if not span.contains(curve.domain):
            raise ValueError(f"subject {curves.ids[i]} interval not inside the partition span")
        bkey = (curve.basis.size, curve.basis.degree, curve.basis.domain.lo, curve.basis.domain.hi)
        for k, cell in enumerate(cells):
            inter = cell.intersect(curve.domain)
            if inter is None:
                continue
            key = (bkey, round(inter.lo, 12), round(inter.hi, 12))
            weights = memo.get(key)
            if weights is None:
                weights = integrate_basis(curve.basis, inter)
                memo[key] = weights
            rows[i, k] = curve.coeffs @ weights
    return rows


def coef_set(coeffs, basis, domain):
    """Curves on one basis and domain as one group, in the layout ``fit_curves``
    gives a group: the transpose of a C-ordered (K, members) array."""
    members = np.arange(len(coeffs))
    group = CoefGroup(members, np.asfortranarray(coeffs), basis, domain)
    return CoefSet([f"s{i}" for i in members], [group])


def random_problem(rng, n, k):
    a = rng.standard_normal((n, k)) + 0.3
    delta_true = np.repeat(rng.standard_normal(-(-k // 3)), 3)[:k]
    r = a @ delta_true + 0.4 * rng.standard_normal(n)
    return r, a


def aggregated_problem(seed, n, k, cells):
    """Cell integrals of spline curves on a K-function basis: rank at most K."""
    rng = np.random.default_rng([seed, n, k, cells])
    domain = Domain(0.0, 1.0)
    basis = BSplineBasis(domain, k, 3)
    coeffs = rng.standard_normal((n, k)) + 0.5
    agg = aggregate(coef_set(coeffs, basis, domain), Partition.regular(domain, cells))
    step = np.repeat(rng.standard_normal(3), -(-cells // 3))[:cells]
    return agg @ step + 0.3 * rng.standard_normal(n), agg


# --- oracle cross-checks ------------------------------------------------------------


def test_oracles_agree_on_identity_design():
    # with A = I the fused-lasso solution IS the TV prox, so the two
    # independent routes must coincide before either is trusted
    rng = np.random.default_rng(7)
    for _ in range(25):
        v = 3.0 * rng.standard_normal(3)
        gamma = rng.uniform(0.05, 2.0)
        via_prox = tv_prox_3(v, gamma)
        via_admm = admm_fused_lasso(v, np.eye(3), gamma)
        assert np.max(np.abs(via_prox - via_admm)) < 1e-8


def test_tv_prox_closed_form_cases():
    # large penalty fuses everything to the mean
    v = np.array([1.0, 5.0, -2.0])
    assert np.allclose(tv_prox_3(v, 50.0), np.full(3, v.mean()), atol=1e-12)
    # zero penalty returns the input
    assert np.allclose(tv_prox_3(v, 0.0), v, atol=1e-12)
    # monotone input with small penalty shrinks the gaps by gamma per boundary
    x = tv_prox_3(np.array([0.0, 10.0, 20.0]), 1.0)
    assert np.allclose(x, [1.0, 10.0, 19.0], atol=1e-12)


# --- path correctness ----------------------------------------------------------------


def _assert_path_stationary(path, r, agg):
    assert np.all(np.diff(path.lambdas) < 0)
    for lam, delta in zip(path.lambdas, path.deltas):
        assert kkt_residual(delta, r, agg, lam) < 1e-8
    # interpolated solutions between knots are also stationary
    mids = 0.5 * (path.lambdas[:-1] + path.lambdas[1:])
    for lam in mids[:: max(1, mids.size // 8)]:
        delta = path_delta_at(path, float(lam))
        assert kkt_residual(delta, r, agg, float(lam)) < 1e-8


def test_path_knots_satisfy_kkt_on_random_designs():
    rng = np.random.default_rng(11)
    for trial in range(20):
        k = int(rng.integers(2, 51))
        n = int(rng.integers(max(k + 5, 25), 80))
        r, agg = random_problem(rng, n, k)
        path = fused_lasso_path(r, agg)
        assert not path.rank_deficient
        _assert_path_stationary(path, r, agg)
    # aggregated curves with more cells than basis functions: rank(A) < cells
    for seed, n, k, cells in ((0, 200, 18, 20), (51, 300, 20, 60)):
        r, agg = aggregated_problem(seed, n, k, cells)
        assert np.linalg.matrix_rank(agg) < cells
        _assert_path_stationary(fused_lasso_path(r, agg), r, agg)


def test_path_is_invariant_to_rotating_the_rows():
    # the path reads A and r only through A'A and A'r, which an orthogonal H
    # leaves unchanged: this is what lets it run on the triangle of [A | r]
    rng = np.random.default_rng(12)
    for trial in range(20):
        k = int(rng.integers(2, 51))
        n = int(rng.integers(max(k + 5, 25), 80))
        r, agg = random_problem(rng, n, k)
        h = np.linalg.qr(rng.standard_normal((n, n)))[0]
        path, turned = fused_lasso_path(r, agg), fused_lasso_path(h @ r, h @ agg)
        assert turned.lambdas.shape == path.lambdas.shape, trial
        assert np.max(np.abs(turned.lambdas - path.lambdas)) <= 1e-9 * path.lambdas[0]
        assert np.max(np.abs(turned.deltas - path.deltas)) <= 1e-9 * np.max(np.abs(path.deltas))


def test_path_endpoint_matches_least_squares():
    rng = np.random.default_rng(3)
    r, agg = random_problem(rng, 40, 9)
    path = fused_lasso_path(r, agg)
    direct = np.linalg.lstsq(agg, r, rcond=None)[0]
    assert np.max(np.abs(path_delta_at(path, 0.0) - direct)) < 1e-8


def test_path_endpoint_matches_constant_fit():
    rng = np.random.default_rng(4)
    r, agg = random_problem(rng, 35, 7)
    path = fused_lasso_path(r, agg)
    total = agg.sum(axis=1)
    c = float(total @ r / (total @ total))
    top = path.deltas[0]
    assert np.max(np.abs(top - c)) < 1e-8
    assert np.max(np.abs(path_delta_at(path, 10.0 * path.lambdas[0]) - c)) < 1e-8
    assert count_level_changes(top) == 0


def test_path_matches_prox_gradient_oracle_k3():
    rng = np.random.default_rng(5)
    for trial in range(4):
        r, agg = random_problem(rng, 30, 3)
        path = fused_lasso_path(r, agg)
        n = r.size
        lam_grid = np.concatenate(
            [path.lambdas[[0]], 0.5 * (path.lambdas[:-1] + path.lambdas[1:]), [0.0]]
        )[:5]
        for lam in lam_grid:
            mine = path_delta_at(path, float(lam))
            oracle = prox_gradient_k3(r, agg, 0.5 * n * float(lam))
            assert np.max(np.abs(mine - oracle)) < 1e-8


def test_path_matches_admm_oracle_general_k():
    rng = np.random.default_rng(6)
    r, agg = random_problem(rng, 45, 12)
    path = fused_lasso_path(r, agg)
    n = r.size
    for frac in (0.75, 0.4, 0.15, 0.02):
        lam = float(frac * path.lambdas[0])
        mine = path_delta_at(path, lam)
        oracle = admm_fused_lasso(r, agg, 0.5 * n * lam)
        assert np.max(np.abs(mine - oracle)) < 1e-6


def test_rank_deficient_design_stops_path_and_reports():
    rng = np.random.default_rng(8)
    k, n = 24, 8
    a = rng.standard_normal((n, k)) + 0.3
    r = rng.standard_normal(n)
    path = fused_lasso_path(r, a)
    assert path.rank_deficient
    assert path.lambdas[-1] > 0.0
    for lam, delta in zip(path.lambdas, path.deltas):
        assert kkt_residual(delta, r, a, lam) < 1e-8
    with pytest.raises(ValueError, match="rank deficient"):
        path_delta_at(path, 0.5 * path.lambdas[-1])
    with pytest.raises(ValueError, match="rank deficient"):
        path_delta_at(path, 0.0)


def test_kkt_residual_rejects_perturbed_solutions():
    rng = np.random.default_rng(9)
    r, agg = random_problem(rng, 40, 10)
    path = fused_lasso_path(r, agg)
    mid = len(path.lambdas) // 2
    lam, delta = float(path.lambdas[mid]), path.deltas[mid].copy()
    assert kkt_residual(delta, r, agg, lam) < 1e-8
    delta[3] += 0.05
    assert kkt_residual(delta, r, agg, lam) > 1e-4


# --- partitions and aggregation ------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Partition(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError, match="two breakpoints"):
        Partition(np.array([0.3]))
    with pytest.raises(ValueError, match="finite"):
        Partition(np.array([0.0, np.inf]))
    part = Partition.regular(Domain(0.0, 1.0), 4)
    assert part.size == 4
    assert [c.lo for c in part.cells()] == pytest.approx([0.0, 0.25, 0.5, 0.75])


def test_aggregate_constant_curve_gives_cell_widths():
    basis = BSplineBasis(Domain(0.0, 1.0), 10, 3)
    # clamped B-splines sum to one, so equal coefficients give a flat curve
    curves = coef_set(np.ones((1, basis.size)), basis, Domain(0.0, 1.0))
    part = Partition.regular(Domain(0.0, 1.0), 5)
    agg = aggregate(curves, part)
    assert np.allclose(agg, 0.2, atol=1e-12)


def test_aggregate_row_sums_match_full_integral():
    rng = np.random.default_rng(12)
    basis = BSplineBasis(Domain(0.0, 1.0), 12, 3)
    groups = []
    for i in range(6):
        lo = float(rng.uniform(0.0, 0.3))
        hi = float(rng.uniform(0.7, 1.0))
        coeffs = rng.standard_normal((1, basis.size))
        groups.append(CoefGroup(np.array([i]), coeffs, basis, Domain(lo, hi)))
    curves = CoefSet([f"s{i}" for i in range(6)], groups)
    part = Partition.regular(Domain(0.0, 1.0), 17)
    agg = aggregate(curves, part)
    assert np.array_equal(agg, aggregate_oracle(curves, part))
    for row, curve in zip(agg, curves):
        full = float(curve.coeffs @ integrate_basis(basis, curve.domain))
        assert abs(row.sum() - full) < 1e-8


def test_aggregate_matches_per_cell_oracle_bitwise_on_fitted_curves():
    rng = np.random.default_rng(31)
    basis = BSplineBasis(Domain(0.0, 1.0), 15, 3)
    grid, other = np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 33)
    obs = CurveSet(
        [f"s{i}" for i in range(25)] + [f"u{i}" for i in range(5)],
        [
            CurveGroup(np.arange(25), grid, rng.standard_normal((25, grid.size))),
            CurveGroup(np.arange(25, 30), other, rng.standard_normal((5, other.size))),
        ],
    )
    fitted = fit_curves(obs, basis)
    # subjects seen on part of the domain: a domain group of their own, whose
    # coefficients stay views into the shared solve
    g, last = fitted.groups
    runs = [(slice(0, 3), g.domain), (slice(3, 6), Domain(0.15, 0.8)), (slice(6, 25), g.domain)]
    groups = [CoefGroup(g.rows[r], g.coeffs[r], basis, d) for r, d in runs]
    curves = CoefSet(fitted.ids, groups + [last])
    assert curves[0].coeffs.strides != (8,)  # columns of one shared solve
    u4 = CurveGroup(np.arange(1), other, obs.groups[1].x[-1:])
    single = fit_curves(CurveSet(["u4"], [u4]), basis)
    assert single[0].coeffs.flags.c_contiguous
    for group in (curves, single):
        rows = [c.coeffs @ cross_gram(c.basis, basis, c.domain) for c in group]
        assert np.array_equal(functional_scores(group, basis), np.stack(rows))
    for part in (Partition.from_grid(grid), Partition.regular(basis.domain, 7)):
        for group in (curves, single):
            assert np.array_equal(aggregate(group, part), aggregate_oracle(group, part))


def test_aggregate_short_subject_has_zero_trailing_cells():
    basis = BSplineBasis(Domain(0.0, 1.0), 8, 3)
    curves = coef_set(np.full((1, basis.size), 2.0), basis, Domain(0.0, 0.4))
    part = Partition.regular(Domain(0.0, 1.0), 5)
    agg = aggregate(curves, part)
    assert np.allclose(agg[0, :2], 0.4, atol=1e-12)
    assert agg[0, 2] == pytest.approx(0.0, abs=1e-12)  # empty beyond 0.4
    assert np.all(agg[0, 3:] == 0.0)


def test_aggregate_rejects_curve_outside_partition():
    basis = BSplineBasis(Domain(0.0, 2.0), 8, 3)
    curves = coef_set(np.ones((1, basis.size)), basis, Domain(0.0, 2.0))
    part = Partition.regular(Domain(0.0, 1.0), 4)
    with pytest.raises(ValueError, match="not inside"):
        aggregate(curves, part)


# --- losses --------------------------------------------------------------------------


def _loss_problem(rng, n, k, p, s, deltas, sigma2=0.25):
    """An aggregated design, posterior and path whose entries are the given step levels.

    The design is a namespace with only what the pricing reads: the
    scalar covariates and the curve scores.
    """
    agg = rng.standard_normal((n, k))
    q = 4
    design = SimpleNamespace(z=rng.standard_normal((n, p)), scores=rng.standard_normal((n, q)))
    draws = SimpleNamespace(
        coeffs=rng.standard_normal((s, q)),
        alpha=rng.standard_normal((s, p)),
        sigma2=np.full(s, sigma2),
        n_draws=s,
    )
    deltas = np.asarray(deltas, dtype=float)
    path = SolutionPath(lambdas=np.linspace(1.0, 0.0, deltas.shape[0]), deltas=deltas)
    return agg, design, draws, path


def test_empirical_mse_matches_loop_oracle():
    rng = np.random.default_rng(13)
    n, k, p, s = 20, 6, 3, 5
    agg, design, draws, path = _loss_problem(
        rng, n, k, p, s, np.random.default_rng(113).standard_normal((4, k))
    )
    y = rng.standard_normal(n)
    diag = evaluate_path(path, y, draws, design, agg, np.random.default_rng(0), pred_draws=s)
    a, z, alpha = agg, design.z, draws.alpha.mean(axis=0)
    for e, delta in enumerate(path.deltas):
        want = sum((y[i] - z[i] @ alpha - a[i] @ delta) ** 2 for i in range(n)) / n
        assert diag.empirical[e] == pytest.approx(want, abs=1e-12)


def test_empirical_mse_degenerate_cases():
    rng = np.random.default_rng(14)
    n, k, p, s = 15, 4, 0, 6
    delta = rng.standard_normal(k)
    agg, design, draws, path = _loss_problem(rng, n, k, p, s, [np.zeros(k), delta])
    y = rng.standard_normal(n)
    y -= y.mean()
    # zero fit on centered data leaves the second moment
    diag = evaluate_path(path, y, draws, design, agg, np.random.default_rng(0), pred_draws=s)
    assert diag.empirical[0] == pytest.approx(float(y @ y / n), abs=1e-12)
    # exactly representable targets give zero loss
    diag = evaluate_path(
        path, agg @ delta, draws, design, agg, np.random.default_rng(0), pred_draws=s
    )
    assert diag.empirical[1] == pytest.approx(0.0, abs=1e-20)
    assert diag.idx_lambda_min == 1


def _span_replicates(draws, design, agg, seed, size):
    """Replicates in n dimensions carrying ``evaluate_path``'s own noise.

    ``evaluate_path`` draws from its generator the standard normal
    coordinates ``u`` (draws x m) in the first m = min(n, cells + K)
    columns of the Q factor of ``[A | X | adj]``, and then the chi-square
    squared norms off their range.  Those columns are the Q factor of
    ``[A | X]``.  Here each replicate's noise is built from them in n
    dimensions: ``Q u_s`` plus a unit vector orthogonal to Q's range,
    scaled by the root of its squared norm.
    """
    q = np.linalg.qr(np.column_stack([agg, design.scores]))[0]
    n, m = q.shape
    idx = subsample_indices(draws.n_draws, size)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((idx.size, m)) @ q.T
    if n > m:
        rest = rng.chisquare(n - m, idx.size)
        off = np.random.default_rng([seed, 1]).standard_normal((idx.size, n))
        off -= (off @ q) @ q.T
        noise += np.sqrt(rest / np.einsum("ij,ij->i", off, off))[:, None] * off
    return predictive_means(draws, design, idx) + np.sqrt(draws.sigma2[idx])[:, None] * noise


def test_predictive_mse_matches_loop_oracle_per_draw():
    # with n = 8 <= cells + scores, [A | X] spans every direction: nothing is off it
    for seed, n in ((15, 12), (28, 8)):
        rng = np.random.default_rng(seed)
        k, p, s = 5, 2, 7
        agg, design, draws, path = _loss_problem(
            rng, n, k, p, s, np.random.default_rng(100 + seed).standard_normal((3, k))
        )
        y = rng.standard_normal(n)
        diag = evaluate_path(path, y, draws, design, agg, np.random.default_rng(5), pred_draws=s)
        y_pred = _span_replicates(draws, design, agg, 5, s)
        a, z = agg, design.z
        loss = np.array(
            [
                [
                    sum(
                        (y_pred[sdx, i] - z[i] @ draws.alpha[sdx] - a[i] @ delta) ** 2
                        for i in range(n)
                    )
                    / n
                    for sdx in range(s)
                ]
                for delta in path.deltas
            ]
        )
        best = diag.idx_lambda_min
        want = 100.0 * (loss - loss[best]) / loss[best]
        assert np.max(np.abs(diag.percent_increase - want)) < 1e-10


def test_span_pricing_matches_direct_losses_for_fixed_noise():
    rng = np.random.default_rng(25)
    n, k, q, s, best = 30, 6, 4, 9, 2
    # rank(A) = 3 < 6 cells, so [A | X] has rank 7 < 10 columns
    a = rng.standard_normal((n, 3)) @ rng.standard_normal((3, k))
    x = rng.standard_normal((n, q))
    theta = rng.standard_normal((s, q))
    sd = rng.uniform(0.5, 1.5, s)
    eps = rng.standard_normal((s, n))
    deltas = rng.standard_normal((5, k))

    r0 = theta @ x.T + sd[:, None] * eps - a @ deltas[best]
    loss = np.array([np.mean((r0 - a @ (d - deltas[best])) ** 2, axis=1) for d in deltas])
    want = 100.0 * (loss - loss[best]) / loss[best]

    basis = np.linalg.svd(np.column_stack([a, x]), full_matrices=False)[0][:, :7]
    span_a, span_x = basis.T @ a, basis.T @ x
    coords = eps @ basis
    got = decision._percent_increase(
        gaps=(deltas - deltas[best]) @ span_a.T,
        centers=theta @ span_x.T - span_a @ deltas[best],
        sd=sd,
        noise=coords,
        rest=np.einsum("ij,ij->i", eps, eps) - np.einsum("ij,ij->i", coords, coords),
        n=n,
    )
    assert np.max(np.abs(got - want)) < 1e-9
    assert np.all(got[best] == 0.0)


def test_span_replicates_match_direct_replicates_in_law():
    rng = np.random.default_rng(26)
    n, k, p, reps = 15, 5, 2, 2000
    agg, design, draws, path = _loss_problem(
        rng, n, k, p, 2, 0.3 * np.random.default_rng(126).standard_normal((4, k))
    )
    draws.coeffs *= 0.1  # small fits: the noise off the span weighs in every loss
    draws.sigma2 = np.array([0.5, 2.0])
    # two posterior draws, each repeated: the per-draw loss law is sampled many times
    for name in ("coeffs", "alpha", "sigma2"):
        setattr(draws, name, np.repeat(getattr(draws, name), reps, axis=0))
    draws.n_draws = 2 * reps
    y = rng.standard_normal(n)
    diag = evaluate_path(path, y, draws, design, agg, np.random.default_rng(1), pred_draws=None)
    assert k + 4 < n  # a complement of n - (cells + K) = 6 degrees of freedom
    y_pred = predictive_draws(draws, design, np.random.default_rng(2), size=None)
    emp, percent, best = _direct_pricing(diag, y, y_pred, draws, design, agg, np.arange(2 * reps))
    assert diag.idx_lambda_min == best
    for half in (slice(0, reps), slice(reps, 2 * reps)):
        for i in np.flatnonzero(np.arange(path.deltas.shape[0]) != best):
            test = stats.ks_2samp(diag.percent_increase[i, half], percent[i, half])
            assert test.pvalue > 1e-3, (i, test)


def test_evaluate_path_memory_does_not_scale_with_draws_times_n():
    # the parent form held a 1000 x 20000 replicate matrix: 160 MB
    rng = np.random.default_rng(27)
    n, k, p, s = 20_000, 20, 2, 1000
    agg, design, draws, path = _loss_problem(rng, n, k, p, s, rng.standard_normal((5, k)))
    y = rng.standard_normal(n)
    tracemalloc.start()
    try:
        diag = evaluate_path(path, y, draws, design, agg, np.random.default_rng(0), pred_draws=s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.percent_increase.shape == (5, s)
    assert peak < 40e6, f"evaluate_path peaked at {peak / 1e6:.1f} MB"


def test_predictive_mse_zero_noise_draws_reduce_to_empirical_form():
    rng = np.random.default_rng(16)
    n, k, p, s = 10, 4, 2, 4
    agg, design, draws, path = _loss_problem(
        rng, n, k, p, s, np.random.default_rng(116).standard_normal((3, k)), sigma2=0.0
    )
    # every draw equal and noiseless: each replicate is the fitted response
    draws.coeffs[:] = draws.coeffs[0]
    draws.alpha[:] = draws.alpha[0]
    fitted = design.scores @ draws.coeffs[0] + design.z @ draws.alpha[0]
    diag = evaluate_path(path, fitted, draws, design, agg, np.random.default_rng(0), pred_draws=s)
    emp = diag.empirical
    best = diag.idx_lambda_min
    want = 100.0 * (emp - emp[best]) / emp[best]
    for sdx in range(s):
        assert diag.percent_increase[:, sdx] == pytest.approx(want, abs=1e-9)


# --- acceptable family ---------------------------------------------------------------


def _fake_diag(percent, levels, lambdas=None):
    percent = np.asarray(percent, dtype=float)
    m = percent.shape[0]
    lams = np.linspace(2.0, 0.1, m) if lambdas is None else np.asarray(lambdas, float)
    emp = np.arange(m, dtype=float)
    emp[np.flatnonzero(np.all(percent == 0.0, axis=1))[0]] = -1.0
    return PathDiagnostics(
        lambdas=lams,
        deltas=np.zeros((m, 3)),
        n_level_changes=np.asarray(levels),
        empirical=emp,
        percent_increase=percent,
        idx_lambda_min=int(np.flatnonzero(np.all(percent == 0.0, axis=1))[0]),
    )


def test_acceptable_family_matches_counting_oracle():
    rng = np.random.default_rng(17)
    s = 10
    percent = np.vstack(
        [
            rng.uniform(-1.0, 9.0, s),  # mixed signs
            np.zeros(s),  # the optimum
            rng.uniform(0.5, 3.0, s),  # all positive: never acceptable for eps>0
        ]
    )
    diag = _fake_diag(percent, levels=[1, 2, 0])
    eps = 0.25
    fam = acceptable_family(diag, eps)
    need = int(np.ceil(eps * s))
    for row, member in zip(percent, fam.members):
        assert member == (np.sort(row)[need - 1] <= 0.0)
    assert fam.members[diag.idx_lambda_min]


def test_acceptable_family_epsilon_zero_accepts_all():
    percent = np.vstack([np.full(6, 5.0), np.zeros(6), np.full(6, 80.0)])
    diag = _fake_diag(percent, levels=[0, 2, 3])
    fam = acceptable_family(diag, 0.0)
    assert fam.members.all()
    # fully fused constant (zero level changes) is the simplest
    assert fam.idx_simplest == 0


def test_acceptable_family_ties_break_toward_larger_penalty():
    percent = np.vstack([np.full(4, -1.0), np.full(4, -1.0), np.zeros(4)])
    diag = _fake_diag(percent, levels=[2, 2, 2])
    fam = acceptable_family(diag, 0.5)
    assert fam.members.all()
    assert fam.idx_simplest == 0  # first entry has the largest penalty


def test_acceptable_family_rejects_bad_epsilon():
    diag = _fake_diag(np.zeros((1, 3)), levels=[0])
    with pytest.raises(ValueError, match="epsilon"):
        acceptable_family(diag, 1.5)


# --- step estimates and windows ------------------------------------------------------


def test_build_estimate_merges_equal_levels():
    part = Partition.regular(Domain(0.0, 1.0), 5)
    est = build_estimate(part, np.array([1.0, 1.0, -2.0, -2.0, -2.0]), lam=0.3)
    assert est.levels.tolist() == [1.0, -2.0]
    assert est.starts.tolist() == [0.0, 0.4]
    assert est.ends.tolist() == [0.4, 1.0]
    # adjacent runs keep distinct levels by construction
    assert np.all(np.abs(np.diff(est.levels)) > 0)
    assert est.level_at(np.array([0.1, 0.4, 0.95])).tolist() == [1.0, -2.0, -2.0]


def test_extract_windows_all_zero_is_single_zero_window():
    part = Partition.regular(Domain(0.0, 1.0), 4)
    est = build_estimate(part, np.zeros(4), lam=1.0)
    wins = extract_windows(est, zero_tol=0.0)
    assert len(wins) == 1
    assert wins[0].label == "0"
    assert (wins[0].start, wins[0].end) == (0.0, 1.0)


def test_extract_windows_three_signs():
    part = Partition.regular(Domain(0.0, 1.0), 3)
    est = build_estimate(part, np.array([0.7, 0.0, -0.7]), lam=0.1)
    wins = extract_windows(est, zero_tol=0.0)
    assert [w.label for w in wins] == ["+", "0", "-"]


def test_extract_windows_merges_same_label_and_weights_levels():
    part = Partition(np.array([0.0, 0.25, 1.0]))
    est = build_estimate(part, np.array([2.0, 4.0]), lam=0.1)
    wins = extract_windows(est, zero_tol=0.0)
    assert len(wins) == 1 and wins[0].label == "+"
    assert wins[0].level == pytest.approx(0.25 * 2.0 + 0.75 * 4.0)


def test_extract_windows_zero_tol_thresholds_small_levels():
    part = Partition.regular(Domain(0.0, 1.0), 3)
    est = build_estimate(part, np.array([0.05, 0.8, -0.05]), lam=0.1)
    wins = extract_windows(est, zero_tol=0.1)
    assert [w.label for w in wins] == ["0", "+", "0"]


def test_selection_on_grid_labels_by_sign():
    part = Partition.regular(Domain(0.0, 1.0), 3)
    est = build_estimate(part, np.array([0.5, 0.0, -0.5]), lam=0.1)
    grid = np.array([0.1, 0.5, 0.9])
    assert selection_on_grid(est, grid).tolist() == [1, 0, -1]


def test_ci_selection_and_windows():
    grid = np.linspace(0.0, 1.0, 5)
    lower = np.array([0.1, 0.2, -0.5, -2.0, -1.0])
    upper = np.array([0.9, 1.0, 0.5, -0.2, -0.1])
    sel = ci_selection(lower, upper)
    assert sel.tolist() == [1, 1, 0, -1, -1]
    # its windows are the runs of nonzero labels: + on [0, 0.25], - on [0.75, 1]
    runs = [(grid[i], grid[j], sel[i]) for i, j in zip(*decision._runs(sel)) if sel[i]]
    assert runs == [(0.0, 0.25, 1), (0.75, 1.0, -1)]


def extract_windows_loop(estimate, zero_tol=0.0):
    """The run grouping of ``extract_windows`` as a scan, kept as its oracle."""
    labels = np.where(
        np.abs(estimate.levels) <= zero_tol, "0", np.where(estimate.levels > 0, "+", "-")
    )
    windows = []
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and labels[j + 1] == labels[i]:
            j += 1
        widths = estimate.ends[i : j + 1] - estimate.starts[i : j + 1]
        level = float(estimate.levels[i : j + 1] @ widths / widths.sum())
        windows.append(Window(float(estimate.starts[i]), float(estimate.ends[j]), level, str(labels[i])))
        i = j + 1
    return windows


def _sign_sequences(rng):
    yield np.zeros(9, dtype=int)
    for sign in (-1, 0, 1):
        yield np.array([sign])
    yield np.resize([1, -1], 11)
    yield np.resize([1, 0, -1, 0], 13)
    yield np.repeat(rng.integers(-1, 2, 4), rng.integers(20, 60, 4))
    for size in (2, 5, 30, 200):
        yield rng.integers(-1, 2, size)


def test_window_grouping_matches_loop_oracles():
    rng = np.random.default_rng(21)
    for signs in _sign_sequences(rng):
        breaks = np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, signs.size)])
        levels = signs * rng.uniform(0.0, 1.0, signs.size)
        est = LocallyConstantEstimate(breaks[:-1], breaks[1:], levels, lam=0.1)
        for zero_tol in (0.0, 0.3):
            assert extract_windows(est, zero_tol) == extract_windows_loop(est, zero_tol)


# --- path pricing and the end-to-end pipeline ---------------------------------------


def _fabricated_fit(rng, n=40, k_cells=12, n_blocks=0):
    """A posterior concentrated on a three-level step effect, without running a sampler.

    ``n_blocks`` adds to the fitted values that many smooth effects of
    uniform covariates, splines with their own coefficient draws, which the
    model has no term for.  Their summed fit at the mean coefficients comes
    last (0 without them), for a test to take off the response and targets.
    """
    basis = BSplineBasis(Domain(0.0, 1.0), 10, 3)
    curves = coef_set(rng.standard_normal((n, basis.size)), basis, Domain(0.0, 1.0))
    part = Partition.regular(Domain(0.0, 1.0), k_cells)
    agg = aggregate(curves, part)
    delta_true = np.repeat([1.5, 0.0, -1.0], k_cells // 3 + 1)[:k_cells]
    y = agg @ delta_true + 0.3 * rng.standard_normal(n)
    covariates = [rng.uniform(0.0, 1.0, n) for _ in range(n_blocks)]
    design = build_design(curves, basis, y)
    s = 300
    theta = 0.02 * rng.standard_normal((s, basis.size))
    alpha = 0.05 * rng.standard_normal((s, design.z.shape[1]))
    fitted = agg @ delta_true
    block_fits = []
    for j, u in enumerate(covariates):
        block_basis = BSplineBasis(Domain(float(u.min()), float(u.max())), 5 + j, 3)
        coeffs = 0.2 * rng.standard_normal(block_basis.size) + 0.02 * rng.standard_normal(
            (s, block_basis.size)
        )
        block_fits.append(eval_basis_matrix(block_basis, u) @ coeffs.mean(axis=0))
        fitted = fitted + block_fits[-1]
    draws = PosteriorDraws(
        coeffs=theta,
        basis=basis,
        alpha=alpha,
        alpha_names=design.z_names,
        penalized=design.penalized,
        sigma2=np.full(s, 0.09),
        alpha_scales2=np.ones((s, design.z.shape[1])),
        lambda0=np.ones(s),
        config=FitConfig(),
        y_hat=fitted + design.z @ alpha.mean(axis=0),
        seed=0,
    )
    return curves, part, agg, y, design, draws, delta_true, sum(block_fits)


def test_evaluate_path_grid_is_subsampled_with_endpoints():
    rng = np.random.default_rng(19)
    curves, part, agg, y, design, draws, _, _ = _fabricated_fit(rng, n=45, k_cells=15)
    targets = draws.y_hat - design.z @ draws.alpha.mean(axis=0)
    path = fused_lasso_path(targets, agg)
    diag = evaluate_path(
        path, y, draws, design, agg, np.random.default_rng(0), pred_draws=50, max_entries=6
    )
    assert diag.lambdas.size <= 6
    assert diag.lambdas[0] == path.lambdas[0]
    assert diag.lambdas[-1] == path.lambdas[-1]
    assert diag.percent_increase.shape == (diag.lambdas.size, 50)
    assert np.all(diag.percent_increase[diag.idx_lambda_min] == 0.0)


def test_analyze_recovers_block_structure_end_to_end():
    rng = np.random.default_rng(20)
    curves, part, agg, y, design, draws, delta_true, _ = _fabricated_fit(rng)
    summary = analyze(
        draws,
        design,
        curves,
        part,
        y,
        np.random.default_rng(1),
        epsilon=0.10,
        pred_draws=200,
    )
    assert summary.family.members[summary.family.idx_lambda_min]
    assert summary.family.members[summary.family.idx_simplest]
    # simplest member is no finer than the empirical optimum
    d = summary.diagnostics
    assert d.n_level_changes[summary.family.idx_simplest] <= d.n_level_changes[d.idx_lambda_min]
    # every stored knot is an exact path solution
    targets = draws.y_hat - design.z @ draws.alpha.mean(axis=0)
    for lam, delta in zip(summary.path.lambdas, summary.path.deltas):
        assert kkt_residual(delta, targets, agg, lam) < 1e-8
    # the empirical optimum tracks the generating block signs; the simplest
    # acceptable member may fuse further, which is the method working as
    # intended rather than a defect
    opt = build_estimate(part, d.deltas[d.idx_lambda_min], d.lambdas[d.idx_lambda_min])
    sel = selection_on_grid(opt, np.array([0.1, 0.9]), zero_tol=0.05)
    assert sel[0] == 1 and sel[1] == -1


def test_pipeline_without_scalar_covariates_matches_direct_path():
    # with no covariates and intercept draws of zero the adjusted pseudo-data
    # are the fitted values, so the pipeline reduces to a direct fused-lasso
    # on them
    rng = np.random.default_rng(21)
    basis = BSplineBasis(Domain(0.0, 1.0), 8, 3)
    curves = coef_set(rng.standard_normal((25, basis.size)), basis, Domain(0.0, 1.0))
    part = Partition.regular(Domain(0.0, 1.0), 6)
    agg = aggregate(curves, part)
    y = rng.standard_normal(25)
    design = build_design(curves, basis, y)
    assert design.z_names == ["(intercept)"]
    s = 50
    draws = PosteriorDraws(
        coeffs=0.1 * rng.standard_normal((s, basis.size)),
        basis=basis,
        alpha=np.zeros((s, 1)),
        alpha_names=design.z_names,
        penalized=design.penalized,
        sigma2=np.full(s, 0.04),
        alpha_scales2=np.ones((s, 1)),
        lambda0=np.ones(s),
        config=FitConfig(),
        y_hat=agg @ np.array([1.0, 1.0, 0.5, 0.5, 0.0, 0.0]),
        seed=0,
    )
    summary = analyze(draws, design, curves, part, y, np.random.default_rng(2), pred_draws=40)
    direct = fused_lasso_path(draws.y_hat, agg)
    assert np.allclose(summary.path.lambdas, direct.lambdas)
    assert np.allclose(summary.path.deltas, direct.deltas)


def _direct_pricing(diag, y, y_pred, draws, design, agg, idx):
    """The loss of every entry at every replicate, summed out one entry at a time."""
    adj = y - design.z @ draws.alpha.mean(axis=0)
    adj_pred = y_pred - draws.alpha[idx] @ design.z.T
    emp = np.empty(diag.lambdas.size)
    pred = np.empty((diag.lambdas.size, idx.size))
    for i, delta in enumerate(diag.deltas):
        fit_i = agg @ delta
        emp[i] = np.mean((adj - fit_i) ** 2)
        pred[i] = np.mean((adj_pred - fit_i[None, :]) ** 2, axis=1)
    best = int(np.argmin(emp))
    percent = 100.0 * (pred - pred[best]) / pred[best]
    return emp, percent, best


def test_evaluate_path_matches_direct_reference_on_rank_deficient_design():
    rng = np.random.default_rng(24)
    # 20 cells on a 10-function curve basis: rank(A) <= 10 < 20
    curves, part, agg, y, design, draws, _, block_fit = _fabricated_fit(
        rng, n=60, k_cells=20, n_blocks=2
    )
    assert np.linalg.matrix_rank(agg) < part.size
    targets = draws.y_hat - design.z @ draws.alpha.mean(axis=0)
    targets = targets - block_fit
    path = fused_lasso_path(targets, agg)
    y = y - block_fit
    diag = evaluate_path(path, y, draws, design, agg, np.random.default_rng(3), pred_draws=120)
    idx = subsample_indices(draws.n_draws, 120)
    y_pred = _span_replicates(draws, design, agg, 3, 120)
    emp, percent, best = _direct_pricing(diag, y, y_pred, draws, design, agg, idx)

    assert path.rank_deficient
    # the optimum sits above the rank boundary, where the path can store
    # knots whose fits agree to rounding; against those, membership is a
    # coin toss in either arithmetic, so this case must have none
    others = np.arange(diag.lambdas.size) != best
    assert np.min(np.abs(percent[others])) > 1e-6
    assert np.max(np.abs(diag.empirical - emp) / emp) < 1e-12
    assert np.max(np.abs(diag.percent_increase - percent)) < 1e-9
    assert diag.idx_lambda_min == best
    assert np.all(diag.percent_increase[best] == 0.0)
    fam = acceptable_family(diag)
    ref_fam = acceptable_family(
        PathDiagnostics(
            lambdas=diag.lambdas,
            deltas=diag.deltas,
            n_level_changes=diag.n_level_changes,
            empirical=emp,
            percent_increase=percent,
            idx_lambda_min=best,
        )
    )
    assert np.array_equal(fam.members, ref_fam.members)
    assert fam.idx_simplest == ref_fam.idx_simplest


def test_analyze_memory_does_not_scale_with_draws_times_n():
    # a fit per draw would hold a 300 x 2000 matrix, 4.8 MB
    rng = np.random.default_rng(23)
    curves, part, _, y, design, draws, _, block_fit = _fabricated_fit(
        rng, n=2000, k_cells=9, n_blocks=2
    )
    y = y - block_fit
    tracemalloc.start()
    try:
        analyze(draws, design, curves, part, y, np.random.default_rng(4), pred_draws=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, f"analyze peaked at {peak / 1e6:.1f} MB"
