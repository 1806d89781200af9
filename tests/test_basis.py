"""Basis evaluation and integration checked against slow independent oracles."""

from __future__ import annotations

import numpy as np
import pytest

from sofreg.basis import (
    BSplineBasis,
    Domain,
    _gauss_nodes,
    _segment_breaks,
    cross_gram,
    eval_basis_matrix,
    integrate_basis,
    second_difference_matrix,
)


def deboor_one(knots: np.ndarray, degree: int, k: int, t: float, hi: float) -> float:
    """Cox-de Boor recursion for a single basis function, written naively.

    Half-open interval convention, closed at the right end of the domain so
    the final basis function equals one at ``hi``.
    """
    if degree == 0:
        if knots[k] <= t < knots[k + 1]:
            return 1.0
        if t == hi and knots[k] < knots[k + 1] and knots[k + 1] == hi:
            return 1.0
        return 0.0
    total = 0.0
    denom = knots[k + degree] - knots[k]
    if denom > 0:
        total += (t - knots[k]) / denom * deboor_one(knots, degree - 1, k, t, hi)
    denom = knots[k + degree + 1] - knots[k + 1]
    if denom > 0:
        total += (knots[k + degree + 1] - t) / denom * deboor_one(
            knots, degree - 1, k + 1, t, hi
        )
    return total


def deboor_row(basis: BSplineBasis, t: float) -> np.ndarray:
    return np.array(
        [deboor_one(basis.knots, basis.degree, k, t, basis.domain.hi) for k in range(basis.size)]
    )


def riemann_cross_gram(row_basis, col_basis, sub, n_points=100_000):
    """Midpoint-rule oracle for the cross-Gram matrix."""
    h = sub.width / n_points
    nodes = sub.lo + (np.arange(n_points) + 0.5) * h
    row_vals = eval_basis_matrix(row_basis, nodes)
    col_vals = eval_basis_matrix(col_basis, nodes)
    return h * (row_vals.T @ col_vals)


@pytest.mark.parametrize("size,degree", [(8, 3), (5, 1), (4, 0), (12, 2), (53, 3)])
def test_eval_matches_deboor_recursion(size, degree):
    basis = BSplineBasis(Domain(0.0, 1.0), size, degree)
    rng = np.random.default_rng(101)
    pts = np.concatenate([rng.uniform(0, 1, 40), basis.breakpoints, [0.0, 1.0]])
    got = eval_basis_matrix(basis, pts)
    want = np.stack([deboor_row(basis, t) for t in pts])
    assert np.max(np.abs(got - want)) < 1e-12


def test_knot_layout_clamped_and_equally_spaced():
    basis = BSplineBasis(Domain(0.0, 1.0), 53, 3)
    # boundary knots repeated degree + 1 times
    assert np.all(basis.knots[:4] == 0.0)
    assert np.all(basis.knots[-4:] == 1.0)
    interior = basis.knots[4:-4]
    assert interior.size == 53 - 3 - 1
    assert np.allclose(np.diff(interior), interior[1] - interior[0])
    # offset domain
    basis2 = BSplineBasis(Domain(1.0, 295.0), 103, 3)
    assert basis2.knots.size == 103 + 3 + 1
    assert basis2.breakpoints[0] == 1.0 and basis2.breakpoints[-1] == 295.0


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    for size, degree in [(53, 3), (8, 3), (10, 1)]:
        basis = BSplineBasis(Domain(0.0, 1.0), size, degree)
        pts = np.concatenate([rng.uniform(0, 1, 1000), [0.0, 1.0]])
        sums = eval_basis_matrix(basis, pts).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_locality_at_most_degree_plus_one_nonzero():
    basis = BSplineBasis(Domain(0.0, 1.0), 20, 3)
    rng = np.random.default_rng(11)
    vals = eval_basis_matrix(basis, rng.uniform(0, 1, 500))
    assert np.max((vals != 0).sum(axis=1)) <= basis.degree + 1


def test_eval_outside_domain_raises():
    basis = BSplineBasis(Domain(0.0, 1.0), 8, 3)
    with pytest.raises(ValueError, match="outside basis domain"):
        eval_basis_matrix(basis, np.array([1.0001]))
    with pytest.raises(ValueError, match="outside basis domain"):
        eval_basis_matrix(basis, np.array([-0.5, 0.5]))


@pytest.mark.parametrize(
    "row_spec,col_spec,sub",
    [
        ((12, 3), (8, 3), Domain(0.13, 0.82)),
        ((12, 3), (8, 3), Domain(0.0, 1.0)),
        ((6, 1), (9, 2), Domain(0.4, 0.9)),
        ((53, 3), (53, 3), Domain(0.0, 0.37)),
    ],
)
def test_cross_gram_matches_riemann_oracle(row_spec, col_spec, sub):
    dom = Domain(0.0, 1.0)
    row_basis = BSplineBasis(dom, *row_spec)
    col_basis = BSplineBasis(dom, *col_spec)
    got = cross_gram(row_basis, col_basis, sub)
    want = riemann_cross_gram(row_basis, col_basis, sub)
    scale = max(np.abs(want).max(), 1e-12)
    assert np.max(np.abs(got - want)) / scale < 1e-6


def test_cross_gram_degree_zero_closed_form():
    # piecewise-constant bases: entries are overlap widths of the cells
    basis = BSplineBasis(Domain(0.0, 1.0), 5, 0)
    sub = Domain(0.05, 0.95)
    got = cross_gram(basis, basis, sub)
    cells = [Domain(lo, hi) for lo, hi in zip(basis.breakpoints[:-1], basis.breakpoints[1:])]
    want = np.diag([c.intersect(sub).width if c.intersect(sub) else 0.0 for c in cells])
    assert np.max(np.abs(got - want)) < 1e-14


def test_cross_gram_additive_over_adjacent_subintervals():
    dom = Domain(0.0, 1.0)
    row_basis = BSplineBasis(dom, 10, 3)
    col_basis = BSplineBasis(dom, 7, 2)
    left = cross_gram(row_basis, col_basis, Domain(0.0, 0.43))
    right = cross_gram(row_basis, col_basis, Domain(0.43, 1.0))
    full = cross_gram(row_basis, col_basis, Domain(0.0, 1.0))
    assert np.max(np.abs(left + right - full)) < 1e-12


def test_cross_gram_rejects_interval_outside_domain():
    a = BSplineBasis(Domain(0.0, 1.0), 8, 3)
    b = BSplineBasis(Domain(0.0, 0.5), 8, 3)
    with pytest.raises(ValueError):
        cross_gram(a, b, Domain(0.0, 1.0))


def test_integrate_basis_sums_to_interval_width():
    basis = BSplineBasis(Domain(0.0, 1.0), 14, 3)
    # partition of unity integrates to the interval length
    assert abs(integrate_basis(basis).sum() - 1.0) < 1e-12
    sub = Domain(0.21, 0.77)
    assert abs(integrate_basis(basis, sub).sum() - sub.width) < 1e-12
    # against the midpoint oracle
    h = sub.width / 100_000
    nodes = sub.lo + (np.arange(100_000) + 0.5) * h
    want = h * eval_basis_matrix(basis, nodes).sum(axis=0)
    assert np.max(np.abs(integrate_basis(basis, sub) - want)) < 1e-6


def test_second_difference_matrix_small_case_exact():
    want = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [1.0, -2.0, 1.0, 0.0],
            [0.0, 1.0, -2.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(second_difference_matrix(4), want)


def test_second_difference_interior_rows_annihilate_affine():
    mat = second_difference_matrix(11)
    coeffs = 3.0 - 0.7 * np.arange(11)
    out = mat @ coeffs
    assert np.max(np.abs(out[1:-1])) < 1e-12
    assert out[0] == coeffs[0] and out[-1] == coeffs[-1]


@pytest.mark.parametrize("size", [3, 4, 10, 53, 200])
def test_second_difference_matrix_invertible(size):
    mat = second_difference_matrix(size)
    sign, logdet = np.linalg.slogdet(mat)
    assert sign != 0 and np.isfinite(logdet)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(1.0, 1.0)
    with pytest.raises(ValueError):
        Domain(0.0, float("nan"))
    assert Domain(0.0, 2.0).intersect(Domain(1.0, 3.0)) == Domain(1.0, 2.0)
    assert Domain(0.0, 1.0).intersect(Domain(2.0, 3.0)) is None


# --- bitwise agreement with scipy's sparse B-spline design matrix ------------------
#
# The evaluator and the integral operators promise scipy's values and sums,
# bit for bit; every downstream output (scores, aggregated designs, path
# knots) depends on those last bits.


def _scipy_design(basis: BSplineBasis, t: np.ndarray):
    from scipy.interpolate import BSpline

    return BSpline.design_matrix(t, basis.knots, basis.degree)


def _scipy_integrals(basis: BSplineBasis, sub: Domain) -> np.ndarray:
    segments = _segment_breaks([basis.breakpoints], sub)
    nodes, weights = _gauss_nodes((basis.degree,), segments)
    return np.asarray(_scipy_design(basis, nodes).T @ weights).ravel()


def _scipy_gram(row_basis: BSplineBasis, col_basis: BSplineBasis, sub: Domain) -> np.ndarray:
    segments = _segment_breaks([row_basis.breakpoints, col_basis.breakpoints], sub)
    nodes, weights = _gauss_nodes((row_basis.degree, col_basis.degree), segments)
    weighted = _scipy_design(row_basis, nodes).multiply(weights[:, None]).tocsr()
    return (weighted.T @ _scipy_design(col_basis, nodes)).toarray()


DOMAINS = [Domain(0.0, 1.0), Domain(-2.5, 7.3)]


@pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "wide"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("size", [5, 17, 53, 100])
def test_eval_is_bitwise_scipy(domain, degree, size):
    basis = BSplineBasis(domain, size, degree)
    rng = np.random.default_rng(size + 10 * degree)
    point_sets = {
        "grid": np.linspace(domain.lo, domain.hi, 101),
        "random": rng.uniform(domain.lo, domain.hi, 2000),
        "gauss": _gauss_nodes((degree, 3), basis.breakpoints)[0],
        "knots": basis.knots.copy(),
        "ends": np.array([domain.lo, domain.hi]),
    }
    for name, t in point_sets.items():
        assert np.array_equal(eval_basis_matrix(basis, t), _scipy_design(basis, t).toarray()), name


@pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "wide"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_integrals_and_grams_are_bitwise_scipy(domain, degree):
    subs = [domain, Domain(domain.lo + 0.13 * domain.width, domain.lo + 0.71 * domain.width)]
    for size in (degree + 1, 17, 53):
        basis = BSplineBasis(domain, size, degree)
        for sub in subs:
            assert np.array_equal(integrate_basis(basis, sub), _scipy_integrals(basis, sub))
            for col_degree, col_size in ((3, 53), (2, 15), (0, 4), (degree, size)):
                col = BSplineBasis(domain, col_size, col_degree)
                got = cross_gram(basis, col, sub)
                assert np.array_equal(got, _scipy_gram(basis, col, sub))
                # scipy's dense copy of the sparse product is Fortran-ordered, and a
                # batched product with the Gram (functional_scores) sums in the order
                # of its layout: a C-ordered Gram moves the scores in their last bits
                assert got.flags.f_contiguous
