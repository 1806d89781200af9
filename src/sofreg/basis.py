"""B-spline bases on closed intervals and exact integral operators built from them.

Everything downstream (functional design matrices, roughness penalties,
window aggregation) reduces to three primitives defined here: pointwise
basis evaluation, integrals of basis functions over subintervals, and
cross-Gram matrices coupling two bases over a shared subinterval.
Integrals use per-segment Gauss-Legendre rules that are exact for the
piecewise-polynomial integrands, so no tolerance tuning is needed.

Basis values come from the Cox-de Boor recurrence (de Boor 1978, *A
Practical Guide to Splines*), vectorized over points.  The recurrence
and the sums of the integral operators run in the order of scipy's
sparse B-spline design matrix, so the values, integrals and Grams are
bitwise those of ``scipy.interpolate.BSpline.design_matrix`` and its
sparse products, without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class Domain:
    """Closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("domain endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, other: "Domain") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Domain") -> "Domain | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return None
        return Domain(lo, hi)


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped B-spline basis of a given size on a domain.

    Boundary knots are repeated ``degree + 1`` times and interior knots are
    equally spaced, so a basis of size K has ``K - degree - 1`` interior
    knots.  The functions form a partition of unity on the domain and at
    most ``degree + 1`` of them are nonzero at any point.
    """

    domain: Domain
    size: int
    degree: int = 3
    # derived from (domain, size, degree); excluded from comparisons
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.size < self.degree + 1:
            raise ValueError(
                f"size {self.size} too small for degree {self.degree}"
            )
        n_interior = self.size - self.degree - 1
        interior = np.linspace(self.domain.lo, self.domain.hi, n_interior + 2)[1:-1]
        knots = np.concatenate(
            [
                np.full(self.degree + 1, self.domain.lo),
                interior,
                np.full(self.degree + 1, self.domain.hi),
            ]
        )
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knots: the endpoints of the polynomial segments."""
        return np.unique(self.knots)


def _nonzero_values(basis: BSplineBasis, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``degree + 1`` possibly nonzero basis values at each point, and the first's index.

    Point x lies in the knot interval ``knots[ell] <= x < knots[ell + 1]``,
    clamped to the last nonempty interval at the right end; functions
    ``ell - degree`` to ``ell`` are the ones alive there.  The recurrence
    runs in scipy's ``_deBoor_D`` order: for j = 1..degree and n = 1..j,
    ``w = prev[n-1] / (knots[ell+n] - knots[ell+n-j])``, then
    ``h[n-1] += w (knots[ell+n] - x)`` and ``h[n] = w (x - knots[ell+n-j])``,
    with ``h[n] = 0`` where the two knots coincide.
    """
    knots, k = basis.knots, basis.degree
    ell = np.clip(np.searchsorted(knots, t, side="right") - 1, k, basis.size - 1)
    h = np.zeros((k + 1, t.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        prev = h[:j].copy()
        h[0] = 0.0
        for n in range(1, j + 1):
            right, left = knots[ell + n], knots[ell + n - j]
            span = right - left
            w = np.divide(prev[n - 1], span, out=np.zeros(t.size), where=span != 0.0)
            h[n - 1] += w * (right - t)
            h[n] = w * (t - left)
    return h.T, ell - k


def eval_basis_matrix(basis: BSplineBasis, t: np.ndarray) -> np.ndarray:
    """Dense (len(t), size) matrix of basis values at points ``t``."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("t must be one dimensional")
    if t.size and (t.min() < basis.domain.lo or t.max() > basis.domain.hi):
        raise ValueError("evaluation points outside basis domain")
    values, first = _nonzero_values(basis, t)
    out = np.zeros((t.size, basis.size))
    out[np.arange(t.size)[:, None], first[:, None] + np.arange(basis.degree + 1)] = values
    return out


def _gauss_nodes(basis_degrees: tuple[int, ...], segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights exact for products of the given degrees.

    ``segments`` is an increasing array of breakpoints; one rule per segment.
    """
    total_degree = sum(basis_degrees)
    n_pts = total_degree // 2 + 1  # exact for polynomials of degree 2*n_pts - 1
    ref_x, ref_w = leggauss(n_pts)
    lo = segments[:-1]
    hi = segments[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _segment_breaks(breaks: list[np.ndarray], sub: Domain) -> np.ndarray:
    """Union of breakpoints restricted to ``sub``, with sub endpoints added."""
    pts = np.concatenate([np.asarray(b, dtype=float) for b in breaks])
    pts = pts[(pts > sub.lo) & (pts < sub.hi)]
    pts = np.unique(np.concatenate([[sub.lo], pts, [sub.hi]]))
    return pts


def integrate_basis(basis: BSplineBasis, sub: Domain | None = None) -> np.ndarray:
    """Integrals of each basis function over ``sub`` (default: whole domain)."""
    if sub is None:
        sub = basis.domain
    if not basis.domain.contains(sub):
        raise ValueError("integration interval not contained in basis domain")
    segments = _segment_breaks([basis.breakpoints], sub)
    nodes, weights = _gauss_nodes((basis.degree,), segments)
    values, first = _nonzero_values(basis, nodes)
    out = np.zeros(basis.size)
    # unbuffered adds, node by node in node order: a sparse product's sums
    np.add.at(out, first[:, None] + np.arange(basis.degree + 1), values * weights[:, None])
    return out


def cross_gram(
    basis_row: BSplineBasis,
    basis_col: BSplineBasis,
    sub: Domain | None = None,
) -> np.ndarray:
    """Matrix of pairwise products integrated over a common subinterval.

    Entry (j, k) is the integral of ``basis_row[j] * basis_col[k]`` over
    ``sub``, which must lie inside both domains.  Exact up to roundoff:
    the rule integrates each polynomial segment of the product exactly.
    """
    if sub is None:
        sub = basis_row.domain
    if not (basis_row.domain.contains(sub) and basis_col.domain.contains(sub)):
        raise ValueError("integration interval must lie in both basis domains")
    segments = _segment_breaks([basis_row.breakpoints, basis_col.breakpoints], sub)
    nodes, weights = _gauss_nodes((basis_row.degree, basis_col.degree), segments)
    row, row_first = _nonzero_values(basis_row, nodes)
    col, col_first = _nonzero_values(basis_col, nodes)
    rows = row_first[:, None, None] + np.arange(basis_row.degree + 1)[None, :, None]
    cols = col_first[:, None, None] + np.arange(basis_col.degree + 1)[None, None, :]
    # Fortran order, as a sparse product's dense copy comes out: batched
    # products with this Gram (``functional_scores``) sum in the layout's order
    gram = np.zeros((basis_row.size, basis_col.size), order="F")
    np.add.at(gram, (rows, cols), (row * weights[:, None])[:, :, None] * col[:, None, :])
    return gram


def second_difference_matrix(size: int) -> np.ndarray:
    """Square operator mapping coefficients to (b_1, second diffs, b_K).

    Row 1 and row K pick out the boundary coefficients; interior row k
    gives ``b[k-1] - 2 b[k] + b[k+1]``.  Invertible for size >= 3, so a
    Gaussian model on the image induces a proper prior on coefficients.
    """
    if size < 3:
        raise ValueError("need at least 3 coefficients")
    mat = np.zeros((size, size))
    mat[0, 0] = 1.0
    mat[-1, -1] = 1.0
    for k in range(1, size - 1):
        mat[k, k - 1] = 1.0
        mat[k, k] = -2.0
        mat[k, k + 1] = 1.0
    return mat
