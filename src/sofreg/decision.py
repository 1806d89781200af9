"""Locally constant summaries of a fitted curve effect, chosen by predictive loss.

The posterior gives a smooth estimate of the coefficient function; this
module re-expresses it as a step function over a partition of the domain.
The steps solve a fused-lasso regression of the model's fitted values on
aggregated curve integrals, traced over the whole penalty path.  Posterior
predictive draws then price each path entry: the family of entries whose
predictive loss is statistically indistinguishable from the empirical
optimum is reported, and its simplest member (fewest level changes) gives
the headline windows: signed intervals where the effect is nonzero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from sofreg.basis import Domain, integrate_basis
from sofreg.funcdata import CoefSet, RegressionDesign
from sofreg.gibbs import NumericalError, PosteriorDraws, subsample_indices

log = logging.getLogger(__name__)

EPSILON = 0.10  # default acceptable-family level
PRED_DRAWS = 1000  # default number of posterior draws that price the path


# --- partitions and aggregation ------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Contiguous cells covering the reference interval."""

    breaks: np.ndarray

    def __post_init__(self) -> None:
        breaks = np.array(self.breaks, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2:
            raise ValueError("partition needs at least two breakpoints")
        if not np.all(np.isfinite(breaks)):
            raise ValueError("partition breakpoints must be finite")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("partition breakpoints must be strictly increasing")
        breaks.flags.writeable = False
        object.__setattr__(self, "breaks", breaks)

    @classmethod
    def regular(cls, domain: Domain, n_cells: int) -> Partition:
        if n_cells < 1:
            raise ValueError("need at least one cell")
        return cls(np.linspace(domain.lo, domain.hi, n_cells + 1))

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> Partition:
        """One cell per interval of an observation grid."""
        return cls(np.asarray(grid, dtype=float))

    @property
    def size(self) -> int:
        return self.breaks.size - 1

    @property
    def span(self) -> Domain:
        return Domain(float(self.breaks[0]), float(self.breaks[-1]))

    def cells(self) -> list[Domain]:
        return [Domain(float(a), float(b)) for a, b in zip(self.breaks[:-1], self.breaks[1:])]


def aggregate(curves: CoefSet, partition: Partition) -> np.ndarray:
    """Integrate each subject's curve over each cell: the (n, cells) aggregated design.

    Entries over cells disjoint from a subject's interval are zero, so row
    sums equal the subject's full-interval integral.

    Curves sharing a basis layout and a domain share one (cells, K) weight
    matrix, with zero rows for the cells their domain misses, and take one
    ``np.vecdot`` of their coefficients with it: per cell the same dot
    product on the same operands as ``coeffs @ weights``.  A ``C @ W.T``
    product would sum in another order, and the path's knots on a
    rank-deficient design move with the last bits of the matrix.
    """
    span = partition.span
    cells = partition.cells()
    memo: dict[tuple, np.ndarray] = {}  # cell integrals by rounded intersection
    rows = np.zeros((len(curves), partition.size))
    for g in curves.groups:
        if not span.contains(g.domain):
            raise ValueError(
                f"subject {curves.ids[g.rows[0]]} interval not inside the partition span"
            )
        basis = g.basis
        bkey = (basis.size, basis.degree, basis.domain.lo, basis.domain.hi)
        weights = np.zeros((partition.size, basis.size))
        for k, cell in enumerate(cells):
            inter = cell.intersect(g.domain)
            if inter is None:
                continue
            key = (bkey, round(inter.lo, 12), round(inter.hi, 12))
            if key not in memo:
                memo[key] = integrate_basis(basis, inter)
            weights[k] = memo[key]
        rows[g.rows] = np.vecdot(g.coeffs[:, None, :], weights)
    return rows


# --- fused-lasso path ------------------------------------------------------------

# The objective, in the loss convention used throughout this module:
#     n^-1 ||r - A d||^2 + lam * sum_k |d_k - d_{k-1}|
# Internally the path is solved in the standard form
#     1/2 ||r - A d||^2 + lam_std ||D d||_1,   lam_std = n * lam / 2,
# reparameterized as a plain lasso: d = c + cumsum(w) turns the penalty into
# ||w||_1 with one unpenalized column, so the usual homotopy applies and stays
# well defined when A is rank deficient (only the lam = 0 endpoint is lost).


@dataclass
class SolutionPath:
    """Knots of the exact solution path, ordered by decreasing penalty."""

    lambdas: np.ndarray  # penalties at the knots, in the n^-1 loss convention above
    deltas: np.ndarray  # (len(lambdas), size) step levels
    rank_deficient: bool = False


def _lasso_columns(a: np.ndarray) -> np.ndarray:
    # columns: [A 1 | A M] where M maps increments to levels (lower triangular)
    tail_sums = np.cumsum(a[:, ::-1], axis=1)[:, ::-1]
    return np.column_stack([tail_sums[:, 0], tail_sums[:, 1:]])


def fused_lasso_path(targets: np.ndarray, a: np.ndarray) -> SolutionPath:
    """Exact homotopy in the penalty, from full fusion down to no penalty.

    On each segment the active coefficients are ``a - t b`` and the
    inactive correlations ``c(t) = p + t q``.  The next event is the
    largest root in ``(0, t_now]`` that obeys the LARS-lasso sign rules:
    an inactive column hits with sign ``s`` at ``t = s p / (1 - s q)``
    only if ``s q - 1 < 0``, so that ``s c(t) - t`` rises through zero as
    the penalty falls; an active column drops at ``t = a_j / b_j`` only if
    ``sign_j b_j < 0``, so that its coefficient moves toward zero.  The
    root an event leaves behind (the column just added at its own zero
    crossing, the column just dropped on its bound) fails its rule, so no
    event is ever undone at once.  Each event stores one knot, computed
    from the active set before the event; simultaneous events share it.

    Every stored knot satisfies the stationarity conditions; between knots
    the solution is affine in the penalty.  When the active columns become
    linearly dependent the homotopy stops at that rank boundary and the
    path is flagged, since the solution below it is not identified.

    The homotopy reads A and r only through ``A'A`` and ``A'r``, so it
    runs on the (cells + 1)-row triangle R of ``[A | r] = Q R``, which
    keeps both; the penalty keeps its scaling by the caller's n.
    """
    r = np.asarray(targets, dtype=float)
    n, size = a.shape
    if size < 2:
        raise ValueError("need at least two cells to fuse")
    if r.shape != (n,):
        raise ValueError("targets length does not match the aggregated design")
    if not np.all(np.isfinite(r)):
        raise ValueError("targets must be finite")

    tri = np.linalg.qr(np.column_stack([a, r]), mode="r")
    cols, z = _lasso_columns(tri[:, :-1]), tri[:, -1]
    gram_full = cols.T @ cols
    rhs_full = cols.T @ z

    active = np.zeros(size, dtype=bool)
    active[0] = True  # the level column is never penalized
    signs = np.zeros(size)

    def solve_coefs() -> tuple[np.ndarray, np.ndarray] | None:
        idx = np.flatnonzero(active)
        try:
            chol = np.linalg.cholesky(gram_full[np.ix_(idx, idx)])
        except np.linalg.LinAlgError:
            return None
        piv = np.diag(chol)
        # near-singular Gram: treat as the rank boundary rather than solving garbage
        if piv.min() <= 1e-9 * max(piv.max(), 1.0):
            return None
        lhs = np.column_stack([rhs_full[idx], signs[idx]])
        sol = np.linalg.solve(chol.T, np.linalg.solve(chol, lhs))
        return sol[:, 0], sol[:, 1]

    base = solve_coefs()
    if base is None:
        raise NumericalError("aggregated design has a zero total-integral column")
    a_vec, b_vec = base

    knot_lams: list[float] = []
    knot_gammas: list[np.ndarray] = []
    rank_deficient = False
    lam = np.inf
    hit_signs = np.array([[1.0], [-1.0]])  # one row of hit roots per sign
    for _ in range(40 * size + 100):
        cols_a = cols[:, active]
        p = cols.T @ (z - cols_a @ a_vec)
        q = cols.T @ (cols_a @ b_vec)
        sp, sq = hit_signs * p, hit_signs * q
        upper = lam * (1.0 + 1e-12)
        with np.errstate(divide="ignore", invalid="ignore"):
            hits = sp / (1.0 - sq)
            drops = a_vec / b_vec
        hits = np.where((sq < 1.0) & ~active & (hits > 0.0) & (hits <= upper), hits, 0.0)
        drops = np.where(
            (signs[active] * b_vec < 0.0) & (drops > 0.0) & (drops <= upper), drops, 0.0
        )
        row, j = np.unravel_index(np.argmax(hits), hits.shape)
        drop = int(np.argmax(drops))
        t = min(max(hits[row, j], drops[drop]), lam)

        gamma = np.zeros(size)
        gamma[active] = a_vec - t * b_vec
        knot_lams.append(t)
        knot_gammas.append(gamma)
        if t == 0.0:
            break  # no event left: the last segment runs down to no penalty
        lam = t
        if drops[drop] > hits[row, j]:
            j = np.flatnonzero(active)[drop]
            active[j], signs[j] = False, 0.0
        else:
            active[j], signs[j] = True, hit_signs[row, 0]
        sol = solve_coefs()
        if sol is None:
            rank_deficient = True
            log.warning(
                "aggregated design hit its rank boundary at penalty %.3g; "
                "path not continued below it", 2.0 * lam / n,
            )
            break
        a_vec, b_vec = sol
    else:
        raise NumericalError("penalty homotopy failed to make progress")

    lams = np.array(knot_lams)
    # simultaneous events share one knot
    keep = np.r_[True, np.diff(lams) < 0]
    deltas = np.cumsum(np.stack(knot_gammas)[keep], axis=1)
    return SolutionPath(lambdas=2.0 * lams[keep] / n, deltas=deltas, rank_deficient=rank_deficient)


def path_delta_at(path: SolutionPath, lam: float) -> np.ndarray:
    """Solution at an arbitrary penalty by interpolating the affine segments."""
    if lam < 0:
        raise ValueError("penalty must be nonnegative")
    lams = path.lambdas
    if lam >= lams[0]:
        return path.deltas[0].copy()
    if lam < lams[-1]:
        if path.rank_deficient:
            raise ValueError(
                "path stops above the requested penalty: aggregated design is rank deficient"
            )
        return path.deltas[-1].copy()
    hi = int(np.searchsorted(-lams, -lam, side="right")) - 1
    lo = hi + 1
    if lams[hi] == lam or lo >= lams.size:
        return path.deltas[hi].copy()
    w = (lam - lams[lo]) / (lams[hi] - lams[lo])
    return (1.0 - w) * path.deltas[lo] + w * path.deltas[hi]


def kkt_residual(delta: np.ndarray, targets: np.ndarray, a: np.ndarray, lam: float) -> float:
    """Scaled stationarity violation of a candidate solution.

    Zero (to rounding) iff ``delta`` minimizes the penalized objective at
    this penalty.  The dual variables of the fusion penalty are recovered
    in closed form from cumulative gradient sums, so the check shares no
    machinery with the homotopy solver.
    """
    r = np.asarray(targets, dtype=float)
    n = r.size
    lam_std = 0.5 * n * lam
    grad = a.T @ (a @ delta - r)
    s = np.cumsum(grad)
    scale = max(1.0, lam_std, float(np.max(np.abs(a.T @ r))))
    # a split boundary pins its dual to the sign of the jump; a fused one
    # only bounds it by the penalty
    per_cell = np.where(
        _level_splits(delta),
        np.abs(s[:-1] - lam_std * np.sign(np.diff(delta))),
        np.maximum(np.abs(s[:-1]) - lam_std, 0.0),
    )
    viol = max(abs(float(s[-1])), float(np.max(per_cell, initial=0.0)))
    return viol / scale


def _level_splits(delta: np.ndarray) -> np.ndarray:
    """Where adjacent levels (along the last axis) differ: by more than 1e-9
    of the largest jump, or of 1 if no jump is larger."""
    diffs = np.abs(np.diff(delta, axis=-1))
    return diffs > 1e-9 * np.maximum(1.0, diffs.max(axis=-1, initial=0.0, keepdims=True))


def count_level_changes(delta: np.ndarray) -> np.ndarray:
    """Level changes of each level vector along the last axis (a scalar for one vector)."""
    return np.sum(_level_splits(delta), axis=-1)


# --- predictive pricing of the path ---------------------------------------------


@dataclass
class PathDiagnostics:
    """Loss profile of the stored path on a penalty grid."""

    lambdas: np.ndarray
    deltas: np.ndarray
    n_level_changes: np.ndarray
    empirical: np.ndarray  # E_lam on the observed response
    percent_increase: np.ndarray  # (grid, draws) predictive percent loss vs the optimum
    idx_lambda_min: int


def _percent_increase(gaps, centers, sd, noise, rest, n: int) -> np.ndarray:
    """Percent loss increase of every entry over the optimum at every replicate.

    Span coordinates of each entry's fit less the optimum's (``gaps``), of
    each draw's mean residual at the optimum (``centers``) and of each
    replicate's standard normal noise (``noise``); ``rest`` is the squared
    norm of that noise off the span.
    """
    resid = centers + sd[:, None] * noise
    excess = (np.einsum("ij,ij->i", gaps, gaps)[:, None] - 2.0 * (gaps @ resid.T)) / n
    ref = (np.einsum("ij,ij->i", resid, resid) + sd**2 * rest) / n
    return 100.0 * excess / ref[None, :]


def evaluate_path(
    path: SolutionPath,
    y: np.ndarray,
    draws: PosteriorDraws,
    design: RegressionDesign,
    a: np.ndarray,
    rng: np.random.Generator,
    pred_draws: int | None = PRED_DRAWS,
    max_entries: int = 100,
) -> PathDiagnostics:
    """Price every (subsampled) knot by observed and predictive squared loss.

    Entry i's empirical loss is ``||adj - A delta_i||^2 / n``, with ``adj``
    the response less the scalar fit at the mean scalar coefficients; the
    smallest is the optimum b.  One common set of predictive replicates
    prices every entry, so percent differences compare draw by draw.

    One R-only QR gives ``[A | X | adj] = Q F`` (X the curve scores, Q's
    columns orthonormal), so entry i's empirical loss is exactly
    ``||F[:, -1] - F[:, :cells] delta_i||^2 / n``.  Replicate s less its
    own scalar fit leaves ``r0_s = X theta_s - A delta_b + sigma_s eps_s``
    at the optimum.  The first m = min(n, cells + K) columns Q_m of Q hold
    the span of ``[A | X]``, with coordinates ``F[:m, :-1]``.  With
    ``g_i = F[:m, :cells] (delta_i - delta_b)``, entry i's loss exceeds
    the optimum's by ``(||g_i||^2 - 2 g_i . Q_m'r0_s) / n``, and the
    optimum's loss is ``(||Q_m'r0_s||^2 + c_s) / n``.  As Q_m's columns are
    orthonormal, ``Q_m'eps_s = u_s ~ N(0, I_m)`` and ``c_s ~ sigma_s^2
    chi^2_{n - m}`` off its range are independent, also when Q_m is wider
    than the span; so the replicates are equal in law to ones drawn in n
    dimensions, not bitwise equal.  Nothing after the QR grows with n.
    The optimum's row is exactly zero, because its gap is.
    """
    keep = subsample_indices(path.lambdas.size, max_entries)
    lams = path.lambdas[keep]
    deltas = path.deltas[keep]
    n, cells = a.shape

    adj = y - design.z @ draws.alpha.mean(axis=0)
    tri = np.linalg.qr(np.column_stack([a, design.scores, adj]), mode="r")
    resid = tri[:, -1:] - tri[:, :cells] @ deltas.T
    emp = np.einsum("ij,ij->j", resid, resid) / n
    best = int(np.argmin(emp))

    m = min(n, tri.shape[1] - 1)
    span_a, span_x = tri[:m, :cells], tri[:m, cells:-1]
    idx = subsample_indices(draws.n_draws, pred_draws)
    noise = rng.standard_normal((idx.size, m))
    rest = rng.chisquare(n - m, idx.size) if n > m else np.zeros(idx.size)
    gaps = (deltas - deltas[best]) @ span_a.T
    centers = draws.coeffs[idx] @ span_x.T - span_a @ deltas[best]
    percent = _percent_increase(gaps, centers, np.sqrt(draws.sigma2[idx]), noise, rest, n)
    return PathDiagnostics(
        lambdas=lams,
        deltas=deltas,
        n_level_changes=count_level_changes(deltas),
        empirical=emp,
        percent_increase=percent,
        idx_lambda_min=best,
    )


@dataclass
class AcceptableFamily:
    """Path entries whose predictive loss is near-optimal."""

    members: np.ndarray  # boolean mask over the diagnostics grid
    idx_simplest: int
    idx_lambda_min: int
    epsilon: float


def acceptable_family(diag: PathDiagnostics, epsilon: float = EPSILON) -> AcceptableFamily:
    """Entries whose lower predictive interval for the percent increase reaches zero.

    Membership: the epsilon-quantile (as an order statistic) of the percent
    increases is <= 0, i.e. at least ceil(epsilon * draws) of the draws show
    no loss relative to the empirical optimum.  The optimum itself has all
    percent increases identically zero, so it always belongs.  The simplest
    member has the fewest level changes; ties go to the larger penalty.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    n_draws = diag.percent_increase.shape[1]
    need = int(np.ceil(epsilon * n_draws))
    members = np.sum(diag.percent_increase <= 0.0, axis=1) >= need
    members[diag.idx_lambda_min] = True
    idx_members = np.flatnonzero(members)
    changes = diag.n_level_changes[idx_members]
    # grid is ordered by decreasing penalty, so the first minimum is the
    # largest-penalty member among ties
    simplest = int(idx_members[int(np.argmin(changes))])
    return AcceptableFamily(
        members=members,
        idx_simplest=simplest,
        idx_lambda_min=diag.idx_lambda_min,
        epsilon=epsilon,
    )


# --- step-function estimates and windows ------------------------------------------


@dataclass
class LocallyConstantEstimate:
    """Step-function coefficient estimate: maximal runs of equal level."""

    starts: np.ndarray
    ends: np.ndarray
    levels: np.ndarray
    lam: float

    def level_at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        edges = np.r_[self.starts, self.ends[-1]]
        idx = np.minimum(np.searchsorted(edges, t, side="right") - 1, self.levels.size - 1)
        if np.any(t < edges[0]) or np.any(t > edges[-1]):
            raise ValueError("points outside the estimate's span")
        return self.levels[idx]


def build_estimate(partition: Partition, delta: np.ndarray, lam: float) -> LocallyConstantEstimate:
    """Merge adjacent cells with equal levels into maximal runs."""
    delta = np.asarray(delta, dtype=float)
    if delta.size != partition.size:
        raise ValueError("level vector does not match the partition")
    cut = np.flatnonzero(_level_splits(delta))
    starts_idx = np.r_[0, cut + 1]
    ends_idx = np.r_[cut, delta.size - 1]
    return LocallyConstantEstimate(
        starts=partition.breaks[starts_idx],
        ends=partition.breaks[ends_idx + 1],
        levels=delta[starts_idx],
        lam=lam,
    )


def _runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of equal labels (no run if no labels)."""
    cut = np.flatnonzero(labels[1:] != labels[:-1])
    return np.r_[0, cut + 1][: labels.size], np.r_[cut, labels.size - 1][: labels.size]


@dataclass(frozen=True)
class Window:
    """A maximal interval with one effect label."""

    start: float
    end: float
    level: float  # width-weighted mean level over the window
    label: str  # "+", "-", or "0"


def extract_windows(
    estimate: LocallyConstantEstimate, zero_tol: float = 0.0
) -> list[Window]:
    """Label runs by sign (zero within tolerance) and merge equal labels."""
    labels = np.where(
        np.abs(estimate.levels) <= zero_tol,
        "0",
        np.where(estimate.levels > 0, "+", "-"),
    )
    widths = estimate.ends - estimate.starts
    return [
        Window(
            start=float(estimate.starts[i]),
            end=float(estimate.ends[j]),
            level=float(estimate.levels[i : j + 1] @ widths[i : j + 1] / widths[i : j + 1].sum()),
            label=str(labels[i]),
        )
        for i, j in zip(*_runs(labels))
    ]


def selection_on_grid(
    estimate: LocallyConstantEstimate, grid: np.ndarray, zero_tol: float = 0.0
) -> np.ndarray:
    """Sign labels (-1, 0, +1) of the estimate at each grid point."""
    levels = estimate.level_at(grid)
    return np.where(np.abs(levels) <= zero_tol, 0, np.sign(levels)).astype(int)


def ci_selection(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Pointwise competitor: nonzero sign wherever the band excludes zero."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape:
        raise ValueError("band arrays must have equal shape")
    return np.where(lower > 0, 1, np.where(upper < 0, -1, 0)).astype(int)


# --- end-to-end convenience -------------------------------------------------------


@dataclass
class DecisionSummary:
    """Everything the reporting layer needs from one decision analysis."""

    path: SolutionPath
    diagnostics: PathDiagnostics
    family: AcceptableFamily
    estimate: LocallyConstantEstimate
    aggregated: np.ndarray  # (n, cells) cell integrals of the curves
    targets: np.ndarray  # the fitted values the path regresses on the aggregated design
    windows: list[Window] = field(default_factory=list)


def analyze(
    draws: PosteriorDraws,
    design: RegressionDesign,
    curves: CoefSet,
    partition: Partition,
    y: np.ndarray,
    rng: np.random.Generator,
    epsilon: float = EPSILON,
    zero_tol: float = 0.0,
    pred_draws: int | None = PRED_DRAWS,
) -> DecisionSummary:
    """Fit-to-the-fit pipeline: aggregate, trace the path, price it, summarize.

    Targets are the posterior fitted values less the scalar fit (intercept
    and scalar effects) at the mean scalar coefficients, so the step
    function chases only the curve effect.
    """
    agg = aggregate(curves, partition)
    targets = draws.y_hat - design.z @ draws.alpha.mean(axis=0)
    path = fused_lasso_path(targets, agg)
    diag = evaluate_path(path, y, draws, design, agg, rng, pred_draws=pred_draws)
    family = acceptable_family(diag, epsilon)
    pick = family.idx_simplest
    estimate = build_estimate(partition, diag.deltas[pick], float(diag.lambdas[pick]))
    windows = extract_windows(estimate, zero_tol)
    return DecisionSummary(
        path=path,
        diagnostics=diag,
        family=family,
        estimate=estimate,
        aggregated=agg,
        targets=targets,
        windows=windows,
    )
