"""Synthetic data generation and evaluation metrics for the regression model.

Curves are Gaussian-process draws on a shared regular grid, optionally with
a seasonal mean; responses integrate each curve against a known coefficient
function plus noise whose variance is set from a signal-to-noise ratio.
Two coefficient truths ship by default: a smooth two-bump function and a
configurable step function with a positive early window, a null middle, and
a negative late window.  Evaluation covers estimation error, band coverage
and width, and signed window detection rates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from sofreg.basis import BSplineBasis, Domain, eval_basis_matrix
from sofreg.funcdata import CurveGroup, CurveSet, fit_curves, functional_scores


# --- truth functions ---------------------------------------------------------------


def true_beta_smooth(t):
    """Two-bump coefficient curve: a positive peak at 1/3, a negative one at 2/3."""
    t = np.asarray(t, dtype=float)
    up = 8.0 / (2.0 + np.exp(20.0 - 60.0 * t) + np.exp(60.0 * t - 20.0))
    down = 12.0 / (2.0 + np.exp(40.0 - 60.0 * t) + np.exp(60.0 * t - 40.0))
    return up - down


@dataclass(frozen=True)
class SmoothTruth:
    kind: str = "smooth"

    def __call__(self, t):
        return true_beta_smooth(t)


@dataclass(frozen=True)
class LocallyConstantTruth:
    """Step-function truth; the default is a signed reconstruction, not a datum.

    Breakpoints are interior; levels has one more entry.  Points on a
    breakpoint take the right region's level, the domain's right endpoint
    the last level.
    """

    breakpoints: tuple = (0.35, 0.65)
    levels: tuple = (2.0, 0.0, -2.0)
    kind: str = "locally_constant"

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.size + 1 != len(self.levels):
            raise ValueError("need exactly one more level than breakpoints")
        if bp.size and (np.any(np.diff(bp) <= 0) or bp[0] <= 0.0 or bp[-1] >= 1.0):
            raise ValueError("breakpoints must be strictly increasing inside (0, 1)")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        return np.asarray(self.levels, dtype=float)[idx]


TruthSpec = SmoothTruth | LocallyConstantTruth


# --- design ------------------------------------------------------------------------


@dataclass
class GpSettings:
    seasonal: bool = True
    period: float = 365.0 / 295.0
    sigma_x: float = 0.7
    length_scale: float = 0.01

    def __post_init__(self) -> None:
        if self.period <= 0 or self.sigma_x < 0 or self.length_scale <= 0:
            raise ValueError("need period > 0, sigma_x >= 0, length_scale > 0")


@dataclass
class SimulationDesign:
    n: int
    snr: float
    grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 1.0, 101))
    gp: GpSettings = field(default_factory=GpSettings)
    truth: TruthSpec = field(default_factory=SmoothTruth)
    replicates: int = 1
    seed: int = 0
    # how signals are integrated: spline projection by default, raw-grid
    # trapezoid as an independent cross-check route
    signal_route: str = "spline"
    signal_basis_size: int = 53

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        if self.n < 1 or self.replicates < 1:
            raise ValueError("need n >= 1 and replicates >= 1")
        if not self.snr > 0:
            raise ValueError("snr must be positive")
        if self.grid.ndim != 1 or self.grid.size < 2 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing with at least two points")
        if self.signal_route not in ("spline", "trapezoid"):
            raise ValueError(f"unknown signal route {self.signal_route!r}")
        if self.signal_basis_size < 4:
            raise ValueError("signal basis too small")

    @property
    def domain(self) -> Domain:
        return Domain(float(self.grid[0]), float(self.grid[-1]))


# --- curve generation ----------------------------------------------------------------


def _gp_factor(grid: np.ndarray, gp: GpSettings) -> np.ndarray:
    gaps = grid[:, None] - grid[None, :]
    cov = gp.sigma_x**2 * np.exp(-(gaps**2) / (2.0 * gp.length_scale**2))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # one jitter retry; a second failure is a real error
        return np.linalg.cholesky(cov + 1e-8 * np.eye(grid.size))


def gen_curves(design: SimulationDesign, rng: np.random.Generator) -> CurveSet:
    """Gaussian-process curves on the design grid, one phase offset per subject.

    Each subject draws its phase, then its grid's normals, in turn; the
    values are one batched matrix-vector product with the GP factor.
    """
    grid = design.grid
    factor = _gp_factor(grid, design.gp)
    phase = np.zeros((design.n, 1))
    normals = np.empty((design.n, grid.size))
    for i in range(design.n):
        if design.gp.seasonal:
            phase[i] = rng.uniform(0.0, 1.0)
        rng.standard_normal(out=normals[i])
    values = np.matmul(factor, normals[:, :, None])[:, :, 0]
    mean = np.sin(2.0 * math.pi * grid / design.gp.period + phase) if design.gp.seasonal else 0.0
    values += mean  # bitwise mean + factor @ z, a -0.0 product included
    ids = [f"s{i:06d}" for i in range(design.n)]
    return CurveSet(ids, [CurveGroup(np.arange(design.n), grid, values)])


# --- responses -----------------------------------------------------------------------


def functional_signals(
    curves: CurveSet,
    truth: TruthSpec,
    basis: BSplineBasis | None = None,
    route: str = "spline",
) -> np.ndarray:
    """Per-subject integrals of curve times truth coefficient function.

    The spline route projects both the curves and the truth onto ``basis``
    and uses exact quadrature on the products; the trapezoid route works on
    the raw grid values and shares nothing with the estimation pipeline,
    making it an independent cross-check.
    """
    if route == "trapezoid":
        signals = np.empty(len(curves))
        for g in curves.groups:
            signals[g.rows] = np.trapezoid(g.x * truth(g.t), g.t, axis=1)
        return signals
    if route != "spline":
        raise ValueError(f"unknown signal route {route!r}")
    if basis is None:
        raise ValueError("spline route needs a basis")
    coef_curves = fit_curves(curves, basis)
    scores = functional_scores(coef_curves, basis)
    grid = curves[0].t
    design_mat = eval_basis_matrix(basis, grid)
    beta_coeffs, _, rank, _ = np.linalg.lstsq(design_mat, truth(grid), rcond=None)
    if rank < basis.size:
        raise ValueError("grid too coarse to project the truth onto the basis")
    return scores @ beta_coeffs


def gen_responses(
    signals: np.ndarray, snr: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Responses around the signals with noise variance var(signal)/snr."""
    signals = np.asarray(signals, dtype=float)
    var = float(np.var(signals, ddof=1)) if signals.size > 1 else 0.0
    if var < 1e-12 * (1.0 + float(np.mean(signals)) ** 2):
        raise ValueError("degenerate signal: integrals carry no variance")
    sigma = math.sqrt(var / snr)
    return signals + sigma * rng.standard_normal(signals.size), sigma


# --- metrics -------------------------------------------------------------------------


@dataclass
class EvalMetrics:
    l2_error: float
    pointwise_coverage: float
    mean_ci_width: float
    width_finite: bool
    tpr: float
    tnr: float

    def as_dict(self) -> dict[str, float]:
        return {
            "l2_error": self.l2_error,
            "coverage": self.pointwise_coverage,
            "mean_width": self.mean_ci_width,
            "tpr": self.tpr,
            "tnr": self.tnr,
        }


def evaluate(
    grid: np.ndarray,
    beta_hat: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    truth_values: np.ndarray,
    selection: np.ndarray | None = None,
) -> EvalMetrics:
    """Estimation, band, and window-detection metrics on a common grid.

    Detection rates use sign labels: tpr is the fraction of truth-positive
    grid points labeled +1 and tnr the fraction of truth-negative points
    labeled -1.  Either is NaN when its truth set is empty or no labels are
    supplied.
    """
    grid = np.asarray(grid, dtype=float)
    arrays = [np.asarray(a, dtype=float) for a in (beta_hat, lower, upper, truth_values)]
    if any(a.shape != grid.shape for a in arrays):
        raise ValueError("metric inputs must share the evaluation grid")
    beta_hat, lower, upper, truth_values = arrays
    l2 = math.sqrt(float(np.trapezoid((beta_hat - truth_values) ** 2, grid)))
    covered = (lower <= truth_values) & (truth_values <= upper)
    widths = upper - lower
    finite = bool(np.all(np.isfinite(widths)))
    tpr = tnr = math.nan
    if selection is not None:
        selection = np.asarray(selection)
        if selection.shape != grid.shape:
            raise ValueError("selection labels must share the evaluation grid")
        pos = truth_values > 0
        neg = truth_values < 0
        if pos.any():
            tpr = float(np.mean(selection[pos] == 1))
        if neg.any():
            tnr = float(np.mean(selection[neg] == -1))
    return EvalMetrics(
        l2_error=l2,
        pointwise_coverage=float(np.mean(covered)),
        mean_ci_width=float(np.mean(widths)),
        width_finite=finite,
        tpr=tpr,
        tnr=tnr,
    )


# --- replicated studies ---------------------------------------------------------------


@dataclass
class MethodResult:
    """What a fitting method reports on the evaluation grid."""

    beta_hat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    selection: np.ndarray | None = None
    extras: dict[str, float] = field(default_factory=dict)


MethodFn = Callable[
    [CurveSet, np.ndarray, SimulationDesign, np.random.Generator],
    MethodResult,
]


def replicate_data(
    design: SimulationDesign, rep: int
) -> tuple[CurveSet, np.ndarray, float]:
    """Deterministic dataset for one replicate: curves, responses, noise sd."""
    if not 0 <= rep < design.replicates:
        raise ValueError(f"replicate {rep} outside 0..{design.replicates - 1}")
    child = np.random.SeedSequence(design.seed).spawn(design.replicates)[rep]
    data_rng = np.random.default_rng(child.spawn(1)[0])
    curves = gen_curves(design, data_rng)
    basis = (
        BSplineBasis(design.domain, design.signal_basis_size, 3)
        if design.signal_route == "spline"
        else None
    )
    signals = functional_signals(curves, design.truth, basis=basis, route=design.signal_route)
    y, sigma = gen_responses(signals, design.snr, data_rng)
    return curves, y, sigma


def method_rng(design: SimulationDesign, rep: int, name: str) -> np.random.Generator:
    """Independent stream per (replicate, method), stable under method order."""
    digest = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([design.seed, rep, digest]))


def run_replicate(
    design: SimulationDesign, methods: Mapping[str, MethodFn], rep: int
) -> list[dict]:
    """Tidy metric rows (replicate, method, metric, value) for one replicate.

    The data and each method draw from independent streams spawned from
    the design seed, so the rows are reproducible and method order is
    immaterial.  A method failure becomes an ``error`` row.
    """
    rows: list[dict] = []
    truth_vals = np.asarray(design.truth(design.grid), dtype=float)
    curves, y, sigma = replicate_data(design, rep)
    rows.append({"replicate": rep, "method": "_data", "metric": "sigma", "value": sigma})
    for name in sorted(methods):
        rng = method_rng(design, rep, name)
        try:
            result = methods[name](curves, y, design, rng)
            metrics = evaluate(
                design.grid,
                result.beta_hat,
                result.lower,
                result.upper,
                truth_vals,
                result.selection,
            )
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            rows.append(
                {"replicate": rep, "method": name, "metric": "error", "value": repr(exc)}
            )
            continue
        for metric, value in metrics.as_dict().items():
            rows.append({"replicate": rep, "method": name, "metric": metric, "value": value})
        for metric, value in result.extras.items():
            rows.append({"replicate": rep, "method": name, "metric": metric, "value": value})
    return rows
