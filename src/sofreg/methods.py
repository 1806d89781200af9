"""Fitting-method adapters: one callable per estimator for replicated studies.

Each adapter takes raw simulated curves and responses, runs the full
pipeline (spline projection, design assembly, Gibbs sampling, posterior
summary), and reports estimates, bands, and a signed selection on the
evaluation grid.  The band-based selector marks points whose 95% interval
excludes zero; the decision-analysis variant instead extracts windows from
the simplest acceptable locally constant summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sofreg.decision import (
    EPSILON,
    Partition,
    analyze,
    ci_selection,
    selection_on_grid,
)
from sofreg.funcdata import assemble_design
from sofreg.gibbs import PRIOR_KINDS, FitConfig, fit, summarize_coefficient
from sofreg.simulate import MethodFn, MethodResult, SimulationDesign

DECISION_METHOD = "dhs-da"


@dataclass(frozen=True)
class MethodSettings:
    """Shared pipeline knobs for study adapters; sampler defaults are scaled
    down from the single-fit defaults because studies run many fits."""

    curve_basis_size: int = 53
    coef_basis_size: int = 53
    degree: int = 3
    burnin: int = 2000
    draws: int = 2000
    thin: int = 1
    refresh: int = 1
    epsilon: float = EPSILON
    zero_tol: float = 0.0
    pred_draws: int | None = 500
    partition_cells: int | None = None  # None: one cell per grid interval


def default_partition(design: SimulationDesign, s: MethodSettings) -> Partition:
    if s.partition_cells is None:
        return Partition.from_grid(design.grid)
    return Partition.regular(design.domain, s.partition_cells)


def _fit_once(prior, curves, y, rng, s: MethodSettings):
    coef_curves, reg_design = assemble_design(
        curves, y, s.curve_basis_size, s.coef_basis_size, s.degree
    )
    config = FitConfig(
        prior=prior,
        burnin=s.burnin,
        draws=s.draws,
        thin=s.thin,
        refresh=s.refresh,
    )
    draws = fit(reg_design, config, rng=rng)
    return coef_curves, reg_design, draws


def band_method(prior: str, s: MethodSettings) -> MethodFn:
    """Posterior-mean estimate with 95% bands and the band-based selector."""
    if prior not in PRIOR_KINDS:
        raise ValueError(f"unknown prior {prior!r}; expected one of {PRIOR_KINDS}")

    def run(curves, y, design, rng):
        _, _, draws = _fit_once(prior, curves, y, rng, s)
        summary = summarize_coefficient(draws, grid=design.grid)
        return MethodResult(
            beta_hat=summary.mean,
            lower=summary.lower95,
            upper=summary.upper95,
            selection=ci_selection(summary.lower95, summary.upper95),
            extras={"sigma2_mean": float(draws.sigma2.mean())},
        )

    return run


def decision_method(s: MethodSettings) -> MethodFn:
    """Shrinkage fit followed by the locally constant decision summary.

    The point estimate is the simplest acceptable step function; bands stay
    the posterior bands of the underlying smooth fit, so width and coverage
    remain comparable with the band methods.
    """

    def run(curves, y, design, rng):
        coef_curves, reg_design, draws = _fit_once("dhs", curves, y, rng, s)
        summary = summarize_coefficient(draws, grid=design.grid)
        part = default_partition(design, s)
        decision = analyze(
            draws,
            reg_design,
            coef_curves,
            part,
            np.asarray(y, dtype=float),
            rng,
            epsilon=s.epsilon,
            zero_tol=s.zero_tol,
            pred_draws=s.pred_draws,
        )
        return MethodResult(
            beta_hat=decision.estimate.level_at(design.grid),
            lower=summary.lower95,
            upper=summary.upper95,
            selection=selection_on_grid(decision.estimate, design.grid, s.zero_tol),
            extras={
                "lambda_chosen": decision.estimate.lam,
                "n_windows": float(len(decision.windows)),
                "n_path_knots": float(decision.path.lambdas.size),
            },
        )

    return run


def build_methods(names: list[str], s: MethodSettings) -> dict[str, MethodFn]:
    out: dict[str, MethodFn] = {}
    for name in names:
        if name == DECISION_METHOD:
            out[name] = decision_method(s)
        elif name in PRIOR_KINDS:
            out[name] = band_method(name, s)
        else:
            raise ValueError(
                f"unknown method {name!r}; expected {PRIOR_KINDS + (DECISION_METHOD,)}"
            )
    return out
