"""Adaptive Bayesian scalar-on-function regression.

Functional predictors are reduced to spline coefficient scores, the
regression function gets an adaptive locally-varying shrinkage prior
sampled by Gibbs, and posterior summaries are distilled into locally
constant estimates with critical windows via a fused-lasso decision step.
"""

from sofreg.basis import (
    BSplineBasis,
    Domain,
    cross_gram,
    eval_basis_matrix,
    integrate_basis,
    second_difference_matrix,
)
from sofreg.decision import (
    AcceptableFamily,
    DecisionSummary,
    LocallyConstantEstimate,
    Partition,
    SolutionPath,
    Window,
    acceptable_family,
    aggregate,
    analyze,
    ci_selection,
    evaluate_path,
    extract_windows,
    fused_lasso_path,
    kkt_residual,
    path_delta_at,
)
from sofreg.funcdata import (
    CoefCurve,
    CoefSet,
    CurveObservation,
    CurveSet,
    RegressionDesign,
    build_design,
    fit_curves,
    functional_scores,
    read_curves,
    read_scalars,
    write_curves,
    write_scalars,
)
from sofreg.gibbs import (
    FitConfig,
    PosteriorDraws,
    fit,
    load_draws,
    save_draws,
    summarize_coefficient,
)
from sofreg.simulate import (
    GpSettings,
    LocallyConstantTruth,
    SimulationDesign,
    SmoothTruth,
    evaluate,
    replicate_data,
)

__all__ = [
    "AcceptableFamily",
    "BSplineBasis",
    "CoefCurve",
    "CoefSet",
    "CurveObservation",
    "CurveSet",
    "DecisionSummary",
    "Domain",
    "FitConfig",
    "GpSettings",
    "LocallyConstantEstimate",
    "LocallyConstantTruth",
    "Partition",
    "PosteriorDraws",
    "RegressionDesign",
    "SimulationDesign",
    "SmoothTruth",
    "SolutionPath",
    "Window",
    "acceptable_family",
    "aggregate",
    "analyze",
    "build_design",
    "ci_selection",
    "cross_gram",
    "eval_basis_matrix",
    "evaluate",
    "evaluate_path",
    "extract_windows",
    "fit",
    "fit_curves",
    "functional_scores",
    "fused_lasso_path",
    "integrate_basis",
    "kkt_residual",
    "load_draws",
    "path_delta_at",
    "read_curves",
    "read_scalars",
    "replicate_data",
    "save_draws",
    "second_difference_matrix",
    "summarize_coefficient",
    "write_curves",
    "write_scalars",
]

__version__ = "0.1.0"
