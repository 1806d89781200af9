"""Gibbs sampler for scalar-on-function regression with adaptive shrinkage.

The model: response = intercept + scalar effects + integral of the curve
against a coefficient function + Gaussian noise.  The coefficient function
is a spline whose second differences get one of three priors:

* ``dhs``            dynamic shrinkage process (dependent local scales),
* ``pspline``        one global smoothing scale,
* ``local-pspline``  independent local scales.

All variants are conditionally conjugate, so the sampler alternates exact
conditional draws: every coefficient jointly from one Gaussian, then the
scales and variances; no tuning is required.  A sweep's cost does not grow
with the number of subjects: it works on one Gram formed once, and is cubic
only in the (small) number of coefficients.

Besides ``fit``, this module provides posterior curve summaries and a
flat-file draw archive.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from sofreg.basis import BSplineBasis, Domain, eval_basis_matrix, second_difference_matrix
from sofreg.dhs import PHI_PRIOR, DhsState, dhs_step, init_dhs_state, sample_boundary_scale
from sofreg.funcdata import CoefGroup, CoefSet, RegressionDesign

log = logging.getLogger(__name__)

PRIOR_KINDS = ("dhs", "pspline", "local-pspline")
GRID_POINTS = 101  # default size of the grid a coefficient function is summarized on


class NumericalError(RuntimeError):
    """Raised when a conditional draw cannot be computed stably."""


@dataclass
class FitConfig:
    """Sampler settings.

    ``var_shape``/``var_rate`` parameterize the gamma priors on inverse
    noise and scalar-coefficient variances; ``scale_shape``/``scale_rate``
    those on inverse squared smoothing scales (global, local, and boundary).
    The defaults are the diffuse (0.01, 0.01) choices; sampler-validation
    harnesses use tamer proper values.  ``refresh`` is how many times each
    sweep cycles through the ``dhs`` prior's latent moves; the shrinkage
    process's own hyperparameters are fixed in ``sofreg.dhs``.
    """

    prior: str = "dhs"
    burnin: int = 10000
    draws: int = 10000
    thin: int = 1
    refresh: int = 5
    var_shape: float = 0.01
    var_rate: float = 0.01
    scale_shape: float = 0.01
    scale_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.prior not in PRIOR_KINDS:
            raise ValueError(f"unknown prior {self.prior!r}; expected one of {PRIOR_KINDS}")
        if self.draws < 1 or self.burnin < 0 or self.thin < 1 or self.refresh < 1:
            raise ValueError("need draws >= 1, burnin >= 0, thin >= 1, refresh >= 1")
        if self.draws < self.thin:
            raise ValueError(f"thin ({self.thin}) exceeds draws ({self.draws}): no draw would be kept")


@dataclass
class PosteriorDraws:
    """Stored posterior sample and enough metadata to reuse it later."""

    coeffs: np.ndarray
    basis: BSplineBasis
    alpha: np.ndarray
    alpha_names: list[str]
    penalized: np.ndarray
    sigma2: np.ndarray
    alpha_scales2: np.ndarray
    lambda0: np.ndarray
    config: FitConfig
    y_hat: np.ndarray
    h: np.ndarray | None = None
    mu_h: np.ndarray | None = None
    phi: np.ndarray | None = None
    smooth_var: np.ndarray | None = None
    local_var: np.ndarray | None = None
    seed: int | None = None

    @property
    def n_draws(self) -> int:
        return self.coeffs.shape[0]


def stable_hash(payload: dict) -> str:
    """Short deterministic hash of a JSON-serializable dictionary."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def sample_gaussian_by_precision(
    prec: np.ndarray, lin: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw from N(prec^-1 lin, prec^-1) via Cholesky of the precision.

    One trace-scaled jitter retry is attempted before giving up, so a
    marginally indefinite matrix from roundoff does not kill a long run;
    the retry is logged as a warning.
    """
    # imported here, not at the top, so that summaries and archives load without scipy
    from scipy.linalg import cho_solve, solve_triangular

    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        bump = 1e-8 * np.trace(prec) / prec.shape[0]
        log.warning(
            "%d x %d precision matrix failed its Cholesky factorization; "
            "retrying with %.3g added to the diagonal",
            prec.shape[0], prec.shape[0], bump,
        )
        try:
            chol = np.linalg.cholesky(prec + bump * np.eye(prec.shape[0]))
        except np.linalg.LinAlgError as err:
            raise NumericalError("coefficient precision matrix is not positive definite") from err
    mean = cho_solve((chol, True), lin)
    z = rng.standard_normal(lin.size)
    return mean + solve_triangular(chol, z, lower=True, trans="T")


# --- internal sampler core ---------------------------------------------------


@dataclass
class _SplineScales:
    """Scale state of the functional coefficient under any prior kind."""

    lambda0: float = 1.0
    dhs_state: DhsState | None = None
    smooth_var: float = 1.0
    local_var: np.ndarray | None = None

    def variance_vector(self, prior: str, size: int) -> np.ndarray:
        lam = np.empty(size)
        lam[0] = lam[-1] = self.lambda0**2
        if prior == "dhs":
            lam[1:-1] = self.dhs_state.local_variances()
        elif prior == "pspline":
            lam[1:-1] = self.smooth_var
        else:
            lam[1:-1] = self.local_var
        return lam


class _GibbsCore:
    """The stacked Gram, formed once, plus the model's coefficient state.

    The response is ``X beta + Z alpha`` plus noise, with X the curve
    scores and Z the scalar design.  The functional coefficient ``beta``
    carries a spline shrinkage prior on its second differences; the scalar
    coefficients ``alpha`` carry independent normal priors (flat on
    unpenalized columns).  Both sit in one Gaussian likelihood, so a sweep
    draws ``theta = [beta; alpha]`` from its one Gaussian conditional: the
    intercept is nearly in the span of the curve scores, and drawing beta
    and alpha in turn would creep along that direction.  The conditional
    and the noise variance's residual sum of squares come from
    ``G = [X | Z]'[X | Z]`` and ``w = [X | Z]'y``, so a sweep touches no
    n-sized array unless the fit is tight enough for that sum to cancel.
    """

    def __init__(self, design: RegressionDesign, config: FitConfig):
        self.config = config
        self.design = design
        self.n = design.n
        self.x, self.z = design.scores, design.z
        self.k = self.x.shape[1]
        xz = self.x.T @ self.z
        self.gram = np.block([[self.x.T @ self.x, xz], [xz.T, self.z.T @ self.z]])
        self.diff_op = second_difference_matrix(self.k)

        self.beta = np.zeros(self.k)
        self.alpha = np.zeros(self.z.shape[1])
        self.scales = _SplineScales()
        self.alpha_scales2 = np.where(design.penalized, 1.0, np.inf)
        self.sigma2 = 1.0
        self.set_y(np.zeros(self.n))

    # -- state preparation --

    def set_y(self, y: np.ndarray) -> None:
        self.y = y
        self.yy = float(y @ y)
        self.w = np.concatenate([self.x.T @ y, self.z.T @ y])

    def init_from_data(self) -> None:
        """Deterministic warm start: ridge fits and method-of-moments scales."""
        dop, k = self.diff_op, self.k
        ridge = self.gram[:k, :k] + dop.T @ dop + 1e-10 * np.eye(k)
        self.beta = np.linalg.solve(ridge, self.w[:k])
        d2 = (dop @ self.beta)[1:-1]
        self.scales.lambda0 = 1.0
        if self.config.prior == "dhs":
            self.scales.dhs_state = init_dhs_state(d2)
        else:
            level = float(np.clip(d2.var(), 1e-10, 1e10))
            self.scales.smooth_var = level
            self.scales.local_var = np.full(d2.size, level)
        self.alpha = np.zeros(self.alpha.size)
        var_y = float(self.y.var(ddof=1)) if self.n > 1 else 1.0
        self.sigma2 = var_y if var_y > 0 else 1.0
        self.alpha_scales2 = np.where(self.design.penalized, 1.0, np.inf)

    def _update_scales(self, rng: np.random.Generator) -> None:
        cfg = self.config
        beta, scales = self.beta, self.scales
        d2 = (self.diff_op @ beta)[1:-1]
        if cfg.prior == "dhs":
            dhs_step(d2, scales.dhs_state, cfg.refresh, rng)
        elif cfg.prior == "pspline":
            rate = cfg.scale_rate + 0.5 * float(d2 @ d2)
            scales.smooth_var = 1.0 / rng.gamma(cfg.scale_shape + 0.5 * d2.size, 1.0 / rate)
        else:
            rates = cfg.scale_rate + 0.5 * d2**2
            scales.local_var = 1.0 / rng.gamma(cfg.scale_shape + 0.5, 1.0 / rates)
        scales.lambda0 = sample_boundary_scale(
            beta[0], beta[-1], rng, shape=cfg.scale_shape, rate=cfg.scale_rate
        )

    def sweep(self, rng: np.random.Generator) -> None:
        """One full scan: [beta; alpha] jointly, shrinkage scales, variances."""
        cfg, dop, k = self.config, self.diff_op, self.k
        lam = self.scales.variance_vector(cfg.prior, k)
        prec = self.gram / self.sigma2
        prec[:k, :k] += dop.T @ (dop / lam[:, None])
        prec[k:, k:] += np.diag(1.0 / self.alpha_scales2)  # 0 on flat columns
        theta = sample_gaussian_by_precision(prec, self.w / self.sigma2, rng)
        self.beta, self.alpha = theta[:k], theta[k:]
        self._update_scales(rng)
        pen = self.design.penalized
        if pen.any():
            rates = cfg.var_rate + 0.5 * self.alpha[pen] ** 2
            self.alpha_scales2[pen] = 1.0 / rng.gamma(cfg.var_shape + 0.5, 1.0 / rates)
        rss = self.yy - 2.0 * (theta @ self.w) + theta @ (self.gram @ theta)
        if not (np.isfinite(rss) and rss > 1e-6 * self.yy):  # cancelled to a few digits
            resid = self.y - (self.x @ self.beta + self.z @ self.alpha)
            rss = resid @ resid
        rate = cfg.var_rate + 0.5 * float(rss)
        self.sigma2 = 1.0 / rng.gamma(cfg.var_shape + 0.5 * self.n, 1.0 / rate)

    def record(self) -> dict:
        """What a kept draw records, keyed by ``PosteriorDraws`` field name."""
        scales = self.scales
        rec = {
            "coeffs": self.beta,
            "alpha": self.alpha,
            "sigma2": self.sigma2,
            "alpha_scales2": self.alpha_scales2,
            "lambda0": scales.lambda0,
        }
        if self.config.prior == "dhs":
            state = scales.dhs_state
            rec.update(h=state.h, mu_h=state.mu_h, phi=state.phi)
        elif self.config.prior == "pspline":
            rec["smooth_var"] = scales.smooth_var
        else:
            rec["local_var"] = scales.local_var
        return rec

    def check_finite(self, iteration: int) -> None:
        if not all(np.all(np.isfinite(v)) for v in (self.sigma2, self.beta, self.alpha)):
            raise NumericalError(f"non-finite sampler state at iteration {iteration}")


# --- public fitting interface ------------------------------------------------


def fit(
    design: RegressionDesign,
    config: FitConfig | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> PosteriorDraws:
    """Run the Gibbs sampler and collect thinned post-burnin draws."""
    config = config or FitConfig()
    if rng is None:
        rng = np.random.default_rng(seed)
    core = _GibbsCore(design, config)
    core.set_y(design.y)
    core.init_from_data()

    kept = config.draws // config.thin
    store = {key: np.empty((kept, *np.shape(value))) for key, value in core.record().items()}
    s = 0
    for it in range(config.burnin + config.draws):
        core.sweep(rng)
        core.check_finite(it)
        post = it - config.burnin
        if post < 0 or post % config.thin:
            continue
        if s == kept:
            continue  # leftover iterations when draws % thin != 0
        for key, value in core.record().items():
            store[key][s] = value
        s += 1
    # the mean fit over the kept draws, taken at their mean coefficients
    y_hat = design.scores @ store["coeffs"].mean(axis=0) + design.z @ store["alpha"].mean(axis=0)
    return PosteriorDraws(
        basis=design.basis_b,
        alpha_names=list(design.z_names),
        penalized=design.penalized.copy(),
        config=config,
        y_hat=y_hat,
        seed=seed,
        **store,
    )


# --- posterior summaries ------------------------------------------------------


@dataclass
class CurveSummary:
    """Pointwise posterior summary of a coefficient function on a grid."""

    grid: np.ndarray
    mean: np.ndarray
    lower50: np.ndarray
    upper50: np.ndarray
    lower95: np.ndarray
    upper95: np.ndarray


def coefficient_draws_on_grid(draws: PosteriorDraws, grid: np.ndarray) -> np.ndarray:
    """(draws, grid) matrix of coefficient-function values."""
    return draws.coeffs @ eval_basis_matrix(draws.basis, np.asarray(grid, dtype=float)).T


def summarize_coefficient(
    draws: PosteriorDraws, grid: np.ndarray | None = None, points: int = GRID_POINTS
) -> CurveSummary:
    """Posterior mean and central 50%/95% bands of a coefficient function."""
    if grid is None:
        grid = np.linspace(draws.basis.domain.lo, draws.basis.domain.hi, points)
    grid = np.asarray(grid, dtype=float)
    vals = coefficient_draws_on_grid(draws, grid)
    lo95, lo50, hi50, hi95 = np.quantile(vals, [0.025, 0.25, 0.75, 0.975], axis=0)
    return CurveSummary(grid, vals.mean(axis=0), lo50, hi50, lo95, hi95)


def effective_sample_size(draws: np.ndarray) -> np.ndarray:
    """Effective sample size of each column of one chain's (draws, ...) array.

    Geyer's (1992) initial monotone sequence: the autocorrelations (all
    columns in one FFT) are summed in consecutive pairs up to the first
    non-positive pair, and the pairs are forced to be non-increasing.  A
    column without variance gets NaN.
    """
    x = np.asarray(draws, dtype=float)
    n = x.shape[0]
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(x - x.mean(axis=0), size, axis=0)
    acov = np.fft.irfft(spec * spec.conj(), size, axis=0)[:n]
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = acov / acov[0]
        pairs = rho[: 2 * (n // 2)].reshape(n // 2, 2, *x.shape[1:]).sum(axis=1)
        pairs = np.where(np.logical_and.accumulate(pairs > 0.0, axis=0), pairs, 0.0)
        tau = 2.0 * np.minimum.accumulate(pairs, axis=0).sum(axis=0) - 1.0
        return np.where(acov[0] > 0.0, n / tau, np.nan)


def subsample_indices(n_draws: int, size: int | None) -> np.ndarray:
    """Deterministic, evenly spaced draw indices for predictive work."""
    if size is not None and size < 1:
        raise ValueError(f"subsample size must be at least 1, got {size}")
    if size is None or size >= n_draws:
        return np.arange(n_draws)
    return np.unique(np.linspace(0, n_draws - 1, size).round().astype(int))


# --- flat-file draw archive ----------------------------------------------------

ARCHIVE_FORMAT = "sofreg-draws-v2"
# the ``PosteriorDraws`` arrays an archive keeps: every prior has the first
# six, which loading requires, and each prior only some of the rest
_ARRAY_FIELDS = (
    "coeffs", "alpha", "sigma2", "alpha_scales2", "lambda0", "y_hat",
    "h", "mu_h", "phi", "smooth_var", "local_var",
)
_READABLE_FORMATS = ("sofreg-draws-v1", ARCHIVE_FORMAT)  # v1: draws only


@dataclass
class ArchivedCurves:
    """The curves a fit was made from, as an archive keeps them.

    ``coefs`` are their spline coefficients (one group per basis layout
    and domain, as ``fit_curves`` gave them), ``grid`` the union of their
    sampling grids and ``sha256`` the digest of the curve file they were
    read from.
    """

    coefs: CoefSet
    grid: np.ndarray
    sha256: str


def _basis_meta(basis: BSplineBasis) -> dict:
    return {
        "lo": float(basis.domain.lo),
        "hi": float(basis.domain.hi),
        "size": int(basis.size),
        "degree": int(basis.degree),
    }


def _basis_from_meta(meta: dict) -> BSplineBasis:
    return BSplineBasis(Domain(meta["lo"], meta["hi"]), meta["size"], meta["degree"])


def _curves_section(curves: ArchivedCurves, directory: Path) -> dict:
    """Write the curves' files; returns their manifest section.

    The ids go to JSON, not into the YAML manifest: PyYAML takes about a
    second to load 20 000 of them.  Each group's coefficients are stored
    as the C-ordered (K, members) array whose transpose the group holds,
    so the reloaded group has the fit's memory layout and every product
    with it sums in the fit's order.
    """
    (directory / "subject_ids.json").write_text(json.dumps(curves.coefs.ids))
    np.ascontiguousarray(curves.grid, dtype="<f8").tofile(directory / "grid.bin")
    groups = []
    for k, g in enumerate(curves.coefs.groups):
        rows, coeffs = f"curves_{k}_rows.bin", f"curves_{k}_coeffs.bin"
        np.ascontiguousarray(g.rows, dtype="<i8").tofile(directory / rows)
        np.ascontiguousarray(g.coeffs.T, dtype="<f8").tofile(directory / coeffs)
        groups.append(
            {
                "rows": rows,
                "coeffs": coeffs,
                "basis": _basis_meta(g.basis),
                "domain": [float(g.domain.lo), float(g.domain.hi)],
            }
        )
    return {"sha256": curves.sha256, "ids": "subject_ids.json", "grid": "grid.bin", "groups": groups}


def save_draws(draws: PosteriorDraws, directory, curves: ArchivedCurves | None = None) -> str:
    """Write the draw archive: a manifest plus raw little-endian arrays.

    With ``curves``, the archive also keeps the fitted curves that
    ``load_curves`` reads back.  Returns the configuration hash recorded
    in the manifest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {name: getattr(draws, name) for name in _ARRAY_FIELDS}
    arrays = {name: value for name, value in arrays.items() if value is not None}

    config_dict = asdict(draws.config)
    config_hash = stable_hash(
        {"config": config_dict, "basis": _basis_meta(draws.basis), "n_draws": draws.n_draws}
    )
    manifest = {
        "format": ARCHIVE_FORMAT,
        "prior": draws.config.prior,
        "seed": draws.seed,
        "config": config_dict,
        "config_hash": config_hash,
        "basis": _basis_meta(draws.basis),
        "alpha_names": list(draws.alpha_names),
        "penalized": [bool(v) for v in draws.penalized],
        "arrays": {},
    }
    for name, arr in arrays.items():
        fname = name + ".bin"
        arr = np.ascontiguousarray(arr, dtype="<f8")
        arr.tofile(directory / fname)
        manifest["arrays"][name] = {"file": fname, "shape": list(arr.shape)}
    if curves is not None:
        manifest["curves"] = _curves_section(curves, directory)
    with open(directory / "manifest.yaml", "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    return config_hash


def _read_manifest(directory: Path) -> dict:
    with open(directory / "manifest.yaml") as fh:
        manifest = yaml.safe_load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") not in _READABLE_FORMATS:
        raise ValueError(f"{directory}: not a draw archive")
    return manifest


# what archives written before ``refresh`` joined ``FitConfig`` nest under
# ``dhs``, besides ``refresh``: the process's hyperparameters, at the only
# values sofreg fits
_NESTED_DHS = {"a": 0.5, "b": 0.5, "phi_a": PHI_PRIOR[0], "phi_b": PHI_PRIOR[1]}


def _archived_config(directory: Path, settings: dict) -> FitConfig:
    """The ``FitConfig`` a manifest records; an error naming the archive
    unless its keys are exactly ``FitConfig``'s fields."""
    settings = dict(settings)
    nested = dict(settings.pop("dhs", None) or {})
    if "refresh" in nested:
        settings["refresh"] = nested.pop("refresh")
    other = [f"dhs.{k}={v!r}" for k, v in nested.items() if (k, v) not in _NESTED_DHS.items()]
    if other:
        raise ValueError(
            f"{directory}: archive was fit with DHS settings sofreg no longer has: {', '.join(other)}"
        )
    names = {f.name for f in fields(FitConfig)}
    problems = [
        f"{what} keys {', '.join(sorted(keys))}"
        for what, keys in (("unknown", settings.keys() - names), ("missing", names - settings.keys()))
        if keys
    ]
    if problems:
        raise ValueError(f"{directory}: archive config has {'; '.join(problems)}")
    return FitConfig(**settings)


def load_draws(directory) -> PosteriorDraws:
    """Rebuild a ``PosteriorDraws`` from an archive directory (either format)."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest.get("blocks"):
        raise ValueError(
            f"{directory}: archive holds draws of adaptive covariate blocks, "
            "a model sofreg no longer fits"
        )
    listed = manifest.get("arrays") or {}
    missing = [name for name in _ARRAY_FIELDS[:6] if name not in listed]
    if missing:
        raise ValueError(f"{directory}: archive manifest lacks required arrays: {', '.join(missing)}")
    arrays = {}
    for name, meta in listed.items():
        data = np.fromfile(directory / meta["file"], dtype="<f8")
        arrays[name] = data.reshape(meta["shape"])
    return PosteriorDraws(
        basis=_basis_from_meta(manifest["basis"]),
        alpha_names=list(manifest["alpha_names"]),
        penalized=np.array(manifest["penalized"], dtype=bool),
        config=_archived_config(directory, manifest["config"]),
        seed=manifest.get("seed"),
        **{name: arrays[name] for name in _ARRAY_FIELDS[:6]},
        **{name: arrays.get(name) for name in _ARRAY_FIELDS[6:]},
    )


def load_curves(directory) -> ArchivedCurves:
    """The fitted curves an archive keeps; an error if it keeps none."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    section = manifest.get("curves")
    if section is None:
        raise ValueError(
            f"{directory}: this {manifest['format']} archive keeps no fitted curves; "
            f"re-run `sofreg fit` to write a {ARCHIVE_FORMAT} archive"
        )
    ids = json.loads((directory / section["ids"]).read_text())
    groups = []
    for gm in section["groups"]:
        rows = np.fromfile(directory / gm["rows"], dtype="<i8")
        basis = _basis_from_meta(gm["basis"])
        coeffs = np.fromfile(directory / gm["coeffs"], dtype="<f8").reshape(basis.size, rows.size)
        groups.append(CoefGroup(rows, coeffs.T, basis, Domain(*gm["domain"])))
    grid = np.fromfile(directory / section["grid"], dtype="<f8")
    return ArchivedCurves(CoefSet(ids, groups), grid, section["sha256"])
