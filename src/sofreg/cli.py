"""Command-line orchestration with reproducible, auditable run configs.

Five subcommands cover the pipeline: ``simulate`` writes synthetic curve
and response files, ``fit`` runs the sampler and archives draws,
``summarize`` runs the decision analysis and posterior summaries on an
archive, ``evaluate`` scores summaries against a known truth, and
``replicate`` drives a multi-method replicated study with resume support.

Every run resolves its configuration from defaults, an optional config
file, and command-line overrides (in that order), rejects unknown keys,
writes the resolved snapshot next to the outputs, and stamps each output
table with the configuration hash.  Exit codes distinguish configuration
errors, I/O failures, and numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import json
import logging
import math
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from sofreg.decision import PRED_DRAWS, Partition, analyze, kkt_residual
from sofreg.funcdata import (
    assemble_design,
    build_design,
    read_curves,
    read_scalars,
    write_curves,
    write_scalars,
)
from sofreg.gibbs import (
    GRID_POINTS,
    ArchivedCurves,
    FitConfig,
    NumericalError,
    PosteriorDraws,
    coefficient_draws_on_grid,
    effective_sample_size,
    fit,
    load_curves,
    load_draws,
    save_draws,
    stable_hash,
    summarize_coefficient,
)
from sofreg.methods import MethodSettings, build_methods
from sofreg.simulate import (
    GpSettings,
    LocallyConstantTruth,
    SimulationDesign,
    SmoothTruth,
    evaluate,
    replicate_data,
    run_replicate,
)

log = logging.getLogger(__name__)

KKT_TOL = 1e-8  # a path entry with a larger scaled stationarity residual is not exact

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    """Bad or unknown configuration; exits with the config error code."""


# --- configuration plumbing ---------------------------------------------------------

_COMMON = {"seed": 0, "out_dir": "."}


def _defaults(command: str) -> dict:
    """Each command's default config, read off the library's dataclasses.

    Values are plain Python scalars and lists so the snapshot stays
    YAML-safe and its hash stable.
    """
    design = SimulationDesign(n=100, snr=5.0)
    step = LocallyConstantTruth()
    truth = {
        "kind": design.truth.kind,
        "breakpoints": list(step.breakpoints),
        "levels": list(step.levels),
    }
    grid = design.grid
    study = {
        "n": design.n,
        "snr": design.snr,
        "replicates": design.replicates,
        "grid": {"lo": float(grid[0]), "hi": float(grid[-1]), "points": int(grid.size)},
        "gp": asdict(design.gp),
        "truth": truth,
        "signal": {"route": design.signal_route, "basis_size": design.signal_basis_size},
    }
    pipeline = asdict(MethodSettings())
    if command == "simulate":
        return {**_COMMON, **study}
    if command == "fit":
        return {
            **_COMMON,
            "curves": None,
            "scalars": None,
            "basis": {
                "curve_size": pipeline["curve_basis_size"],
                "coef_size": pipeline["coef_basis_size"],
                "degree": pipeline["degree"],
            },
            "sampler": asdict(FitConfig()),
        }
    if command == "summarize":
        return {
            **_COMMON,
            "archive": None,
            "curves": None,
            "scalars": None,
            "epsilon": pipeline["epsilon"],
            "zero_tol": pipeline["zero_tol"],
            "pred_draws": PRED_DRAWS,
            "grid_points": GRID_POINTS,
            "partition_cells": pipeline["partition_cells"],
        }
    if command == "evaluate":
        return {**_COMMON, "beta_summary": None, "windows": None, "truth": truth}
    if command == "replicate":
        return {
            **_COMMON,
            "threads": 1,
            "study": study | {"replicates": 2},
            "methods": ["dhs"],
            "pipeline": pipeline,
        }
    raise ConfigError(f"unknown command {command!r}")


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        dotted = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key: {dotted}")
        base = defaults[key]
        if isinstance(base, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} must be a section")
            out[key] = _merge(base, value, prefix=f"{dotted}.")
        elif isinstance(base, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"config key {dotted} must be true/false")
            out[key] = value
        elif isinstance(base, int) and value is not None:
            out[key] = _whole_number(value, dotted)
        elif isinstance(base, float) and value is not None:
            out[key] = _number(value, dotted)
        else:
            out[key] = value
    return out


def _whole_number(value, dotted: str) -> int:
    """An int, or a float with no fractional part; anything else is an error naming the key."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"config key {dotted} must be a whole number, not {value!r}")
    return int(value)


def _number(value, dotted: str) -> float:
    """A float of an int, float or numeric string (PyYAML reads ``1e-3`` as
    a string); anything else is an error naming the key."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError):
            return float(value)
    raise ConfigError(f"config key {dotted} must be a number, not {value!r}")


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags, with unknown-key checks."""
    user: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        loaded = yaml.safe_load(path.read_text())
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a key-value mapping")
        user = loaded
    flags = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    resolved = _merge(_defaults(command), user) | flags
    if _whole_number(resolved["seed"], "seed") < 0:
        raise ConfigError(f"config key seed must be a non-negative whole number, not {resolved['seed']}")
    return resolved


def _snapshot(resolved: dict, command: str) -> str:
    """Write the resolved config next to the outputs; returns its hash."""
    out_dir = Path(resolved["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_hash = stable_hash({"command": command, "config": resolved})
    payload = dict(resolved)
    payload["config_hash"] = cfg_hash
    (out_dir / f"{command}_config.yaml").write_text(
        yaml.safe_dump(payload, sort_keys=True)
    )
    return cfg_hash


def _write_table(path, header: list[str], rows, cfg_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a hash-stamped table, skipping comment lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty table")
    return header, [row for row in reader if row]


# --- shared assembly helpers ----------------------------------------------------------


def _truth_from_cfg(cfg: dict):
    kind = cfg["kind"]
    if kind == "smooth":
        return SmoothTruth()
    if kind == "locally_constant":
        return LocallyConstantTruth(
            breakpoints=tuple(cfg["breakpoints"]), levels=tuple(cfg["levels"])
        )
    raise ConfigError(f"unknown truth kind {kind!r}")


def _design_from_cfg(resolved: dict, study_key: str | None = None) -> SimulationDesign:
    cfg = resolved if study_key is None else resolved[study_key]
    grid = np.linspace(cfg["grid"]["lo"], cfg["grid"]["hi"], cfg["grid"]["points"])
    return SimulationDesign(
        n=cfg["n"],
        snr=cfg["snr"],
        grid=grid,
        gp=GpSettings(**cfg["gp"]),
        truth=_truth_from_cfg(cfg["truth"]),
        replicates=cfg["replicates"],
        seed=resolved["seed"],
        signal_route=cfg["signal"]["route"],
        signal_basis_size=cfg["signal"]["basis_size"],
    )


def _require_file(resolved: dict, key: str) -> Path:
    value = resolved.get(key)
    if value is None:
        raise ConfigError(f"missing required input: {key}")
    path = Path(value)
    if not path.exists():
        raise FileNotFoundError(f"{key} file not found: {path}")
    return path


def _load_scalars(resolved: dict, ids: list[str], source: str):
    """Response and covariates from the scalar file, whose subjects must be ``ids``."""
    scalar_ids, y, columns = read_scalars(_require_file(resolved, "scalars"))
    if scalar_ids != ids:
        raise ConfigError(f"scalar file subjects do not match {source}")
    return y, columns or None


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def _stage(seconds: dict, name: str):
    """Record the wall seconds of one stage of a command under ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds[name] = time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sampler_report(draws: PosteriorDraws, sample_s: float) -> dict:
    """Sweeps, their rate, and the kept draws' effective sample sizes
    (``beta_min`` the least over the summary grid, ``alpha_min`` over the
    scalar columns; ``phi``, ``mu_h`` under ``dhs``)."""
    grid = np.linspace(draws.basis.domain.lo, draws.basis.domain.hi, GRID_POINTS)
    series = {"sigma2": draws.sigma2, "phi": draws.phi, "mu_h": draws.mu_h,
              "beta_min": coefficient_draws_on_grid(draws, grid), "alpha_min": draws.alpha}
    ess = {k: np.min(effective_sample_size(v)) for k, v in series.items() if v is not None}
    sweeps = draws.config.burnin + draws.config.draws
    return {"sweeps": sweeps, "sweeps_per_s": sweeps / sample_s,
            "ess": {k: float(v) if np.isfinite(v) else None for k, v in ess.items()}}


# --- commands --------------------------------------------------------------------------


def cmd_simulate(resolved: dict) -> int:
    design = _design_from_cfg(resolved)
    cfg_hash = _snapshot(resolved, "simulate")
    out_dir = Path(resolved["out_dir"])
    meta_rows = []
    for rep in range(design.replicates):
        curves, y, sigma = replicate_data(design, rep)
        write_curves(out_dir / f"curves_rep{rep:03d}.csv", curves)
        write_scalars(
            out_dir / f"scalars_rep{rep:03d}.csv", curves.ids, y
        )
        meta_rows.append([rep, repr(sigma), design.n, design.grid.size])
    _write_table(
        out_dir / "simulate_meta.csv",
        ["replicate", "sigma", "n", "grid_points"],
        meta_rows,
        cfg_hash,
    )
    return EXIT_OK


def cmd_fit(resolved: dict) -> int:
    config = FitConfig(**resolved["sampler"])
    curves_path = _require_file(resolved, "curves")
    if resolved.get("scalars") is None:
        raise ConfigError("fit needs a scalar file with the response column")
    seconds: dict[str, float] = {}
    with _stage(seconds, "read"):
        curves = read_curves(curves_path)
        y, covariates = _load_scalars(resolved, curves.ids, "the curve file")
        curves_sha256 = _file_sha256(curves_path)
    cfg_hash = _snapshot(resolved, "fit")
    out_dir = Path(resolved["out_dir"])
    basis_cfg = resolved["basis"]
    with _stage(seconds, "project"):
        coefs, design = assemble_design(
            curves, y, basis_cfg["curve_size"], basis_cfg["coef_size"], basis_cfg["degree"],
            scalars=covariates,
        )
    grid = np.unique(np.concatenate([g.t for g in curves.groups]))
    with _stage(seconds, "sample"):
        draws = fit(design, config, seed=resolved["seed"])
    with _stage(seconds, "save"):
        archive_hash = save_draws(
            draws, out_dir / "archive", ArchivedCurves(coefs, grid, curves_sha256)
        )
    report = {
        "config_hash": cfg_hash,
        "curves_sha256": curves_sha256,
        "subjects": len(curves),
        "grids": len(curves.groups),
        "sampler": _sampler_report(draws, seconds["sample"]),
        "seconds": seconds,
        "peak_rss_mb": _peak_rss_mb(),
    }
    (out_dir / "fit_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"archive written (config {cfg_hash}, draws {archive_hash})")
    return EXIT_OK


# summarize's numeric keys: (least, most, whether null is allowed)
_SUMMARIZE_BOUNDS = {
    "partition_cells": (2, math.inf, True),  # null: one cell per grid interval
    "pred_draws": (1, math.inf, True),  # null: every draw
    "grid_points": (2, math.inf, False),
    "epsilon": (0, 1, False),
    "zero_tol": (0, math.inf, False),
}


def cmd_summarize(resolved: dict) -> int:
    """Decision analysis on an archive, from the curve coefficients the fit stored.

    The curve file is not read again: its SHA-256 must match the one the
    archive records, and the design is rebuilt from the archived
    coefficients on the fit's own bases.
    """
    archive = _require_file(resolved, "archive")
    curves_path = _require_file(resolved, "curves")
    if resolved.get("scalars") is None:
        raise ConfigError("summarize needs the scalar file used for the fit")
    cells = resolved["partition_cells"]
    if cells is not None:
        cells = _whole_number(cells, "partition_cells")
    for key, (least, most, nullable) in _SUMMARIZE_BOUNDS.items():
        value = resolved[key]
        if value is None and nullable:
            continue
        if value is None or not least <= value <= most:
            span = f"at least {least}" if most == math.inf else f"in [{least}, {most}]"
            raise ConfigError(f"config key {key} must be {span}, not {value}")
    pred_draws = resolved["pred_draws"]
    seconds: dict[str, float] = {}
    with _stage(seconds, "load"):
        draws = load_draws(archive)
        fitted = load_curves(archive)
    with _stage(seconds, "verify"):
        digest = _file_sha256(curves_path)
        if digest != fitted.sha256:
            raise ConfigError(
                f"curve file {curves_path} has SHA-256 {digest}, but the archive was fit "
                f"to a curve file with SHA-256 {fitted.sha256}"
            )
        y, covariates = _load_scalars(resolved, fitted.coefs.ids, "the archived fit's subjects")
    cfg_hash = _snapshot(resolved, "summarize")
    out_dir = Path(resolved["out_dir"])
    with _stage(seconds, "design"):
        design = build_design(fitted.coefs, draws.basis, y, scalars=covariates)
    if design.z_names != draws.alpha_names:
        raise ConfigError("scalar columns do not match the archived fit")

    grid = np.linspace(
        draws.basis.domain.lo, draws.basis.domain.hi, resolved["grid_points"]
    )
    with _stage(seconds, "summarize_coefficient"):
        beta = summarize_coefficient(draws, grid=grid)
    _write_table(
        out_dir / "beta_summary.csv",
        ["t", "mean", "lower50", "upper50", "lower95", "upper95"],
        [
            [repr(float(v)) for v in row]
            for row in zip(
                beta.grid, beta.mean, beta.lower50, beta.upper50, beta.lower95, beta.upper95
            )
        ],
        cfg_hash,
    )

    if cells is None:
        partition = Partition.from_grid(fitted.grid)
    else:
        partition = Partition.regular(draws.basis.domain, cells)
    with _stage(seconds, "analyze"):
        summary = analyze(
            draws,
            design,
            fitted.coefs,
            partition,
            np.asarray(y, dtype=float),
            np.random.default_rng(resolved["seed"]),
            epsilon=resolved["epsilon"],
            zero_tol=resolved["zero_tol"],
            pred_draws=pred_draws,
        )
    diag, family = summary.diagnostics, summary.family
    kkt = np.array(
        [
            kkt_residual(delta, summary.targets, summary.aggregated, float(lam))
            for lam, delta in zip(diag.lambdas, diag.deltas)
        ]
    )
    rank = _warn_on_inexact_path(summary.aggregated, kkt)
    report = {
        "config_hash": cfg_hash,
        "cells": partition.size,
        "rank_aggregated": rank,
        "knots": summary.path.lambdas.size,
        "entries": diag.lambdas.size,
        "max_kkt_residual": float(kkt.max()),
        "family_size": int(family.members.sum()),
        "seconds": seconds,
        "peak_rss_mb": _peak_rss_mb(),
    }
    (out_dir / "path_report.json").write_text(json.dumps(report, indent=2) + "\n")
    need = max(1, int(np.ceil(family.epsilon * diag.percent_increase.shape[1])))
    ranked = np.sort(diag.percent_increase, axis=1)
    entry = np.arange(diag.lambdas.size)
    columns = {
        "lambda": diag.lambdas,
        "n_levels": diag.n_level_changes + 1,
        "empirical_mse": diag.empirical,
        "mean_pct_increase": diag.percent_increase.mean(axis=1),
        "pct_increase_lo": ranked[:, need - 1],
        "pct_increase_hi": ranked[:, -1],
        "acceptable": family.members.astype(int),
        "is_lambda_min": (entry == family.idx_lambda_min).astype(int),
        "is_simplest": (entry == family.idx_simplest).astype(int),
        "kkt_residual": kkt,
    }
    # tolist() gives Python floats, which the csv writer writes as their repr
    rows = zip(*(col.tolist() for col in columns.values()))
    _write_table(out_dir / "path_table.csv", list(columns), rows, cfg_hash)
    _write_table(
        out_dir / "windows.csv",
        ["start", "end", "level", "label"],
        [
            [repr(w.start), repr(w.end), repr(w.level), w.label]
            for w in summary.windows
        ],
        cfg_hash,
    )
    print(
        f"summaries written (config {cfg_hash}, "
        f"{diag.lambdas.size} path entries, {len(summary.windows)} windows)"
    )
    return EXIT_OK


def _warn_on_inexact_path(matrix: np.ndarray, kkt: np.ndarray) -> int:
    """Name a rank-deficient aggregated design whose path entries are not stationary.

    Returns the rank of the aggregated design.
    """
    rank = int(np.linalg.matrix_rank(matrix))  # by SVD
    worst = float(kkt.max())
    if rank < matrix.shape[1] and worst > KKT_TOL:
        log.warning(
            "aggregated design has rank %d below its %d cells and the largest "
            "path stationarity residual is %.3g (tolerance %g): the path is not exact",
            rank, matrix.shape[1], worst, KKT_TOL,
        )
    return rank


def _selection_from_windows(grid: np.ndarray, rows: list[list[str]]) -> np.ndarray:
    labels = {"+": 1, "-": -1, "0": 0}
    sel = np.zeros(grid.size, dtype=int)
    for start, end, _level, label in rows:
        mask = (grid >= float(start)) & (grid <= float(end))
        sel[mask] = labels[label]
    return sel


def cmd_evaluate(resolved: dict) -> int:
    beta_path = _require_file(resolved, "beta_summary")
    header, rows = read_table(beta_path)
    if not rows:
        raise ValueError(f"{beta_path}: summary table has a header but no rows")
    cfg_hash = _snapshot(resolved, "evaluate")
    cols = {name: i for i, name in enumerate(header)}
    data = np.array([[float(v) for v in row] for row in rows])
    grid = data[:, cols["t"]]
    truth = _truth_from_cfg(resolved["truth"])
    selection = None
    if resolved.get("windows") is not None:
        _, win_rows = read_table(_require_file(resolved, "windows"))
        selection = _selection_from_windows(grid, win_rows)
    metrics = evaluate(
        grid,
        data[:, cols["mean"]],
        data[:, cols["lower95"]],
        data[:, cols["upper95"]],
        np.asarray(truth(grid), dtype=float),
        selection,
    )
    out_rows = [[k, repr(float(v))] for k, v in metrics.as_dict().items()]
    out_rows.append(["width_finite", str(int(metrics.width_finite))])
    _write_table(Path(resolved["out_dir"]) / "metrics.csv", ["metric", "value"], out_rows, cfg_hash)
    return EXIT_OK


def _replicate_worker(design: SimulationDesign, names: list[str], pipeline: dict, rep: int):
    methods = build_methods(names, MethodSettings(**pipeline))
    return rep, run_replicate(design, methods, rep)


def cmd_replicate(resolved: dict) -> int:
    design = _design_from_cfg(resolved, "study")
    names = list(resolved["methods"])
    build_methods(names, MethodSettings(**resolved["pipeline"]))  # validate early
    cfg_hash = _snapshot(resolved, "replicate")
    out_dir = Path(resolved["out_dir"])
    part_dir = out_dir / "replicates"
    part_dir.mkdir(parents=True, exist_ok=True)

    header = ["replicate", "method", "metric", "value"]
    pending = []
    for rep in range(design.replicates):
        if not (part_dir / f"rep_{rep:04d}.csv").exists():
            pending.append(rep)

    def store(rep: int, rows: list[dict]) -> None:
        _write_table(
            part_dir / f"rep_{rep:04d}.csv",
            header,
            [[r["replicate"], r["method"], r["metric"], r["value"]] for r in rows],
            cfg_hash,
        )

    threads = int(resolved["threads"])
    if threads > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_replicate_worker, design, names, resolved["pipeline"], rep)
                for rep in pending
            ]
            for fut in futures:
                rep, rows = fut.result()
                store(rep, rows)
    else:
        for rep in pending:
            _, rows = _replicate_worker(design, names, resolved["pipeline"], rep)
            store(rep, rows)

    merged: list[list[str]] = []
    for rep in range(design.replicates):
        _, rows = read_table(part_dir / f"rep_{rep:04d}.csv")
        merged.extend(rows)
    _write_table(out_dir / "study.csv", header, merged, cfg_hash)
    print(
        f"study written (config {cfg_hash}, {design.replicates} replicates, "
        f"{len(pending)} computed now)"
    )
    return EXIT_OK


# --- entry point -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sofreg",
        description="Scalar-on-function regression: simulate, fit, summarize, evaluate, replicate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "generate synthetic curve and response files",
        "fit": "run the Gibbs sampler and archive posterior draws",
        "summarize": "decision analysis and posterior summaries for an archive",
        "evaluate": "score summary tables against a configured truth",
        "replicate": "replicated multi-method study with resume support",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
        if name in ("fit", "summarize"):
            p.add_argument("--curves", help="curve data file")
            p.add_argument("--scalars", help="response/covariate file")
        if name == "summarize":
            p.add_argument("--archive", help="draw archive directory")
            p.add_argument("--epsilon", type=float, help="acceptable-family level")
            p.add_argument("--zero-tol", dest="zero_tol", type=float, help="zero-label tolerance")
        if name == "evaluate":
            p.add_argument("--beta-summary", dest="beta_summary", help="summary table to score")
            p.add_argument("--windows", help="windows table for the selection labels")
        if name == "replicate":
            p.add_argument("--threads", type=int, help="worker processes")
            p.add_argument(
                "--methods",
                type=lambda v: [m.strip() for m in v.split(",") if m.strip()],
                help="comma-separated method list",
            )
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "summarize": cmd_summarize,
    "evaluate": cmd_evaluate,
    "replicate": cmd_replicate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = resolve_config(args.command, args)
        return _COMMANDS[args.command](resolved)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
