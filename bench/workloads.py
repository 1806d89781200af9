"""The three workloads: mixing, windows and cohort.

Each workload makes its inputs from the seed, sets up at least
``SETUP_REPEATS`` times and for at least ``SETUP_MIN_S`` seconds
(``setup_s`` is the median), then runs whole rounds of the same
operations until starting another round would overrun ``seconds``, and
checks every round's outputs.  Every workload reports every metric: a
layer a workload does not run reads 0 in its traced run.  With ``trace``
set, a round runs its work both untraced and traced, side by side:
mixing traces every other chain, windows and cohort do each dataset or
command twice.  The per-layer metrics come from the traced half and the
overhead compares the halves.
"""

from __future__ import annotations

import contextlib
import csv
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import mcmc
import tracing
from sofreg import cli, decision, funcdata, gibbs, simulate
from sofreg.basis import BSplineBasis, Domain
from sofreg.decision import Partition
from sofreg.gibbs import FitConfig
from sofreg.simulate import LocallyConstantTruth, SimulationDesign, SmoothTruth

SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 50
BASIS_SIZE = 53
BREAKPOINTS = (0.35, 0.65)
BETA_GRID = np.linspace(0.0, 1.0, 21)  # where ESS of beta(t) is taken
FINE_GRID = np.linspace(0.0, 1.0, 101)

MIX_N, MIX_SNR, MIX_DATA_SEED = 500, 5.0, 1  # one dataset; --seed drives the chains
MIX_BURNIN, MIX_DRAWS, MIX_CHAINS = 100, 500, 3  # chains per round, one after another
MIX_MAX_L2, MIX_MIN_COVERAGE = 0.2, 0.9  # seen: 0.045 and 1.0

WIN_N, WIN_SNR, WIN_LEVELS = 5000, 0.5, (-0.5, 0.25, -1.0)
WIN_BURNIN, WIN_DRAWS = 500, 1500
REFERENCE_SEED = 1  # the path-exactness dataset; does not depend on --seed

COH_N, COH_SNR, COH_LEVELS = 20000, 0.5, (2.0, 0.0, -2.0)
COH_BURNIN, COH_DRAWS, COH_CELLS = 500, 1000, 20
COH_MAX_L2 = 0.5  # seen: 0.2

PER_SWEEP = [
    "dhs.dhs_step",
    "dhs.sample_mixture_indicators",
    "dhs.sample_log_vols_and_level",
    "dhs.sample_log_vols_sitewise",
    "dhs.sample_ar_level_collapsed",
    "dhs.update_innovation_auxiliaries",
    "dhs.sample_ar_persistence",
]
PER_CALL = [
    "simulate.replicate_data",
    "funcdata.read_curves",
    "funcdata.read_scalars",
    "funcdata.fit_curves",
    "funcdata.build_design",
    "gibbs.save_draws",
    "gibbs.load_draws",
    "gibbs.summarize_coefficient",
    "decision.aggregate",
    "decision.fused_lasso_path",
    "decision.evaluate_path",
    "decision.acceptable_family",
    "decision.extract_windows",
    "decision.analyze",
    "cli.simulate",
    "cli.fit",
    "cli.summarize",
    "cli.evaluate",
]


@dataclass
class Run:
    """Operation counts, check problems and metrics of one benchmark run."""

    seed: int
    seconds: float
    trace: bool
    out_dir: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)

    def operation(self, name: str, fn, *args, **kwargs):
        """Run one operation; an exception counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - counted and reported, the run goes on
            self.failed += 1
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def outcome(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, where: str, problems: list[str]) -> None:
        for p in problems:
            self.problems.append(f"{where}: {p}")
            print(f"check failed: {where}: {p}", file=sys.stderr)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _rounds(seconds: float, body) -> int:
    """Whole rounds until another round of the last one's length would overrun."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        body(done)
        done += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return done


def _timed_setup(make):
    """Run ``make`` at least SETUP_REPEATS times and SETUP_MIN_S seconds; median seconds, last result."""
    times, out = [], None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        out = make()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per(total: float, count: float) -> float:
    """``total / count``, or 0 when nothing was counted: a layer that did not run took no time."""
    return total / count if count else 0.0


def _layer_metrics(run: Run, spans) -> None:
    summary = tracing.summarize(spans)
    none = {"calls": 0, "total": 0.0, "self": 0.0}
    for name in PER_CALL:
        rec = summary.get(name, none)
        run.metric(f"{name}.s", _per(rec["total"], rec["calls"]), "s")
    sweep = summary.get("gibbs.sweep", none)
    gauss = summary.get("gibbs.sample_gaussian_by_precision", none)
    run.metric("gibbs.sweep.ms", 1e3 * _per(sweep["total"], sweep["calls"]), "ms")
    run.metric("gibbs.sweep_rest.ms", 1e3 * _per(sweep["self"], sweep["calls"]), "ms")
    run.metric("gibbs.sample_gaussian_by_precision.ms", 1e3 * _per(gauss["total"], sweep["calls"]), "ms")
    run.metric("gibbs.sample_gaussian_by_precision.calls", _per(gauss["calls"], sweep["calls"]), "count")
    for name in PER_SWEEP:
        run.metric(f"{name}.ms", 1e3 * _per(summary.get(name, none)["total"], sweep["calls"]), "ms")


def _sampler_metrics(run: Run, posteriors: list[list], seconds: list[float], sweeps: int) -> None:
    """ESS per posterior, effective draws per second of fitting, and sweeps per second.

    ``posteriors`` holds one list of chains per posterior (chains of one
    posterior are pooled), ``seconds`` the summed fit wall time of each and
    ``sweeps`` the burn-in plus kept sweeps of every chain.  ``gibbs.ess.*``
    is the median ESS over posteriors, ``gibbs.rhat.beta`` the median of the
    largest split-R-hat of beta(t) on the grid; ``ess_per_s_*`` sums ESS over
    posteriors and divides by the summed time, which averages out the
    estimator's noise.  A parameter the prior does not sample (phi and mu_h
    of ``pspline``) reads 0.
    """
    ess: dict[str, list[float]] = {name: [] for name in ("beta", "phi", "mu_h", "sigma2")}
    rhat_beta: list[float] = []
    for chains in posteriors:
        beta = np.stack([checks.curve_values(d.coeffs, BASIS_SIZE, BETA_GRID) for d in chains])
        ess["beta"].append(min(mcmc.ess(beta[:, :, j]) for j in range(BETA_GRID.size)))
        rhat_beta.append(max(mcmc.split_rhat(beta[:, :, j]) for j in range(BETA_GRID.size)))
        ess["sigma2"].append(mcmc.ess(np.stack([d.sigma2 for d in chains])))
        for name in ("phi", "mu_h"):
            series = [getattr(d, name) for d in chains]
            ess[name].append(0.0 if series[0] is None else mcmc.ess(np.stack(series)))
    for name, values in ess.items():
        run.metric(f"gibbs.ess.{name}", statistics.median(values), "count")
        run.metric(f"ess_per_s_{name}", sum(values) / sum(seconds), "1/s")
    run.metric("gibbs.rhat.beta", statistics.median(rhat_beta), "ratio")
    chains = sum(len(c) for c in posteriors)
    run.metric("sweeps_per_s", chains * sweeps / sum(seconds), "1/s")


def _overhead(run: Run, plain_s: float, traced_s: float) -> None:
    run.metric("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%")


def _traced(run: Run, tracer: tracing.Tracer):
    return tracer.installed() if run.trace else contextlib.nullcontext()


def _finish_trace(run: Run, workload: str, tracer: tracing.Tracer, archive_mb: float = 0.0) -> None:
    _layer_metrics(run, tracer.spans)
    run.metric("gibbs.archive.mb", archive_mb, "MB")
    tracing.dump(run.out_dir / f"trace-{workload}-seed{run.seed}.json", tracer.spans)


# --- mixing ------------------------------------------------------------------------


def mixing_inputs():
    design = SimulationDesign(n=MIX_N, snr=MIX_SNR, truth=SmoothTruth(), seed=MIX_DATA_SEED)
    curves, y, sigma = simulate.replicate_data(design, 0)
    basis = BSplineBasis(design.domain, BASIS_SIZE, 3)
    return funcdata.build_design(funcdata.fit_curves(curves, basis), basis, y), sigma


def run_mixing(run: Run) -> None:
    tracer = tracing.Tracer()
    with _traced(run, tracer):
        setup_s, (design, sigma) = _timed_setup(mixing_inputs)
    run.metric("setup_s", setup_s, "s")
    gibbs.fit(design, FitConfig(burnin=0, draws=3), seed=0)  # first-call costs, untimed
    config = FitConfig(burnin=MIX_BURNIN, draws=MIX_DRAWS)
    chains: list[dict] = []
    round_s: list[float] = []

    def one_round(r: int) -> None:
        round_s.append(0.0)
        for c in range(MIX_CHAINS):
            chain_seed = int(np.random.SeedSequence([run.seed, r, c]).generate_state(1)[0])
            traced = run.trace and c % 2 == 1  # a traced run traces every other chain
            t0 = time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                draws = run.operation("fit", gibbs.fit, design, config, seed=chain_seed)
            seconds = time.perf_counter() - t0
            round_s[-1] += seconds
            if draws is not None:
                chains.append({"seconds": seconds, "traced": traced, "draws": draws})

    _rounds(run.seconds, one_round)
    if run.failed:
        run.check("mixing", ["a fit call failed"])
        return
    if run.trace:
        _overhead(run, *(
            statistics.mean(c["seconds"] for c in chains if c["traced"] == traced)
            for traced in (False, True)
        ))
        _finish_trace(run, "mixing", tracer)
    run.metric("task_s", statistics.median(round_s), "s")
    _sampler_metrics(
        run, [[c["draws"] for c in chains]], [sum(c["seconds"] for c in chains)], MIX_BURNIN + MIX_DRAWS
    )
    run.metric("peak_rss_mb", _self_rss_mb(), "MB")

    # Split-R-hat of beta(t) is a per-layer metric, not a check: where the
    # truth is flat some chain seeds leave beta(0.85) with an ESS near 10
    # in 1500 draws, and its split-R-hat then passes 1.1 (1.115 on seed 9).
    series = {name: np.stack([getattr(c["draws"], name) for c in chains]) for name in ("phi", "mu_h", "sigma2")}
    for name, values in series.items():
        run.check("mixing", checks.check_rhat(name, values))
    fine = np.concatenate([checks.curve_values(c["draws"].coeffs, BASIS_SIZE, FINE_GRID) for c in chains])
    run.check(
        "mixing",
        checks.check_posterior_curve(
            FINE_GRID, fine, checks.smooth_truth(FINE_GRID), MIX_MAX_L2, MIX_MIN_COVERAGE
        ),
    )
    run.check("mixing", checks.check_noise_variance(series["sigma2"], sigma**2))


# --- windows ------------------------------------------------------------------------


def windows_inputs(seed: int) -> list[tuple[str, int, np.ndarray, list, np.ndarray]]:
    """The fixed reference dataset and one dataset drawn from ``seed``."""
    out = []
    truth = LocallyConstantTruth(breakpoints=BREAKPOINTS, levels=WIN_LEVELS)
    for label, data_seed in (("reference", REFERENCE_SEED), ("seeded", 1000 + seed)):
        design = SimulationDesign(n=WIN_N, snr=WIN_SNR, truth=truth, seed=data_seed)
        curves, y, _ = simulate.replicate_data(design, 0)
        out.append((label, data_seed, design.grid, curves, y))
    return out


def _windows_dataset(run: Run, data, timings: dict) -> float:
    """One dataset from curves to windows, then its checks; seconds in the program's calls."""
    label, data_seed, grid, curves, y = data
    basis = BSplineBasis(Domain(float(grid[0]), float(grid[-1])), BASIS_SIZE, 3)

    def build():
        coef_curves = funcdata.fit_curves(curves, basis)
        return coef_curves, funcdata.build_design(coef_curves, basis, y)

    t0 = time.perf_counter()
    built = run.operation("design", build)
    program_s = time.perf_counter() - t0
    if built is None:
        run.check(label, ["no design"])
        return program_s
    coef_curves, design = built
    config = FitConfig(prior="pspline", burnin=WIN_BURNIN, draws=WIN_DRAWS)
    t0 = time.perf_counter()
    draws = run.operation("fit", gibbs.fit, design, config, seed=data_seed)
    fit_s = time.perf_counter() - t0
    program_s += fit_s
    if draws is None:
        run.check(label, ["no posterior draws"])
        return program_s
    timings["fit"].append(fit_s)
    timings["draws"].append(draws)
    partition = Partition.from_grid(grid)
    t0 = time.perf_counter()
    summary = run.operation(
        "analyze", decision.analyze, draws, design, coef_curves, partition, y,
        np.random.default_rng(data_seed),
    )
    program_s += time.perf_counter() - t0
    if summary is None:
        run.check(label, ["no decision summary"])
        return program_s

    windows = [(w.start, w.end, w.label) for w in summary.windows]
    run.check(label, checks.check_window_signs(windows, FINE_GRID, BREAKPOINTS, WIN_LEVELS))
    diag, fam = summary.diagnostics, summary.family
    run.check(
        label,
        checks.check_family(
            diag.empirical, diag.percent_increase, fam.members, fam.idx_lambda_min,
            fam.idx_simplest, [checks.count_level_changes(d) for d in diag.deltas], fam.epsilon,
        ),
    )
    if label != "reference":
        return program_s
    # path exactness: one operation per stored knot, on the fixed reference data
    agg = checks.cell_integrals(np.stack([c.coeffs for c in coef_curves]), partition.breaks)
    targets = draws.y_hat - design.z @ draws.alpha.mean(axis=0)
    path = summary.path
    bad = 0
    for lam, delta in zip(path.lambdas, path.deltas):
        ok = checks.stationarity_violation(delta, targets, agg, float(lam)) <= checks.KKT_TOL
        run.outcome(ok)
        bad += not ok
    if bad:
        print(
            f"path exactness: {bad} of {path.lambdas.size} knots violate stationarity "
            f"by more than {checks.KKT_TOL:g} ({agg.shape[1]} cells)",
            file=sys.stderr,
        )
    return program_s


def run_windows(run: Run) -> None:
    tracer = tracing.Tracer()
    with _traced(run, tracer):
        setup_s, datasets = _timed_setup(lambda: windows_inputs(run.seed))
    run.metric("setup_s", setup_s, "s")
    timings = {"fit": [], "draws": [], "task": []}
    seconds = {False: 0.0, True: 0.0}  # by traced or not

    def one_round(_r: int) -> None:
        # a traced run does each dataset untraced, then traced, for the overhead
        timings["task"].append(0.0)
        for data in datasets:
            for traced in (False, True) if run.trace else (False,):
                t0 = time.perf_counter()
                with tracer.installed() if traced else contextlib.nullcontext():
                    program_s = _windows_dataset(run, data, timings)
                seconds[traced] += time.perf_counter() - t0
                timings["task"][-1] += 0.0 if traced else program_s

    _rounds(run.seconds, one_round)
    if not timings["draws"]:
        return
    if run.trace:
        _overhead(run, seconds[False], seconds[True])
        _finish_trace(run, "windows", tracer)
    run.metric("task_s", statistics.median(timings["task"]), "s")
    _sampler_metrics(run, [[d] for d in timings["draws"]], timings["fit"], WIN_BURNIN + WIN_DRAWS)
    run.metric("peak_rss_mb", _self_rss_mb(), "MB")


# --- cohort ---------------------------------------------------------------------------


def _write_configs(scratch: Path) -> dict[str, Path]:
    levels = ", ".join(repr(v) for v in COH_LEVELS)
    texts = {
        "simulate": f"n: {COH_N}\nsnr: {COH_SNR}\ntruth: {{kind: locally_constant, levels: [{levels}]}}\n",
        "fit": f"sampler: {{prior: pspline, burnin: {COH_BURNIN}, draws: {COH_DRAWS}}}\n",
        "summarize": f"partition_cells: {COH_CELLS}\n",
        "evaluate": f"truth: {{kind: locally_constant, levels: [{levels}]}}\n",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = scratch / f"{name}.yaml"
        paths[name].write_text(text)
    return paths


def _command_args(command: str, cfg: dict[str, Path], data: Path, out: Path, seed: int) -> list[str]:
    args = [command, "--config", str(cfg[command]), "--seed", str(seed), "--out-dir", str(out)]
    inputs = ["--curves", str(data / "curves_rep000.csv"), "--scalars", str(data / "scalars_rep000.csv")]
    if command == "fit":
        args += inputs
    elif command == "summarize":
        args += inputs + ["--archive", str(out / "archive")]
    elif command == "evaluate":
        args += ["--beta-summary", str(out / "beta_summary.csv"), "--windows", str(out / "windows.csv")]
    return args


def _subprocess(args: list[str], src: Path, log: Path, timeout: float = 170.0) -> tuple[int, float, float]:
    """Run ``python -m sofreg.cli args``; exit code, wall seconds, peak RSS (MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sofreg.cli", *args], stdout=out, stderr=out, env=env)
        deadline = t0 + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#")) if row]
    return rows[0], rows[1:]


def _check_cohort_outputs(run: Run, out: Path) -> gibbs.PosteriorDraws:
    header, rows = _read_table(out / "beta_summary.csv")
    cols = {name: np.array([float(r[header.index(name)]) for r in rows]) for name in header}
    grid = cols["t"]
    truth = checks.step_truth(grid, BREAKPOINTS, COH_LEVELS)
    run.check(
        "beta_summary.csv",
        checks.check_beta_summary(
            grid, cols["mean"], cols["lower95"], cols["upper95"], truth, COH_MAX_L2,
            cols["lower50"], cols["upper50"],
        ),
    )
    _, win_rows = _read_table(out / "windows.csv")
    windows = [(float(a), float(b), lab) for a, b, _level, lab in win_rows]
    run.check("windows.csv", checks.check_window_signs(windows, FINE_GRID, BREAKPOINTS, COH_LEVELS))
    _, metric_rows = _read_table(out / "metrics.csv")
    reported = {k: float(v) for k, v in metric_rows}
    mine = checks.l2_distance(grid, cols["mean"], truth)
    if not abs(reported["l2_error"] - mine) <= 1e-9 * max(1.0, mine):
        run.check("metrics.csv", [f"l2_error {reported['l2_error']} differs from {mine}"])
    draws = gibbs.load_draws(out / "archive")
    if draws.n_draws != COH_DRAWS or not np.all(np.isfinite(draws.coeffs)):
        run.check("archive", [f"reloads with {draws.n_draws} draws, expected {COH_DRAWS}"])
    return draws


def run_cohort(run: Run, src: Path) -> None:
    scratch = run.out_dir / f"cohort-seed{run.seed}-pid{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        _cohort(run, src, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _cohort(run: Run, src: Path, scratch: Path) -> None:
    cfg = _write_configs(scratch)
    data = scratch / "data"
    log = scratch / "cli.log"
    tracer = tracing.Tracer()

    def in_process(command: str, out: Path, traced: bool) -> tuple[int, float]:
        """``sofreg.cli.main`` in this process, so that the tracer's wrappers apply."""
        t0 = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span(f"cli.{command}"))
            stack.enter_context(contextlib.redirect_stdout(sys.stderr))
            code = cli.main(_command_args(command, cfg, data, out, run.seed))
        return code, time.perf_counter() - t0

    def setup():
        if run.trace:
            code, _ = in_process("simulate", data, traced=True)
        else:
            code, _, _ = _subprocess(_command_args("simulate", cfg, data, data, run.seed), src, log)
        if code != 0:
            raise RuntimeError(f"sofreg simulate exited with {code}")

    setup_s, _ = _timed_setup(setup)
    run.metric("setup_s", setup_s, "s")
    samples = {"fit": [], "draws": [], "task": [], "rss": [], "archive_mb": []}
    seconds = {False: 0.0, True: 0.0}  # in-process command time by traced or not
    # None: a subprocess, as users run it; a traced run runs each command in
    # process untraced, then traced, for the overhead
    variants = (False, True) if run.trace else (None,)

    def one_round(r: int) -> None:
        outs = {v: scratch / f"round{r}-{v}" for v in variants}
        took: dict = {v: {} for v in variants}  # command wall seconds by variant
        for command in ("fit", "summarize", "evaluate"):
            for v in variants:
                if v is None:
                    code, wall, rss = _subprocess(_command_args(command, cfg, data, outs[v], run.seed), src, log)
                    samples["rss"].append(rss)
                else:
                    code, wall = in_process(command, outs[v], traced=v)
                    seconds[v] += wall
                took[v][command] = wall
                run.outcome(code == 0)
                if code != 0:
                    tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
                    run.check(f"sofreg {command}", [f"exited with {code}; end of its log:\n{tail}"])
                    return
        for v, out in outs.items():
            samples["draws"].append(_check_cohort_outputs(run, out))
            samples["fit"].append(took[v]["fit"])
            if not v:
                samples["task"].append(sum(took[v].values()))
            archive = out / "archive"
            samples["archive_mb"].append(sum(f.stat().st_size for f in archive.iterdir()) / 2**20)
            shutil.rmtree(out, ignore_errors=True)

    _rounds(run.seconds, one_round)
    if run.failed:  # a command failed: its outputs and times are missing
        return
    if run.trace:
        _overhead(run, seconds[False], seconds[True])
        _finish_trace(run, "cohort", tracer, statistics.mean(samples["archive_mb"]))
    run.metric("task_s", statistics.median(samples["task"]), "s")
    _sampler_metrics(run, [[d] for d in samples["draws"]], samples["fit"], COH_BURNIN + COH_DRAWS)
    run.metric("peak_rss_mb", max(samples["rss"]) if samples["rss"] else _self_rss_mb(), "MB")
