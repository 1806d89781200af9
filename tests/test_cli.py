"""End-to-end checks of the command-line layer.

These drive ``cli.main`` with real files in tmp directories: config
resolution and unknown-key rejection, exit-code classes, table stamping,
the full simulate -> fit -> summarize -> evaluate chain on a tiny
problem, and replicate-study resume and worker-pool behavior.
"""

import logging

import yaml

import numpy as np
import pytest

from sofreg import cli
from sofreg.cli import main, read_table
from sofreg.dhs import DhsConfig
from sofreg.gibbs import FitConfig
from sofreg.methods import MethodSettings
from sofreg.simulate import GpSettings, LocallyConstantTruth, SimulationDesign


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def run(argv):
    return main(argv)


# --- config resolution ------------------------------------------------------------


def test_unknown_config_key_rejected_with_dotted_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", {"gp": {"wiggliness": 3.0}})
    code = run(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "gp.wiggliness" in capsys.readouterr().err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", {"n_subjects": 10})
    assert run(["simulate", "--config", cfg]) == cli.EXIT_CONFIG
    assert "n_subjects" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "c.yaml",
        {"seed": 11, "n": 4, "grid": {"points": 9}, "signal": {"basis_size": 5}},
    )
    assert run(["simulate", "--config", cfg, "--seed", "99", "--out-dir", str(out)]) == 0
    snapshot = yaml.safe_load((out / "simulate_config.yaml").read_text())
    assert snapshot["seed"] == 99
    assert snapshot["n"] == 4
    assert "config_hash" in snapshot


def test_missing_config_file_is_io_error(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "absent.yaml")]) == cli.EXIT_IO


def test_bad_truth_kind_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.yaml", {"truth": {"kind": "mystery"}})
    assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "mystery" in capsys.readouterr().err


def test_bad_design_value_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {"snr": -2.0, "n": 4})
    assert run(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG


# --- simulate ----------------------------------------------------------------------


def test_simulate_writes_expected_shapes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {"n": 50, "seed": 3})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", cfg, "--out-dir", str(out_a)]) == 0
    assert run(["simulate", "--config", cfg, "--out-dir", str(out_b)]) == 0

    curve_lines = (out_a / "curves_rep000.csv").read_text().strip().split("\n")
    # header + 50 subjects x 101 grid points
    assert len(curve_lines) == 1 + 50 * 101
    scalar_lines = (out_a / "scalars_rep000.csv").read_text().strip().split("\n")
    assert len(scalar_lines) == 1 + 50

    assert (out_a / "curves_rep000.csv").read_bytes() == (out_b / "curves_rep000.csv").read_bytes()
    assert (out_a / "scalars_rep000.csv").read_bytes() == (out_b / "scalars_rep000.csv").read_bytes()

    header, meta = read_table(out_a / "simulate_meta.csv")
    assert header == ["replicate", "sigma", "n", "grid_points"]
    assert len(meta) == 1 and meta[0][2] == "50"
    first = (out_a / "simulate_meta.csv").read_text().split("\n")[0]
    assert first.startswith("# config_hash=")


def test_simulate_different_seeds_differ(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {"n": 5, "grid": {"points": 11}, "signal": {"basis_size": 5}})
    for seed, name in ((1, "a"), (2, "b")):
        assert run(["simulate", "--config", cfg, "--seed", str(seed), "--out-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "curves_rep000.csv").read_bytes() != (
        tmp_path / "b" / "curves_rep000.csv"
    ).read_bytes()


# --- fit / summarize / evaluate chain ------------------------------------------------


def test_fit_missing_input_exits_io_without_partial_archive(tmp_path):
    out = tmp_path / "out"
    code = run(["fit", "--curves", str(tmp_path / "nope.csv"), "--out-dir", str(out)])
    assert code == cli.EXIT_IO
    assert not (out / "archive").exists()


def test_fit_requires_response_file(tmp_path, capsys):
    sim = tmp_path / "sim"
    cfg = write_config(tmp_path / "c.yaml", {"n": 6, "grid": {"points": 15}, "signal": {"basis_size": 5}})
    assert run(["simulate", "--config", cfg, "--out-dir", str(sim)]) == 0
    code = run(["fit", "--curves", str(sim / "curves_rep000.csv"), "--out-dir", str(tmp_path / "f")])
    assert code == cli.EXIT_CONFIG
    assert "scalar" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One tiny simulate -> fit -> summarize chain shared by the checks below."""
    root = tmp_path_factory.mktemp("pipeline")
    sim, fit_dir, summ = root / "sim", root / "fit", root / "summ"
    sim_cfg = write_config(
        root / "sim.yaml",
        {"n": 14, "seed": 5, "grid": {"points": 31}, "signal": {"basis_size": 8}},
    )
    assert run(["simulate", "--config", sim_cfg, "--out-dir", str(sim)]) == 0

    fit_cfg = write_config(
        root / "fit.yaml",
        {
            "basis": {"curve_size": 8, "coef_size": 8},
            "sampler": {"burnin": 80, "draws": 80, "refresh": 1},
        },
    )
    assert (
        run(
            [
                "fit",
                "--config",
                fit_cfg,
                "--curves",
                str(sim / "curves_rep000.csv"),
                "--scalars",
                str(sim / "scalars_rep000.csv"),
                "--seed",
                "7",
                "--out-dir",
                str(fit_dir),
            ]
        )
        == 0
    )

    summ_cfg = write_config(
        root / "summ.yaml",
        {
            "basis": {"curve_size": 8},
            "grid_points": 41,
            "pred_draws": 60,
            "partition_cells": 10,
        },
    )
    assert (
        run(
            [
                "summarize",
                "--config",
                summ_cfg,
                "--archive",
                str(fit_dir / "archive"),
                "--curves",
                str(sim / "curves_rep000.csv"),
                "--scalars",
                str(sim / "scalars_rep000.csv"),
                "--seed",
                "7",
                "--out-dir",
                str(summ),
            ]
        )
        == 0
    )
    return root, sim, fit_dir, summ


def test_fit_writes_archive_and_snapshot(pipeline_dirs):
    _, _, fit_dir, _ = pipeline_dirs
    assert (fit_dir / "archive" / "manifest.yaml").exists()
    snapshot = yaml.safe_load((fit_dir / "fit_config.yaml").read_text())
    assert snapshot["sampler"]["burnin"] == 80
    # untouched defaults survive resolution
    assert snapshot["sampler"]["prior"] == "dhs"


def test_fit_default_sampler_lengths():
    defaults = cli._defaults("fit")["sampler"]
    assert defaults["burnin"] == 10000 and defaults["draws"] == 10000


def test_resolved_defaults_rebuild_the_library_defaults():
    # every CLI default is read off a library dataclass, so feeding the
    # resolved defaults back must reproduce that dataclass's defaults
    def resolved(command):
        return cli.resolve_config(command, cli.build_parser().parse_args([command]))

    sampler = dict(resolved("fit")["sampler"])
    refresh = sampler.pop("refresh")
    assert FitConfig(**sampler, dhs=DhsConfig(refresh=refresh)) == FitConfig()

    replicate = resolved("replicate")
    settings = MethodSettings(**replicate["pipeline"])
    assert settings == MethodSettings()
    basis = resolved("fit")["basis"]
    assert (basis["curve_size"], basis["coef_size"], basis["degree"]) == (
        settings.curve_basis_size, settings.coef_basis_size, settings.degree
    )
    summarize = resolved("summarize")
    assert (summarize["epsilon"], summarize["zero_tol"], summarize["partition_cells"]) == (
        settings.epsilon, settings.zero_tol, settings.partition_cells
    )

    step = LocallyConstantTruth()
    for cfg in (resolved("simulate"), replicate["study"]):
        design = cli._design_from_cfg({"seed": 0, "study": cfg}, "study")
        default = SimulationDesign(n=design.n, snr=design.snr)
        assert np.array_equal(design.grid, default.grid)
        assert design.gp == GpSettings()
        assert design.truth == default.truth
        assert (design.signal_route, design.signal_basis_size) == (
            default.signal_route, default.signal_basis_size
        )
    assert resolved("simulate")["replicates"] == SimulationDesign(n=1, snr=1.0).replicates
    for truth in (resolved("simulate")["truth"], resolved("evaluate")["truth"]):
        as_step = cli._truth_from_cfg(truth | {"kind": "locally_constant"})
        assert as_step == step


def test_summary_tables_are_stamped_and_shaped(pipeline_dirs):
    _, _, _, summ = pipeline_dirs
    for name in ("beta_summary.csv", "path_table.csv", "windows.csv"):
        first = (summ / name).read_text().split("\n")[0]
        assert first.startswith("# config_hash="), name

    header, rows = read_table(summ / "beta_summary.csv")
    assert header[:2] == ["t", "mean"]
    assert len(rows) == 41

    header, rows = read_table(summ / "path_table.csv")
    assert len(rows) >= 2
    acc = [int(r[header.index("acceptable")]) for r in rows]
    is_min = [int(r[header.index("is_lambda_min")]) for r in rows]
    is_simple = [int(r[header.index("is_simplest")]) for r in rows]
    assert sum(is_min) == 1 and sum(is_simple) == 1
    # the empirical optimum is always acceptable, and the pick is acceptable
    assert acc[is_min.index(1)] == 1
    assert acc[is_simple.index(1)] == 1
    lams = [float(r[0]) for r in rows]
    assert lams == sorted(lams, reverse=True)
    kkt = [float(r[header.index("kkt_residual")]) for r in rows]
    assert all(0.0 <= v < 1e-8 for v in kkt)

    header, rows = read_table(summ / "windows.csv")
    assert header == ["start", "end", "level", "label"]
    assert rows, "windows table must be nonempty when the path is nonempty"
    assert all(r[3] in {"+", "-", "0"} for r in rows)

    snapshot = yaml.safe_load((summ / "summarize_config.yaml").read_text())
    assert snapshot["epsilon"] == 0.10
    assert snapshot["zero_tol"] == 0.0


def test_summarize_rejects_mismatched_scalars(pipeline_dirs, tmp_path, capsys):
    root, sim, fit_dir, _ = pipeline_dirs
    scalar_path = tmp_path / "scalars.csv"
    lines = (sim / "scalars_rep000.csv").read_text().strip().split("\n")
    scalar_path.write_text("\n".join([lines[0] + ",extra"] + [l + ",1.0" for l in lines[1:]]) + "\n")
    code = run(
        [
            "summarize",
            "--config",
            str(root / "summ.yaml"),
            "--archive",
            str(fit_dir / "archive"),
            "--curves",
            str(sim / "curves_rep000.csv"),
            "--scalars",
            str(scalar_path),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == cli.EXIT_CONFIG
    assert "archived fit" in capsys.readouterr().err


def _summarize_cells(sim, fit_dir, tmp_path, cells):
    out = tmp_path / f"summ{cells}"
    cfg = write_config(
        tmp_path / f"summ{cells}.yaml",
        {"basis": {"curve_size": 8}, "grid_points": 41, "pred_draws": 60, "partition_cells": cells},
    )
    argv = ["summarize", "--config", cfg, "--archive", str(fit_dir / "archive")]
    argv += ["--curves", str(sim / "curves_rep000.csv"), "--scalars", str(sim / "scalars_rep000.csv")]
    assert run(argv + ["--seed", "7", "--out-dir", str(out)]) == 0
    header, rows = read_table(out / "path_table.csv")
    return max(float(r[header.index("kkt_residual")]) for r in rows)


def test_summarize_warns_on_inexact_rank_deficient_path(pipeline_dirs, tmp_path, caplog):
    # the 8-function curve basis caps rank(A) at 8: on this pspline posterior
    # 10 cells still give an exact path, 30 cells do not.  Whether a path is
    # inexact depends on the posterior draws, so the archive comes from a
    # pspline fit, which no change to the DHS random stream moves.
    _, sim, _, _ = pipeline_dirs
    fit_dir = tmp_path / "fit"
    fit_cfg = write_config(
        tmp_path / "fit.yaml",
        {
            "basis": {"curve_size": 8, "coef_size": 8},
            "sampler": {"prior": "pspline", "burnin": 80, "draws": 80},
        },
    )
    argv = ["fit", "--config", fit_cfg, "--curves", str(sim / "curves_rep000.csv")]
    argv += ["--scalars", str(sim / "scalars_rep000.csv"), "--seed", "10", "--out-dir", str(fit_dir)]
    assert run(argv) == 0
    with caplog.at_level(logging.WARNING, logger="sofreg.cli"):
        assert _summarize_cells(sim, fit_dir, tmp_path, 10) <= 1e-8
        assert not [r for r in caplog.records if r.name == "sofreg.cli"]
        worst = _summarize_cells(sim, fit_dir, tmp_path, 30)
    assert worst > 1e-8
    assert "rank 8 below its 30 cells" in caplog.text
    assert f"residual is {worst:.3g}" in caplog.text


def test_evaluate_scores_summary_against_truth(pipeline_dirs, tmp_path):
    _, _, _, summ = pipeline_dirs
    out = tmp_path / "eval"
    code = run(
        [
            "evaluate",
            "--beta-summary",
            str(summ / "beta_summary.csv"),
            "--windows",
            str(summ / "windows.csv"),
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_table(out / "metrics.csv")
    table = dict(rows)
    for key in ("l2_error", "coverage", "mean_width", "tpr", "tnr", "width_finite"):
        assert key in table
    assert float(table["l2_error"]) >= 0
    assert 0.0 <= float(table["coverage"]) <= 1.0


def test_evaluate_without_windows_uses_band_selection(pipeline_dirs, tmp_path):
    _, _, _, summ = pipeline_dirs
    out = tmp_path / "eval2"
    code = run(["evaluate", "--beta-summary", str(summ / "beta_summary.csv"), "--out-dir", str(out)])
    assert code == 0
    _, rows = read_table(out / "metrics.csv")
    assert dict(rows)["coverage"]


# --- replicate ------------------------------------------------------------------------


def replicate_config(tmp_path, methods=("pspline",), replicates=3):
    return write_config(
        tmp_path / "rep.yaml",
        {
            "study": {
                "n": 10,
                "snr": 2.0,
                "replicates": replicates,
                "grid": {"points": 21},
                "signal": {"basis_size": 6},
                "truth": {"kind": "locally_constant"},
            },
            "methods": list(methods),
            "pipeline": {
                "curve_basis_size": 6,
                "coef_basis_size": 6,
                "burnin": 60,
                "draws": 60,
                "pred_draws": 40,
                "partition_cells": 8,
            },
        },
    )


def test_replicate_writes_study_and_partials(tmp_path):
    cfg = replicate_config(tmp_path)
    out = tmp_path / "out"
    assert run(["replicate", "--config", cfg, "--out-dir", str(out)]) == 0
    header, rows = read_table(out / "study.csv")
    assert header == ["replicate", "method", "metric", "value"]
    reps = {r[0] for r in rows}
    assert reps == {"0", "1", "2"}
    methods = {r[1] for r in rows}
    assert methods == {"_data", "pspline"}
    assert not any(r[2] == "error" for r in rows)
    for rep in range(3):
        assert (out / "replicates" / f"rep_{rep:04d}.csv").exists()


def test_replicate_resume_skips_existing_partials(tmp_path):
    cfg = replicate_config(tmp_path)
    out = tmp_path / "out"
    assert run(["replicate", "--config", cfg, "--out-dir", str(out)]) == 0
    first = (out / "study.csv").read_bytes()

    kept = out / "replicates" / "rep_0001.csv"
    sentinel = kept.read_bytes()
    # orphan a replicate, and plant a sentinel to prove rep 1 is not rerun
    (out / "replicates" / "rep_0002.csv").unlink()
    kept.write_bytes(sentinel.replace(b"pspline", b"sentinel", 1))

    assert run(["replicate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert b"sentinel" in kept.read_bytes()
    merged = (out / "study.csv").read_bytes()
    assert b"sentinel" in merged
    restored = merged.replace(b"sentinel", b"pspline", 1)
    assert restored == first


def test_replicate_thread_pool_matches_serial(tmp_path):
    cfg = replicate_config(tmp_path, replicates=2)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert run(["replicate", "--config", cfg, "--out-dir", str(serial), "--threads", "1"]) == 0
    assert run(["replicate", "--config", cfg, "--out-dir", str(pooled), "--threads", "2"]) == 0
    _, rows_a = read_table(serial / "study.csv")
    _, rows_b = read_table(pooled / "study.csv")
    assert rows_a == rows_b


def test_replicate_rejects_unknown_method(tmp_path, capsys):
    cfg = replicate_config(tmp_path, methods=("pspline", "quantum"))
    assert run(["replicate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "quantum" in capsys.readouterr().err


def test_replicate_methods_flag_overrides_config(tmp_path):
    cfg = replicate_config(tmp_path, replicates=1)
    out = tmp_path / "out"
    assert run(["replicate", "--config", cfg, "--out-dir", str(out), "--methods", "pspline,local-pspline"]) == 0
    _, rows = read_table(out / "study.csv")
    assert {r[1] for r in rows} == {"_data", "pspline", "local-pspline"}


def test_numerical_failures_surface_as_error_rows(tmp_path):
    # responses with no usable signal at snr ~ 0 still run; a broken method
    # inside the study is recorded per-replicate rather than killing the run
    cfg = write_config(
        tmp_path / "rep.yaml",
        {
            "study": {"n": 8, "replicates": 1, "grid": {"points": 15}, "signal": {"basis_size": 5}},
            "methods": ["pspline"],
            "pipeline": {
                "curve_basis_size": 16,  # 16 > 15 grid points: per-subject lstsq is rank deficient
                "coef_basis_size": 6,
                "burnin": 20,
                "draws": 20,
            },
        },
    )
    out = tmp_path / "out"
    assert run(["replicate", "--config", cfg, "--out-dir", str(out)]) == 0
    _, rows = read_table(out / "study.csv")
    assert any(r[2] == "error" for r in rows)
