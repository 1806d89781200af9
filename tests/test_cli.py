"""End-to-end checks of the command-line layer.

These drive ``cli.main`` with real files in tmp directories: config
resolution and unknown-key rejection, exit-code classes, table stamping,
the full simulate -> fit -> summarize -> evaluate chain on a tiny
problem, and replicate-study resume and worker-pool behavior.
"""

import argparse
import ast
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import yaml

import numpy as np
import pytest

import sofreg
from sofreg import cli
from sofreg.cli import main, read_table
from sofreg.funcdata import CurveSet, read_curves, read_scalars, write_curves, write_scalars
from sofreg.gibbs import FitConfig, effective_sample_size, load_curves, load_draws, stable_hash
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


def _flag_actions():
    """(command, action) for every flag each subcommand's parser defines but ``--config``."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                yield command, action


def test_every_flag_overrides_its_config_key():
    values = {int: "7", float: "0.25", None: "given/path"}
    seen = set()
    for command, action in _flag_actions():
        text = values.get(action.type, "pspline,local-pspline")  # --methods parses a list
        want = action.type(text) if action.type else text
        args = cli.build_parser().parse_args([command, action.option_strings[0], text])
        default = cli._defaults(command)
        assert action.dest in default, (command, action.dest)
        assert default[action.dest] != want, (command, action.dest)
        assert cli.resolve_config(command, args)[action.dest] == want, (command, action.dest)
        seen.add(command)
    assert seen == set(cli._COMMANDS)


def test_threads_is_a_replicate_key_and_flag_only():
    # only replicate runs worker processes
    assert cli._defaults("replicate")["threads"] == 1
    for command in ("simulate", "fit", "summarize", "evaluate"):
        assert "threads" not in cli._defaults(command)
        with pytest.raises(SystemExit) as exited:
            main([command, "--threads", "2"])
        assert exited.value.code == cli.EXIT_CONFIG


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


def test_fit_rejects_thin_above_draws_before_reading(tmp_path, capsys):
    sim = tmp_path / "sim"
    cfg = write_config(tmp_path / "c.yaml", {"n": 6, "grid": {"points": 15}, "signal": {"basis_size": 5}})
    assert run(["simulate", "--config", cfg, "--out-dir", str(sim)]) == 0
    fit_cfg = write_config(
        tmp_path / "fit.yaml",
        {"basis": {"curve_size": 8, "coef_size": 8}, "sampler": {"burnin": 5, "draws": 3, "thin": 5}},
    )
    out = tmp_path / "f"
    argv = ["fit", "--config", fit_cfg, "--curves", str(sim / "curves_rep000.csv")]
    argv += ["--scalars", str(sim / "scalars_rep000.csv"), "--out-dir", str(out)]
    assert run(argv) == cli.EXIT_CONFIG
    assert "thin (5) exceeds draws (3)" in capsys.readouterr().err
    assert not (out / "archive").exists()


def test_fit_rejects_refresh_below_one_before_reading(tmp_path, capsys):
    # refresh 0 would run every sweep without a latent move: phi and h frozen
    fit_cfg = write_config(tmp_path / "fit.yaml", {"sampler": {"refresh": 0}})
    argv = ["fit", "--config", fit_cfg, "--curves", str(tmp_path / "none.csv")]
    assert run(argv + ["--out-dir", str(tmp_path / "f")]) == cli.EXIT_CONFIG
    assert "refresh >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("fit", {"sampler": {"refresh": 2.7}}, "sampler.refresh"),
        ("fit", {"sampler": {"draws": 99.9}}, "sampler.draws"),
        ("fit", {"sampler": {"draws": True}}, "sampler.draws"),
        ("fit", {"sampler": {"burnin": "ten"}}, "sampler.burnin"),
        ("simulate", {"n": 4.5}, "n"),
        ("simulate", {"snr": True}, "snr"),
        ("summarize", {"epsilon": False}, "epsilon"),
        ("summarize", {"epsilon": "abc"}, "epsilon"),
    ],
    ids=[
        "refresh-fraction", "draws-fraction", "draws-bool", "burnin-string", "n-fraction", "snr-bool",
        "epsilon-bool", "epsilon-string",
    ],
)
def test_config_number_keys_reject_other_types_naming_the_key(tmp_path, capsys, command, payload, key):
    # an integer key once truncated 2.7 to 2 and read true as 1, without a word
    cfg = write_config(tmp_path / "c.yaml", payload)
    assert run([command, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config key {key} must be" in err
    assert not (tmp_path / "out").exists()


def test_float_keys_take_numeric_strings():
    # PyYAML reads 1e-3 (no decimal point) as a string
    resolved = cli._merge(cli._defaults("summarize"), {"epsilon": "1e-3", "zero_tol": "0.5"})
    assert resolved["epsilon"] == 0.001 and resolved["zero_tol"] == 0.5


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_negative_seed_rejected_naming_the_key_before_writing(tmp_path, capsys, command):
    # a seed of -1 once reached the random generator, after the snapshot was written
    out = tmp_path / "out"
    assert run([command, "--seed", "-1", "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert "config key seed must be a non-negative whole number, not -1" in capsys.readouterr().err
    cfg = write_config(tmp_path / "c.yaml", {"seed": -2})
    assert run([command, "--config", cfg, "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert "config key seed must be a non-negative whole number, not -2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(

    "bad_row, problem",
    [("s000003\n", "fields"), ("s000003,zz\n", "'zz' is not a number")],
    ids=["short-row", "non-numeric-response"],
)
def test_fit_rejects_malformed_scalar_file_naming_file_and_subject(tmp_path, capsys, bad_row, problem):
    sim = tmp_path / "sim"
    cfg = write_config(tmp_path / "c.yaml", {"n": 6, "grid": {"points": 15}, "signal": {"basis_size": 5}})
    assert run(["simulate", "--config", cfg, "--out-dir", str(sim)]) == 0
    scalars = tmp_path / "scalars.csv"
    lines = (sim / "scalars_rep000.csv").read_text().splitlines(keepends=True)
    scalars.write_text("".join(lines[:4] + [bad_row] + lines[5:]))
    argv = ["fit", "--curves", str(sim / "curves_rep000.csv"), "--scalars", str(scalars)]
    assert run(argv + ["--out-dir", str(tmp_path / "f")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(scalars) in err and "s000003" in err and problem in err


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
    _, sim, fit_dir, _ = pipeline_dirs
    manifest = yaml.safe_load((fit_dir / "archive" / "manifest.yaml").read_text())
    assert manifest["format"] == "sofreg-draws-v2"
    report = json.loads((fit_dir / "fit_report.json").read_text())  # beside the archive
    assert report["subjects"] == 14 and report["grids"] == 1
    curves_sha256 = hashlib.sha256((sim / "curves_rep000.csv").read_bytes()).hexdigest()
    assert report["curves_sha256"] == curves_sha256 == manifest["curves"]["sha256"]
    assert set(report["seconds"]) == {"read", "project", "sample", "save"}
    assert all(v >= 0.0 for v in report["seconds"].values())
    assert report["peak_rss_mb"] > 0.0
    snapshot = yaml.safe_load((fit_dir / "fit_config.yaml").read_text())
    assert snapshot["sampler"]["burnin"] == 80
    # untouched defaults survive resolution
    assert snapshot["sampler"]["prior"] == "dhs"


def test_fit_report_has_sampler_diagnostics(pipeline_dirs):
    _, _, fit_dir, _ = pipeline_dirs
    sampler = json.loads((fit_dir / "fit_report.json").read_text())["sampler"]
    assert sampler["sweeps"] == 160  # 80 burn-in + 80 kept
    assert sampler["sweeps_per_s"] > 0.0
    # a dhs fit: the scale process's persistence and level have ESS too
    assert set(sampler["ess"]) == {"sigma2", "phi", "mu_h", "beta_min", "alpha_min"}
    assert all(0.0 < v for v in sampler["ess"].values())
    # the only scalar column is the intercept: its ESS is alpha's least
    draws = load_draws(fit_dir / "archive")
    assert draws.alpha_names == ["(intercept)"]
    assert sampler["ess"]["alpha_min"] == float(effective_sample_size(draws.alpha)[0])


def test_fit_default_sampler_lengths():
    defaults = cli._defaults("fit")["sampler"]
    assert defaults["burnin"] == 10000 and defaults["draws"] == 10000


def test_resolved_defaults_rebuild_the_library_defaults():
    # every CLI default is read off a library dataclass, so feeding the
    # resolved defaults back must reproduce that dataclass's defaults
    def resolved(command):
        return cli.resolve_config(command, cli.build_parser().parse_args([command]))

    assert FitConfig(**resolved("fit")["sampler"]) == FitConfig()

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


def test_fit_sampler_keys_are_the_fit_config_fields():
    # one list of sampler settings: a FitConfig field the CLI cannot set, or a
    # CLI key FitConfig does not take, fails here before it fails a user
    assert set(cli._defaults("fit")["sampler"]) == {f.name for f in fields(FitConfig)}


@pytest.mark.parametrize(
    "command,digest",
    [
        ("simulate", "9cf67131479f"),
        ("fit", "cc9024c2d35d"),
        ("summarize", "b75fc9af3f32"),
        ("evaluate", "f2b0767e3d6d"),
        ("replicate", "fc5305e427da"),
    ],
)
def test_default_config_hashes_are_pinned(command, digest):
    # a default that moves changes every hash stamped on that command's outputs
    assert stable_hash(cli._defaults(command)) == digest


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


def test_summarize_writes_path_report(pipeline_dirs):
    _, _, _, summ = pipeline_dirs
    report = json.loads((summ / "path_report.json").read_text())
    stamp = (summ / "path_table.csv").read_text().split("\n")[0]
    assert stamp == f"# config_hash={report['config_hash']}"
    header, rows = read_table(summ / "path_table.csv")
    assert report["cells"] == 10
    # 14 subjects on an 8-function curve basis
    assert report["rank_aggregated"] <= 8
    assert report["entries"] == len(rows) <= report["knots"]
    assert report["family_size"] == sum(int(r[header.index("acceptable")]) for r in rows)
    kkt = [float(r[header.index("kkt_residual")]) for r in rows]
    assert report["max_kkt_residual"] == max(kkt)
    stages = {"load", "verify", "design", "summarize_coefficient", "analyze"}
    assert set(report["seconds"]) == stages
    assert all(v >= 0.0 for v in report["seconds"].values())
    assert report["peak_rss_mb"] > 0.0


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
    assert "scalar columns do not match the archived fit" in capsys.readouterr().err


def test_fit_and_summarize_with_a_numeric_and_a_string_covariate(pipeline_dirs, tmp_path, capsys):
    root, sim, _, _ = pipeline_dirs
    ids, y, _ = read_scalars(sim / "scalars_rep000.csv")
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(sim / "curves_rep000.csv", data / "curves_rep000.csv")
    covariates = {"x": np.linspace(-1.0, 2.0, len(ids)), "group": ["a", "b", "c", "b"] * 3 + ["a", "c"]}
    write_scalars(data / "scalars_rep000.csv", ids, y, covariates)
    fit_dir = tmp_path / "fit"
    fit_cfg = write_config(
        tmp_path / "fit.yaml",
        {"basis": {"curve_size": 8, "coef_size": 8}, "sampler": {"prior": "pspline", "burnin": 20, "draws": 20}},
    )
    argv = ["fit", "--config", fit_cfg, "--curves", str(data / "curves_rep000.csv")]
    argv += ["--scalars", str(data / "scalars_rep000.csv"), "--out-dir", str(fit_dir)]
    assert run(argv) == 0
    draws = load_draws(fit_dir / "archive")
    assert draws.alpha_names == ["x", "group=b", "group=c", "(intercept)"]
    assert draws.penalized.tolist() == [True, True, True, False]
    assert run(_summarize_argv(root, data, fit_dir, tmp_path / "summ")) == 0
    assert (tmp_path / "summ" / "windows.csv").exists()

    # the same subjects without the string covariate give other scalar columns
    write_scalars(data / "scalars_rep000.csv", ids, y, {"x": covariates["x"]})
    capsys.readouterr()
    assert run(_summarize_argv(root, data, fit_dir, tmp_path / "out")) == cli.EXIT_CONFIG
    assert "scalar columns do not match the archived fit" in capsys.readouterr().err
    assert not (tmp_path / "out" / "path_table.csv").exists()


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda m: m["arrays"].pop("sigma2"), "lacks required arrays: sigma2"),
        (lambda m: m.update(blocks=[{"name": "g"}]), "adaptive covariate blocks"),
        (lambda m: m["config"].update(ridge=1.0), "unknown keys ridge"),
        (lambda m: m["config"].pop("draws"), "missing keys draws"),
        (
            # the nested layout of archives written before refresh joined FitConfig
            lambda m: m["config"].update(
                dhs={"a": 0.3, "b": 0.7, "phi_a": 10.0, "phi_b": 2.0, "refresh": m["config"].pop("refresh")}
            ),
            "DHS settings sofreg no longer has: dhs.a=0.3, dhs.b=0.7",
        ),
    ],
    ids=["missing-array", "blocks", "unknown-config-key", "missing-config-key", "other-dhs-prior"],
)
def test_summarize_rejects_a_damaged_archive_naming_it(pipeline_dirs, tmp_path, capsys, damage, problem):
    root, sim, fit_dir, _ = pipeline_dirs
    damaged = tmp_path / "fit"
    shutil.copytree(fit_dir / "archive", damaged / "archive")
    manifest_path = damaged / "archive" / "manifest.yaml"
    manifest = yaml.safe_load(manifest_path.read_text())
    damage(manifest)
    manifest_path.write_text(yaml.safe_dump(manifest, sort_keys=True))
    assert run(_summarize_argv(root, sim, damaged, tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(damaged / "archive") in err and problem in err


def _summarize_cells(sim, fit_dir, tmp_path, cells):
    """Summarize the archive on ``cells`` regular cells; the path report and
    the largest residual in the path table."""
    out = tmp_path / f"summ{cells}"
    cfg = write_config(
        tmp_path / f"summ{cells}.yaml",
        {"grid_points": 41, "pred_draws": 60, "partition_cells": cells},
    )
    argv = ["summarize", "--config", cfg, "--archive", str(fit_dir / "archive")]
    argv += ["--curves", str(sim / "curves_rep000.csv"), "--scalars", str(sim / "scalars_rep000.csv")]
    assert run(argv + ["--seed", "7", "--out-dir", str(out)]) == 0
    header, rows = read_table(out / "path_table.csv")
    worst = max(float(r[header.index("kkt_residual")]) for r in rows)
    return json.loads((out / "path_report.json").read_text()), worst


def test_summarize_warns_on_inexact_rank_deficient_path(pipeline_dirs, tmp_path, caplog):
    # the 8-function curve basis caps rank(A) at 8, below both cell counts.
    # On this pspline posterior 10 cells give an exact path.  Whether 30
    # cells do rests on the last bits of the draws (ROADMAP item 1), so each
    # run checks that the warning fires exactly when its report shows a
    # rank-deficient, inexact path, and names what the report shows.
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
    for cells in (10, 30):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sofreg.cli"):
            report, worst = _summarize_cells(sim, fit_dir, tmp_path, cells)
        if cells == 10:
            assert worst <= 1e-8
        assert report["cells"] == cells and report["max_kkt_residual"] == worst
        rank = report["rank_aggregated"]
        warned = [r.getMessage() for r in caplog.records if r.name == "sofreg.cli"]
        assert len(warned) == int(rank < cells and worst > 1e-8), (cells, rank, worst)
        for message in warned:
            assert f"rank {rank} below its {cells} cells" in message
            assert f"residual is {worst:.3g}" in message


def test_warn_on_inexact_path_needs_rank_deficiency_and_a_residual(caplog):
    deficient = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [2.0, 1.0, 3.0], [1.0, 3.0, 4.0]])
    cases = [
        (deficient, [0.0, 1e-9, 3e-9], False),
        (deficient, [1e-12, 2e-4, 5e-9], True),
        (np.eye(3), [1e-12, 2e-4], False),
    ]
    for matrix, residuals, warns in cases:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sofreg.cli"):
            rank = cli._warn_on_inexact_path(matrix, np.array(residuals))
        assert rank == (2 if matrix is deficient else 3)
        warned = [r.getMessage() for r in caplog.records if r.name == "sofreg.cli"]
        assert len(warned) == int(warns), (rank, residuals)
        for message in warned:
            assert "rank 2 below its 3 cells" in message and "residual is 0.0002" in message


def _summarize_argv(root, sim, fit_dir, out, curves=None):
    argv = ["summarize", "--config", str(root / "summ.yaml"), "--archive", str(fit_dir / "archive")]
    argv += ["--curves", str(curves or sim / "curves_rep000.csv")]
    argv += ["--scalars", str(sim / "scalars_rep000.csv"), "--seed", "7", "--out-dir", str(out)]
    return argv


def test_summarize_uses_the_archived_bases(pipeline_dirs, tmp_path, monkeypatch, capsys):
    # summarize once re-projected the curves on its own default bases (size 53,
    # degree 3) whatever bases the fit used; now it takes the fit's
    root, sim, _, _ = pipeline_dirs
    fit_dir = tmp_path / "fit"
    fit_cfg = write_config(
        tmp_path / "fit.yaml",
        {
            "basis": {"curve_size": 20, "coef_size": 15, "degree": 2},
            "sampler": {"prior": "pspline", "burnin": 40, "draws": 40},
        },
    )
    argv = ["fit", "--config", fit_cfg, "--curves", str(sim / "curves_rep000.csv")]
    argv += ["--scalars", str(sim / "scalars_rep000.csv"), "--seed", "3", "--out-dir", str(fit_dir)]
    assert run(argv) == 0
    seen = {}
    analyze = cli.analyze

    def spy(draws, design, coef_curves, *args, **kwargs):
        seen.update(design=design, coef_curves=coef_curves)
        return analyze(draws, design, coef_curves, *args, **kwargs)

    monkeypatch.setattr(cli, "analyze", spy)
    assert run(_summarize_argv(root, sim, fit_dir, tmp_path / "summ")) == 0
    coef_basis = seen["design"].basis_b
    assert (coef_basis.size, coef_basis.degree) == (15, 2)
    assert coef_basis == load_draws(fit_dir / "archive").basis
    curve_bases = {(g.basis.size, g.basis.degree) for g in seen["coef_curves"].groups}
    assert curve_bases == {(20, 2)}

    # the archived bases are the only consistent ones: summarize has no basis section
    argv = _summarize_argv(root, sim, fit_dir, tmp_path / "out")
    argv[argv.index("--config") + 1] = write_config(tmp_path / "s.yaml", {"basis": {"curve_size": 20}})
    assert run(argv) == cli.EXIT_CONFIG
    assert "unknown config key: basis" in capsys.readouterr().err


def test_summarize_rejects_a_different_curve_file(pipeline_dirs, tmp_path, capsys):
    root, sim, fit_dir, _ = pipeline_dirs
    original = sim / "curves_rep000.csv"
    edited = tmp_path / "curves.csv"
    edited.write_bytes(original.read_bytes().replace(b"\r\n", b"\n"))  # same numbers, other bytes
    code = run(_summarize_argv(root, sim, fit_dir, tmp_path / "out", curves=edited))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert hashlib.sha256(edited.read_bytes()).hexdigest() in err
    assert hashlib.sha256(original.read_bytes()).hexdigest() in err
    assert not (tmp_path / "out" / "path_table.csv").exists()


@pytest.mark.parametrize(
    "override, problem",
    [
        # pred_draws 0 once wrote two of the four outputs and died with an IndexError
        ({"pred_draws": 0}, "config key pred_draws must be at least 1, not 0"),
        ({"pred_draws": -3}, "config key pred_draws must be at least 1, not -3"),
        ({"partition_cells": 20.5}, "config key partition_cells must be a whole number, not 20.5"),
        # each of these once wrote summarize_config.yaml and beta_summary.csv before
        # failing, or exited 0 with a degenerate output
        ({"partition_cells": 0}, "config key partition_cells must be at least 2, not 0"),
        ({"partition_cells": 1}, "config key partition_cells must be at least 2, not 1"),
        ({"epsilon": 2}, "config key epsilon must be in [0, 1], not 2.0"),
        ({"epsilon": -0.5}, "config key epsilon must be in [0, 1], not -0.5"),
        ({"grid_points": 0}, "config key grid_points must be at least 2, not 0"),
        ({"grid_points": 1}, "config key grid_points must be at least 2, not 1"),
        ({"zero_tol": -1}, "config key zero_tol must be at least 0, not -1.0"),
    ],
    ids=[
        "pred-draws-zero", "pred-draws-negative", "cells-fraction", "cells-0", "cells-1",
        "epsilon-2", "epsilon-negative", "grid-0", "grid-1", "zero-tol-negative",
    ],
)
def test_summarize_rejects_bad_counts_before_writing(pipeline_dirs, tmp_path, capsys, override, problem):
    root, sim, fit_dir, _ = pipeline_dirs
    argv = _summarize_argv(root, sim, fit_dir, tmp_path / "out")
    payload = {"grid_points": 41, "pred_draws": 60, "partition_cells": 10} | override
    argv[argv.index("--config") + 1] = write_config(tmp_path / "s.yaml", payload)
    assert run(argv) == cli.EXIT_CONFIG
    assert problem in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.yaml"]  # no output directory


def test_fit_takes_a_whole_float_for_an_integer_key(pipeline_dirs, tmp_path):
    _, sim, _, _ = pipeline_dirs
    fit_cfg = write_config(
        tmp_path / "fit.yaml",
        {"basis": {"curve_size": 8, "coef_size": 8}, "sampler": {"prior": "pspline", "burnin": 5, "draws": 100.0}},
    )
    argv = ["fit", "--config", fit_cfg, "--curves", str(sim / "curves_rep000.csv")]
    argv += ["--scalars", str(sim / "scalars_rep000.csv"), "--out-dir", str(tmp_path / "f")]
    assert run(argv) == 0
    snapshot = yaml.safe_load((tmp_path / "f" / "fit_config.yaml").read_text())
    assert snapshot["sampler"]["draws"] == 100 and isinstance(snapshot["sampler"]["draws"], int)
    assert load_draws(tmp_path / "f" / "archive").n_draws == 100


def test_v1_archive_loads_but_cannot_be_summarized(pipeline_dirs, tmp_path, capsys):
    root, sim, fit_dir, _ = pipeline_dirs
    v1 = tmp_path / "fit"
    shutil.copytree(fit_dir / "archive", v1 / "archive")
    manifest = yaml.safe_load((v1 / "archive" / "manifest.yaml").read_text())
    for name in ["subject_ids.json", "grid.bin"] + [
        f for g in manifest["curves"]["groups"] for f in (g["rows"], g["coeffs"])
    ]:
        (v1 / "archive" / name).unlink()
    del manifest["curves"]
    manifest["format"] = "sofreg-draws-v1"
    (v1 / "archive" / "manifest.yaml").write_text(yaml.safe_dump(manifest, sort_keys=True))

    old, new = load_draws(v1 / "archive"), load_draws(fit_dir / "archive")
    assert np.array_equal(old.coeffs, new.coeffs) and old.basis == new.basis
    assert run(_summarize_argv(root, sim, v1, tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sofreg-draws-v1" in err and "re-run `sofreg fit`" in err


def test_subject_ids_with_commas_and_quotes_survive_fit_and_summarize(pipeline_dirs, tmp_path):
    root, sim, _, _ = pipeline_dirs
    curves = read_curves(sim / "curves_rep000.csv")
    _, y, _ = read_scalars(sim / "scalars_rep000.csv")
    ids = [f's{i}, "quoted" #{i}' if i % 2 else f"s{i},x" for i in range(len(curves))]
    data = tmp_path / "data"
    data.mkdir()
    write_curves(data / "curves_rep000.csv", CurveSet(ids, curves.groups))
    write_scalars(data / "scalars_rep000.csv", ids, y)
    fit_dir = tmp_path / "fit"
    fit_cfg = write_config(
        tmp_path / "fit.yaml",
        {"basis": {"curve_size": 8, "coef_size": 8}, "sampler": {"prior": "pspline", "burnin": 20, "draws": 20}},
    )
    argv = ["fit", "--config", fit_cfg, "--curves", str(data / "curves_rep000.csv")]
    argv += ["--scalars", str(data / "scalars_rep000.csv"), "--out-dir", str(fit_dir)]
    assert run(argv) == 0
    assert load_curves(fit_dir / "archive").coefs.ids == ids
    assert run(_summarize_argv(root, data, fit_dir, tmp_path / "summ")) == 0


# --- package shape ----------------------------------------------------------------------


def test_fit_and_summarize_reject_a_repeated_covariate_column(pipeline_dirs, tmp_path, capsys):
    root, sim, fit_dir, _ = pipeline_dirs
    ids, y, _ = read_scalars(sim / "scalars_rep000.csv")
    scalars = tmp_path / "scalars.csv"
    write_scalars(scalars, ids, y, {"x": np.ones(len(ids)), "x2": np.zeros(len(ids))})
    scalars.write_text(scalars.read_text().replace(",x2", ",x", 1))  # header: ...,x,x
    fit_argv = ["fit", "--curves", str(sim / "curves_rep000.csv"), "--scalars", str(scalars)]
    fit_argv += ["--out-dir", str(tmp_path / "f")]
    summarize_argv = _summarize_argv(root, sim, fit_dir, tmp_path / "s")
    summarize_argv[summarize_argv.index("--scalars") + 1] = str(scalars)
    for argv in (fit_argv, summarize_argv):
        assert run(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(scalars) in err and "covariate column x appears more than once" in err


def test_fit_and_summarize_reject_a_blank_covariate(pipeline_dirs, tmp_path, capsys):
    root, sim, fit_dir, _ = pipeline_dirs
    ids, y, _ = read_scalars(sim / "scalars_rep000.csv")
    dose = [float(i) for i in range(len(ids))]
    dose[3] = ""
    scalars = tmp_path / "scalars.csv"
    write_scalars(scalars, ids, y, {"dose": dose})
    fit_argv = ["fit", "--curves", str(sim / "curves_rep000.csv"), "--scalars", str(scalars)]
    fit_argv += ["--out-dir", str(tmp_path / "f")]
    summarize_argv = _summarize_argv(root, sim, fit_dir, tmp_path / "s")
    summarize_argv[summarize_argv.index("--scalars") + 1] = str(scalars)
    for argv in (fit_argv, summarize_argv):
        assert run(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(scalars) in err and f"line 5: subject {ids[3]}: covariate dose is blank" in err
    assert not (tmp_path / "f" / "archive").exists()


def test_every_package_function_has_a_caller_in_the_package():
    # a function, class, method or property that only tests call should live
    # in the tests; names the package exports are its public interface
    src = Path(sofreg.__file__).parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        (file, line, name)
        for file, line, name in defined
        if name not in used
        and name not in sofreg.__all__
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


def test_every_dataclass_field_is_read_in_the_package():
    # a field nothing reads only costs its writers; reads count by attribute name
    src = Path(sofreg.__file__).parent
    fields, read = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list
            ):
                fields += [
                    f"{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [f for f in fields if f.split(".")[1] not in read] == []


# --- imports: scipy only where sampling runs ------------------------------------------


def _scipy_modules_after(code: str) -> set[str]:
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    env = dict(os.environ, PYTHONPATH=str(Path(sofreg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def _cli_call(argv: list[str]) -> str:
    return f"from sofreg.cli import main\nassert main({argv!r}) == 0"


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import sofreg.cli") == set()


def test_summarize_and_evaluate_load_no_scipy(pipeline_dirs, tmp_path):
    root, sim, fit_dir, summ = pipeline_dirs
    assert _scipy_modules_after(_cli_call(_summarize_argv(root, sim, fit_dir, tmp_path / "s"))) == set()
    argv = ["evaluate", "--beta-summary", str(summ / "beta_summary.csv")]
    argv += ["--windows", str(summ / "windows.csv"), "--out-dir", str(tmp_path / "e")]
    assert _scipy_modules_after(_cli_call(argv)) == set()


def test_pspline_fit_loads_scipy_linalg_only(pipeline_dirs, tmp_path):
    root, sim, _, _ = pipeline_dirs
    fit_cfg = write_config(
        tmp_path / "fit.yaml",
        {"basis": {"curve_size": 8, "coef_size": 8}, "sampler": {"prior": "pspline", "burnin": 5, "draws": 5}},
    )
    argv = ["fit", "--config", fit_cfg, "--curves", str(sim / "curves_rep000.csv")]
    argv += ["--scalars", str(sim / "scalars_rep000.csv"), "--out-dir", str(tmp_path / "f")]
    loaded = _scipy_modules_after(_cli_call(argv))
    assert "scipy.linalg" in loaded
    for name in ("scipy.interpolate", "scipy.sparse", "scipy.optimize"):
        assert name not in loaded


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


def test_evaluate_rejects_a_summary_without_rows_naming_it(pipeline_dirs, tmp_path, capsys):
    # a header-only table once died with an IndexError traceback and exit 1
    _, _, _, summ = pipeline_dirs
    empty = tmp_path / "beta_summary.csv"
    lines = (summ / "beta_summary.csv").read_text().splitlines(keepends=True)
    empty.write_text("".join(lines[:2]))  # the hash stamp and the header
    out = tmp_path / "eval"
    assert run(["evaluate", "--beta-summary", str(empty), "--out-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(empty) in err and "no rows" in err
    assert not out.exists()


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
