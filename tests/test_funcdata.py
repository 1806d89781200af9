"""Design assembly tests, with integral identities checked by brute force."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sofreg import cli, funcdata
from sofreg.basis import BSplineBasis, Domain, eval_basis_matrix
from sofreg.funcdata import (
    CoefSet,
    CurveGroup,
    CurveSet,
    build_design,
    fit_curves,
    functional_scores,
    read_curves,
    read_scalars,
    write_curves,
    write_scalars,
)


def curve_set(records):
    """A ``CurveSet`` of (subject_id, t, x) records, in order."""
    ids, ts, xs = zip(*records)
    lengths = np.array([len(t) for t in ts])
    t, x = np.concatenate(ts, dtype=float), np.concatenate(xs, dtype=float)
    return CurveSet.from_columns(list(ids), lengths, t, x)


def spline_curve(basis, coeffs, t):
    return eval_basis_matrix(basis, t) @ coeffs


def midpoint_integral(f, lo, hi, n=1_000_000):
    h = (hi - lo) / n
    nodes = lo + (np.arange(n) + 0.5) * h
    return h * f(nodes).sum()


def test_fit_recovers_exact_spline_coefficients():
    basis = BSplineBasis(Domain(0.0, 1.0), 9, 3)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=9)
    t = np.linspace(0, 1, 60)
    fit = fit_curves(curve_set([("s1", t, spline_curve(basis, coeffs, t))]), basis)[0]
    assert np.max(np.abs(fit.coeffs - coeffs)) < 1e-8


def test_grouped_fit_matches_individual_fits():
    basis = BSplineBasis(Domain(0.0, 1.0), 7, 3)
    rng = np.random.default_rng(4)
    shared_t = np.linspace(0, 1, 40)
    other_t = np.linspace(0, 1, 55)
    obs = [
        ("a", shared_t, rng.normal(size=40)),
        ("b", other_t, rng.normal(size=55)),
        ("c", shared_t, rng.normal(size=40)),
    ]
    batch = fit_curves(curve_set(obs), basis)
    solo = [fit_curves(curve_set([o]), basis)[0] for o in obs]
    for got, want in zip(batch, solo):
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10


def test_fit_rank_deficient_grid_raises():
    basis = BSplineBasis(Domain(0.0, 1.0), 8, 3)
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="identify"):
        fit_curves(curve_set([("s", t, np.sin(t))]), basis)


def test_scores_reproduce_integral_for_representable_curves():
    # when the curve is exactly a spline, row @ beta equals the true integral
    dom = Domain(0.0, 1.0)
    basis_x = BSplineBasis(dom, 10, 3)
    basis_b = BSplineBasis(dom, 8, 3)
    rng = np.random.default_rng(5)
    t = np.linspace(0, 1, 80)
    coefs = rng.normal(size=(3, 10))
    records = [(f"s{i}", t, spline_curve(basis_x, c, t)) for i, c in enumerate(coefs)]
    curves = fit_curves(curve_set(records), basis_x)
    scores = functional_scores(curves, basis_b)
    for _ in range(4):
        beta = rng.normal(size=8)
        for i, c in enumerate(coefs):
            want = midpoint_integral(
                lambda s: spline_curve(basis_x, c, s) * spline_curve(basis_b, beta, s), 0.0, 1.0
            )
            assert abs(scores[i] @ beta - want) < 1e-8


def test_subject_subinterval_integrates_only_over_it():
    basis_b = BSplineBasis(Domain(0.0, 1.0), 9, 3)
    rng = np.random.default_rng(6)
    t = np.linspace(0.2, 0.7, 60)  # subject observed on [0.2, 0.7] only
    sub_basis = BSplineBasis(Domain(0.2, 0.7), 7, 3)
    cx = rng.normal(size=7)
    curves = fit_curves(curve_set([("s", t, spline_curve(sub_basis, cx, t))]), sub_basis)
    beta = rng.normal(size=9)
    want = midpoint_integral(
        lambda s: spline_curve(sub_basis, cx, s) * spline_curve(basis_b, beta, s), 0.2, 0.7
    )
    row = functional_scores(curves, basis_b)[0]
    assert abs(row @ beta - want) < 1e-8


def _toy_design(n=20, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    dom = Domain(0.0, 1.0)
    basis_x = BSplineBasis(dom, 8, 3)
    basis_b = BSplineBasis(dom, 6, 3)
    t = np.linspace(0, 1, 50)
    curves = fit_curves(
        curve_set([(f"s{i}", t, rng.normal(size=50).cumsum() * 0.1) for i in range(n)]), basis_x
    )
    y = rng.normal(size=n)
    return curves, basis_b, y, rng, kwargs


def test_continuous_expanded_columns_are_standardized():
    curves, basis_b, y, rng, _ = _toy_design()
    scalars = {"age": rng.uniform(20, 40, 20), "dose": rng.normal(size=20), "visits": np.arange(20)}
    design = build_design(curves, basis_b, y, scalars)
    assert design.z_names == ["age", "dose", "visits", "(intercept)"]
    for j, name in enumerate(design.z_names[:-1]):
        col, raw = design.z[:, j], scalars[name]
        assert abs(col.mean()) < 1e-10
        assert abs(col.std(ddof=1) - 1.0) < 1e-10
        assert np.max(np.abs(col * raw.std(ddof=1) + raw.mean() - raw)) < 1e-10
    assert np.array_equal(design.z[:, -1], np.ones(20))
    assert design.penalized.tolist() == [True, True, True, False]


def test_categorical_dummy_coding_drops_first_sorted_level():
    curves, basis_b, y, rng, _ = _toy_design()
    group = np.array(["b", "a", "c", "a"] * 5)
    design = build_design(curves, basis_b, y, {"group": group})
    assert design.z_names == ["group=b", "group=c", "(intercept)"]
    assert set(np.unique(design.z[:, 0])) == {0.0, 1.0}
    assert np.array_equal(design.z[:, 0], (group == "b").astype(float))


def test_default_rules_infer_numeric_and_categorical():
    curves, basis_b, y, rng, _ = _toy_design()
    design = build_design(
        curves, basis_b, y, {"dose": rng.normal(size=20), "group": np.array(["x", "y"] * 10)}
    )
    assert design.z_names == ["dose", "group=y", "(intercept)"]


def test_build_design_validations():
    curves, basis_b, y, rng, _ = _toy_design()
    with pytest.raises(ValueError, match="responses"):
        build_design(curves, basis_b, y[:-1])
    with pytest.raises(ValueError, match="non-finite"):
        build_design(curves, basis_b, y, {"bad": np.r_[np.nan, np.ones(19)]})
    with pytest.raises(ValueError, match="expected 20 values"):
        build_design(curves, basis_b, y, {"short": np.ones(19)})
    with pytest.raises(ValueError, match="at least two levels"):
        build_design(curves, basis_b, y, {"one": np.array(["a"] * 20)})
    dup = CoefSet(curves.ids[:1] + curves.ids[:-1], curves.groups)
    with pytest.raises(ValueError, match="duplicate"):
        build_design(dup, basis_b, y)


def test_curve_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    curves = curve_set(
        [
            ("s1", np.linspace(0, 1, 11), rng.normal(size=11)),
            ("s2", np.linspace(0.2, 0.9, 7), rng.normal(size=7)),
        ]
    )
    path = tmp_path / "curves.csv"
    write_curves(path, curves)
    back = read_curves(path)
    assert back.ids == ["s1", "s2"]
    for orig, rt in zip(curves, back):
        assert np.array_equal(orig.t, rt.t) and np.array_equal(orig.x, rt.x)
        assert rt.domain == orig.domain


def test_scalar_file_round_trip(tmp_path):
    path = tmp_path / "scalars.csv"
    ids = ["s2", "s1", "s3"]
    y = np.array([1.5, -0.25, 3.0])
    scalars = {"age": np.array([30.0, 41.5, 22.0]), "group": np.array(["m", "f", "f"])}
    write_scalars(path, ids, y, scalars)
    rids, ry, rsc = read_scalars(path)
    assert rids == ids
    assert np.array_equal(ry, y)
    assert np.array_equal(rsc["age"], scalars["age"])
    assert rsc["group"].tolist() == ["m", "f", "f"]


def test_read_scalars_rejects_a_repeated_column_naming_file_and_column(tmp_path):
    # read into a dict by name, the first x would be dropped without a word
    path = tmp_path / "scalars.csv"
    path.write_text("subject_id,response,x,x\na,1.0,1.0,5.0\nb,2.0,2.0,6.0\n")
    with pytest.raises(ValueError, match="covariate column x appears more than once") as err:
        read_scalars(path)
    assert str(path) in str(err.value)


def test_read_scalars_rejects_a_blank_covariate_naming_file_line_column_and_subject(tmp_path):
    # read as text, a numeric column with one blank field would be
    # dummy-coded: 49 columns for 50 subjects
    rng = np.random.default_rng(14)
    ids = [f"s{i}" for i in range(50)]
    dose = rng.normal(size=50).tolist()
    for column, subject in (("dose", 7), ("group", 0)):
        scalars = {"dose": list(dose), "group": ["a", "b"] * 25}
        scalars[column][subject] = " "
        path = tmp_path / f"{column}.csv"
        write_scalars(path, ids, rng.normal(size=50), scalars)
        problem = f"line {subject + 2}: subject s{subject}: covariate {column} is blank"
        with pytest.raises(ValueError, match=problem) as err:
            read_scalars(path)
        assert str(path) in str(err.value)


def test_read_curves_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,time,value\na,0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_curves(path)


def test_read_curves_header_only_file_is_empty_without_warning(tmp_path, recwarn):
    path = tmp_path / "empty.csv"
    write_curves(path, CurveSet([], []))
    assert len(read_curves(path)) == 0
    assert len(recwarn) == 0


def test_read_curves_rejects_split_subject(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("subject_id,t,x\na,0,1\na,1,2\nb,0,3\nb,1,4\na,2,5\n")
    with pytest.raises(ValueError, match="subject a .*not contiguous"):
        read_curves(path)


def test_read_curves_quoted_ids_blank_lines_and_crlf(tmp_path):
    odd = 'x,"y"#z'  # a comma, a quote and a comment character
    curves = curve_set(
        [(odd, [0.0, 0.5, 1.0], [1.0, -2.0, 3.0]), ("plain", [0.1, 0.2], [4.0, 5.0])]
    )
    path = tmp_path / "odd.csv"
    write_curves(path, curves)  # csv module line ends: CRLF
    assert b"\r\n" in path.read_bytes()
    back = read_curves(path)
    assert back.ids == [odd, "plain"]
    for orig, rt in zip(curves, back):
        assert np.array_equal(orig.t, rt.t) and np.array_equal(orig.x, rt.x)

    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(lines[:3] + [b""] + lines[3:]))
    assert read_curves(path).ids == [odd, "plain"]


def test_read_curves_rejects_non_numeric_value(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("subject_id,t,x\na,0,1\na,1,abc\n")
    with pytest.raises(ValueError, match="abc"):
        read_curves(path)


# --- columnar curve sets and the streaming reader ---------------------------------


def test_curve_set_groups_by_grid_and_keeps_subject_order():
    rng = np.random.default_rng(11)
    shared, other = np.linspace(0, 1, 9), np.linspace(0, 1, 12)
    records = [
        ("a", shared, rng.normal(size=9)),
        ("b", other, rng.normal(size=12)),
        ("c", shared, rng.normal(size=9)),
        ("d", other[:9], rng.normal(size=9)),  # same length, another grid
    ]
    curves = curve_set(records)
    assert curves.ids == ["a", "b", "c", "d"]
    assert [g.rows.tolist() for g in curves.groups] == [[0, 2], [1], [3]]
    assert curves.groups[0].x.shape == (2, 9)
    for (_, t, x), got in zip(records, curves):
        assert np.array_equal(got.t, t) and np.array_equal(got.x, x)
    assert curves[-1].t is curves.groups[2].t and [c.x.size for c in curves[1:3]] == [12, 9]
    with pytest.raises(IndexError):
        curves[4]

    basis = BSplineBasis(Domain(0.0, 1.0), 6, 3)
    coefs = fit_curves(curves, basis)
    assert isinstance(coefs, CoefSet) and coefs.ids == curves.ids
    # one coefficient group per grid
    assert [g.rows.tolist() for g in coefs.groups] == [[0, 2], [1], [3]]


def _long_file(path, rows):
    path.write_text("subject_id,t,x\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


@pytest.mark.parametrize(
    "rows, problem",
    [
        ([("a", 0, 1), ("a", 1, 2), ("zz", 0, 1), ("zz", 1, "nan"), ("c", 0, "inf")], "non-finite"),
        ([("a", 0, 1), ("a", 1, 2), ("zz", 0, 1), ("zz", "inf", 2)], "non-finite"),
        ([("a", 0, 1), ("a", 1, 2), ("zz", 0, 1), ("zz", 0.5, 2), ("zz", 0.5, 3)], "increasing"),
        ([("a", 0, 1), ("a", 1, 2), ("zz", 1, 1), ("zz", 0, 2), ("c", 0, 1)], "increasing"),
        ([("a", 0, 1), ("a", 1, 2), ("zz", 0, 1), ("c", 0, 1), ("c", 1, 1)], "two observations"),
        ([("a", 0, 1), ("a", 1, 2), ("zz", 0, 1), ("zz", 1)], "numeric t and x"),
    ],
    ids=["nan-value", "inf-time", "tied-time", "decreasing-time", "single-point", "short-row"],
)
def test_read_curves_names_file_and_first_bad_subject(tmp_path, rows, problem):
    path = _long_file(tmp_path / "curves.csv", rows)
    with pytest.raises(ValueError, match=problem) as err:
        read_curves(path)
    assert str(path) in str(err.value) and "zz" in str(err.value)
    write_scalars(tmp_path / "scalars.csv", ["a", "zz"], [0.0, 1.0])
    argv = ["fit", "--curves", str(path), "--scalars", str(tmp_path / "scalars.csv")]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_read_curves_joins_a_subject_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(funcdata, "_CHUNK_ROWS", 4)
    rows = [("a", i / 5, i) for i in range(6)] + [("b", i / 2, -i) for i in range(3)]
    curves = read_curves(_long_file(tmp_path / "c.csv", rows))
    assert curves.ids == ["a", "b"]
    assert np.array_equal(curves[0].t, np.arange(6) / 5) and np.array_equal(curves[0].x, np.arange(6))
    assert np.array_equal(curves[1].x, -np.arange(3.0))


def test_read_curves_rejects_a_subject_split_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(funcdata, "_CHUNK_ROWS", 4)
    rows = [("a", 0, 1), ("a", 1, 2), ("b", 0, 1), ("b", 1, 2), ("b", 2, 3), ("a", 2, 3)]
    with pytest.raises(ValueError, match="subject a .*not contiguous"):
        read_curves(_long_file(tmp_path / "c.csv", rows))


def test_read_curves_memory_is_bounded_by_the_float_columns(tmp_path, monkeypatch):
    # 2000 subjects x 100 points.  The float payload is 2 x 8 B per row; the
    # reader keeps one id per subject, not one per row.  A reader holding an
    # object array with one str per row peaked at 6.3x the payload here
    # (19.2 MB); this one peaks at about 1.6x.
    n, size = 2000, 100
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 1.0, size)
    values = rng.normal(size=(n, size))
    records = CurveSet([f"s{i:05d}" for i in range(n)], [CurveGroup(np.arange(n), grid, values)])
    path = tmp_path / "cohort.csv"
    write_curves(path, records)
    monkeypatch.setattr(funcdata, "_CHUNK_ROWS", 1024)
    tracemalloc.start()
    try:
        curves = read_curves(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curves) == n and len(curves.groups) == 1
    assert peak < 2.5 * (2 * 8 * n * size)


def test_write_curves_bytes_match_the_csv_module(tmp_path):
    import csv

    rng = np.random.default_rng(13)
    records = curve_set(
        [
            ('q"uo,te#', np.linspace(0, 1, 4), rng.normal(size=4)),
            ("", np.linspace(0.5, 2, 3), np.array([-0.0, 1e-300, 2.5e17])),
            ("line\nbreak", np.linspace(0, 1, 4), rng.normal(size=4)),
        ]
    )
    path = tmp_path / "mine.csv"
    write_curves(path, records)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "t", "x"])
        for sid, c in zip(records.ids, records):
            for t, x in zip(c.t, c.x):
                writer.writerow([sid, repr(float(t)), repr(float(x))])
    assert path.read_bytes() == ref.read_bytes()
