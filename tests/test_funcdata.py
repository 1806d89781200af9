"""Design assembly tests, with integral identities checked by brute force."""

from __future__ import annotations

import numpy as np
import pytest

from sofreg.basis import BSplineBasis, Domain, eval_basis_matrix
from sofreg.funcdata import (
    Categorical,
    CurveObservation,
    Linear,
    PiecewiseLinear,
    SplineTerm,
    build_design,
    fit_curves,
    functional_scores,
    read_curves,
    read_scalars,
    write_curves,
    write_scalars,
)


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
    obs = CurveObservation("s1", t, spline_curve(basis, coeffs, t))
    fit = fit_curves([obs], basis)[0]
    assert np.max(np.abs(fit.coeffs - coeffs)) < 1e-8


def test_grouped_fit_matches_individual_fits():
    basis = BSplineBasis(Domain(0.0, 1.0), 7, 3)
    rng = np.random.default_rng(4)
    shared_t = np.linspace(0, 1, 40)
    other_t = np.linspace(0, 1, 55)
    obs = [
        CurveObservation("a", shared_t, rng.normal(size=40)),
        CurveObservation("b", other_t, rng.normal(size=55)),
        CurveObservation("c", shared_t, rng.normal(size=40)),
    ]
    batch = fit_curves(obs, basis)
    solo = [fit_curves([o], basis)[0] for o in obs]
    for got, want in zip(batch, solo):
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10


def test_fit_rank_deficient_grid_raises():
    basis = BSplineBasis(Domain(0.0, 1.0), 8, 3)
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="identify"):
        fit_curves([CurveObservation("s", t, np.sin(t))], basis)


def test_scores_reproduce_integral_for_representable_curves():
    # when the curve is exactly a spline, row @ beta equals the true integral
    dom = Domain(0.0, 1.0)
    basis_x = BSplineBasis(dom, 10, 3)
    basis_b = BSplineBasis(dom, 8, 3)
    rng = np.random.default_rng(5)
    t = np.linspace(0, 1, 80)
    coefs = rng.normal(size=(3, 10))
    curves = fit_curves(
        [CurveObservation(f"s{i}", t, spline_curve(basis_x, c, t)) for i, c in enumerate(coefs)],
        basis_x,
    )
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
    curve = fit_curves([CurveObservation("s", t, spline_curve(sub_basis, cx, t))], sub_basis)[0]
    beta = rng.normal(size=9)
    want = midpoint_integral(
        lambda s: spline_curve(sub_basis, cx, s) * spline_curve(basis_b, beta, s), 0.2, 0.7
    )
    row = functional_scores([curve], basis_b)[0]
    assert abs(row @ beta - want) < 1e-8


def _toy_design(n=20, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    dom = Domain(0.0, 1.0)
    basis_x = BSplineBasis(dom, 8, 3)
    basis_b = BSplineBasis(dom, 6, 3)
    t = np.linspace(0, 1, 50)
    curves = fit_curves(
        [CurveObservation(f"s{i}", t, rng.normal(size=50).cumsum() * 0.1) for i in range(n)],
        basis_x,
    )
    y = rng.normal(size=n)
    return curves, basis_b, y, rng, kwargs


def test_continuous_expanded_columns_are_standardized():
    curves, basis_b, y, rng, _ = _toy_design()
    scalars = {"age": rng.uniform(20, 40, 20), "dose": rng.normal(size=20)}
    rules = [PiecewiseLinear("age", (25.0, 32.0)), Linear("dose")]
    design = build_design(curves, basis_b, y, scalars, rules)
    # columns: age, age hinges, dose, intercept
    assert design.z_names == ["age", "age:hinge@25", "age:hinge@32", "dose", "(intercept)"]
    for j, name in enumerate(design.z_names[:-1]):
        col = design.z[:, j]
        assert abs(col.mean()) < 1e-10
        assert abs(col.std(ddof=1) - 1.0) < 1e-10
        mean, sd = design.scaling[name]
        if name == "age:hinge@25":
            assert np.max(np.abs(col * sd + mean - np.maximum(scalars["age"] - 25.0, 0))) < 1e-10
    assert design.penalized.tolist() == [True, True, True, True, False]


def test_categorical_dummy_coding_drops_first_sorted_level():
    curves, basis_b, y, rng, _ = _toy_design()
    group = np.array(["b", "a", "c", "a"] * 5)
    design = build_design(curves, basis_b, y, {"group": group}, [Categorical("group")])
    assert design.z_names == ["group=b", "group=c", "(intercept)"]
    assert set(np.unique(design.z[:, 0])) == {0.0, 1.0}
    assert np.array_equal(design.z[:, 0], (group == "b").astype(float))


def test_default_rules_infer_numeric_and_categorical():
    curves, basis_b, y, rng, _ = _toy_design()
    design = build_design(
        curves, basis_b, y, {"dose": rng.normal(size=20), "group": np.array(["x", "y"] * 10)}
    )
    assert design.z_names == ["dose", "group=y", "(intercept)"]


def test_spline_term_becomes_adaptive_block():
    curves, basis_b, y, rng, _ = _toy_design()
    w = rng.uniform(0, 10, 20)
    design = build_design(
        curves, basis_b, y, {"w": w}, [SplineTerm("w", size=7)]
    )
    assert design.z_names == ["(intercept)"]
    assert len(design.adaptive_blocks) == 1
    block = design.adaptive_blocks[0]
    assert block.design.shape == (20, 7)
    assert np.allclose(block.design.sum(axis=1), 1.0)  # partition of unity rows
    assert block.basis.domain.lo == w.min() and block.basis.domain.hi == w.max()


def test_build_design_validations():
    curves, basis_b, y, rng, _ = _toy_design()
    with pytest.raises(ValueError, match="responses"):
        build_design(curves, basis_b, y[:-1])
    with pytest.raises(ValueError, match="non-finite"):
        build_design(curves, basis_b, y, {"bad": np.r_[np.nan, np.ones(19)]}, [Linear("bad")])
    with pytest.raises(ValueError, match="not provided"):
        build_design(curves, basis_b, y, {}, [Linear("missing")])
    dup = [curves[0]] + curves[:-1]
    with pytest.raises(ValueError, match="duplicate"):
        build_design(dup, basis_b, y)


def test_curve_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    curves = [
        CurveObservation("s1", np.linspace(0, 1, 11), rng.normal(size=11)),
        CurveObservation("s2", np.linspace(0.2, 0.9, 7), rng.normal(size=7)),
    ]
    path = tmp_path / "curves.csv"
    write_curves(path, curves)
    back = read_curves(path)
    assert [c.subject_id for c in back] == ["s1", "s2"]
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


def test_read_curves_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,time,value\na,0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_curves(path)


def test_read_curves_header_only_file_is_empty_without_warning(tmp_path, recwarn):
    path = tmp_path / "empty.csv"
    write_curves(path, [])
    assert read_curves(path) == []
    assert len(recwarn) == 0


def test_read_curves_rejects_split_subject(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("subject_id,t,x\na,0,1\na,1,2\nb,0,3\nb,1,4\na,2,5\n")
    with pytest.raises(ValueError, match="subject a .*not contiguous"):
        read_curves(path)


def test_read_curves_quoted_ids_blank_lines_and_crlf(tmp_path):
    odd = 'x,"y"#z'  # a comma, a quote and a comment character
    curves = [
        CurveObservation(odd, [0.0, 0.5, 1.0], [1.0, -2.0, 3.0]),
        CurveObservation("plain", [0.1, 0.2], [4.0, 5.0]),
    ]
    path = tmp_path / "odd.csv"
    write_curves(path, curves)  # csv module line ends: CRLF
    assert b"\r\n" in path.read_bytes()
    back = read_curves(path)
    assert [c.subject_id for c in back] == [odd, "plain"]
    for orig, rt in zip(curves, back):
        assert np.array_equal(orig.t, rt.t) and np.array_equal(orig.x, rt.x)

    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(lines[:3] + [b""] + lines[3:]))
    assert [c.subject_id for c in read_curves(path)] == [odd, "plain"]


def test_read_curves_rejects_non_numeric_value(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("subject_id,t,x\na,0,1\na,1,abc\n")
    with pytest.raises(ValueError, match="abc"):
        read_curves(path)
