"""Functional observations, covariate expansion, and regression design assembly.

A functional predictor enters the model only through its integral against
the coefficient function.  Each observed curve is projected onto a spline
basis by least squares, and the integral collapses to a bilinear form in
the two coefficient vectors through a cross-Gram matrix.  Subjects may be
observed on different subintervals of the reference domain; the Gram
matrix is then computed over the subject's own interval, once for all the
subjects that share it.

Scalar covariates are expanded (identity, dummy coding, hinge terms, or a
spline block that will receive its own adaptive prior), continuous
expanded columns are standardized, and everything is packed into a
``RegressionDesign`` consumed by the sampler.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from sofreg.basis import (
    BSplineBasis,
    Domain,
    cross_gram,
    eval_basis_matrix,
)


@dataclass
class CurveObservation:
    """One subject's functional predictor sampled on its own grid."""

    subject_id: str
    t: np.ndarray
    x: np.ndarray
    domain: Domain | None = None

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.x.shape:
            raise ValueError(f"curve {self.subject_id}: t and x must be equal-length vectors")
        if self.t.size < 2:
            raise ValueError(f"curve {self.subject_id}: need at least two observations")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.x))):
            raise ValueError(f"curve {self.subject_id}: non-finite values")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError(f"curve {self.subject_id}: t must be strictly increasing")
        if self.domain is None:
            self.domain = Domain(float(self.t[0]), float(self.t[-1]))


@dataclass
class CoefCurve:
    """Spline-coefficient representation of one curve on its domain."""

    subject_id: str
    coeffs: np.ndarray
    basis: BSplineBasis
    domain: Domain


def fit_curves(observations: Sequence[CurveObservation], basis: BSplineBasis) -> list[CoefCurve]:
    """Least-squares spline coefficients for many curves.

    Curves sharing an identical grid are solved together with one factorization.
    A rank-deficient fit (grid too coarse for the basis) is an error rather
    than a silent minimum-norm solution.
    """
    groups: dict[bytes, list[int]] = {}
    for i, obs in enumerate(observations):
        groups.setdefault(obs.t.tobytes(), []).append(i)
    out: list[CoefCurve | None] = [None] * len(observations)
    for idx in groups.values():
        t = observations[idx[0]].t
        design = eval_basis_matrix(basis, t)
        rhs = np.column_stack([observations[i].x for i in idx])
        coeffs, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
        if rank < basis.size:
            bad = observations[idx[0]].subject_id
            raise ValueError(
                f"curve grid for subject {bad} cannot identify {basis.size} basis coefficients"
            )
        for j, i in enumerate(idx):
            out[i] = CoefCurve(observations[i].subject_id, coeffs[:, j], basis, observations[i].domain)
    return out  # type: ignore[return-value]


def group_by_layout(
    curves: Sequence[CoefCurve],
) -> list[tuple[CoefCurve, np.ndarray, np.ndarray]]:
    """Curves sharing one basis layout and one domain, in first-seen order.

    Each group is its first curve, the members' indices, and their
    coefficients as an (members, K) array.  The array is the transpose of
    a (K, members) stack, so each row is a strided column: with it, one
    batched product per group sums in the same order as a product per
    curve, and the results are bitwise those of a loop over curves.
    """
    groups: dict[tuple, list[int]] = {}
    for i, curve in enumerate(curves):
        b = curve.basis
        key = (b.size, b.degree, b.domain.lo, b.domain.hi, curve.domain.lo, curve.domain.hi)
        groups.setdefault(key, []).append(i)
    return [
        (curves[idx[0]], np.array(idx), np.stack([curves[i].coeffs for i in idx], axis=1).T)
        for idx in groups.values()
    ]


def functional_scores(curves: Sequence[CoefCurve], basis_b: BSplineBasis) -> np.ndarray:
    """Rows of the reduced functional design: one score vector per subject.

    Row i dotted with the coefficient vector of the regression function
    equals the integral of ``X_i(t) * beta(t)`` over subject i's interval.
    Each (basis layout, domain) group takes one cross-Gram and one
    batched product.
    """
    rows = np.empty((len(curves), basis_b.size))
    for first, idx, coeffs in group_by_layout(curves):
        if not basis_b.domain.contains(first.domain):
            raise ValueError(
                f"subject {first.subject_id} interval not inside the reference domain"
            )
        gram = cross_gram(first.basis, basis_b, first.domain)
        rows[idx] = np.matmul(coeffs[:, None, :], gram)[:, 0]
    return rows


# --- scalar covariate expansion -------------------------------------------


@dataclass(frozen=True)
class Linear:
    """Use the covariate as a single standardized column."""

    name: str


@dataclass(frozen=True)
class Categorical:
    """Dummy-code a discrete covariate, dropping the first sorted level."""

    name: str


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear term plus hinge terms (w - knot)_+ at the given knots."""

    name: str
    knots: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.knots) == 0 or np.any(np.diff(self.knots) <= 0):
            raise ValueError(f"{self.name}: knots must be nonempty and increasing")


@dataclass(frozen=True)
class SplineTerm:
    """Spline block for a covariate effect that gets its own adaptive prior.

    The block is kept separate from the ordinary scalar columns: it is not
    standardized and its coefficients are shrunk through second differences
    exactly like the functional coefficient.
    """

    name: str
    size: int
    degree: int = 3
    domain: Domain | None = None


ExpansionRule = Linear | Categorical | PiecewiseLinear | SplineTerm


@dataclass
class AdaptiveBlock:
    """Design block for one spline-expanded covariate effect."""

    name: str
    basis: BSplineBasis
    design: np.ndarray


@dataclass
class RegressionDesign:
    """Everything the sampler needs: response, reduced functional design,
    expanded scalar design, and any adaptive spline blocks."""

    y: np.ndarray
    scores: np.ndarray
    basis_b: BSplineBasis
    z: np.ndarray
    z_names: list[str]
    penalized: np.ndarray
    subject_ids: list[str]
    adaptive_blocks: list[AdaptiveBlock] = field(default_factory=list)
    scaling: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.y.size


def _as_float_column(name: str, values: np.ndarray) -> np.ndarray:
    col = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(col)):
        raise ValueError(f"covariate {name}: non-finite values")
    return col


def _standardize(col: np.ndarray) -> tuple[np.ndarray, float, float]:
    mean = float(col.mean())
    sd = float(col.std(ddof=1)) if col.size > 1 else 0.0
    if sd < 1e-12:
        return col - mean, mean, 1.0  # constant column: center only
    return (col - mean) / sd, mean, sd


def expand_scalars(
    scalars: Mapping[str, Sequence],
    rules: Sequence[ExpansionRule],
    n: int,
) -> tuple[np.ndarray, list[str], dict[str, tuple[float, float]], list[AdaptiveBlock]]:
    """Expanded scalar design (without intercept), names, scaling, spline blocks."""
    cols: list[np.ndarray] = []
    names: list[str] = []
    scaling: dict[str, tuple[float, float]] = {}
    blocks: list[AdaptiveBlock] = []
    for rule in rules:
        if rule.name not in scalars:
            raise ValueError(f"covariate {rule.name} not provided")
        raw = np.asarray(scalars[rule.name])
        if raw.shape != (n,):
            raise ValueError(f"covariate {rule.name}: expected {n} values")
        if isinstance(rule, Linear):
            col, mean, sd = _standardize(_as_float_column(rule.name, raw))
            cols.append(col)
            names.append(rule.name)
            scaling[rule.name] = (mean, sd)
        elif isinstance(rule, PiecewiseLinear):
            base = _as_float_column(rule.name, raw)
            expanded = [base] + [np.maximum(base - knot, 0.0) for knot in rule.knots]
            labels = [rule.name] + [f"{rule.name}:hinge@{knot:g}" for knot in rule.knots]
            for label, raw_col in zip(labels, expanded):
                col, mean, sd = _standardize(raw_col)
                cols.append(col)
                names.append(label)
                scaling[label] = (mean, sd)
        elif isinstance(rule, Categorical):
            levels = sorted({str(v) for v in raw})
            if len(levels) < 2:
                raise ValueError(f"covariate {rule.name}: needs at least two levels")
            as_str = np.array([str(v) for v in raw])
            for level in levels[1:]:  # first sorted level is the reference
                cols.append((as_str == level).astype(float))
                names.append(f"{rule.name}={level}")
        elif isinstance(rule, SplineTerm):
            vals = _as_float_column(rule.name, raw)
            dom = rule.domain or Domain(float(vals.min()), float(vals.max()))
            basis = BSplineBasis(dom, rule.size, rule.degree)
            blocks.append(AdaptiveBlock(rule.name, basis, eval_basis_matrix(basis, vals)))
        else:  # pragma: no cover
            raise TypeError(f"unknown expansion rule {rule!r}")
    z = np.column_stack(cols) if cols else np.empty((n, 0))
    return z, names, scaling, blocks


def build_design(
    curves: Sequence[CoefCurve],
    basis_b: BSplineBasis,
    y: Sequence[float],
    scalars: Mapping[str, Sequence] | None = None,
    rules: Sequence[ExpansionRule] | None = None,
    include_intercept: bool = True,
) -> RegressionDesign:
    """Assemble the full regression design.

    When ``rules`` is omitted, every provided scalar gets a ``Linear``
    expansion if numeric and ``Categorical`` otherwise.  The intercept, when
    included, is appended as a final unpenalized column of ones.
    """
    y = np.asarray(y, dtype=float)
    n = len(curves)
    if y.shape != (n,):
        raise ValueError(f"expected {n} responses, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite responses")
    ids = [c.subject_id for c in curves]
    if len(set(ids)) != n:
        raise ValueError("duplicate subject ids")

    scalars = scalars or {}
    if rules is None:
        rules = []
        for name, values in scalars.items():
            arr = np.asarray(values)
            if arr.dtype.kind in "fiu":
                rules.append(Linear(name))
            else:
                rules.append(Categorical(name))
    z, names, scaling, blocks = expand_scalars(scalars, rules, n)
    penalized = np.ones(z.shape[1], dtype=bool)
    if include_intercept:
        z = np.column_stack([z, np.ones(n)])
        names = names + ["(intercept)"]
        penalized = np.append(penalized, False)

    scores = functional_scores(curves, basis_b)
    return RegressionDesign(
        y=y,
        scores=scores,
        basis_b=basis_b,
        z=z,
        z_names=names,
        penalized=penalized,
        subject_ids=ids,
        adaptive_blocks=blocks,
        scaling=scaling,
    )


# --- delimited-text interchange -------------------------------------------


def write_curves(path, curves: Sequence[CurveObservation]) -> None:
    """Long-format curve file: subject_id, t, x with a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "t", "x"])
        for curve in curves:
            for t, x in zip(curve.t, curve.x):
                writer.writerow([curve.subject_id, repr(float(t)), repr(float(x))])


def read_curves(path) -> list[CurveObservation]:
    """Read a long-format curve file; rows for one subject must be contiguous.

    The body is parsed by one ``np.loadtxt`` call with the csv module's
    quoting, so ids may hold commas, quotes and ``#``.  A subject whose
    rows are split by another subject's is an error.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or [h.strip() for h in header[:3]] != ["subject_id", "t", "x"]:
            raise ValueError(f"{path}: expected header subject_id,t,x")
        with warnings.catch_warnings():
            # a header-only file is an empty cohort, not a problem to report
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                body = np.loadtxt(
                    fh, delimiter=",", comments=None, quotechar='"', usecols=(0, 1, 2),
                    dtype=[("id", object), ("t", float), ("x", float)], ndmin=1,
                )
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
    if body.size == 0:
        return []
    ids = body["id"]
    t = np.ascontiguousarray(body["t"])
    x = np.ascontiguousarray(body["x"])
    starts = np.r_[0, np.flatnonzero(ids[1:] != ids[:-1]) + 1]
    stops = np.r_[starts[1:], ids.size]
    seen: set[str] = set()
    curves = []
    for a, b in zip(starts, stops):
        sid = ids[a]
        if sid in seen:
            raise ValueError(f"{path}: rows of subject {sid} are not contiguous")
        seen.add(sid)
        curves.append(CurveObservation(sid, t[a:b], x[a:b]))
    return curves


def write_scalars(
    path,
    subject_ids: Sequence[str],
    y: Sequence[float],
    scalars: Mapping[str, Sequence] | None = None,
) -> None:
    """Scalar file: subject_id, response, then one column per covariate."""
    scalars = scalars or {}
    names = list(scalars)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "response"] + names)
        for i, sid in enumerate(subject_ids):
            row = [sid, repr(float(y[i]))]
            for name in names:
                value = scalars[name][i]
                row.append(repr(float(value)) if isinstance(value, (int, float, np.floating)) else str(value))
            writer.writerow(row)


def read_scalars(path) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]]:
    """Read a scalar file; covariate columns are numeric when fully parseable."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["subject_id", "response"]:
            raise ValueError(f"{path}: expected header subject_id,response,...")
        names = [h.strip() for h in header[2:]]
        ids: list[str] = []
        y: list[float] = []
        raw: list[list[str]] = []
        for line in reader:
            if not line:
                continue
            ids.append(line[0])
            y.append(float(line[1]))
            raw.append(line[2:])
    scalars: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        column = [row[j] for row in raw]
        try:
            scalars[name] = np.array([float(v) for v in column])
        except ValueError:
            scalars[name] = np.array(column)
    return ids, np.array(y), scalars

