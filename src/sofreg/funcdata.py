"""Functional observations, covariate expansion, and regression design assembly.

A functional predictor enters the model only through its integral against
the coefficient function.  Each observed curve is projected onto a spline
basis by least squares, and the integral collapses to a bilinear form in
the two coefficient vectors through a cross-Gram matrix.  Subjects may be
observed on different subintervals of the reference domain; the Gram
matrix is then computed over the subject's own interval, once for all the
subjects that share it.

Curves travel through the pipeline as two columnar sets: a ``CurveSet``
holds one value matrix per shared sampling grid and a ``CoefSet`` one
coefficient matrix per (basis layout, domain).  Sets are the only input
the functions here take.  Indexing or iterating a set gives per-subject
views, ``CurveObservation`` and ``CoefCurve``, whose arrays are rows of
their group's matrix.

Scalar covariates enter linearly: a numeric one as a standardized column,
any other dummy-coded.  With an unpenalized intercept and the curve
scores they form the ``RegressionDesign`` the sampler consumes.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
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

    t: np.ndarray
    x: np.ndarray

    @property
    def domain(self) -> Domain:
        return Domain(float(self.t[0]), float(self.t[-1]))


@dataclass
class CoefCurve:
    """Spline-coefficient representation of one curve on its domain."""

    coeffs: np.ndarray
    basis: BSplineBasis
    domain: Domain


@dataclass(frozen=True)
class CurveGroup:
    """Subjects sampled on one shared grid."""

    rows: np.ndarray  # the members' positions in their set, increasing
    t: np.ndarray  # (L,)
    x: np.ndarray  # (members, L)

    @property
    def domain(self) -> Domain:
        return Domain(float(self.t[0]), float(self.t[-1]))


@dataclass(frozen=True)
class CoefGroup:
    """Subjects whose curves share one basis layout and one domain."""

    rows: np.ndarray  # the members' positions in their set, increasing
    coeffs: np.ndarray  # (members, K)
    basis: BSplineBasis
    domain: Domain


class _GroupedSet(SequenceABC):
    """Subjects in a fixed order, stored as groups that share a layout.

    Indexing and iteration yield one record per subject, whose arrays
    are views into its group's matrix; a slice gives a list of records.
    A subject's id is the entry of ``ids`` at its position.
    """

    def __init__(self, ids: Sequence[str], groups: Sequence) -> None:
        self.ids = list(ids)
        self.groups = list(groups)
        n = len(self.ids)
        self._group = np.full(n, -1, dtype=np.intp)
        self._pos = np.zeros(n, dtype=np.intp)
        for k, g in enumerate(self.groups):
            self._group[g.rows] = k
            self._pos[g.rows] = np.arange(g.rows.size)
        if sum(g.rows.size for g in self.groups) != n or np.any(self._group < 0):
            raise ValueError("groups must hold each subject exactly once")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return self._record(self.groups[self._group[i]], self._pos[i])


class CurveSet(_GroupedSet):
    """Observed curves, grouped by shared sampling grid."""

    groups: list[CurveGroup]

    @staticmethod
    def _record(g: CurveGroup, j: int) -> CurveObservation:
        return CurveObservation(g.t, g.x[j])

    @classmethod
    def from_columns(
        cls, ids: list[str], lengths: np.ndarray, t: np.ndarray, x: np.ndarray
    ) -> CurveSet:
        """Curves stored back to back in long columns, validated and grouped by grid.

        Each check runs on the whole columns; an error names the first
        subject in column order that fails any of them.
        """
        starts = np.r_[0, np.cumsum(lengths)[:-1]]
        inner = np.ones(max(t.size - 1, 0), dtype=bool)  # pairs of points within one curve
        inner[starts[1:] - 1] = False
        bad_points = [
            (~(np.isfinite(t) & np.isfinite(x)), "non-finite values"),
            ((t[1:] <= t[:-1]) & inner, "t must be strictly increasing"),
        ]
        failures = [(np.flatnonzero(lengths < 2), "need at least two observations")] + [
            (np.searchsorted(starts, np.flatnonzero(bad), side="right") - 1, what)
            for bad, what in bad_points
        ]
        failures = [(int(subjects[0]), what) for subjects, what in failures if subjects.size]
        if failures:
            first, what = min(failures, key=lambda f: f[0])
            raise ValueError(f"curve {ids[first]}: {what}")

        groups = []
        for size in np.unique(lengths):
            members = np.flatnonzero(lengths == size)
            if members.size == lengths.size:  # one length: the columns reshape in place
                grids, values = t.reshape(-1, size), x.reshape(-1, size)
            else:
                take = np.repeat(lengths == size, lengths)
                grids, values = t[take].reshape(-1, size), x[take].reshape(-1, size)
            if np.all(grids == grids[0]):  # one shared grid: no sorted copies of the grids
                first, which = np.zeros(1, dtype=np.intp), np.zeros(members.size, dtype=np.intp)
            else:
                _, first, which = np.unique(grids, axis=0, return_index=True, return_inverse=True)
            for k in range(first.size):
                same = which == k
                rows = members[same]
                groups.append(
                    CurveGroup(rows, grids[first[k]].copy(), values if same.all() else values[same])
                )
        groups.sort(key=lambda g: g.rows[0])
        return cls(ids, groups)


class CoefSet(_GroupedSet):
    """Spline coefficients of curves, grouped by (basis layout, domain).

    Each group's (members, K) matrix is the transpose of a C-ordered
    (K, members) array, as ``fit_curves``' least-squares solve gives it,
    so each row is a strided column.  With it, one batched product per
    group sums in the same order as a product per curve.  ``fit_curves``
    gives one group per grid, so two grids on one domain are two groups.
    """

    groups: list[CoefGroup]

    @staticmethod
    def _record(g: CoefGroup, j: int) -> CoefCurve:
        return CoefCurve(g.coeffs[j], g.basis, g.domain)


def fit_curves(curves: CurveSet, basis: BSplineBasis) -> CoefSet:
    """Least-squares spline coefficients for many curves.

    Curves sharing a grid are solved together with one factorization and
    form one coefficient group, the transpose of the (K, members) solve.
    A rank-deficient fit (grid too coarse for the basis) is an error
    rather than a silent minimum-norm solution.
    """
    groups = []
    for g in curves.groups:
        design = eval_basis_matrix(basis, g.t)
        coeffs, _, rank, _ = np.linalg.lstsq(design, g.x.T, rcond=None)
        if rank < basis.size:
            bad = curves.ids[g.rows[0]]
            raise ValueError(
                f"curve grid for subject {bad} cannot identify {basis.size} basis coefficients"
            )
        groups.append(CoefGroup(g.rows, coeffs.T, basis, g.domain))
    return CoefSet(curves.ids, groups)


def functional_scores(curves: CoefSet, basis_b: BSplineBasis) -> np.ndarray:
    """Rows of the reduced functional design: one score vector per subject.

    Row i dotted with the coefficient vector of the regression function
    equals the integral of ``X_i(t) * beta(t)`` over subject i's interval.
    Each (basis layout, domain) group takes one cross-Gram and one
    batched product.
    """
    rows = np.empty((len(curves), basis_b.size))
    for g in curves.groups:
        if not basis_b.domain.contains(g.domain):
            raise ValueError(
                f"subject {curves.ids[g.rows[0]]} interval not inside the reference domain"
            )
        gram = cross_gram(g.basis, basis_b, g.domain)
        rows[g.rows] = np.matmul(g.coeffs[:, None, :], gram)[:, 0]
    return rows


# --- scalar covariates and the regression design ---------------------------


@dataclass
class RegressionDesign:
    """Everything the sampler needs: response, reduced functional design,
    and expanded scalar design."""

    y: np.ndarray
    scores: np.ndarray
    basis_b: BSplineBasis
    z: np.ndarray
    z_names: list[str]
    penalized: np.ndarray

    @property
    def n(self) -> int:
        return self.y.size


def _standardized(name: str, raw: np.ndarray) -> np.ndarray:
    col = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(col)):
        raise ValueError(f"covariate {name}: non-finite values")
    mean = float(col.mean())
    sd = float(col.std(ddof=1)) if col.size > 1 else 0.0
    if sd < 1e-12:
        return col - mean  # constant column: center only
    return (col - mean) / sd


def expand_scalars(scalars: Mapping[str, Sequence], n: int) -> tuple[np.ndarray, list[str]]:
    """Scalar design and its column names, the intercept last.

    A numeric covariate becomes one standardized column; any other is
    dummy-coded, its first sorted level the reference.
    """
    cols: list[np.ndarray] = []
    names: list[str] = []
    for name, values in scalars.items():
        raw = np.asarray(values)
        if raw.shape != (n,):
            raise ValueError(f"covariate {name}: expected {n} values")
        if raw.dtype.kind in "fiu":
            cols.append(_standardized(name, raw))
            names.append(name)
            continue
        levels = sorted({str(v) for v in raw})
        if len(levels) < 2:
            raise ValueError(f"covariate {name}: needs at least two levels")
        as_str = np.array([str(v) for v in raw])
        for level in levels[1:]:
            cols.append((as_str == level).astype(float))
            names.append(f"{name}={level}")
    return np.column_stack(cols + [np.ones(n)]), names + ["(intercept)"]


def build_design(
    curves: CoefSet,
    basis_b: BSplineBasis,
    y: Sequence[float],
    scalars: Mapping[str, Sequence] | None = None,
) -> RegressionDesign:
    """Assemble the full regression design.

    The scalar columns come from ``expand_scalars``; all but the
    intercept are penalized.
    """
    y = np.asarray(y, dtype=float)
    n = len(curves)
    if y.shape != (n,):
        raise ValueError(f"expected {n} responses, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite responses")
    if len(set(curves.ids)) != n:
        raise ValueError("duplicate subject ids")

    z, names = expand_scalars(scalars or {}, n)
    return RegressionDesign(
        y=y,
        scores=functional_scores(curves, basis_b),
        basis_b=basis_b,
        z=z,
        z_names=names,
        penalized=np.arange(len(names)) < len(names) - 1,
    )


def assemble_design(
    curves: CurveSet,
    y: Sequence[float],
    curve_size: int,
    coef_size: int,
    degree: int,
    scalars: Mapping[str, Sequence] | None = None,
) -> tuple[CoefSet, RegressionDesign]:
    """Curves to design in one step: the curves' spline coefficients, and the design.

    Both bases span the curves' domain, the smallest interval that holds
    every sampling grid: the curves are projected on the ``curve_size``
    basis and the coefficient function is expanded in the ``coef_size`` one.
    """
    domain = Domain(
        min(g.domain.lo for g in curves.groups), max(g.domain.hi for g in curves.groups)
    )
    coefs = fit_curves(curves, BSplineBasis(domain, curve_size, degree))
    return coefs, build_design(coefs, BSplineBasis(domain, coef_size, degree), y, scalars=scalars)


# --- delimited-text interchange -------------------------------------------

_CHUNK_ROWS = 16384  # curve-file rows parsed per np.loadtxt call; bounds the reader's transients


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def write_curves(path, curves: CurveSet) -> None:
    """Long-format curve file: subject_id, t, x with a header row.

    The bytes are those of ``csv.writer`` writing ``repr`` of each float,
    CRLF line ends included.  Each grid is formatted once, into a template
    of its rows, and each subject's rows are written with one ``format``.
    """
    templates = [
        "".join(f"{{0}},{t!r},{{{j}!r}}\r\n" for j, t in enumerate(g.t.tolist(), 1))
        for g in curves.groups
    ]
    with open(path, "w", newline="") as fh:
        fh.write("subject_id,t,x\r\n")
        for sid, k, j in zip(curves.ids, curves._group.tolist(), curves._pos.tolist()):
            fh.write(templates[k].format(_csv_field(sid), *curves.groups[k].x[j].tolist()))


def _parse_chunk(path, lines: list[str], first_line: int) -> np.ndarray:
    """One chunk of curve-file rows as a structured (id, t, x) array."""
    with warnings.catch_warnings():
        # blank lines alone, or a header-only file, are no data and no problem
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(
                lines, delimiter=",", comments=None, quotechar='"', usecols=(0, 1, 2),
                dtype=[("id", object), ("t", float), ("x", float)], ndmin=1,
            )
        except ValueError as err:
            problem = err
    for k, row in enumerate(csv.reader(lines)):
        try:
            if row:
                float(row[1]), float(row[2])
        except (IndexError, ValueError):
            raise ValueError(
                f"{path}: line {first_line + k}: subject {row[0]}: "
                f"expected numeric t and x, got {row[1:]}"
            ) from None
    raise ValueError(f"{path}: {problem}") from None


def read_curves(path) -> CurveSet:
    """Read a long-format curve file; rows for one subject must be contiguous.

    The body streams through ``np.loadtxt`` in chunks of ``_CHUNK_ROWS``
    rows with the csv module's quoting, so ids may hold commas, quotes and
    ``#``.  Only the float columns and one id per run of rows are kept: a
    subject whose rows straddle a chunk boundary is joined, and a subject
    whose rows are split by another subject's is an error.  Errors name
    the file and the first bad subject.
    """
    ids: list[str] = []
    lengths: list[int] = []
    t_parts: list[np.ndarray] = []
    x_parts: list[np.ndarray] = []
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or [h.strip() for h in header[:3]] != ["subject_id", "t", "x"]:
            raise ValueError(f"{path}: expected header subject_id,t,x")
        line = 2
        while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
            body = _parse_chunk(path, lines, line)
            line += len(lines)
            if body.size == 0:
                continue
            sid = body["id"]
            starts = np.flatnonzero(np.r_[True, sid[1:] != sid[:-1]])
            runs = np.diff(np.r_[starts, sid.size]).tolist()
            first = sid[starts].tolist()
            if ids and first[0] == ids[-1]:  # the last chunk's subject goes on
                lengths[-1] += runs.pop(0)
                first.pop(0)
            ids += first
            lengths += runs
            t_parts.append(body["t"].copy())
            x_parts.append(body["x"].copy())
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            raise ValueError(f"{path}: rows of subject {sid} are not contiguous")
        seen.add(sid)
    if not ids:
        return CurveSet([], [])
    x = np.concatenate(x_parts)
    del x_parts  # one column and its parts at a time
    t = np.concatenate(t_parts)
    del t_parts
    try:
        return CurveSet.from_columns(ids, np.array(lengths), t, x)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


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
    """Read a scalar file; covariate columns are numeric when fully parseable.

    A blank covariate field is an error: it would turn a numeric column
    into a categorical one with a level per distinct value.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["subject_id", "response"]:
            raise ValueError(f"{path}: expected header subject_id,response,...")
        names = [h.strip() for h in header[2:]]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"{path}: covariate column {', '.join(repeated)} appears more than once")
        ids: list[str] = []
        y: list[float] = []
        raw: list[list[str]] = []
        for line in reader:
            if not line:
                continue
            if len(line) < 2 + len(names):
                raise ValueError(
                    f"{path}: line {reader.line_num}: subject {line[0]} has {len(line)} "
                    f"fields, expected {2 + len(names)}"
                )
            try:
                y.append(float(line[1]))
            except ValueError:
                raise ValueError(
                    f"{path}: subject {line[0]}: response {line[1]!r} is not a number"
                ) from None
            for name, value in zip(names, line[2:]):
                if not value.strip():
                    raise ValueError(
                        f"{path}: line {reader.line_num}: subject {line[0]}: "
                        f"covariate {name} is blank"
                    )
            ids.append(line[0])
            raw.append(line[2:])
    scalars: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        column = [row[j] for row in raw]
        try:
            scalars[name] = np.array([float(v) for v in column])
        except ValueError:
            scalars[name] = np.array(column)
    return ids, np.array(y), scalars

