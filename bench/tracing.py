"""In-memory spans around calls into the package, installed from outside.

A ``Tracer`` swaps chosen functions for timing wrappers in every loaded
``sofreg`` module that holds them (modules import names directly, so
patching only the defining module would miss most calls), and puts the
originals back when the ``installed`` block ends.  Each call records a
span: name, start, end and the index of the enclosing span.  Spans stay
in memory until ``dump`` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" reaches a method.
LAYER_TARGETS = [
    ("sofreg.simulate", "replicate_data", "simulate.replicate_data"),
    ("sofreg.funcdata", "read_curves", "funcdata.read_curves"),
    ("sofreg.funcdata", "read_scalars", "funcdata.read_scalars"),
    ("sofreg.funcdata", "fit_curves", "funcdata.fit_curves"),
    ("sofreg.funcdata", "build_design", "funcdata.build_design"),
    ("sofreg.gibbs", "fit", "gibbs.fit"),
    ("sofreg.gibbs", "_GibbsCore.sweep", "gibbs.sweep"),
    ("sofreg.gibbs", "sample_gaussian_by_precision", "gibbs.sample_gaussian_by_precision"),
    ("sofreg.gibbs", "save_draws", "gibbs.save_draws"),
    ("sofreg.gibbs", "load_draws", "gibbs.load_draws"),
    ("sofreg.gibbs", "summarize_coefficient", "gibbs.summarize_coefficient"),
    ("sofreg.dhs", "dhs_step", "dhs.dhs_step"),
    ("sofreg.dhs", "sample_mixture_indicators", "dhs.sample_mixture_indicators"),
    ("sofreg.dhs", "sample_log_vols_and_level", "dhs.sample_log_vols_and_level"),
    ("sofreg.dhs", "sample_log_vols_sitewise", "dhs.sample_log_vols_sitewise"),
    ("sofreg.dhs", "sample_ar_level_collapsed", "dhs.sample_ar_level_collapsed"),
    ("sofreg.dhs", "update_innovation_auxiliaries", "dhs.update_innovation_auxiliaries"),
    ("sofreg.dhs", "sample_ar_persistence", "dhs.sample_ar_persistence"),
    ("sofreg.decision", "aggregate", "decision.aggregate"),
    ("sofreg.decision", "fused_lasso_path", "decision.fused_lasso_path"),
    ("sofreg.decision", "evaluate_path", "decision.evaluate_path"),
    ("sofreg.decision", "acceptable_family", "decision.acceptable_family"),
    ("sofreg.decision", "extract_windows", "decision.extract_windows"),
    ("sofreg.decision", "analyze", "decision.analyze"),
]


class Tracer:
    """Collects spans as (name, start, end, parent index) tuples."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets=LAYER_TARGETS):
        """Swap every target for a wrapper for the length of the block."""
        undo: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, name in targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                if path:  # a method: the class is its only holder
                    holders = [owner]
                else:
                    holders = [
                        mod
                        for key, mod in list(sys.modules.items())
                        if (key == "sofreg" or key.startswith("sofreg.")) and mod is not None
                    ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    child_time: dict[int, float] = defaultdict(float)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, _parent) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["total"] += end - start
        rec["self"] += end - start - child_time[idx]
    return dict(out)


def dump(path: Path, spans) -> None:
    """Write spans as JSON rows of [name, start, end, parent index]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"spans": spans}, fh)
