"""Span tracing of pcpkit's public entry points, applied from outside.

``Tracer.install()`` replaces each entry point listed in ``ENTRY_POINTS``
with a wrapper, in memory only: module functions are replaced in every
loaded ``pcpkit`` module that holds them (``from .x import f`` copies the
reference), methods on their class.  ``uninstall()`` puts the originals
back.  Each call records one span (name, start, end, parent) plus one
work count read from its arguments or its returned object.  Spans live
in compact arrays until ``save`` writes them out; ``layer_metrics``
derives self times and the per-layer figures from them.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

from pcpkit import SolveConfig  # importing pcpkit loads every module below

# (module, attribute, class or None); the span name is "module.attr"
ENTRY_POINTS = (
    ("polynomials", "evaluate", "Polynomial"),
    ("polynomials", "evaluate", "PolyMap"),
    ("polynomials", "jacobian", "PolyMap"),
    ("residuals", "natural_map", None),
    ("enumeration", "solve_subsystem", None),
    ("enumeration", "enumerate_solutions", None),
    ("enumeration", "certify_solution", None),
    ("enumeration", "min_abs_subsystem_determinant", None),
    ("lemke", "lemke_lcp", None),
    ("homotopy", "track_natural_homotopy", None),
    ("homotopy", "track_leading_homotopy", None),
    ("probes", "r0_test", None),
    ("probes", "coercivity_probe", None),
    ("bounds", "verify_global_bound", None),
    ("genericity", "genericity_trial", None),
    ("documents", "parse_instance_document", None),
    ("documents", "report_document", None),
    ("cli", "run_command", None),
)

HOMOTOPY_OUTCOMES = {"converged": 0, "stalled": 1, "diverged": 2}

# every per-layer metric and its unit; counts and times are per traced unit
METRIC_UNITS = {
    "polynomials.evaluate_calls": "calls/unit",
    "polynomials.rows_evaluated": "rows/unit",
    "polynomials.rows_per_call": "rows/call",
    "polynomials.jacobian_calls": "calls/unit",
    "polynomials.busy_s": "s/unit",
    "residuals.natural_map_calls": "calls/unit",
    "residuals.busy_s": "s/unit",
    "enumeration.subsystems": "count/unit",
    "enumeration.starts": "count/unit",
    "enumeration.rows_per_start": "rows/start",
    "enumeration.subsystem_self_s": "s/unit",
    "enumeration.sweep_self_s": "s/unit",
    "enumeration.certify_calls": "calls/unit",
    "enumeration.certify_rejected": "count/unit",
    "enumeration.certify_busy_s": "s/unit",
    "enumeration.det_scan_calls": "calls/unit",
    "enumeration.det_scan_busy_s": "s/unit",
    "lemke.calls": "calls/unit",
    "lemke.pivots": "count/unit",
    "lemke.busy_s": "s/unit",
    "homotopy.paths": "count/unit",
    "homotopy.converged": "count/unit",
    "homotopy.stalled": "count/unit",
    "homotopy.diverged": "count/unit",
    "homotopy.checkpoints": "count/unit",
    "homotopy.self_s": "s/unit",
    "probes.calls": "calls/unit",
    "probes.samples_used": "count/unit",
    "probes.self_s": "s/unit",
    "bounds.calls": "calls/unit",
    "bounds.samples": "count/unit",
    "bounds.self_s": "s/unit",
    "genericity.trials": "count/unit",
    "genericity.skipped": "count/unit",
    "genericity.failures": "count/unit",
    "genericity.self_s": "s/unit",
    "documents.parse_s": "s/unit",
    "documents.report_s": "s/unit",
    "documents.report_bytes": "bytes/unit",
    "cli.self_s": "s/unit",
    "trace.spans": "count/unit",
    "trace.units": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "fraction",
}


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _starts(args, kwargs) -> int:
    """Newton starts of one solve_subsystem call, as the enumerator builds them."""
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None) or SolveConfig()
    x_ref = kwargs.get("x_ref", args[3] if len(args) > 3 else None)
    return cfg.starts_per_subsystem + 1 + (x_ref is not None)


def _work(name: str, args, kwargs, result) -> tuple[float, int]:
    """Work count and status of one finished call (status 1 = raised)."""
    if name == "polynomials.Polynomial.evaluate":
        return _rows(args[1] if len(args) > 1 else kwargs["x"]), 0
    if name == "enumeration.solve_subsystem":
        return _starts(args, kwargs), 0
    if name == "enumeration.enumerate_solutions":
        return len(result), 0
    if name == "lemke.lemke_lcp":
        return result.pivots, 0
    if name.startswith("homotopy."):
        return len(result.checkpoints), HOMOTOPY_OUTCOMES[result.outcome]
    if name.startswith("probes."):
        return result.samples_used, 0
    if name == "bounds.verify_global_bound":
        return result.samples, 0
    if name == "genericity.genericity_trial":
        return result.trials, 0
    if name == "documents.report_document":
        return len(result.encode("utf-8")), 0
    return 0.0, 0


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.status = array("b")
        self.extra = {"genericity.skipped": 0, "genericity.failures": 0}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, func):
        """``func`` recording one span per call under ``name``."""
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        spans = (self.name, self.parent, self.start, self.end, self.work, self.status)
        names, parents, starts, ends, works, statuses = spans
        extra = self.extra

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            works.append(0.0)
            statuses.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                ends[sid] = clock()
                statuses[sid] = 1
                stack.pop()
                raise
            ends[sid] = clock()
            stack.pop()
            works[sid], statuses[sid] = _work(name, args, kwargs, result)
            if name == "genericity.genericity_trial":
                extra["genericity.skipped"] += result.skipped
                extra["genericity.failures"] += len(result.failures)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS; patches memory, not files."""
        modules = [m for key, m in sys.modules.items()
                   if key == "pcpkit" or key.startswith("pcpkit.")]
        for module_name, attr, cls_name in ENTRY_POINTS:
            module = sys.modules[f"pcpkit.{module_name}"]
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self.wrap(f"{module_name}.{cls_name}.{attr}", original)
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "status": np.frombuffer(self.status, dtype=np.int8).astype(np.int64),
        }

    def save(self, path) -> None:
        """Write every span to an .npz file (span names in ``names``)."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer figures per traced unit, derived from the recorded spans.

    A layer's busy time sums its outermost spans (those whose parent is
    not in the same layer); self time subtracts the time its direct
    child spans cover.
    """
    spans = tracer.arrays()
    names = tracer.names
    name, parent, work, status = spans["name"], spans["parent"], spans["work"], spans["status"]
    duration = spans["end"] - spans["start"]
    count = len(name)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=count)
    self_time = duration - child_time
    layers = sorted({n.split(".")[0] for n in names})
    layer_of_name = np.array([layers.index(n.split(".")[0]) for n in names] or [-1])
    layer = layer_of_name[name]
    outermost = ~has_parent | (layer[np.maximum(parent, 0)] != layer)

    def ids(span_name: str) -> np.ndarray:
        if span_name not in tracer.name_ids:
            return np.zeros(count, dtype=bool)
        return name == tracer.name_ids[span_name]

    def in_layer(layer_name: str) -> np.ndarray:
        if layer_name not in layers:
            return np.zeros(count, dtype=bool)
        return layer == layers.index(layer_name)

    # nearest enclosing solve_subsystem span of every span (-1 if none)
    in_subsystem = ids("enumeration.solve_subsystem")
    owner = np.where(in_subsystem, np.arange(count), parent)
    while True:
        climb = (owner >= 0) & ~in_subsystem[np.maximum(owner, 0)]
        if not climb.any():
            break
        owner[climb] = parent[owner[climb]]

    evaluate = ids("polynomials.Polynomial.evaluate")
    track = in_layer("homotopy")
    probe = in_layer("probes")
    certify = ids("enumeration.certify_solution")
    det_scan = ids("enumeration.min_abs_subsystem_determinant")
    starts = float(work[in_subsystem].sum())
    rows = float(work[evaluate].sum())
    calls = int(evaluate.sum())
    per_unit = 1.0 / max(units, 1)

    def busy(mask: np.ndarray) -> float:
        return float(duration[mask & outermost].sum())

    def total(mask: np.ndarray) -> float:
        return float(duration[mask].sum())

    totals = {
        "polynomials.evaluate_calls": calls,
        "polynomials.rows_evaluated": rows,
        "polynomials.jacobian_calls": int(ids("polynomials.PolyMap.jacobian").sum()),
        "polynomials.busy_s": busy(in_layer("polynomials")),
        "residuals.natural_map_calls": int(ids("residuals.natural_map").sum()),
        "residuals.busy_s": busy(in_layer("residuals")),
        "enumeration.subsystems": int(in_subsystem.sum()),
        "enumeration.starts": starts,
        "enumeration.subsystem_self_s": float(self_time[in_subsystem].sum()),
        "enumeration.sweep_self_s": float(self_time[ids("enumeration.enumerate_solutions")].sum()),
        "enumeration.certify_calls": int(certify.sum()),
        "enumeration.certify_rejected": int((certify & (status == 1)).sum()),
        "enumeration.certify_busy_s": total(certify),
        "enumeration.det_scan_calls": int(det_scan.sum()),
        "enumeration.det_scan_busy_s": total(det_scan),
        "lemke.calls": int(in_layer("lemke").sum()),
        "lemke.pivots": float(work[in_layer("lemke")].sum()),
        "lemke.busy_s": busy(in_layer("lemke")),
        "homotopy.paths": int(track.sum()),
        "homotopy.converged": int((track & (status == HOMOTOPY_OUTCOMES["converged"])).sum()),
        "homotopy.stalled": int((track & (status == HOMOTOPY_OUTCOMES["stalled"])).sum()),
        "homotopy.diverged": int((track & (status == HOMOTOPY_OUTCOMES["diverged"])).sum()),
        "homotopy.checkpoints": float(work[track].sum()),
        "homotopy.self_s": float(self_time[track].sum()),
        "probes.calls": int(probe.sum()),
        "probes.samples_used": float(work[probe].sum()),
        "probes.self_s": float(self_time[probe].sum()),
        "bounds.calls": int(in_layer("bounds").sum()),
        "bounds.samples": float(work[in_layer("bounds")].sum()),
        "bounds.self_s": float(self_time[in_layer("bounds")].sum()),
        "genericity.trials": float(work[in_layer("genericity")].sum()),
        "genericity.skipped": tracer.extra["genericity.skipped"],
        "genericity.failures": tracer.extra["genericity.failures"],
        "genericity.self_s": float(self_time[in_layer("genericity")].sum()),
        "documents.parse_s": total(ids("documents.parse_instance_document")),
        "documents.report_s": total(ids("documents.report_document")),
        "documents.report_bytes": float(work[ids("documents.report_document")].sum()),
        "cli.self_s": float(self_time[in_layer("cli")].sum()),
    }
    metrics = {key: float(value) * per_unit for key, value in totals.items()}
    # ratios; their bases are evaluate_calls and enumeration.starts
    metrics["polynomials.rows_per_call"] = rows / calls if calls else 0.0
    subsystem_rows = float(work[evaluate & (owner >= 0)].sum())
    metrics["enumeration.rows_per_start"] = subsystem_rows / starts if starts else 0.0
    metrics["trace.spans"] = float(count) * per_unit
    return metrics
