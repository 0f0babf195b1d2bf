"""Outside-in tracing: spans around blochlab's public functions, and their sums.

A :class:`Recorder` wraps functions; each call records one span
``[name, start, end, parent]`` in memory, where ``parent`` is the index of
the enclosing span or -1.  Span names are ``<layer>.<qualname>`` and the
layer is the blochlab module that defines the function, so
``spectrum.BandStructure.state_matrix`` belongs to ``spectrum``.  NumPy's
dense ``eigh`` is traced as its own layer, ``linalg``.

The rest of the module turns span files and ``-X importtime`` logs into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import re
import time
from collections import defaultdict

LAYERS = ("config", "grid", "derivatives", "lattice", "spectrum", "wannier",
          "observables", "superselection", "dynamics", "cli")

# Name and unit of every per-layer metric, in the order BENCHMARK.json lists
# them.  Times are totals over all traced jobs of one run.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS + ("linalg",)),
    *((f"{layer}.calls", "count") for layer in LAYERS),
    ("import.python_s", "s"),
    ("import.blochlab_s", "s"),
    ("import.scipy_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "B"),
    ("observables.cell_periodicity_defect_s", "s"),
    ("superselection.selection_scan_self_s", "s"),
    ("observables.materialize_s", "s"),
    ("observables.locality_report_s", "s"),
    ("lattice.build_translation_s", "s"),
    ("dynamics.exact_amplitude_first_s", "s"),
    ("dynamics.exact_amplitude_rest_s", "s"),
    ("dynamics.cell_transport_profile_s", "s"),
    ("dynamics.linear_response_slope_s", "s"),
    ("dynamics.first_order_error_exponent_s", "s"),
    ("linalg.eigh_calls", "count"),
    ("linalg.eigh_max_n", "count"),
    ("spectrum.classify_by_translation_s", "s"),
    ("lattice.commutator_norm_s", "s"),
    ("spectrum.solve_bands_s", "s"),
    ("derivatives.momentum_power_matrix_s", "s"),
    ("lattice.build_hamiltonian_s", "s"),
    ("wannier.build_wannier_s", "s"),
    ("wannier.wannier_projector_s", "s"),
    ("superselection.winding_number_s", "s"),
    ("spectrum.eigen_residual_max", "energy"),
    ("spectrum.orthonormality_defect", "1"),
    ("spectrum.route_energy_gap_max", "energy"),
    ("trace.overhead_s", "s"),
    ("trace.health_s", "s"),
    ("trace.job_wall_s", "s"),
    ("trace.probe_wall_s", "s"),
    ("trace.remainder_s", "s"),
)

# Inclusive time of these spans, summed, gives the metric of the same name.
_INCLUSIVE = {
    "observables.cell_periodicity_defect_s": ("observables.cell_periodicity_defect",),
    "observables.materialize_s": ("observables.materialize",),
    "observables.locality_report_s": ("observables.locality_report",),
    "lattice.build_translation_s": ("lattice.build_translation",),
    "dynamics.cell_transport_profile_s": ("dynamics.cell_transport_profile",),
    "dynamics.linear_response_slope_s": ("dynamics.linear_response_slope",),
    "dynamics.first_order_error_exponent_s": ("dynamics.first_order_error_exponent",),
    "spectrum.classify_by_translation_s": ("spectrum.classify_by_translation",),
    "lattice.commutator_norm_s": ("lattice.commutator_norm",),
    "spectrum.solve_bands_s": ("spectrum.solve_bands",),
    "derivatives.momentum_power_matrix_s": ("derivatives.momentum_power_matrix",),
    "lattice.build_hamiltonian_s": ("lattice.build_hamiltonian",),
    "wannier.build_wannier_s": ("wannier.build_wannier",),
    "wannier.wannier_projector_s": ("wannier.wannier_projector",),
    "superselection.winding_number_s": ("superselection.winding_number",),
    "cli.write_s": ("cli.write_csv", "cli.write_json"),
}


class Recorder:
    """Keeps spans in memory while ``active``; wrappers pass through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span named ``name`` per call.

        ``observe(args, kwargs, result)`` runs after a recorded call returns,
        inside its span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def note_max(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may overlap or stick out of it (clock skew, or a
    span closed late); only the union of their intervals clipped to the
    parent is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing, from a ``python -X importtime`` log.

    ``blochlab_s`` is every top-level import of a ``blochlab`` module,
    ``python_s`` every other top-level import (interpreter start-up and the
    tracer's own), ``scipy_s`` every scipy import not nested in another
    scipy import, wherever it happened.  ``total_s`` is all top-level
    imports, so ``python_s + blochlab_s == total_s``.
    """
    entries = [(len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6)
               for m in map(_IMPORT_LINE.match, text.splitlines()) if m]
    out = {"python_s": 0.0, "blochlab_s": 0.0, "scipy_s": 0.0, "total_s": 0.0}
    # The log prints children before their parent, so walking it backwards
    # meets every ancestor before its descendants.
    ancestors: list[str] = []
    for depth, module, cumulative in reversed(entries):
        del ancestors[depth:]
        is_scipy = module.split(".")[0] == "scipy"
        if is_scipy and not any(a.split(".")[0] == "scipy" for a in ancestors):
            out["scipy_s"] += cumulative
        if depth == 0:
            out["total_s"] += cumulative
            key = "blochlab_s" if module.split(".")[0] == "blochlab" else "python_s"
            out[key] += cumulative
        ancestors.append(module)
    return out


def job_metrics(doc: dict, importtime: str) -> dict[str, float]:
    """Per-layer sums for one traced job: its span file and its import log."""
    spans = doc["spans"]
    out: dict[str, float] = defaultdict(float)
    first_amplitude_seen = False
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent = span
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += own
        out[f"{layer}.calls"] += 1
        if name == "superselection.selection_scan":
            out["superselection.selection_scan_self_s"] += own
        elif name == "dynamics.exact_amplitude":
            which = "rest" if first_amplitude_seen else "first"
            out[f"dynamics.exact_amplitude_{which}_s"] += end - start
            first_amplitude_seen = True
        elif name == "linalg.eigh":
            out["linalg.eigh_calls"] += 1
        if parent < 0:
            out["trace.root_s"] += end - start
    for metric, names in _INCLUSIVE.items():
        out[metric] += sum(end - start for name, start, end, _ in spans if name in names)
    for key, value in parse_importtime(importtime).items():
        out[f"import.{key}"] += value
    out["linalg.eigh_max_n"] = doc["counters"].get("linalg.eigh_max_n", 0)
    out["trace.health_s"] = doc["health_s"]
    for key, value in doc["health"].items():
        out[f"spectrum.{key}"] = value
    return out


_MAXIMA = ("linalg.eigh_max_n", "spectrum.eigen_residual_max",
           "spectrum.orthonormality_defect", "spectrum.route_energy_gap_max")


def run_metrics(traced: list[dict], probes: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``traced`` and ``probes`` hold, per job, ``wall_s``, ``bytes``, and the
    ``job_metrics`` sums as ``sums``.  ``traced`` are the workload's own
    jobs, whose untraced twins took ``untraced_wall_s`` in total.
    """
    total: dict[str, float] = defaultdict(float)
    for job in traced + probes:
        for key, value in job["sums"].items():
            if key in _MAXIMA:
                total[key] = max(total[key], value)
            else:
                total[key] += value
        total["cli.bytes_written"] += job["bytes"]
        total["trace.job_wall_s"] += job["wall_s"]
    total["trace.probe_wall_s"] = sum(job["wall_s"] for job in probes)
    total["trace.overhead_s"] = sum(
        job["wall_s"] - job["sums"]["trace.health_s"] for job in traced) - untraced_wall_s
    total["trace.remainder_s"] = (total["trace.job_wall_s"] - total["import.total_s"]
                                  - total["trace.root_s"] - total["trace.health_s"])
    return {name: {"value": float(total[name]), "unit": unit} for name, unit in PER_LAYER}
