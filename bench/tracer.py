"""Span tracer that wraps the package's layer functions from outside.

``Tracer.install()`` replaces each traced function at every place it is
bound: the defining module, every ``decaygraph`` module that imported it by
name (``decay`` and ``response`` hold their own ``eigendecompose``, ``io``
and ``figures`` their own ``build``), the package namespace, and the class
for methods (``EigenSystem.degenerate_groups``).  ``uninstall()`` puts the
originals back.  Spans live in memory, each with the job id and the span
that caused it; a call that re-enters the span it is already inside
(``build`` calling ``build_axis``) is folded into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer span name -> [(module, attribute)], attribute "Class.method" for methods
LAYERS = {
    "cli.main": [("cli", "main")],
    "io.parse_spec": [("io", "parse_spec")],
    "io.export": [("io", name) for name in (
        "hamiltonian_csv", "spectrum_csv", "profiles_csv", "charges_csv", "sweep_csv",
        "decay_report_json", "selection_json",
    )],
    "lattice.build": [("lattice", name) for name in (
        "build", "build_axis", "build_ring_hamiltonian", "build_circulant_hamiltonian",
        "build_obc_chain", "build_product_lattice", "raw_hamiltonian",
    )],
    "lattice.edge_list": [("lattice", "edge_list")],
    "spectra.eigendecompose": [("spectra", "eigendecompose")],
    "spectra.closed_form": [("spectra", name) for name in (
        "alternating_ring_modes", "ring_analytic_spectrum", "ring_solutions_as_system",
        "circulant_analytic_spectrum", "obc_analytic_spectrum", "kron_sum_spectrum",
    )],
    "spectra.degenerate_groups": [("spectra", "EigenSystem.degenerate_groups")],
    "decay.pure_decay_check": [("decay", "pure_decay_check")],
    "decay.extract_decay_constants": [("decay", "extract_decay_constants")],
    "decay.charges": [("decay", name) for name in (
        "charge_map", "verify_charge_equality", "amplitude_charges",
    )],
    "response.steady_state": [("response", "steady_state")],
    "response.frequency_sweep": [("response", "frequency_sweep")],
    "figures.run_figure": [("figures", "run_figure")],
}
WITH_FAILED = ("spectra.eigendecompose", "spectra.closed_form", "decay.charges", "response.steady_state")
BYTES_LAYER = "io.export"


class Tracer:
    """Records (job, id, parent, name, start, end, failed, bytes) spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = {
                "job": tracer.job,
                "id": len(tracer.spans),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "failed": False,
            }
            tracer.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if name == BYTES_LAYER:
                span["bytes"] = len(result.encode())
            return result

        return traced

    def install(self) -> None:
        owners = {name: importlib.import_module(f"decaygraph.{name}")
                  for sites in LAYERS.values() for name, _ in sites}
        modules = [m for key, m in sys.modules.items() if key.startswith("decaygraph") and m]
        wrappers = {}
        for name, sites in LAYERS.items():
            for module_name, attr in sites:
                owner = owners[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                else:
                    original = getattr(owner, attr)
                    wrappers[id(original)] = (original, self._wrap(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer: calls, self_s, failed and (for io.export) bytes."""
    out = {name: {"calls": 0, "self_s": 0.0, "failed": 0, "bytes": 0} for name in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        agg = out[span["name"]]
        agg["calls"] += 1
        agg["self_s"] += own
        agg["failed"] += int(span["failed"])
        agg["bytes"] += span.get("bytes", 0)
    return out
