"""Command-line front end: build, spectrum, decay, charges, drive, reproduce.

Exit codes: 0 all checks passed, 1 a quantitative check failed (including
a pure-decay check failing outside a reproduce control), 2 usage, parse,
or validation errors.  All file indices are 1-based; outputs are
deterministic (byte-identical across reruns of the same invocation).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys as _sys
import time
import warnings
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import decay, figures, io, response, spectra
from .errors import DecayGraphError
from .io import LatticeDocument, RawMatrix, RunManifest
from .lattice import ObcChain, ProductLattice


def _load_document(args) -> LatticeDocument:
    text = Path(args.spec).read_text()
    doc = io.parse_spec(text)
    if getattr(args, "t", None) is not None:
        if isinstance(doc.spec, (ProductLattice, RawMatrix)):
            raise DecayGraphError("--t override applies to 1D lattice documents only")
        doc = LatticeDocument(doc.spec, float(args.t))
    return doc


def _write(out_dir: Path, name: str, chunks: Iterable[str], manifest: RunManifest) -> None:
    # each chunk written as it comes: the sweep and profile exports arrive as
    # blocks of about io.ROWS_PER_DUMP rows, so no whole export is held; when
    # the chunks stop on an error, no partial file is left
    try:
        with (out_dir / name).open("w") as fh:
            fh.writelines(chunks)
    except BaseException:
        (out_dir / name).unlink(missing_ok=True)
        raise
    manifest.outputs.append(name)


def _finish(out_dir: Path, manifest: RunManifest, started: float) -> None:
    manifest.duration_s = time.perf_counter() - started
    (out_dir / "manifest.json").write_text(manifest.to_json())


def cmd_build(args, out_dir: Path, manifest: RunManifest) -> int:
    h = _load_document(args).build()
    _write(out_dir, "hamiltonian.csv", (io.hamiltonian_csv(h),), manifest)
    print(f"built {h.kind} lattice: {h.dim} nodes, {len(h.edge_array)} edges")
    return 0


def cmd_spectrum(args, out_dir: Path, manifest: RunManifest) -> int:
    doc = _load_document(args)
    if args.analytic and isinstance(doc.spec, RawMatrix):
        raise DecayGraphError(
            "no analytic spectrum for a raw matrix (rings, circulants, open chains, products)"
        )
    h = doc.build()
    want_numeric = args.numeric or not args.analytic
    rc = 0
    numeric = analytic = None
    if want_numeric:
        raw = isinstance(doc.spec, RawMatrix)
        numeric = spectra.eigendecompose(h) if raw else spectra.gauged_eigendecompose(h)
        _write(out_dir, "spectrum_numeric.csv", (io.spectrum_csv(numeric.values),), manifest)
        if args.profiles:
            _write(out_dir, "profiles_numeric.csv", io.profiles_chunks(numeric), manifest)
        numeric = numeric.values  # the N x N basis goes before closed_form runs
    if args.analytic:
        analytic = spectra.closed_form(doc.spec, doc.t, h)
        _write(out_dir, "spectrum_analytic.csv", (io.spectrum_csv(analytic.values),), manifest)
        if args.profiles:
            _write(out_dir, "profiles_analytic.csv", io.profiles_chunks(analytic), manifest)
    if numeric is not None and analytic is not None:
        dev = figures.match_deviation(numeric, analytic.values)
        tol = args.tolerance if args.tolerance is not None else 1e-8
        print(f"max eigenvalue mismatch after optimal pairing: {dev:.3e} (tolerance {tol:.1e})")
        if dev > tol:
            rc = 1
    return rc


def cmd_decay(args, out_dir: Path, manifest: RunManifest) -> int:
    doc = _load_document(args)
    if isinstance(doc.spec, (RawMatrix, ProductLattice)):
        raise DecayGraphError(
            "decay analysis runs on validated 1D families (ring, circulant, obc_chain); "
            "product lattices decompose axiswise and raw matrices carry no claim"
        )
    threshold = args.tolerance if args.tolerance is not None else decay.PURITY_THRESHOLD
    # no system: the closed form's columns go block by block, never its N x N basis
    result = decay.pure_decay_check(None, doc.spec, doc.t, threshold)
    _write(out_dir, "decay_report.json", (io.decay_report_json(result.report, result),), manifest)
    print(
        f"pure decay: {'PASS' if result.passed else 'FAIL'} "
        f"(purity {result.purity:.3e}, cross-mode {result.cross_mode_deviation:.3e})"
    )
    return 0 if result.passed else 1


def cmd_charges(args, out_dir: Path, manifest: RunManifest) -> int:
    doc = _load_document(args)
    if isinstance(doc.spec, (RawMatrix, ObcChain)):
        raise DecayGraphError(
            "charges are defined for pure-decay families (ring, circulant, product)"
        )
    cm = decay.charge_map(doc.spec, doc.t)
    _write(out_dir, "charges.csv", (io.charges_csv(cm),), manifest)
    sigma, dev = cm.sign()
    tol = args.tolerance if args.tolerance is not None else decay.QUANTIZATION_TOL
    print(
        f"charges: sigma={sigma:+d}, amplitude-vs-combinatorial deviation {dev:.3e}, "
        f"total {cm.total:.3e}, quantized={cm.quantized}"
    )
    return 0 if (dev <= tol and abs(cm.total) <= tol and cm.quantized) else 1


def cmd_drive(args, out_dir: Path, manifest: RunManifest) -> int:
    doc = _load_document(args)
    h = doc.build()
    if (args.omega_min is None) != (args.omega_max is None):
        missing = "--omega-max" if args.omega_max is None else "--omega-min"
        raise DecayGraphError(f"{missing} is missing: --omega-min and --omega-max go together")
    if args.omega_steps is not None and args.omega_min is None:
        raise DecayGraphError("--omega-steps needs --omega-min and --omega-max")
    source = args.source if args.source is not None else 1
    if not 1 <= source <= h.dim:
        raise DecayGraphError(f"--source {source} is outside 1..{h.dim}")
    # a raw matrix's dense eigensystem serves the loss, the grid, the solve
    # and the selection; a spec lattice needs only its closed-form values
    raw = isinstance(doc.spec, RawMatrix)
    sys = spectra.eigendecompose(h) if raw else spectra.closed_form_values(doc.spec, doc.t, h)
    overrides = {"amplitude": args.amplitude}
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    try:
        if args.omega_min is not None:
            steps = args.omega_steps
            if steps is None:
                steps = response.DEFAULT_OMEGA_POINTS
            overrides["omega_grid"] = np.linspace(args.omega_min, args.omega_max, steps)
        cfg = response.default_drive_config(h, sys, source - 1, **overrides)
    except ValueError as exc:
        default = args.gamma is None and str(exc).startswith("gamma ")  # the default loss is at fault
        margin = response.DEFAULT_GAMMA_MARGIN
        hint = f" (the default loss max Im(E) + {margin} ||H||_inf): give --gamma" if default else ""
        raise DecayGraphError(f"invalid drive option: {exc}{hint}") from exc
    # each certified block goes to sweep.csv as it comes; kept are max|x| per frequency
    # and the rows within PEAK_TIE of the running maximum, every row the tie rule can pick
    peaks, tied = np.empty(len(cfg.omega_grid)), {}

    def sweep():
        nonlocal tied
        for s, x in response._drive(h, cfg, cfg.omega_grid, sys):
            peaks[s] = np.max(np.abs(x), axis=1)
            top = (1 - response.PEAK_TIE) * peaks[:s.stop].max()
            tied = {k: v for k, v in tied.items() if peaks[k] >= top}
            tied.update((s.start + k, x[k].copy()) for k in np.flatnonzero(peaks[s] >= top).tolist())
            # the header goes with the first block
            yield from itertools.islice(io.sweep_chunks(cfg.omega_grid[s], x), min(s.start, 1), None)
            del x  # not held through the next block's solve

    _write(out_dir, "sweep.csv", sweep(), manifest)
    # an E -> -E symmetric spectrum has mirror peaks at +-omega: ties go to the lowest omega
    i = int(np.flatnonzero(peaks >= (1 - response.PEAK_TIE) * peaks.max())[0])
    try:
        if raw:
            selection = response.mode_selection_check(tied[i], sys)
        else:
            selection = response.transform_mode_selection(tied[i], h)
    except BaseException:
        # a failed selection leaves no sweep.csv either
        (out_dir / "sweep.csv").unlink()
        manifest.outputs.remove("sweep.csv")
        raise
    omega = float(cfg.omega_grid[i])
    _write(out_dir, "selection.json", (io.selection_json(selection, omega),), manifest)
    print(
        f"drive: peak at omega={omega:.6g}, overlap with least-damped mode "
        f"{selection.overlap:.4f}, selected mode {selection.selected_mode + 1}"
        f"{' (least damped)' if selection.matches else ''}"
    )
    return 0


def cmd_reproduce(args, out_dir: Path, manifest: RunManifest) -> int:
    ids = list(figures.FIGURES) if args.figure == "all" else [args.figure]
    results = []
    all_ok = True
    for figure_id in ids:
        result = figures.run_figure(figure_id)
        results.append(result)
        all_ok = all_ok and result.passed
        tag = "PASS" if result.passed else "FAIL"
        note = " [expected-fail control]" if result.expected_fail_control else ""
        print(f"[{result.figure}] {tag}{note}")
        for name, info in result.details.items():
            mark = "ok" if info["ok"] else "VIOLATED"
            extra = f" value={info['value']!r}" if "value" in info else ""
            print(f"    {name}: {mark}{extra}")
    payload = {
        r.figure: {
            "passed": r.passed,
            "expected_fail_control": r.expected_fail_control,
            "details": r.details,
        }
        for r in results
    }
    _write(out_dir, "checks.json", (json.dumps(payload, sort_keys=True, indent=2) + "\n",), manifest)
    return 0 if all_ok else 1


@functools.cache  # one parser per process: main() runs once per job
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaygraph",
        description="Directed-graph lattices with pure decay modes: build, "
        "diagonalize, verify charges, and emulate driven measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True, tolerance=False):
        if spec_required:
            p.add_argument("--spec", required=True, help="JSON lattice document")
            p.add_argument("--t", type=float, default=None, help="override hopping ratio (1D)")
        p.add_argument("--out", default="decaygraph-out", help="output directory")
        if tolerance:
            p.add_argument("--tolerance", type=float, help="override check tolerance")

    p = sub.add_parser("build", help="assemble the Hamiltonian and export its entries")
    common(p)
    p = sub.add_parser("spectrum", help="numerical and/or analytic eigensystem exports")
    common(p, tolerance=True)
    p.add_argument("--numeric", action="store_true", help="dense eigensolver route (default)")
    p.add_argument("--analytic", action="store_true", help="closed-form route for structured families")
    p.add_argument("--profiles", action="store_true", help="also export per-mode profiles")
    p = sub.add_parser("decay", help="pure-decay check and decay-constant report")
    common(p, tolerance=True)
    p = sub.add_parser("charges", help="amplitude and combinatorial decay charges")
    common(p, tolerance=True)
    p = sub.add_parser("drive", help="steady-state frequency sweep and mode selection")
    common(p)
    p.add_argument("--gamma", type=float, default=None, help="uniform loss rate")
    p.add_argument("--source", type=int, default=None, help="drive node (1-based)")
    p.add_argument("--amplitude", type=float, default=1.0, help="drive amplitude")
    p.add_argument("--omega-min", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--omega-steps", type=int, default=None)
    p = sub.add_parser("reproduce", help="run canned figure configurations and their checks")
    p.add_argument("figure", choices=sorted(figures.FIGURES) + ["all"])
    common(p, spec_required=False)
    return parser


COMMANDS = {
    "build": cmd_build,
    "spectrum": cmd_spectrum,
    "decay": cmd_decay,
    "charges": cmd_charges,
    "drive": cmd_drive,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        spec_path=getattr(args, "spec", "") or "",
        command=args.command,
        overrides={
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "spec", "out") and v not in (None, False)
        },
    )
    try:
        # recorded per call, not once per source line; one stderr line each
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = COMMANDS[args.command](args, out_dir, manifest)
            finally:
                for w in caught:
                    manifest.warnings.append({"category": w.category.__name__, "message": str(w.message)})
                    print(f"warning: {w.category.__name__}: {w.message}", file=_sys.stderr)
    except DecayGraphError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        manifest.error, rc = {"class": type(exc).__name__, "message": str(exc)}, 2
    _finish(out_dir, manifest, started)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
