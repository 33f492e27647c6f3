"""Spec-file parsing, canonical serialization, and CSV/JSON exports.

File conventions: all site/node/mode indices in exported files are
1-based (matching the figure numbering); floats are written with repr()
so identical inputs always produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .decay import ChargeMap, DecayReport, PurityResult
from .errors import DecayGraphError, ParseError, ValidationError
from .lattice import (
    CirculantGraph,
    Hamiltonian,
    ObcChain,
    ProductLattice,
    SegmentedRing,
    build,
    raw_hamiltonian,
    validate_circulant,
)
from .response import ModeSelection, ResponseProfile
from .spectra import EigenSystem

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class RawMatrix:
    """Escape hatch: explicit matrix entries, 1-based (row, col, re, im).

    Accepted for spectra and driven response; carries no pure-decay or
    charge validation claim.
    """

    dim: int
    entries: tuple[tuple[int, int, float, float], ...]
    t: float | None = None

    @property
    def length(self) -> int:
        return self.dim

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for row, col, re, im in self.entries:
            m[row - 1, col - 1] = re + 1j * im
        if np.all(m.imag == 0.0):
            return m.real.copy()
        return m


@dataclass(frozen=True)
class LatticeDocument:
    """A parsed spec file: the lattice plus its hopping ratio(s)."""

    spec: object
    t: float | None = None

    @property
    def kind(self) -> str:
        return {
            SegmentedRing: "ring",
            CirculantGraph: "circulant",
            ObcChain: "obc_chain",
            ProductLattice: "product",
            RawMatrix: "raw",
        }[type(self.spec)]

    def build(self) -> Hamiltonian:
        if isinstance(self.spec, RawMatrix):
            return raw_hamiltonian(self.spec.matrix(), self.spec.t)
        return build(self.spec, self.t)


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return obj[key]


def _parse_lattice(obj: dict, where: str = "lattice") -> LatticeDocument:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _need(obj, "kind", where)
    try:
        if kind == "ring":
            t = float(_need(obj, "t", where))
            segments = _need(obj, "segments", where)
            segs = tuple(
                (_need(seg, "type", f"{where}.segments[{i}]"), _need(seg, "len", f"{where}.segments[{i}]"))
                for i, seg in enumerate(segments)
            )
            return LatticeDocument(SegmentedRing(segs), t)
        if kind == "circulant":
            t = float(_need(obj, "t", where))
            g = validate_circulant(_need(obj, "n", where), _need(obj, "a", where))
            return LatticeDocument(g, t)
        if kind == "obc_chain":
            t = float(_need(obj, "t", where))
            return LatticeDocument(ObcChain(_need(obj, "n", where)), t)
        if kind == "product":
            axes_docs = [
                _parse_lattice(axis, f"{where}.axes[{i}]")
                for i, axis in enumerate(_need(obj, "axes", where))
            ]
            for i, doc in enumerate(axes_docs):
                if isinstance(doc.spec, (ProductLattice, RawMatrix)):
                    raise ValidationError(f"{where}.axes[{i}]: axes must be 1D lattices")
            axes = tuple((doc.spec, doc.t) for doc in axes_docs)
            return LatticeDocument(ProductLattice(axes), None)
        if kind == "raw":
            dim = int(_need(obj, "dim", where))
            entries = tuple(
                (int(r), int(c), float(re), float(im))
                for r, c, re, im in _need(obj, "entries", where)
            )
            for r, c, _, _ in entries:
                if not (1 <= r <= dim and 1 <= c <= dim):
                    raise ValidationError(f"{where}: entry ({r},{c}) outside 1..{dim}")
            t = obj.get("t")
            return LatticeDocument(RawMatrix(dim, entries, None if t is None else float(t)), None)
    except DecayGraphError as exc:
        if isinstance(exc, (ValidationError, ParseError)):
            raise
        raise ValidationError(f"{where}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    raise ValidationError(f"{where}: unknown lattice kind {kind!r}")


def parse_spec(text: str) -> LatticeDocument:
    """Parse and validate a JSON spec document (top-level key "lattice")."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(payload, dict):
        raise ValidationError("top level must be an object with a 'lattice' key")
    return _parse_lattice(_need(payload, "lattice", "document"))


def _lattice_payload(doc: LatticeDocument) -> dict:
    spec = doc.spec
    if isinstance(spec, SegmentedRing):
        return {
            "kind": "ring",
            "t": doc.t,
            "segments": [{"type": k, "len": n} for k, n in spec.segments],
        }
    if isinstance(spec, CirculantGraph):
        return {"kind": "circulant", "t": doc.t, "n": spec.n_nodes, "a": list(spec.a)}
    if isinstance(spec, ObcChain):
        return {"kind": "obc_chain", "t": doc.t, "n": spec.n_sites}
    if isinstance(spec, ProductLattice):
        return {
            "kind": "product",
            "axes": [_lattice_payload(LatticeDocument(s, t)) for s, t in spec.axes],
        }
    if isinstance(spec, RawMatrix):
        payload = {"kind": "raw", "dim": spec.dim, "entries": [list(e) for e in spec.entries]}
        if spec.t is not None:
            payload["t"] = spec.t
        return payload
    raise ValidationError(f"cannot serialize {type(spec).__name__}")


def serialize_spec(doc: LatticeDocument) -> str:
    """Canonical JSON for a lattice document; parse() round-trips it."""
    return json.dumps({"lattice": _lattice_payload(doc)}, sort_keys=True, indent=2) + "\n"


def _f(x: float) -> str:
    return repr(float(x))


def hamiltonian_csv(h: Hamiltonian) -> str:
    """Nonzero entries as "row,col,real,imag", 1-based, row-major order."""
    lines = ["row,col,real,imag"]
    rows, cols = np.nonzero(h.matrix)
    values = h.matrix[rows, cols].astype(complex)
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        lines.append(f"{r + 1},{c + 1},{_f(v.real)},{_f(v.imag)}")
    return "\n".join(lines) + "\n"


def spectrum_csv(values: np.ndarray) -> str:
    """Eigenvalues as "n,re_E,im_E" in the system's mode order (1-based n)."""
    lines = ["n,re_E,im_E"]
    for n, e in enumerate(values):
        lines.append(f"{n + 1},{_f(e.real)},{_f(e.imag)}")
    return "\n".join(lines) + "\n"


def profiles_csv(sys: EigenSystem) -> str:
    """Per-mode profiles as "n,site,re_psi,im_psi,abs_psi" (1-based)."""
    lines = ["n,site,re_psi,im_psi,abs_psi"]
    for n in range(sys.dim):
        col = sys.right_vectors[:, n]
        for site, v in enumerate(col):
            lines.append(
                f"{n + 1},{site + 1},{_f(v.real)},{_f(v.imag)},{_f(abs(v))}"
            )
    return "\n".join(lines) + "\n"


def charges_csv(cm: ChargeMap) -> str:
    lines = ["node,Q_amplitude,Q_combinatorial"]
    for i, (qa, qc) in enumerate(zip(cm.amplitude_charge, cm.combinatorial_charge)):
        lines.append(f"{i + 1},{_f(qa)},{_f(qc)}")
    return "\n".join(lines) + "\n"


def sweep_csv(profiles: list[ResponseProfile]) -> str:
    """One row "omega,node,abs_x,re_x,im_x" per frequency and node (1-based).

    Formatted one frequency block at a time from Python numbers: Python's
    complex abs gives the same bits as numpy's scalar abs, and repr of a
    Python float is repr of the numpy scalar.
    """
    blocks = ["omega,node,abs_x,re_x,im_x\n"]
    for p in profiles:
        omega = _f(p.omega)
        blocks.append("".join(
            f"{omega},{i},{abs(v)!r},{v.real!r},{v.imag!r}\n"
            for i, v in enumerate(p.x.tolist(), 1)
        ))
    return "".join(blocks)


def decay_report_json(report: DecayReport, purity: PurityResult | None = None) -> str:
    payload = {
        "per_chain": [
            {
                "chain_id": c.chain_id,
                "chain_type": c.chain_type,
                "sites": [s + 1 for s in c.sites],
                "ratio": c.ratio,
                "log_t_ratio": c.log_t_ratio,
                "fit_residual": c.residual,
            }
            for c in report.per_chain
        ],
        "partition_sum": report.partition_sum,
        "localization_node": report.localization_node + 1,
        "purity": report.purity,
        "cross_mode_deviation": report.cross_mode_deviation,
    }
    if purity is not None:
        payload["pure_decay_pass"] = purity.passed
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def selection_json(selection: ModeSelection, omega_at_peak: float) -> str:
    payload = {
        "selected_mode": selection.selected_mode + 1,
        "least_damped_mode": selection.least_damped + 1,
        "overlap": selection.overlap,
        "matches_least_damped": selection.matches,
        "omega_at_peak": omega_at_peak,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class RunManifest:
    """What a CLI invocation did: inputs, command, outputs, timing."""

    spec_path: str
    command: str
    overrides: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION
    outputs: list[str] = field(default_factory=list)
    duration_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"
