"""Spec-file parsing, canonical serialization, and CSV/JSON exports.

File conventions: all site/node/mode indices in exported files are
1-based (matching the figure numbering); every float is written as the
bytes of its Python repr() (shortest round-trip digits), so identical
inputs always produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
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
from .response import ModeSelection
from .spectra import EigenSystem

TOOL_VERSION = "0.1.0"
ROWS_PER_DUMP = 4096


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


def _integer(value, name: str) -> int:
    """``int(value)``, refusing a number with a fractional part, which int()
    would truncate."""
    n = int(value)
    if isinstance(value, float) and value != n:
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    return n


def _parse_lattice(obj: dict, where: str = "lattice") -> LatticeDocument:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _need(obj, "kind", where)
    try:
        if kind == "ring":
            t = float(_need(obj, "t", where))
            segments = _need(obj, "segments", where)
            segs = tuple(
                (_need(seg, "type", f"{where}.segments[{i}]"),
                 _integer(_need(seg, "len", f"{where}.segments[{i}]"), f"{where}.segments[{i}].len"))
                for i, seg in enumerate(segments)
            )
            return LatticeDocument(SegmentedRing(segs), t)
        if kind == "circulant":
            t = float(_need(obj, "t", where))
            g = validate_circulant(_integer(_need(obj, "n", where), f"{where}.n"), _need(obj, "a", where))
            return LatticeDocument(g, t)
        if kind == "obc_chain":
            t = float(_need(obj, "t", where))
            return LatticeDocument(ObcChain(_integer(_need(obj, "n", where), f"{where}.n")), t)
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
            dim = _integer(_need(obj, "dim", where), f"{where}.dim")
            entries = tuple(
                (_integer(r, f"{where}.entries[{i}] row"), _integer(c, f"{where}.entries[{i}] col"),
                 float(re), float(im))
                for i, (r, c, re, im) in enumerate(_need(obj, "entries", where))
            )
            seen = set()
            for r, c, re, im in entries:
                why = (f"outside 1..{dim}" if not (1 <= r <= dim and 1 <= c <= dim) else "listed twice"
                       if (r, c) in seen else None if math.isfinite(re) and math.isfinite(im)
                       else f"is not finite: re {re}, im {im}")
                if why:
                    raise ValidationError(f"{where}: entry ({r},{c}) {why}")
                seen.add((r, c))
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


def _dump(values: np.ndarray) -> str:
    """orjson's JSON array of a C-contiguous float64 array."""
    import orjson  # loaded on first export, not at package import

    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()


def _odd_tokens(values: np.ndarray) -> list[str]:
    """repr's text of the 1-D ``values``, each non-finite or of magnitude
    1e-9 <= |v| < 1e-4 or |v| >= 1e16.

    orjson writes repr's digits there in another notation: ``1e-7`` and
    ``1e16`` where repr writes ``1e-07`` and ``1e+16``, ``0.0000123`` where
    repr writes ``1.23e-05``, and ``null`` for nan and +-inf.  The
    exponent forms are rewritten in bulk, one dump each; the ``0.0000``
    decade and the non-finite values go one at a time.
    """
    a = np.abs(values)
    tokens = np.empty(len(values), dtype=object)
    for mask, old, new in (
        (a < 1e-5, "e-", "e-0"),  # exponents -6 to -9
        (np.isfinite(a) & (a >= 1e16), "e", "e+"),
    ):
        if mask.any():
            tokens[mask] = _dump(values[mask])[1:-1].replace(old, new).split(",")
    decade = (a >= 1e-5) & (a < 1e-4)
    if decade.any():
        # 0.0000123 -> 1.23e-05, 0.00001 -> 1e-05
        digits = _dump(a[decade])[1:-1].replace("0.0000", "").split(",")
        signs = np.where(values[decade] < 0, "-", "").tolist()
        tokens[decade] = [
            f"{s}{d[0]}.{d[1:]}e-05" if len(d) > 1 else f"{s}{d}e-05" for s, d in zip(signs, digits)
        ]
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        tokens[i] = repr(float(values[i]))
    return tokens.tolist()


def _rows(values: np.ndarray, *leads: list[str]) -> str:
    """One line ``leads[0][i],...,leads[-1][i],v,v,...,v`` per row of the
    (R, C) float block, each float in the bytes of its repr.

    The block goes through one orjson dump, whose shortest round-trip
    digits (Ryu) are repr's.  Zero and the magnitudes |v| < 1e-9 and
    1e-4 <= |v| < 1e16 also come out in repr's notation; every other value
    is written as null there and spliced back, in order, from
    ``_odd_tokens``.  A longer block goes ROWS_PER_DUMP rows at a time, so
    the per-row temporaries stay small.
    """
    if len(values) > ROWS_PER_DUMP:
        return "".join(
            _rows(values[i:i + ROWS_PER_DUMP], *(lead[i:i + ROWS_PER_DUMP] for lead in leads))
            for i in range(0, len(values), ROWS_PER_DUMP)
        )
    if not len(values):
        return ""
    a = np.abs(values)
    odd = ((a >= 1e-9) & (a < 1e-4)) | ~(a < 1e16)  # a NaN compares False
    text = _dump(np.where(odd, np.nan, values))
    if odd.any():
        pieces = text.split("null")
        merged = [""] * (2 * len(pieces) - 1)
        merged[::2] = pieces
        merged[1::2] = _odd_tokens(values[odd])
        text = "".join(merged)
    rows = text.split("],[")
    del text  # its memory can take the joined rows
    rows[0] = rows[0][2:]
    rows[-1] = rows[-1][:-2]
    width = 2 * len(leads) + 2  # the leads and the row text, each with its comma or newline
    lines = [","] * (width * len(rows))  # no per-row string is built
    for j, column in enumerate((*leads, rows)):
        lines[2 * j::width] = column
    lines[width - 1::width] = ["\n"] * len(rows)
    return "".join(lines)


def _index(n: int) -> list[str]:
    """Row leads "1", ..., "n"."""
    return list(map(str, range(1, n + 1)))


def _grid(leads: list[str], x: np.ndarray) -> Iterator[tuple[np.ndarray, list[str], list[str]]]:
    """The (K, N) grid ``x`` in blocks of max(1, ROWS_PER_DUMP // N) grid rows,
    each as (its entries row-major, each entry's lead ``leads[k]``, each
    entry's 1-based column)."""
    n = x.shape[1]
    columns, step = _index(n), max(1, ROWS_PER_DUMP // max(n, 1))
    for i in range(0, len(x), step):
        block = x[i:i + step]
        yield block.ravel(), [lead for lead in leads[i:i + step] for _ in columns], columns * len(block)


def hamiltonian_csv(h: Hamiltonian) -> str:
    """Nonzero entries as "row,col,real,imag", 1-based, row-major order,
    read from ``Hamiltonian.entries`` (the edges of a built lattice).  Only
    the distinct entries, keyed by bit pattern (-0.0 is not 0.0), go through
    ``_rows``; each line is gathered from their lines and the node indices."""
    rows, cols, values = h.entries()
    bits = values.view(np.int64 if values.dtype == float else "V16")  # a complex entry's 16 bytes
    distinct, inverse = np.unique(bits, return_inverse=True)
    distinct = distinct.view(values.dtype)
    table = np.array(_rows(np.column_stack([distinct.real, distinct.imag])).splitlines(True), dtype=object)
    index = np.array([i + "," for i in _index(h.dim)], dtype=object)
    lines = np.stack([index[rows], index[cols], table[inverse]], axis=1)  # "row," "col," "re,im\n"
    return "row,col,real,imag\n" + "".join(lines.ravel().tolist())


def spectrum_csv(values: np.ndarray) -> str:
    """Eigenvalues as "n,re_E,im_E" in the system's mode order (1-based n)."""
    values = np.asarray(values)
    return "n,re_E,im_E\n" + _rows(np.column_stack([values.real, values.imag]), _index(len(values)))


def _modulus(x: np.ndarray) -> np.ndarray:
    """|x| with the bits of numpy's scalar abs: a finite value whose
    modulus passes the float max gives inf."""
    with np.errstate(over="ignore"):
        return np.hypot(x.real, x.imag)


def profiles_chunks(sys: EigenSystem) -> Iterator[str]:
    """Per-mode profiles as "n,site,re_psi,im_psi,abs_psi" (1-based): the
    header, then the modes in blocks of about ROWS_PER_DUMP rows
    (``_grid``), one string per block."""
    yield "n,site,re_psi,im_psi,abs_psi\n"
    for x, modes, sites in _grid(_index(sys.dim), sys.right_vectors.T):
        yield _rows(np.column_stack([x.real, x.imag, _modulus(x)]), modes, sites)


def profiles_csv(sys: EigenSystem) -> str:
    """The whole ``profiles_chunks`` export as one string."""
    return "".join(profiles_chunks(sys))


def charges_csv(cm: ChargeMap) -> str:
    block = np.column_stack([cm.amplitude_charge, cm.combinatorial_charge])
    return "node,Q_amplitude,Q_combinatorial\n" + _rows(block, _index(len(block)))


def sweep_chunks(omegas: np.ndarray, x: np.ndarray) -> Iterator[str]:
    """One row "omega,node,abs_x,re_x,im_x" per frequency and node (1-based)
    of the (F, N) sweep ``x`` over the grid ``omegas``: the header, then
    consecutive frequencies in blocks of about ROWS_PER_DUMP rows
    (``_grid``), one ``_rows`` string per block, so a writer holds one block
    at a time, never the whole export.

    All five CSV exports write each float as the bytes of its Python repr
    (``_rows``): repr of a Python float is repr of the numpy scalar, and
    ``np.hypot`` of the parts gives the bits of numpy's scalar abs
    (``_modulus``).
    """
    yield "omega,node,abs_x,re_x,im_x\n"
    for v, leads, nodes in _grid(list(map(repr, np.asarray(omegas, dtype=float).tolist())), x):
        yield _rows(np.column_stack([_modulus(v), v.real, v.imag]), leads, nodes)


def sweep_csv(omegas: np.ndarray, x: np.ndarray) -> str:
    """The whole ``sweep_chunks`` export as one string."""
    return "".join(sweep_chunks(omegas, x))


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
    """What a CLI invocation did: inputs, command, outputs, warnings, timing, error."""

    spec_path: str
    command: str
    overrides: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION
    outputs: list[str] = field(default_factory=list)
    warnings: list[dict] = field(default_factory=list)
    duration_s: float = 0.0
    error: dict | None = None  # class and message of the failure behind an exit 2

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"
