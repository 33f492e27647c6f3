"""Lattice specifications and Hamiltonian assembly.

Orientation convention (fixed globally, used by every builder and by the
edge list): a directed edge (alpha -> beta) means H[alpha, beta] = t and
H[beta, alpha] = 1.  Under this convention the node where a pure decay
mode attains its maximum amplitude (the "drain") carries all of its
t-entries in its own row.

Concretely, with ring sites numbered 0..L-1 (exports are 1-based):

* each segment owns its internal bonds plus the outgoing junction bond,
  i.e. bond (i, i+1 mod L) belongs to the segment containing site i; the
  wrap bond therefore belongs to the last segment;
* a type-A bond (i, i+1) is oriented (i+1 -> i): H[i+1, i] = t;
* a type-B bond (i, i+1) is oriented (i -> i+1): H[i, i+1] = t;
* a circulant pair {a, b} with a < b is oriented (a -> b): H[a, b] = t;
* an open chain bond (i, i+1) is oriented (i+1 -> i), like type A.

All builders produce real dense matrices with zero diagonal whose nonzero
off-diagonal entries are exactly 1.0 or exactly t.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    DimensionOverflow,
    EmptyConnectivity,
    InconsistentEntries,
    InvalidHopping,
    InvalidRing,
    SymmetryViolation,
    TrivialHopping,
)

T_MIN = 1.0 / 64.0
T_MAX = 64.0
DEFAULT_SIZE_CAP = 4096

CHAIN_A = "A"
CHAIN_B = "B"


def node_cap() -> int:
    """Configured node cap: DECAYGRAPH_SIZE_CAP env var or the 4096 default."""
    raw = os.environ.get("DECAYGRAPH_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DimensionOverflow(f"DECAYGRAPH_SIZE_CAP is not an integer: {raw!r}") from exc
    if cap < 2:
        raise DimensionOverflow(f"DECAYGRAPH_SIZE_CAP must be >= 2, got {cap}")
    return cap


def validate_hopping_ratio(t: float) -> float:
    """Check t in [1/64, 64], t != 1, and return it as a float."""
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise InvalidHopping(f"hopping ratio must be a positive real, got {t}")
    if t == 1.0:
        raise TrivialHopping("t = 1 is reciprocal (Hermitian); no decay structure")
    if t < T_MIN or t > T_MAX:
        raise InvalidHopping(f"hopping ratio {t} outside supported range [{T_MIN}, {T_MAX}]")
    return t


@dataclass(frozen=True)
class SegmentedRing:
    """Directed ring made of alternating type-A / type-B chain segments.

    ``segments`` is an ordered tuple of (chain_type, length) pairs.  Either a
    single type-A segment (a uniform periodic directed ring, the "M = 0"
    case) or an even number of segments alternating A, B, A, B, ... with the
    first segment of type A, so that site numbering matches the figure
    conventions (site 0 is the first site of the first A segment).
    """

    segments: tuple[tuple[str, int], ...]

    def __post_init__(self):
        segs = tuple((str(k).upper(), int(n)) for k, n in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise InvalidRing("ring needs at least one segment")
        for kind, length in segs:
            if kind not in (CHAIN_A, CHAIN_B):
                raise InvalidRing(f"unknown chain type {kind!r} (expected 'A' or 'B')")
            if length < 1:
                raise InvalidRing(f"segment length must be >= 1, got {length}")
        if len(segs) == 1:
            if segs[0][0] != CHAIN_A:
                raise InvalidRing("a single-segment (uniform) ring must be type A")
        else:
            if len(segs) % 2 != 0:
                raise InvalidRing("segments must alternate A,B,... cyclically (even count)")
            if segs[0][0] != CHAIN_A:
                raise InvalidRing("first segment must be type A (site 1 anchors the A chain)")
            for (k1, _), (k2, _) in zip(segs, segs[1:]):
                if k1 == k2:
                    raise InvalidRing(
                        f"adjacent segments share type {k1}; merge them explicitly"
                    )
        # a two-site ring places both bonds on the same node pair (a bond
        # multigraph); the 2-site pure-decay instance is CirculantGraph(2, [1])
        if self.length < 3:
            raise InvalidRing("ring needs at least 3 sites")

    @property
    def length(self) -> int:
        return sum(n for _, n in self.segments)

    @property
    def n_sites_a(self) -> int:
        return sum(n for k, n in self.segments if k == CHAIN_A)

    @property
    def n_sites_b(self) -> int:
        return sum(n for k, n in self.segments if k == CHAIN_B)

    @property
    def is_uniform(self) -> bool:
        return len(self.segments) == 1

    @property
    def is_two_segment(self) -> bool:
        return len(self.segments) == 2

    def site_types(self) -> list[str]:
        """Chain type of each site, in ring order."""
        out: list[str] = []
        for kind, length in self.segments:
            out.extend([kind] * length)
        return out

    def site_segments(self) -> list[int]:
        """Segment index of each site, in ring order."""
        out: list[int] = []
        for idx, (_, length) in enumerate(self.segments):
            out.extend([idx] * length)
        return out

    def bond_types(self) -> list[str]:
        """Chain type of bond (i, i+1 mod L): the type of the segment owning it."""
        return self.site_types()

    def potential(self) -> np.ndarray:
        """Base-t log-amplitudes of the pure decay profile, site 0 pinned to 0.

        Along an A bond the amplitude multiplies by t**(Mtot/L); along a B
        bond by t**(-Ntot/L).  The two per-site rates depend only on the
        type totals, and the increments close exactly around the ring.
        """
        length = self.length
        up = self.n_sites_b / length
        down = -self.n_sites_a / length
        steps = np.array([up if k == CHAIN_A else down for k in self.bond_types()])
        w = np.zeros(length)
        w[1:] = np.cumsum(steps[:-1])
        return w


@dataclass(frozen=True)
class CirculantGraph:
    """Symmetric-connectivity directed graph on N nodes.

    ``a`` is the binary connectivity vector of length N-1: nodes m and
    m+q are coupled iff a[q-1] = 1.  Validity requires a_q = a_{N-q} and
    at least one nonzero offset; use :func:`validate_circulant`.
    """

    n_nodes: int
    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))

    @property
    def length(self) -> int:
        return self.n_nodes

    @property
    def offsets(self) -> tuple[int, ...]:
        """Connected offsets q (1-based differences) with a_q = 1."""
        return tuple(q for q in range(1, self.n_nodes) if self.a[q - 1])

    @property
    def degree(self) -> int:
        """Number of neighbors of each node."""
        return len(self.offsets)

    def potential(self) -> np.ndarray:
        """Base-t log-amplitudes of the decay profile: w_m = -(m-1)/N."""
        return -np.arange(self.n_nodes) / self.n_nodes


def validate_circulant(n_nodes: int, a) -> CirculantGraph:
    """Validate a connectivity vector against the pure-decay symmetry rule.

    Raises SymmetryViolation(q) for the first offset with a_q != a_{N-q},
    and EmptyConnectivity when every offset is zero.
    """
    n_nodes = int(n_nodes)
    if n_nodes < 2:
        raise EmptyConnectivity(f"need at least 2 nodes, got {n_nodes}")
    a = tuple(int(x) for x in a)
    if len(a) != n_nodes - 1:
        raise EmptyConnectivity(
            f"connectivity vector must have length N-1 = {n_nodes - 1}, got {len(a)}"
        )
    if any(x not in (0, 1) for x in a):
        raise EmptyConnectivity("connectivity entries must be 0 or 1")
    for q in range(1, n_nodes):
        if a[q - 1] != a[n_nodes - q - 1]:
            raise SymmetryViolation(q)
    if not any(a):
        raise EmptyConnectivity("at least one connectivity offset must be 1")
    return CirculantGraph(n_nodes, a)


@dataclass(frozen=True)
class ObcChain:
    """Open-boundary nearest-neighbor chain (the oscillatory-NHSE control)."""

    n_sites: int

    def __post_init__(self):
        object.__setattr__(self, "n_sites", int(self.n_sites))
        if self.n_sites < 2:
            raise InvalidRing(f"open chain needs at least 2 sites, got {self.n_sites}")

    @property
    def length(self) -> int:
        return self.n_sites

    def potential(self) -> np.ndarray:
        """Base-t log-amplitudes of the symmetrizing gauge: w_m = m/2.

        Every bond (i+1 -> i) puts t below the diagonal and 1 above it, so
        diag(t**-w) H diag(t**w) has sqrt(t) on both sides.  The modes are
        t**w times standing waves, not pure decay.
        """
        return np.arange(self.n_sites) / 2.0


AxisSpec = Union[SegmentedRing, CirculantGraph, ObcChain]


@dataclass(frozen=True)
class ProductLattice:
    """Orthogonal product of 1D lattices, each with its own hopping ratio.

    Node index is the row-major composition of the axis indices with axis 0
    slowest-varying: node = (((i0 * L1) + i1) * L2 + i2) ...
    """

    axes: tuple[tuple[AxisSpec, float], ...]

    def __post_init__(self):
        axes = tuple((spec, validate_hopping_ratio(t)) for spec, t in self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) < 2:
            raise InvalidRing("product lattice needs at least 2 axes")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(spec.length for spec, _ in self.axes)

    @property
    def length(self) -> int:
        return int(np.prod(self.dims))


LatticeKind = Union[SegmentedRing, CirculantGraph, ObcChain, ProductLattice]


class Edge(NamedTuple):
    """Directed edge (tail -> head): H[tail, head] = t_axis, H[head, tail] = 1."""

    tail: int
    head: int
    axis: int = 0


@dataclass(frozen=True)
class Hamiltonian:
    """Dense lattice Hamiltonian plus its directed edge list and node labels.

    ``ts`` holds one hopping ratio per axis (length 1 for 1D lattices);
    ``Edge.axis`` indexes into it.  The matrix is immutable.
    """

    matrix: np.ndarray
    ts: tuple[float, ...]
    edges: tuple[Edge, ...]
    node_labels: tuple[tuple, ...]
    kind: str
    spec: object = field(compare=False, default=None)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def t(self) -> float:
        """Hopping ratio for single-axis lattices."""
        if len(self.ts) != 1:
            raise ValueError("multi-axis Hamiltonian: use .ts")
        return self.ts[0]

    def norm_inf(self) -> float:
        return float(np.max(np.sum(np.abs(self.matrix), axis=1)))

    def neighbor_pairs(self) -> list[tuple[int, int]]:
        """Coupled unordered pairs (i < j), in lexicographic order."""
        return sorted((min(e.tail, e.head), max(e.tail, e.head)) for e in self.edges)


def _check_cap(n: int, size_cap: int | None) -> None:
    cap = node_cap() if size_cap is None else size_cap
    if n > cap:
        raise DimensionOverflow(f"lattice has {n} nodes, exceeding the cap of {cap}")


def _sorted_edges(edges: list[Edge]) -> tuple[Edge, ...]:
    return tuple(sorted(edges, key=lambda e: (e.tail, e.head, e.axis)))


def build_ring_hamiltonian(ring: SegmentedRing, t: float, size_cap: int | None = None) -> Hamiltonian:
    """Assemble the L x L matrix of a segmented directed ring."""
    t = validate_hopping_ratio(t)
    _check_cap(ring.length, size_cap)
    length = ring.length
    h = np.zeros((length, length))
    edges: list[Edge] = []
    for i, bond_type in enumerate(ring.bond_types()):
        j = (i + 1) % length
        if bond_type == CHAIN_A:
            h[j, i] = t
            h[i, j] = 1.0
            edges.append(Edge(j, i))
        else:
            h[i, j] = t
            h[j, i] = 1.0
            edges.append(Edge(i, j))
    seg_idx = ring.site_segments()
    seg_off: list[int] = []
    for _, seg_len in ring.segments:
        seg_off.extend(range(seg_len))
    labels = tuple((seg_idx[i], seg_off[i]) for i in range(length))
    return Hamiltonian(h, (t,), _sorted_edges(edges), labels, "ring", ring)


def build_circulant_hamiltonian(g: CirculantGraph, t: float, size_cap: int | None = None) -> Hamiltonian:
    """Assemble the matrix with first row [0, a1*t, ..., a_{N-1}*t] and first
    column [0, a1, ..., a_{N-1}]: H[a,b] = t*a_{b-a} above the diagonal and
    a_{a-b} below it."""
    t = validate_hopping_ratio(t)
    n = g.n_nodes
    _check_cap(n, size_cap)
    h = np.zeros((n, n))
    edges: list[Edge] = []
    for i in range(n):
        for j in range(i + 1, n):
            if g.a[j - i - 1]:
                h[i, j] = t
                h[j, i] = 1.0
                edges.append(Edge(i, j))
    labels = tuple((i,) for i in range(n))
    return Hamiltonian(h, (t,), _sorted_edges(edges), labels, "circulant", g)


def build_obc_chain(chain: ObcChain, t: float, size_cap: int | None = None) -> Hamiltonian:
    """Assemble the open-boundary chain: H[i, i+1] = 1, H[i+1, i] = t."""
    t = validate_hopping_ratio(t)
    n = chain.n_sites
    _check_cap(n, size_cap)
    h = np.zeros((n, n))
    edges: list[Edge] = []
    for i in range(n - 1):
        h[i, i + 1] = 1.0
        h[i + 1, i] = t
        edges.append(Edge(i + 1, i))
    labels = tuple((i,) for i in range(n))
    return Hamiltonian(h, (t,), _sorted_edges(edges), labels, "obc_chain", chain)


def build_axis(spec: AxisSpec, t: float, size_cap: int | None = None) -> Hamiltonian:
    """Build any 1D lattice."""
    if isinstance(spec, SegmentedRing):
        return build_ring_hamiltonian(spec, t, size_cap)
    if isinstance(spec, CirculantGraph):
        return build_circulant_hamiltonian(spec, t, size_cap)
    if isinstance(spec, ObcChain):
        return build_obc_chain(spec, t, size_cap)
    raise TypeError(f"not a 1D lattice spec: {type(spec).__name__}")


def build_product_lattice(p: ProductLattice, size_cap: int | None = None) -> Hamiltonian:
    """Kronecker-sum assembly H = sum_k I x ... x H_k x ... x I.

    Axis 0 is slowest-varying in the row-major node index; edges carry
    their axis tag.
    """
    _check_cap(p.length, size_cap)
    axis_hs = [build_axis(spec, t, size_cap=max(p.dims)) for spec, t in p.axes]
    dims = p.dims
    total = p.length
    h = np.zeros((total, total))
    for k, hk in enumerate(axis_hs):
        left = int(np.prod(dims[:k], initial=1))
        right = int(np.prod(dims[k + 1:], initial=1))
        term = np.kron(np.kron(np.eye(left), hk.matrix), np.eye(right))
        h += term
    # row-major node addressing: node = multi_index . strides
    strides = [int(np.prod(dims[k + 1:], initial=1)) for k in range(len(dims))]
    edges: list[Edge] = []
    for k, hk in enumerate(axis_hs):
        left = int(np.prod(dims[:k], initial=1))
        right = strides[k]
        for e in hk.edges:
            for outer in range(left):
                for inner in range(right):
                    base = outer * dims[k] * right + inner
                    edges.append(Edge(base + e.tail * right, base + e.head * right, k))
    labels = []
    for node in range(total):
        idx = []
        rem = node
        for k in range(len(dims)):
            idx.append(rem // strides[k])
            rem %= strides[k]
        labels.append(tuple(idx))
    ts = tuple(t for _, t in p.axes)
    return Hamiltonian(h, ts, _sorted_edges(edges), tuple(labels), "product", p)


def build(spec: LatticeKind, t: float | None = None, size_cap: int | None = None) -> Hamiltonian:
    """Build any lattice spec; ``t`` is required for 1D specs only."""
    if isinstance(spec, ProductLattice):
        return build_product_lattice(spec, size_cap)
    if t is None:
        raise InvalidHopping("1D lattice requires a hopping ratio t")
    return build_axis(spec, t, size_cap)


def edge_list(h: Hamiltonian) -> tuple[Edge, ...]:
    """Re-derive the directed edge list from the matrix entries.

    For every coupled pair the two entries must be {1, t_axis} for some
    axis; anything else raises InconsistentEntries.  Result is ordered by
    (tail, head) ascending and must agree with the stored edges.
    """
    m = h.matrix
    n = h.dim
    edges: list[Edge] = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = m[i, j], m[j, i]
            if a == 0 and b == 0:
                continue
            matched = False
            for axis, t in enumerate(h.ts):
                if a == t and b == 1.0:
                    edges.append(Edge(i, j, axis))
                    matched = True
                    break
                if b == t and a == 1.0:
                    edges.append(Edge(j, i, axis))
                    matched = True
                    break
            if not matched:
                raise InconsistentEntries(
                    f"pair ({i + 1}, {j + 1}) has entries ({a}, {b}), not a {{1, t}} bond"
                )
    return _sorted_edges(edges)


def transpose(h: Hamiltonian) -> Hamiltonian:
    """Hamiltonian with every bond orientation reversed (matrix transpose)."""
    rev = tuple(Edge(e.head, e.tail, e.axis) for e in h.edges)
    return Hamiltonian(
        h.matrix.T.copy(),
        h.ts,
        _sorted_edges(list(rev)),
        h.node_labels,
        h.kind + "_transposed",
        h.spec,
    )


def raw_hamiltonian(matrix: np.ndarray, t: float | None = None, size_cap: int | None = None) -> Hamiltonian:
    """Wrap an explicit matrix (the escape hatch for hand-drawn graphs).

    The edge list is derived only when ``t`` is given and every coupled
    pair is a {1, t} bond; otherwise the edge list is empty.  Raw matrices
    never carry a pure-decay guarantee.
    """
    m = np.array(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InconsistentEntries("raw matrix must be square")
    _check_cap(m.shape[0], size_cap)
    labels = tuple((i,) for i in range(m.shape[0]))
    ts = () if t is None else (validate_hopping_ratio(t),)
    h = Hamiltonian(m, ts, (), labels, "raw", None)
    if t is not None:
        h = Hamiltonian(m, ts, edge_list(h), labels, "raw", None)
    return h
