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

Each builder only lists its directed edges as (tail, head, axis) arrays,
and a built ``Hamiltonian`` stores just those edges, sorted.  One method,
``Hamiltonian.entries``, turns edges into matrix entries (once per
Hamiltonian), for the CSV export, the product H x of ``Hamiltonian.dot``,
the row sums of ``Hamiltonian.norm_inf`` and the dense matrix, which only
the dense solvers read.  So every
builder produces a real matrix with zero diagonal whose nonzero
off-diagonal entries are exactly 1.0 or exactly t.  A product lattice
repeats each axis's edges at every position of the other axes.
``edge_list`` reads the edges back from the dense matrix as an
independent check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
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
SIZE_CAP = 4096

CHAIN_A = "A"
CHAIN_B = "B"


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

    def bond_types(self) -> list[str]:
        """Chain type of bond (i, i+1 mod L): the type of the segment owning site i."""
        return [kind for kind, length in self.segments for _ in range(length)]

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
    m+q are coupled iff a[q-1] = 1.  Construction checks the pure-decay
    symmetry rule: SymmetryViolation(q) for the first offset with
    a_q != a_{N-q}, and EmptyConnectivity when every offset is zero.
    """

    n_nodes: int
    a: tuple[int, ...]

    def __post_init__(self):
        n_nodes, a = int(self.n_nodes), tuple(self.a)
        if n_nodes < 2:
            raise EmptyConnectivity(f"need at least 2 nodes, got {n_nodes}")
        if len(a) != n_nodes - 1:
            raise EmptyConnectivity(
                f"connectivity vector must have length N-1 = {n_nodes - 1}, got {len(a)}"
            )
        # checked before int(), which would truncate 0.5 to 0
        for q, x in enumerate(a, 1):
            if x not in (0, 1):
                raise EmptyConnectivity(f"connectivity entry a[{q}] must be 0 or 1, got {x!r}")
        a = tuple(int(x) for x in a)
        for q in range(1, n_nodes):
            if a[q - 1] != a[n_nodes - q - 1]:
                raise SymmetryViolation(q)
        if not any(a):
            raise EmptyConnectivity("at least one connectivity offset must be 1")
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "a", a)

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
    """The circulant graph of ``a``, which validates itself on construction."""
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


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Lattice Hamiltonian on ``dim`` nodes: its sorted directed edges.

    ``edge_array`` holds one (tail, head, axis) row per edge, sorted, and
    may be given as ``Edge`` tuples; ``ts`` holds one hopping ratio per
    axis (length 1 for 1D lattices), which ``axis`` indexes into.  A
    lattice built from its edges passes ``raw_matrix=None`` and its dense
    ``matrix`` is assembled from the edges on first read, by the dense
    solvers only; an explicit (raw) matrix is passed in as ``raw_matrix``
    and is the matrix.  Both are immutable.
    """

    raw_matrix: np.ndarray | None
    ts: tuple[float, ...]
    edge_array: np.ndarray
    dim: int
    kind: str
    spec: object = None

    def __post_init__(self):
        if self.raw_matrix is not None:
            m = np.asarray(self.raw_matrix)
            m.setflags(write=False)
            object.__setattr__(self, "raw_matrix", m)
        e = np.asarray(self.edge_array, dtype=np.intp).reshape(-1, 3)
        e.setflags(write=False)
        object.__setattr__(self, "edge_array", e)

    @property
    def t(self) -> float:
        """Hopping ratio for single-axis lattices."""
        if len(self.ts) != 1:
            raise ValueError("multi-axis Hamiltonian: use .ts")
        return self.ts[0]

    @property
    def axes(self) -> tuple[tuple[AxisSpec, float], ...]:
        """(spec, t) of each axis of a lattice built from a spec, axis 0
        first: a product's axes, or the 1D spec as its one axis."""
        return self.spec.axes if isinstance(self.spec, ProductLattice) else ((self.spec, self.t),)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The stored edges as ``Edge`` tuples of Python ints, in stored order."""
        return tuple(map(Edge, *self.edge_array.T.tolist()))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix (read-only): a raw matrix as given, otherwise
        the edges' entries scattered into zeros on first read."""
        if self.raw_matrix is not None:
            return self.raw_matrix
        (m,) = self._dense_rows(self.dim)
        m.setflags(write=False)
        return m

    def _dense_rows(self, step: int):
        """The dense matrix in blocks of ``step`` rows: a raw matrix's row
        slices, or the edges' entries of those rows scattered into zeros."""
        if self.raw_matrix is not None:
            for i in range(0, self.dim, step):
                yield self.raw_matrix[i:i + step]
            return
        rows, cols, values = self.entries()
        for i in range(0, self.dim, step):
            lo, hi = np.searchsorted(rows, (i, i + step))
            block = np.zeros((min(step, self.dim - i), self.dim))
            block[rows[lo:hi] - i, cols[lo:hi]] = values[lo:hi]
            yield block

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero entries (rows, cols, values) in row-major order, as
        read-only arrays formed once per Hamiltonian.

        A raw matrix gives ``np.nonzero`` of itself, its values as float64
        or complex128.  A built lattice gives its edges' entries, the one
        place edges become entries: H[tail, head] = ts[axis] and
        H[head, tail] = 1 for every edge.
        """
        return self._entries

    @cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.raw_matrix is not None:
            m = self.raw_matrix
            rows, cols = np.nonzero(m)
            found = rows, cols, m[rows, cols].astype(np.result_type(m.dtype, float), copy=False)
        else:
            tail, head, axis = self.edge_array.T
            rows = np.concatenate([tail, head])
            cols = np.concatenate([head, tail])
            values = np.concatenate([np.asarray(self.ts, dtype=float)[axis], np.ones(len(tail))])
            order = np.argsort(rows * self.dim + cols, kind="stable")  # row-major
            found = rows[order], cols[order], values[order]
        for a in found:
            a.setflags(write=False)
        return found

    def norm_inf(self) -> float:
        """Largest absolute row sum of ``matrix``, summed over ``_dense_rows``
        blocks of about 2**18 entries (a built lattice never assembles
        ``matrix`` for it); computed once per Hamiltonian."""
        return self._norm_inf

    @cached_property
    def _norm_inf(self) -> float:
        blocks = self._dense_rows(_block_rows(self.dim))
        return float(np.max([np.sum(np.abs(block), axis=1).max() for block in blocks]))

    def dot(self, x: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows ``lo:hi`` of H x for x of shape (dim,) or (dim, k), taken
        through ``entries()`` with the bits of a CSR sparse product
        (sparsetools' csr_matvecs): each row adds its products in column
        order, starting from +0.0.

        The entries go rank by rank (``_layout``) over row chunks of about
        ``_CHUNK_FLOATS`` floats, so a chunk's sums stay in cache.  Real
        entries scale a float view of x.  A CSR product multiplies a real
        entry by a complex x as a + 0j, whose 0 * inf makes a non-finite x
        NaN in the other part too, so a complex chunk that is not finite is
        redone by the complex product (``_complex_times``).
        """
        hi = self.dim if hi is None else min(hi, self.dim)
        x, values = np.asarray(x), self.entries()[2]
        real, dtype = values.dtype.kind == "f", np.result_type(values, x)
        xc = np.ascontiguousarray(x[:, None] if x.ndim == 1 else x, dtype=dtype)
        out = np.zeros((hi - lo, xc.shape[1]), dtype=dtype)
        xv, ov = (xc.view(float), out.view(float)) if real else (xc, out)
        step = max(1, _CHUNK_FLOATS // max(xv.shape[1], 1))
        buf = np.empty((min(step, hi - lo), xv.shape[1]), dtype=xv.dtype)
        # inf * 0 and NaN * 0 are NaN, so a chunk's dot with zeros is NaN
        # exactly when the chunk is not finite
        zeros = np.zeros(buf.size) if real and dtype.kind == "c" else None
        with np.errstate(all="ignore"):  # silent on inf and NaN, as the CSR product is
            for c0 in range(lo, hi, step):
                c1 = min(c0 + step, hi)
                chunk = ov[c0 - lo:c1 - lo]
                self._add_products(chunk, xv, c0, c1, real, buf)
                if zeros is not None and np.isnan(np.dot(chunk.ravel(), zeros[:chunk.size])):
                    chunk = out[c0 - lo:c1 - lo]
                    chunk[...] = 0.0
                    self._add_products(chunk, xc, c0, c1, False, buf)
        return out.reshape((hi - lo,) + x.shape[1:])

    def _add_products(self, out, x, lo: int, hi: int, real: bool, buf: np.ndarray) -> None:
        """Add every entry's product to the rows ``lo:hi`` held in ``out``,
        rank by rank: as a float product of x's (float-viewed) rows, in
        ``buf``, when ``real``, else as the complex product."""
        for r0s, r1s, offsets, scales, rows, cols, values in self._layout:
            for p in range(bisect_right(r1s, lo), bisect_left(r0s, hi)):
                a, b, d, v = max(r0s[p], lo), min(r1s[p], hi), offsets[p], scales[p]
                if not real:
                    term = _complex_times(v, x[a + d:b + d])
                elif v == 1.0:
                    term = x[a + d:b + d]  # 1.0 * x has the bits of x
                else:
                    term = np.multiply(v, x[a + d:b + d], out=buf[:b - a])
                np.add(out[a - lo:b - lo], term, out=out[a - lo:b - lo])
            i, j = (rows.searchsorted(lo), rows.searchsorted(hi)) if rows.size else (0, 0)
            if i < j:
                a, term = values[i:j, None], x[cols[i:j]]
                term = np.multiply(a, term, out=term) if real else _complex_times(a, term)
                if rows[j - 1] - rows[i] == j - i - 1:  # consecutive rows: one slice of out
                    target = out[rows[i] - lo:rows[j - 1] + 1 - lo]
                    np.add(target, term, out=target)
                else:
                    out[rows[i:j] - lo] += term

    @cached_property
    def _layout(self) -> list:
        """The entries as ``dot`` applies them, rank by rank, where a row's
        k-th entry in column order has rank k.  A rank's runs of consecutive
        rows that share one offset col - row and one value are each one
        slice of x: when they hold ``_MIN_RUN`` entries on average, the rank
        is kept as lists of their first rows, stop rows, offsets and values,
        otherwise as arrays of its rows, cols and (column) values, for one
        gather of x."""
        rows, cols, values = self.entries()
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        order = np.lexsort((rows, rank))
        rank, rows, cols, values = rank[order], rows[order], cols[order], values[order]
        offset = cols - rows
        starts = np.flatnonzero(np.concatenate([[rows.size > 0], (rank[1:] != rank[:-1]) | (
            rows[1:] != rows[:-1] + 1) | (offset[1:] != offset[:-1]) | (values[1:] != values[:-1])]))
        stops = rows[starts] + np.diff(np.append(starts, rows.size))
        first = np.searchsorted(rank, np.arange(rank.max(initial=-1) + 2))
        layout = []
        for a, b, ra, rb in zip(first[:-1], first[1:], *np.searchsorted(starts, (first[:-1], first[1:]))):
            if b - a >= _MIN_RUN * (rb - ra):
                s = starts[ra:rb]
                layout.append((rows[s].tolist(), stops[ra:rb].tolist(), offset[s].tolist(),
                               values[s].tolist(), rows[:0], cols[:0], values[:0]))
            else:
                layout.append(([], [], [], [], rows[a:b], cols[a:b], values[a:b]))
        return layout


# Hamiltonian.dot gathers a rank whose runs hold fewer entries than
# _MIN_RUN on average, and adds its products over row chunks of about
# _CHUNK_FLOATS floats (256 KiB)
_MIN_RUN = 4
_CHUNK_FLOATS = 1 << 15


def _complex_times(a, x: np.ndarray) -> np.ndarray:
    """a * x for complex x as a CSR sparse product forms it: (ar xr - ai xi,
    ar xi + ai xr) from separate float multiplies, a real ``a`` as a + 0j."""
    p = np.empty(np.broadcast_shapes(np.shape(a), x.shape), dtype=complex)
    np.multiply(a.real, x.real, out=p.real)
    p.real -= a.imag * x.imag
    np.multiply(a.real, x.imag, out=p.imag)
    p.imag += a.imag * x.real
    return p


def _block_rows(width: int) -> int:
    """Rows per block of about 2**18 entries of a ``width``-wide array, the
    block size that keeps every N x N pass free of N x N temporaries."""
    return max(1, (1 << 18) // width)


def _check_cap(n: int) -> None:
    if n > SIZE_CAP:
        raise DimensionOverflow(f"lattice has {n} nodes, exceeding the cap of {SIZE_CAP}")


def _sorted_edges(tail, head, axis) -> np.ndarray:
    """(E, 3) intp array of directed edges sorted by (tail, head, axis);
    ``axis`` may be a scalar for 1D lattices."""
    tail, head = np.asarray(tail, dtype=np.intp), np.asarray(head, dtype=np.intp)
    axis = np.broadcast_to(np.asarray(axis, dtype=np.intp), tail.shape)
    return np.stack([tail, head, axis], axis=1)[np.lexsort((axis, head, tail))]


def _assemble(n, tail, head, axis, ts, kind, spec) -> Hamiltonian:
    """Hamiltonian on ``n`` nodes of directed edges given as index arrays,
    stored sorted.  No dense matrix is allocated here."""
    return Hamiltonian(None, tuple(ts), _sorted_edges(tail, head, axis), n, kind, spec)


def _components(n: int, pairs: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined (in either
    direction) by the rows of the (E, 2) integer index array ``pairs``,
    numbered by smallest node.  Each pair hooks the larger of its ends'
    roots under the smaller and every node jumps to its root, until every
    pair shares one root: its component's smallest node."""
    label = np.arange(n)
    while not np.array_equal(ra := label[pairs[:, 0]], rb := label[pairs[:, 1]]):
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(label, jumped := label[label]):
            label = jumped
    return np.unique(label, return_inverse=True)[1]


def build_ring_hamiltonian(ring: SegmentedRing, t: float) -> Hamiltonian:
    """Assemble the L x L matrix of a segmented directed ring."""
    t = validate_hopping_ratio(t)
    _check_cap(ring.length)
    length = ring.length
    i = np.arange(length)
    j = (i + 1) % length
    is_a = np.array(ring.bond_types()) == CHAIN_A
    return _assemble(length, np.where(is_a, j, i), np.where(is_a, i, j), 0, (t,), "ring", ring)


def build_circulant_hamiltonian(g: CirculantGraph, t: float) -> Hamiltonian:
    """Assemble the matrix with first row [0, a1*t, ..., a_{N-1}*t] and first
    column [0, a1, ..., a_{N-1}]: H[a,b] = t*a_{b-a} above the diagonal and
    a_{a-b} below it."""
    t = validate_hopping_ratio(t)
    n = g.n_nodes
    _check_cap(n)
    tail = np.concatenate([np.arange(n - q) for q in g.offsets])
    head = np.concatenate([np.arange(q, n) for q in g.offsets])
    return _assemble(n, tail, head, 0, (t,), "circulant", g)


def build_obc_chain(chain: ObcChain, t: float) -> Hamiltonian:
    """Assemble the open-boundary chain: H[i, i+1] = 1, H[i+1, i] = t."""
    t = validate_hopping_ratio(t)
    n = chain.n_sites
    _check_cap(n)
    i = np.arange(n - 1)
    return _assemble(n, i + 1, i, 0, (t,), "obc_chain", chain)


def build_axis(spec: AxisSpec, t: float) -> Hamiltonian:
    """Build any 1D lattice."""
    if isinstance(spec, SegmentedRing):
        return build_ring_hamiltonian(spec, t)
    if isinstance(spec, CirculantGraph):
        return build_circulant_hamiltonian(spec, t)
    if isinstance(spec, ObcChain):
        return build_obc_chain(spec, t)
    raise TypeError(f"not a 1D lattice spec: {type(spec).__name__}")


def build_product_lattice(p: ProductLattice) -> Hamiltonian:
    """Kronecker-sum lattice H = sum_k I x ... x H_k x ... x I.

    Axis 0 is slowest-varying in the row-major node index; each axis edge
    is repeated at every position of the other axes and carries its axis
    tag.
    """
    _check_cap(p.length)
    dims = p.dims
    nodes = np.arange(p.length).reshape(dims)
    tails, heads, axes = [], [], []
    for k, (spec, t) in enumerate(p.axes):
        axis_edges = build_axis(spec, t).edge_array
        # along[..., i]: the nodes whose axis-k coordinate is i, one per
        # position of the other axes (row-major order)
        along = np.moveaxis(nodes, k, -1)
        tails.append(along[..., axis_edges[:, 0]].ravel())
        heads.append(along[..., axis_edges[:, 1]].ravel())
        axes.append(np.full(tails[-1].size, k))
    return _assemble(
        p.length, np.concatenate(tails), np.concatenate(heads), np.concatenate(axes),
        tuple(t for _, t in p.axes), "product", p,
    )


def build(spec: LatticeKind, t: float | None = None) -> Hamiltonian:
    """Build any lattice spec; ``t`` is required for 1D specs only."""
    if isinstance(spec, ProductLattice):
        return build_product_lattice(spec)
    if t is None:
        raise InvalidHopping("1D lattice requires a hopping ratio t")
    return build_axis(spec, t)


def edge_list(h: Hamiltonian) -> tuple[Edge, ...]:
    """Re-derive the directed edge list from the matrix entries.

    For every coupled pair the two entries must be {1, t_axis} for some
    axis (the first matching axis wins, a forward match before a backward
    one); anything else raises InconsistentEntries for the first such pair
    in row-major order.  Result is ordered by (tail, head) ascending and
    must agree with the stored edges.
    """
    m = h.matrix
    i, j = np.nonzero(np.triu((m != 0) | (m.T != 0), 1))
    a, b = m[i, j], m[j, i]
    tail, head, axis = i.copy(), j.copy(), np.full(i.size, -1)
    for k, t in enumerate(h.ts):
        fwd = (axis < 0) & (a == t) & (b == 1.0)
        axis[fwd] = k
        bwd = (axis < 0) & (b == t) & (a == 1.0)
        tail[bwd], head[bwd], axis[bwd] = j[bwd], i[bwd], k
    bad = np.flatnonzero(axis < 0)
    if bad.size:
        p = bad[0]
        raise InconsistentEntries(
            f"pair ({i[p] + 1}, {j[p] + 1}) has entries ({a[p]}, {b[p]}), not a {{1, t}} bond"
        )
    order = np.lexsort((axis, head, tail))
    return tuple(map(Edge, tail[order].tolist(), head[order].tolist(), axis[order].tolist()))


def transpose(h: Hamiltonian) -> Hamiltonian:
    """Hamiltonian with every bond orientation reversed (matrix transpose)."""
    e = h.edge_array
    raw = None if h.raw_matrix is None else h.raw_matrix.T.copy()
    return Hamiltonian(
        raw, h.ts, _sorted_edges(e[:, 1], e[:, 0], e[:, 2]), h.dim, h.kind + "_transposed", h.spec
    )


def raw_hamiltonian(matrix: np.ndarray, t: float | None = None) -> Hamiltonian:
    """Wrap an explicit matrix (the escape hatch for hand-drawn graphs).

    Without ``t`` the edge list is empty.  With ``t`` it is derived from
    the entries (``edge_list``), and a coupled pair that is not a {1, t}
    bond raises InconsistentEntries.  Raw matrices never carry a pure-decay
    guarantee.
    """
    m = np.array(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InconsistentEntries("raw matrix must be square")
    _check_cap(m.shape[0])
    ts = () if t is None else (validate_hopping_ratio(t),)
    h = Hamiltonian(m, ts, (), m.shape[0], "raw", None)
    if t is not None:
        h = Hamiltonian(m, ts, edge_list(h), m.shape[0], "raw", None)
    return h
