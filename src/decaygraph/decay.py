"""Decay constants, pure-decay checks, and quantized decay charges.

Decay fitting happens on "extended chains": a ring segment together with
the one extra site its outgoing junction bond reaches.  Along those site
runs a pure decay mode is a single geometric sequence, so a least-squares
line through log|psi| recovers the per-site ratio and its residual
measures purity.  Fitted ratios are reported in the decay direction the
segment type defines: type A as |psi_m / psi_m+1| (which equals
t**(-Mtot/L)), type B as |psi_m+1 / psi_m| (t**(-Ntot/L)), so the two
base-t log magnitudes always partition unity on a two-type ring.

The decay charge of node alpha sums log_t(|psi_alpha| / |psi_j|) over its
neighbors j; it is quantized to half-integers and equals
(outgoing - incoming edges) / 2 under the package-wide orientation
convention (positive sign, checked, never assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    ChainTooShort,
    ConventionMismatch,
    DecayGraphError,
    UnderflowSites,
    ZeroAmplitude,
)
from .lattice import (
    CHAIN_A,
    CHAIN_B,
    CirculantGraph,
    Edge,
    Hamiltonian,
    ObcChain,
    SegmentedRing,
    _assemble,
    _block_rows,
    _components,
    build,
    build_axis,
    validate_hopping_ratio,
)
from . import spectra
# eigendecompose is re-exported for callers that hand pure_decay_check a
# dense system; bench/tracer.py wraps it at this binding site
from .spectra import EigenSystem, eigendecompose, least_damped_mode  # noqa: F401

PURITY_THRESHOLD = 1e-8
QUANTIZATION_TOL = 1e-9
AMPLITUDE_FLOOR = 1e-300


@dataclass(frozen=True)
class ChainFit:
    """Least-squares fit of log|psi| along one extended chain."""

    chain_id: str
    chain_type: str
    sites: tuple[int, ...]
    ratio: float
    log_t_ratio: float
    residual: float
    ln_slope: float
    ln_intercept: float


@dataclass(frozen=True)
class DecayReport:
    """Per-chain ratios, purity, and the power-partition sum for one profile."""

    per_chain: tuple[ChainFit, ...]
    partition_sum: float
    localization_node: int
    purity: float
    cross_mode_deviation: float | None = None

    def ratios_by_type(self) -> dict[str, float]:
        out: dict[str, list[float]] = {}
        for c in self.per_chain:
            out.setdefault(c.chain_type, []).append(c.ratio)
        return {k: float(np.exp(np.mean(np.log(v)))) for k, v in out.items()}


def spec_chains(spec) -> list[tuple[str, str, tuple[int, ...]]]:
    """(chain_id, chain_type, extended site run) per chain of a 1D spec.

    Ring segments span their own sites plus the next site cyclically; the
    circulant graph contributes its body run 0..N-1 plus the single wrap
    step back to node 0; the open chain is one plain run.
    """
    if isinstance(spec, SegmentedRing):
        length = spec.length
        chains = []
        start = 0
        counts: dict[str, int] = {CHAIN_A: 0, CHAIN_B: 0}
        for kind, seg_len in spec.segments:
            counts[kind] += 1
            sites = tuple((start + i) % length for i in range(seg_len + 1))
            chains.append((f"{kind}{counts[kind]}", kind, sites))
            start += seg_len
        return chains
    if isinstance(spec, CirculantGraph):
        n = spec.n_nodes
        return [
            ("body", "body", tuple(range(n))),
            ("wrap", "wrap", (n - 1, 0)),
        ]
    if isinstance(spec, ObcChain):
        return [("chain", "open", tuple(range(spec.n_sites)))]
    raise TypeError(f"no chain structure for {type(spec).__name__}")


def _lstsq_failed(err, flag):
    """np.errstate callback: the error ``np.linalg.lstsq`` raises."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _fit_chains(log_amp: np.ndarray, sites: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope, intercept and max-abs residual of the line through each row
    of the (M, n) block ``log_amp`` along one site run, each row with the
    bits of ``np.polyfit(x, y, 1)``.

    The scaled Vandermonde, its column scale and ``rcond`` are polyfit's.
    The rows go through numpy's stacked least-squares gufunc (the one
    ``np.linalg.lstsq`` calls, which refuses stacks) as (M, L, 1)
    right-hand sides: one ``gelsd`` per row with the same workspace, where
    one multi-RHS solve would change the bits.  A ``gelsd`` that does not
    converge raises ``LinAlgError``, as in ``lstsq``.
    """
    if len(sites) < 2:
        raise ChainTooShort(f"chain spans {len(sites)} site(s); need at least 2")
    y = log_amp[:, list(sites)]
    x = np.arange(len(sites), dtype=float)
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(x) * np.finfo(float).eps
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        coef = _umath_linalg.lstsq(lhs, y[..., None], rcond, signature="ddd->ddid")[0]
    slope, intercept = (coef[..., 0] / scale).T
    residual = np.max(np.abs(slope[:, None] * x + intercept[:, None] - y), axis=1)
    return slope, intercept, residual


def _amplitude(profiles: np.ndarray, spec) -> np.ndarray:
    """|profiles| as a fresh C-contiguous array, one profile per row (or a
    single profile), once each spans the spec's sites and no site is zero
    or below AMPLITUDE_FLOOR times its peak; otherwise the first failing
    profile's error."""
    amp = np.abs(np.asarray(profiles, dtype=complex), order="C")
    if amp.shape[-1] != spec.length:
        raise ChainTooShort(
            f"profile has {amp.shape[-1]} sites but the spec has {spec.length}"
        )
    peak = np.max(amp, axis=-1, keepdims=True)
    zero = (peak == 0.0).ravel()
    bad = np.flatnonzero(zero | np.any(amp < AMPLITUDE_FLOOR * peak, axis=-1).ravel())
    if bad.size and zero[bad[0]]:
        raise ZeroAmplitude("profile is identically zero")
    if bad.size:
        raise UnderflowSites(
            "profile underflows the representable floor; reduce t or the lattice size"
        )
    return amp


def extract_decay_constants(profile: np.ndarray, spec, t: float) -> DecayReport:
    """Fit per-chain amplitude ratios of one mode profile.

    The reported ratio is the decay constant in the chain type's canonical
    direction (see module docstring); partition_sum adds |log_t ratio|
    over the chain types present.
    """
    t = validate_hopping_ratio(t)
    amp = _amplitude(profile, spec)
    log_amp = np.log(amp)[None]
    ln_t = np.log(t)
    fits: list[ChainFit] = []
    for chain_id, chain_type, sites in spec_chains(spec):
        slope, intercept, residual = (float(v[0]) for v in _fit_chains(log_amp, sites))
        step = float(np.exp(slope))
        # canonical decay direction: type A chains and the circulant wrap
        # rise toward the drain with increasing fit position, so they report
        # the reciprocal of the fitted step (|psi_m / psi_m+1|); type B and
        # the circulant body report the step itself (|psi_m+1 / psi_m|).
        ratio = 1.0 / step if chain_type in (CHAIN_A, "wrap") else step
        fits.append(
            ChainFit(
                chain_id,
                chain_type,
                sites,
                ratio,
                float(np.log(ratio) / ln_t),
                residual,
                slope,
                intercept,
            )
        )
    by_type = {}
    for c in fits:
        by_type.setdefault(c.chain_type, []).append(abs(np.log(c.ratio) / ln_t))
    partition = float(sum(np.mean(v) for v in by_type.values()))
    return DecayReport(
        per_chain=tuple(fits),
        partition_sum=partition,
        localization_node=int(np.argmax(amp)),
        purity=float(max(c.residual for c in fits)),
    )


def charges_from_fit(report: DecayReport, spec, h: Hamiltonian) -> np.ndarray:
    """Charges recomputed from the fitted chains' idealized profile.

    Each site's log-amplitude is reconstructed from the fit of the chain
    that owns it (the chain whose non-extended span contains the site),
    then fed through the raw amplitude-charge sum.  Matching against the
    raw-ratio charges certifies the fits.
    """
    n = spec.length
    log_amp = np.full(n, np.nan)
    for c in report.per_chain:
        own = c.sites if c.chain_type in ("open",) else c.sites[:-1]
        for pos, site in enumerate(own):
            log_amp[site] = c.ln_intercept + c.ln_slope * pos
    if np.any(np.isnan(log_amp)):
        raise ChainTooShort("fitted chains do not cover every site")
    return amplitude_charges(np.exp(log_amp), h.edge_array, h.ts)


def _mode_profiles(sys: EigenSystem, spec, t: float, groups: list[list[int]]) -> np.ndarray:
    """Amplitude profile of the modes of ``groups``, value groups of ``sys``
    or single modes, one column per mode in increasing mode order.

    Every mode gives |v|, but the members of a group of several modes,
    whose vectors a dense solver mixes, take the group's d sqrt(diag(Q Q^H))
    max-normalized: d the unit-max gauge (``spectra._axis_gauge``), Q an
    orthonormal basis of the gauged columns v / d (0 where d <
    AMPLITUDE_FLOOR, reported as UnderflowSites).  It ignores the mixing,
    and is the pure profile d iff Q Q^H has a constant diagonal.
    """
    modes = np.sort(np.concatenate(groups))
    profiles = np.abs(sys.right_vectors[:, modes])
    groups = [g for g in groups if len(g) > 1]
    if groups:
        d = spectra._axis_gauge(spec, t)[:, None]
        for group in groups:
            gauged = np.zeros((len(d), len(group)), dtype=complex)
            np.divide(sys.right_vectors[:, group], d, out=gauged, where=d >= AMPLITUDE_FLOOR)
            q = np.linalg.qr(gauged)[0]
            p = d * np.linalg.norm(q, axis=1, keepdims=True)
            profiles[:, np.searchsorted(modes, group)] = p / p.max()
    return profiles


def _profile_source(sys: EigenSystem | None, spec, t: float):
    """(groups, profiles, least-damped mode) of the modes a profile is read
    from, ``profiles(block)`` the columns of a list of groups in increasing
    mode order.  With no system they are the closed form's of ``spec`` at
    ``t``, each mode its own group, built alone (``closed_form_columns``),
    so its N x N basis is never held; a given system's come from
    ``_mode_profiles``, a closed-form system's modes each alone and a dense
    system's value groups whole."""
    if sys is None:
        h = build(spec, t)
        return ([[n] for n in range(h.dim)],
                lambda block: np.abs(spectra.closed_form_columns(h, np.concatenate(block)).right_vectors),
                least_damped_mode(spectra.mode_values(spec, t), spectra.RESIDUAL_FACTOR * h.norm_inf()))
    alone = sys.meta.get("route") == "closed_form"
    groups = [[n] for n in range(sys.dim)] if alone else sys.degenerate_groups()
    return groups, lambda block: _mode_profiles(sys, spec, t, block), least_damped_mode(sys)


@dataclass(frozen=True)
class PurityResult:
    purity: float
    cross_mode_deviation: float
    passed: bool
    report: DecayReport


def pure_decay_check(
    sys: EigenSystem | None, spec, t: float, threshold: float = PURITY_THRESHOLD
) -> PurityResult:
    """Do all modes share one purely geometric amplitude profile?

    Passes iff the worst fit residual over every (mode, chain) pair
    (purity) and the worst pairwise profile deviation both stay at or
    below the threshold.  The pairwise deviation is the largest per-site
    spread across modes.  The report is the least-damped mode's, carrying
    both figures.

    The modes are those of ``sys``, or with no system the closed form's of
    ``spec`` at ``t``, read through ``_profile_source`` in blocks of about
    2**18 entries, each group whole in one block; per block, one amplitude
    check and one stacked fit per chain (``_fit_chains``) give each residual
    the bits of a per-mode ``np.polyfit``, and a running per-site min and
    max give the spread.
    """
    groups, profiles, mode = _profile_source(sys, spec, t)
    group = next(g for g in groups if mode in g)
    report = extract_decay_constants(profiles([group])[:, group.index(mode)], spec, t)
    chains = [c.sites for c in report.per_chain]
    residuals, low, high = [], np.inf, -np.inf
    for block in _packed(groups, _block_rows(spec.length)):
        columns = profiles(block)
        log_amp = np.log(_amplitude(columns.T, spec))
        residuals += [np.max(_fit_chains(log_amp, sites)[2]) for sites in chains]
        low, high = np.minimum(low, columns.min(axis=1)), np.maximum(high, columns.max(axis=1))
    purity, cross = float(max(residuals)), float(np.max(high - low))
    report = replace(report, purity=purity, cross_mode_deviation=cross)
    return PurityResult(purity, cross, purity <= threshold and cross <= threshold, report)


def _packed(groups: list[list[int]], size: int):
    """The ``groups`` in order, packed into lists of whole groups that each
    reach ``size`` modes (the last may hold fewer)."""
    block, count = [], 0
    for group in groups:
        block.append(group)
        count += len(group)
        if count >= size:
            yield block
            block, count = [], 0
    if block:
        yield block


def _edge_flow(e: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Per node: d summed over outgoing minus incoming edges of the (E, 3)
    array ``e``, in edge order (one bincount over [tail0, head0, tail1, ...]
    weighted [d0, -d0, d1, ...] adds exactly as a per-edge loop does)."""
    return np.bincount(e[:, :2].ravel(), np.stack([d, -d], axis=1).ravel(), n)


def amplitude_charges(profile: np.ndarray, edges: tuple[Edge, ...], ts) -> np.ndarray:
    """Per-node charge: sum of log_t(|psi_node| / |psi_neighbor|) over neighbors.

    The log base is the hopping ratio of the axis each bond lives on (the
    unique base that lands the figures' half-integer values for every t).
    ``edges`` may also be given as an (E, 3) tail/head/axis array.
    """
    amp = np.abs(np.asarray(profile, dtype=complex))
    if np.any(amp == 0.0):
        raise ZeroAmplitude("profile vanishes at a site; charges undefined")
    log_amp = np.log(amp)
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 3)
    d = (log_amp[e[:, 0]] - log_amp[e[:, 1]]) / np.log(np.atleast_1d(ts))[e[:, 2]]
    return _edge_flow(e, d, len(amp))


def combinatorial_charges(edges: tuple[Edge, ...], n_nodes: int) -> np.ndarray:
    """(outgoing - incoming) / 2 per node; sums to zero exactly."""
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 3)
    return _edge_flow(e, np.full(len(e), 0.5), n_nodes)


@dataclass(frozen=True)
class ChargeMap:
    """Both charge routes plus the quantization / conservation summary.

    ``dev_plus`` / ``dev_minus``: worst gap of every checked amplitude-charge
    vector from +/- the combinatorial charges.
    """

    amplitude_charge: np.ndarray
    combinatorial_charge: np.ndarray
    total: float
    quantized: bool
    dev_plus: float
    dev_minus: float

    @classmethod
    def from_vectors(cls, q_amp: np.ndarray, q_comb: np.ndarray, checked=()) -> "ChargeMap":
        doubled = 2.0 * q_amp
        quantized = bool(np.all(np.abs(doubled - np.round(doubled)) <= 2 * QUANTIZATION_TOL))
        vectors = (q_amp, *checked)
        dev = [max(float(np.max(np.abs(qa - s * q_comb))) for qa in vectors) for s in (1, -1)]
        return cls(q_amp, q_comb, float(np.sum(q_amp)), quantized, *dev)

    def sign(self) -> tuple[int, float]:
        """(+1, dev_plus); raises ConventionMismatch when -1 fits better."""
        if self.dev_minus < self.dev_plus:
            raise ConventionMismatch(
                f"amplitude charges match -1 * combinatorial charges "
                f"(dev {self.dev_minus:.3e} vs {self.dev_plus:.3e}); orientation convention violated"
            )
        return 1, self.dev_plus


def decay_profile(spec, t: float, sys: EigenSystem | None = None, mode: int | None = None) -> np.ndarray:
    """Amplitude profile of one mode (least-damped by default) of ``sys``,
    or of that mode's closed-form column alone when no system is given
    (``_profile_source``).  A dense mode inside a degenerate subspace, where
    numerical vectors mix, takes the subspace's profile, not a closed form."""
    groups, profiles, least = _profile_source(sys, spec, t)
    mode = least if mode is None else range(spec.length)[mode]  # IndexError out of range, as a list
    group = next(g for g in groups if mode in g)
    return profiles([group])[:, group.index(mode)]


def charge_map(spec, t: float | None = None) -> ChargeMap:
    """Build the lattice once and compute both charges from its closed form.

    A 1D lattice is a product of one axis.  Per axis, ``mode_values``
    picks the least-damped and most-damped modes (the next mode if the two
    coincide), built alone by ``closed_form_columns``; their Kronecker
    products are the two checked profiles, and the reported amplitude
    charges come from the least-damped one.
    """
    if isinstance(spec, SynthesizedChargeGraph):
        edges, n, ts, profiles = spec.edges, spec.n_nodes, spec.t, [spec.profile]
    else:
        h = build(spec, t)
        edges, n, ts = h.edge_array, h.dim, h.ts
        profiles = [np.ones(1), np.ones(1)]
        for s, at in h.axes:
            axis, values = build_axis(s, at), spectra.mode_values(s, at)
            sel = least_damped_mode(values, spectra.RESIDUAL_FACTOR * axis.norm_inf())
            most = int(np.argmin(values.imag))
            if most == sel:
                most = (sel + 1) % len(values)
            columns = np.abs(spectra.closed_form_columns(axis, [sel, most]).right_vectors)
            profiles = [np.kron(p, c) for p, c in zip(profiles, columns.T)]
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 3)
    q_amp, *checked = [amplitude_charges(p, edges, ts) for p in profiles]
    return ChargeMap.from_vectors(q_amp, combinatorial_charges(edges, n), checked)


def verify_charge_equality(spec, t: float | None = None) -> tuple[int, float]:
    """Sign relating the two charge routes (+1, else ConventionMismatch) and their gap."""
    return charge_map(spec, t).sign()


@dataclass(frozen=True)
class SynthesizedChargeGraph:
    """Directed graph built backwards from a target charge vector.

    Edges realize (OE - IE)/2 = target exactly; the bundled profile is the
    node potential solving (graph Laplacian) w = target, exponentiated in
    base t, so its amplitude charges reproduce the target as well.  This
    is the charge-level verification object for figure graphs whose edge
    sets are not published; it carries no claim that the profile is an
    eigenvector of the matrix.
    """

    n_nodes: int
    edges: tuple[Edge, ...]
    t: float
    profile: np.ndarray
    target: np.ndarray
    matrix: np.ndarray = field(compare=False, default=None)

    @property
    def length(self) -> int:
        return self.n_nodes


def _bfs_parents(adj: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first predecessors from ``start`` over the boolean adjacency
    ``adj`` (-1 where unreached), those of a queue visiting successors in
    index order: per level, a node's parent is the first in queue order that
    reaches it, and a level is queued by (parent's position, node index)."""
    parent = np.full(len(adj), -1)
    seen = np.zeros(len(adj), dtype=bool)
    seen[start], level = True, np.array([start])
    while level.size:
        reach = adj[level] & ~seen
        first = np.argmax(reach, axis=0)  # the queue position of each node's parent
        nodes = np.flatnonzero(reach.any(axis=0))
        parent[nodes], seen[nodes] = level[first[nodes]], True
        level = nodes[np.argsort(first[nodes], kind="stable")]
    return parent


def synthesize_charge_graph(target, t: float = 1.5) -> SynthesizedChargeGraph:
    """Find a simple digraph whose combinatorial charges equal ``target``.

    Greedy surplus-to-deficit matching; when a node pair is already used
    the unit is routed through an intermediate node (two edges, zero net
    charge there).  Components are stitched with charge-neutral directed
    3-cycles if the greedy phase leaves the graph disconnected.
    """
    t = validate_hopping_ratio(t)
    target = np.asarray(target, dtype=float)
    n = len(target)
    if abs(target.sum()) > 1e-12:
        raise DecayGraphError(f"target charges must sum to 0, got {target.sum()}")
    d = 2.0 * target
    if np.any(np.abs(d - np.round(d)) > 1e-12):
        raise DecayGraphError("target charges must be half-integers")
    d = np.round(d).astype(int)
    free = ~np.eye(n, dtype=bool)  # node pairs joined by no edge yet, either way
    edges: list[Edge] = []

    def add(i: int, j: int) -> None:
        edges.append(Edge(i, j))
        free[i, j] = free[j, i] = False

    remaining = d.astype(float)
    guard = 0
    while np.any(remaining != 0):
        guard += 1
        if guard > 4 * n * n:
            raise DecayGraphError("charge realization did not converge")
        x = int(np.argmax(remaining))
        y = int(np.argmin(remaining))
        # one unit x -> y along a shortest path of free pairs
        parent = _bfs_parents(free, x)
        if parent[y] < 0:
            raise DecayGraphError(
                "ran out of node pairs while realizing the charges (target too steep "
                f"for {n} nodes)"
            )
        node = y
        while node != x:
            add(int(parent[node]), node)
            node = int(parent[node])
        remaining[x] -= 1
        remaining[y] += 1

    # best-effort: stitch components with charge-neutral directed 3-cycles.
    # A disconnected result stays valid (every greedy edge balances inside
    # its own component, so the potential solve is exact per component).
    while True:
        pairs = np.array(edges, dtype=np.intp).reshape(-1, 3)
        labels = _components(n, pairs[:, :2])
        if labels.max() == 0:
            break
        # the first (a, b, c) in lexicographic order that joins two
        # components: (a, b) the first free pair across components with a
        # common free neighbour c (free @ free), then the first such c
        joins = np.argwhere((labels[:, None] != labels) & free & (free @ free))
        if joins.size == 0:
            break
        a, b = map(int, joins[0])
        c = int(np.argmax(free[a] & free[b]))
        for i, j in ((a, b), (b, c), (c, a)):
            add(i, j)

    graph = _assemble(n, pairs[:, 0], pairs[:, 1], 0, (t,), "synthesized", None)
    edges_sorted = graph.edges
    q_comb = combinatorial_charges(edges_sorted, n)
    if np.any(np.abs(q_comb - target) > 1e-12):
        raise DecayGraphError("synthesized edges do not reproduce the target charges")

    adj = (graph.matrix != 0).astype(int)
    w = np.linalg.lstsq(np.diag(adj.sum(axis=1)) - adj, target, rcond=None)[0]
    w = w - w.max()
    profile = t ** w

    g = SynthesizedChargeGraph(n, edges_sorted, t, profile, target.copy(), graph.matrix)
    dev = float(np.max(np.abs(amplitude_charges(profile, edges_sorted, t) - target)))
    if dev > QUANTIZATION_TOL:
        raise DecayGraphError(f"potential solve left charge deviation {dev:.3e}")
    return g
