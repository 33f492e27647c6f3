"""Independent numeric oracles shared by the test modules.

Everything here deliberately avoids the library's own computational
paths: characteristic polynomials come from the Faddeev-LeVerrier trace
recursion with roots from the companion matrix, eigenvalue multisets are
compared by optimal assignment, and the resolvent oracle expands over an
explicitly inverted eigenvector matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from scipy.optimize import linear_sum_assignment


def traced_peak(fn):
    """(fn(), the peak of the memory traced by tracemalloc during the call):
    the bytes numpy and Python allocated on top of what was alive before."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def match_deviation(a, b) -> float:
    """Max |a_i - b_sigma(i)| over the optimal pairing sigma."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    assert len(a) == len(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def faddeev_leverrier_coeffs(m: np.ndarray):
    """Characteristic polynomial coefficients [1, c1, ..., cn] via the
    trace recursion M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k.

    Computed in exact rational arithmetic: real lattice matrices hold
    dyadic floats, so the coefficients come out exact and repeated roots
    stay recoverable to full precision downstream.
    """
    from fractions import Fraction

    a = np.asarray(m)
    if np.iscomplexobj(a):
        if np.any(a.imag != 0):
            raise ValueError("exact recursion expects a real matrix")
        a = a.real
    n = a.shape[0]
    af = [[Fraction(float(x)) for x in row] for row in a]
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        shifted = [
            [mk[i][j] + (coeffs[k - 1] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        mk = [
            [sum(af[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        coeffs.append(-sum(mk[i][i] for i in range(n)) / k)
    return coeffs


def charpoly_roots(m: np.ndarray) -> np.ndarray:
    """Roots of the exact characteristic polynomial, multiplicities intact.

    Exactness matters for degenerate spectra: a multiplicity-q root of a
    float-coefficient polynomial is only recoverable to eps**(1/q).  With
    exact rational coefficients a square-free factorization splits off
    each repeated factor, whose simple roots are then well-conditioned.
    """
    import sympy

    coeffs = faddeev_leverrier_coeffs(m)
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in coeffs], x)
    roots: list[complex] = []
    _, factors = sympy.sqf_list(poly)
    for factor, multiplicity in factors:
        fc = [complex(c) for c in sympy.Poly(factor, x).all_coeffs()]
        for r in np.roots(fc):
            roots.extend([complex(r)] * multiplicity)
    return np.array(roots)


def circulant_dft_eigenvalues(first_row: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant with given first row, by plain DFT sums."""
    c = np.asarray(first_row, dtype=complex)
    n = len(c)
    k = np.arange(n)
    return np.array([np.sum(c * np.exp(2j * np.pi * k * kk / n)) for kk in range(n)])


def two_by_two_inverse_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 solve via the adjugate."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    return inv @ b


def resolvent_expansion(h: np.ndarray, z: complex, source: int, amplitude: float = 1.0) -> np.ndarray:
    """x = sum_n v_n (w_n . e_s) / (z - E_n) with w from a direct inverse."""
    values, vectors = np.linalg.eig(h)
    inv = np.linalg.inv(vectors)
    weights = inv[:, source] * amplitude / (z - values)
    return vectors @ weights


def kron_sum_matrix(axis_matrices) -> np.ndarray:
    """Dense Kronecker sum H = sum_k I x ... x H_k x ... x I, axis 0 slowest."""
    dims = [m.shape[0] for m in axis_matrices]
    total = int(np.prod(dims))
    h = np.zeros((total, total))
    for k, hk in enumerate(axis_matrices):
        left = int(np.prod(dims[:k], initial=1))
        right = int(np.prod(dims[k + 1:], initial=1))
        h += np.kron(np.kron(np.eye(left), hk), np.eye(right))
    return h


def all_small_lattices(max_dim=8):
    """Every buildable 1D lattice with at most max_dim nodes."""
    import itertools

    import decaygraph as dg

    specs = []
    # two-segment rings (L >= 3: the 2-site ring is a bond multigraph)
    for n in range(1, max_dim):
        for m in range(1, max_dim - n + 1):
            if n + m >= 3:
                specs.append(dg.SegmentedRing((("A", n), ("B", m))))
    # four-segment alternating rings
    for n1, m1, n2, m2 in itertools.product(range(1, 4), repeat=4):
        if n1 + m1 + n2 + m2 <= max_dim:
            specs.append(dg.SegmentedRing((("A", n1), ("B", m1), ("A", n2), ("B", m2))))
    # uniform periodic rings
    for length in range(3, max_dim + 1):
        specs.append(dg.SegmentedRing((("A", length),)))
    # all symmetric circulants
    for n in range(2, max_dim + 1):
        for a in symmetric_binary_vectors(n):
            specs.append(dg.validate_circulant(n, a))
    # open chains
    for n in range(2, max_dim + 1):
        specs.append(dg.ObcChain(n))
    return specs


def symmetric_binary_vectors(n: int, weight: int | None = None):
    """All valid circulant connectivity vectors for n nodes: a_q = a_{n-q},
    not all zero, optionally restricted to a given number of neighbors."""
    import itertools

    half = (n - 1) // 2
    has_middle = n % 2 == 0
    out = []
    for bits in itertools.product((0, 1), repeat=half + (1 if has_middle else 0)):
        a = [0] * (n - 1)
        for i in range(half):
            a[i] = bits[i]
            a[n - 2 - i] = bits[i]
        if has_middle:
            a[n // 2 - 1] = bits[-1]
        if not any(a):
            continue
        if weight is not None and sum(a) != weight:
            continue
        out.append(tuple(a))
    return sorted(set(out))


def loop_amplitude_charges(profile, edges, ts) -> np.ndarray:
    """Amplitude charges accumulated one edge at a time (reference)."""
    if np.isscalar(ts):
        ts = (float(ts),)
    log_amp = np.log(np.abs(np.asarray(profile, dtype=complex)))
    q = np.zeros(len(log_amp))
    for e in edges:
        d = (log_amp[e.tail] - log_amp[e.head]) / np.log(ts[e.axis])
        q[e.tail] += d
        q[e.head] -= d
    return q


def loop_combinatorial_charges(edges, n_nodes: int) -> np.ndarray:
    """(outgoing - incoming) / 2 accumulated one edge at a time (reference)."""
    q = np.zeros(n_nodes)
    for e in edges:
        q[e.tail] += 0.5
        q[e.head] -= 0.5
    return q


def loop_edge_list(m: np.ndarray, ts):
    """Directed edges read pair by pair from a matrix (reference).

    Per pair the first matching axis wins, a forward match before a
    backward one; an inconsistent pair raises InconsistentEntries.
    """
    import decaygraph as dg

    n = m.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = m[i, j], m[j, i]
            if a == 0 and b == 0:
                continue
            for axis, t in enumerate(ts):
                if a == t and b == 1.0:
                    edges.append(dg.Edge(i, j, axis))
                    break
                if b == t and a == 1.0:
                    edges.append(dg.Edge(j, i, axis))
                    break
            else:
                raise dg.InconsistentEntries(
                    f"pair ({i + 1}, {j + 1}) has entries ({a}, {b}), not a {{1, t}} bond"
                )
    return tuple(sorted(edges))


def union_find_groups(values, tol: float) -> list[list[int]]:
    """Indices grouped by the transitive closure of |E_i - E_j| < tol,
    joined pair by pair with a union-find (reference)."""
    parent = list(range(len(values)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < tol:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(values)):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


def union_find_synthesize(target, t: float = 1.5):
    """Charge-graph synthesis with the hand-written breadth-first routing
    over a set of used pairs, and component stitching that tracks components
    with a union-find, one directed 3-cycle at a time (reference)."""
    import decaygraph as dg
    from decaygraph.errors import DecayGraphError
    from decaygraph.lattice import _assemble

    t = dg.validate_hopping_ratio(t)
    target = np.asarray(target, dtype=float)
    n = len(target)
    if abs(target.sum()) > 1e-12:
        raise DecayGraphError(f"target charges must sum to 0, got {target.sum()}")
    d = 2.0 * target
    if np.any(np.abs(d - np.round(d)) > 1e-12):
        raise DecayGraphError("target charges must be half-integers")
    d = np.round(d).astype(int)
    used: set[tuple[int, int]] = set()
    edges = []

    def free(i: int, j: int) -> bool:
        return i != j and (i, j) not in used and (j, i) not in used

    def add(i: int, j: int) -> None:
        edges.append(dg.Edge(i, j))
        used.add((i, j))

    def route(x: int, y: int) -> bool:
        if free(x, y):
            add(x, y)
            return True
        parent = {x: None}
        queue = [x]
        while queue:
            node = queue.pop(0)
            for z in range(n):
                if z in parent or not free(node, z):
                    continue
                parent[z] = node
                if z == y:
                    path = [y]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    for a, b in zip(path, path[1:]):
                        add(a, b)
                    return True
                queue.append(z)
        return False

    remaining = d.astype(float)
    guard = 0
    while np.any(remaining != 0):
        guard += 1
        if guard > 4 * n * n:
            raise DecayGraphError("charge realization did not converge")
        x = int(np.argmax(remaining))
        y = int(np.argmin(remaining))
        if not route(x, y):
            raise DecayGraphError(
                "ran out of node pairs while realizing the charges (target too steep "
                f"for {n} nodes)"
            )
        remaining[x] -= 1
        remaining[y] += 1

    comp = list(range(n))

    def root(i: int) -> int:
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for e in edges:
        comp[root(e.tail)] = root(e.head)
    stitched = True
    while stitched and len({root(i) for i in range(n)}) > 1:
        stitched = False
        for a in range(n):
            if stitched:
                break
            for b in range(n):
                if stitched or root(a) == root(b) or not free(a, b):
                    continue
                for c in range(n):
                    if c in (a, b) or not (free(b, c) and free(c, a)):
                        continue
                    add(a, b)
                    add(b, c)
                    add(c, a)
                    comp[root(a)] = root(b)
                    comp[root(b)] = root(c)
                    stitched = True
                    break

    pairs = np.array(edges).reshape(-1, 3)
    graph = _assemble(n, pairs[:, 0], pairs[:, 1], 0, (t,), "synthesized", None)
    if np.any(np.abs(dg.combinatorial_charges(graph.edges, n) - target) > 1e-12):
        raise DecayGraphError("synthesized edges do not reproduce the target charges")
    adj = (graph.matrix != 0).astype(int)
    w = np.linalg.lstsq(np.diag(adj.sum(axis=1)) - adj, target, rcond=None)[0]
    w = w - w.max()
    profile = t ** w
    dev = float(np.max(np.abs(dg.amplitude_charges(profile, graph.edges, t) - target)))
    if dev > 1e-9:
        raise DecayGraphError(f"potential solve left charge deviation {dev:.3e}")
    return graph.edges, profile


def eager_matrix(n: int, edges, ts) -> np.ndarray:
    """Dense matrix of directed edges filled at once from the (E, 3)
    tail/head/axis array: every H[tail, head] = t_axis, then every
    H[head, tail] = 1 (reference for the lazily assembled matrix)."""
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 3)
    h = np.zeros((n, n))
    h[e[:, 0], e[:, 1]] = np.asarray(ts, dtype=float)[e[:, 2]]
    h[e[:, 1], e[:, 0]] = 1.0
    return h


def edge_order_csr(h):
    """CSR array built from the stored edges in edge order, t entries
    first, then the 1 entries (reference for Hamiltonian.dot)."""
    from scipy.sparse import csr_array

    e = h.edge_array
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    values = np.concatenate([np.asarray(h.ts, dtype=float)[e[:, 2]], np.ones(len(e))])
    return csr_array((values, (rows, cols)), shape=(h.dim, h.dim))


def csr_reference(h):
    """The scipy CSR reference for ``h.dot``: ``edge_order_csr`` for a built
    lattice, the CSR array of the matrix for a raw one."""
    from scipy.sparse import csr_array

    return edge_order_csr(h) if h.raw_matrix is None else csr_array(h.matrix)


def drive_residual(h, cfg, omegas, x) -> float:
    """max|b - (z I - H) x| over the steady states ``x`` (one row per
    frequency of ``omegas``, or one vector), z = omega + i gamma, b the
    point drive of ``cfg`` (reference).  H x goes through ``csr_reference``,
    whose sums have the bits of ``h.dot``, so this is the residual that the
    solve certified."""
    x = np.atleast_2d(x)
    r = (csr_reference(h) @ x.T).T - (np.asarray(omegas, dtype=float)[:, None] + 1j * cfg.gamma) * x
    r[:, cfg.source_node] += cfg.amplitude
    return float(np.max(np.abs(r)))


def same_bits(a, b) -> bool:
    """Same dtype and shape, NaN at the same components (real and imaginary
    parts apart) and the same bits everywhere else: a NaN's sign and payload
    are not part of a product's result."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    fa, fb = (np.ascontiguousarray(v).view(v.real.dtype) for v in (a, b))
    nan = np.isnan(fa)
    return np.array_equal(nan, np.isnan(fb)) and fa[~nan].tobytes() == fb[~nan].tobytes()


def dense_hamiltonian_csv(h) -> str:
    """hamiltonian.csv scanned from the dense matrix with np.nonzero and
    formatted one row at a time from numpy scalars (reference)."""
    lines = ["row,col,real,imag"]
    rows, cols = np.nonzero(h.matrix)
    values = h.matrix[rows, cols].astype(complex)
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        lines.append(f"{r + 1},{c + 1},{repr(float(v.real))},{repr(float(v.imag))}")
    return "\n".join(lines) + "\n"


def per_float_rows(lead, block) -> str:
    """io._rows formatted one float at a time with repr (reference)."""
    return "".join(
        f"{prefix},{','.join(repr(v) for v in row)}\n" for prefix, row in zip(lead, block.tolist())
    )


def per_row_spectrum_csv(values) -> str:
    """spectrum.csv formatted one row at a time from numpy scalars (reference)."""
    lines = ["n,re_E,im_E"]
    for n, e in enumerate(values):
        lines.append(f"{n + 1},{repr(float(e.real))},{repr(float(e.imag))}")
    return "\n".join(lines) + "\n"


def per_row_profiles_csv(sys) -> str:
    """profiles.csv formatted one row at a time from numpy scalars, with
    numpy's scalar abs (reference)."""
    lines = ["n,site,re_psi,im_psi,abs_psi"]
    for n in range(sys.dim):
        col = sys.right_vectors[:, n]
        for site, v in enumerate(col):
            lines.append(
                f"{n + 1},{site + 1},{repr(float(v.real))},{repr(float(v.imag))},"
                f"{repr(float(abs(v)))}"
            )
    return "\n".join(lines) + "\n"


def per_row_charges_csv(cm) -> str:
    """charges.csv formatted one row at a time from numpy scalars (reference)."""
    lines = ["node,Q_amplitude,Q_combinatorial"]
    for i, (qa, qc) in enumerate(zip(cm.amplitude_charge, cm.combinatorial_charge)):
        lines.append(f"{i + 1},{repr(float(qa))},{repr(float(qc))}")
    return "\n".join(lines) + "\n"


def per_row_sweep_csv(omegas, x) -> str:
    """sweep.csv of the (F, N) sweep ``x`` over the grid ``omegas``, formatted
    one row at a time from numpy scalars (reference)."""
    lines = ["omega,node,abs_x,re_x,im_x"]
    for omega, row in zip(np.asarray(omegas, dtype=float), x):
        for i, v in enumerate(row):
            lines.append(
                f"{repr(float(omega))},{i + 1},{repr(float(abs(v)))},"
                f"{repr(float(v.real))},{repr(float(v.imag))}"
            )
    return "\n".join(lines) + "\n"


def per_mode_pure_decay_check(sys, spec, t: float, threshold: float = 1e-8):
    """pure_decay_check as one full DecayReport per mode (reference): the
    purity is the worst report's, and the least-damped mode's report is
    kept."""
    from dataclasses import replace

    import decaygraph as dg
    from decaygraph import decay

    profiles = decay._mode_profiles(sys, spec, t)
    reports = [dg.extract_decay_constants(p, spec, t) for p in profiles.T]
    purity = float(max(r.purity for r in reports))
    cross = float(np.max(np.ptp(profiles, axis=1)))
    sel = dg.least_damped_mode(sys)
    report = replace(reports[sel], purity=purity, cross_mode_deviation=cross)
    return dg.PurityResult(purity, cross, purity <= threshold and cross <= threshold, report)


def polyfit_chain(log_amp: np.ndarray, sites: tuple[int, ...]) -> tuple[float, float, float]:
    """Slope, intercept, max-abs residual of the line through log|psi|
    (reference: one ``np.polyfit`` per chain)."""
    from decaygraph.errors import ChainTooShort

    if len(sites) < 2:
        raise ChainTooShort(f"chain spans {len(sites)} site(s); need at least 2")
    y = log_amp[list(sites)]
    x = np.arange(len(sites), dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(slope * x + intercept - y)))
    return float(slope), float(intercept), residual
