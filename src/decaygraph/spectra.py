"""Eigensystems: the dense solver of raw matrices, and for the structured
families their closed form and a dense solve of their normal gauge (one
eigh of its symmetric part, then a small eig of each cluster).

Every returned eigenpair is residual-certified: ||H v - E v||_inf, with H v
taken through the stored entries, must not exceed tol = 1e-9 * ||H||_inf.
Right eigenvectors are normalized so their maximum-magnitude component is
exactly 1 (real, positive).  Only the dense route of raw matrices
(``eigendecompose``) gives left eigenvectors: biorthogonal rows of the
inverse eigenvector matrix, so w_n . v_m = delta_nm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, DegenerateAmbiguity, IllConditioned, NotTwoSegment
from .lattice import (
    Hamiltonian,
    ObcChain,
    ProductLattice,
    SegmentedRing,
    _block_rows,
    _components,
    build,
)

RESIDUAL_FACTOR = 1e-9
DEGENERACY_FACTOR = 1e-7
COND_TRUST = 1e12


@dataclass(frozen=True)
class EigenSystem:
    """Certified eigendecomposition.

    values[n] pairs with right_vectors[:, n] and left_vectors[n, :].
    ``residuals[n]`` is ||H v_n - E_n v_n||_inf for the max-normalized v_n.
    ``meta["route"]`` is "dense" (eigendecompose), "gauged_dense"
    (gauged_eigendecompose) or "closed_form"; ``left_vectors`` is None but
    on the "dense" route.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    residuals: np.ndarray
    h_norm: float
    tolerance: float
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name in ("values", "right_vectors", "residuals"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return len(self.values)

    def profile(self, n: int) -> np.ndarray:
        """Normalized amplitude profile |v_n| (max component is 1)."""
        return np.abs(self.right_vectors[:, n])

    def degenerate_groups(self) -> list[list[int]]:
        """Mode indices grouped by eigenvalue collision within
        DEGENERACY_FACTOR * ||H||_inf (``value_groups``)."""
        return value_groups(self.values, self.h_norm)


def value_groups(v: np.ndarray, h_norm: float) -> list[list[int]]:
    """Indices of the eigenvalues ``v`` grouped by collision within
    DEGENERACY_FACTOR * ``h_norm`` (transitive closure over all pairs).
    Candidates are the values within 2 * tol in real part, paired off the
    sorted real parts in blocks; the exact |dE| < tol test decides."""
    tol = DEGENERACY_FACTOR * h_norm
    order = np.argsort(v.real, kind="stable")
    re = v.real[order]
    ahead = np.searchsorted(re, re + 2 * tol, side="right") - np.arange(len(re)) - 1
    width = max(int(ahead.max(initial=0)), 1)  # the most candidates ahead of one mode
    pairs, step = [np.empty((0, 2), dtype=np.intp)], _block_rows(width)
    for p in range(0, len(re), step):
        rows, k = np.nonzero(np.arange(width) < ahead[p:p + step, None])
        i, j = order[p + rows], order[p + rows + k + 1]
        pairs.append(np.column_stack([i, j])[np.abs(v[i] - v[j]) < tol])
    labels = _components(len(v), np.concatenate(pairs))
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    return sorted(g.tolist() for g in groups)


def _normalize_columns(vectors: np.ndarray) -> np.ndarray:
    """Divide each column by its max-magnitude entry (a complex input is
    divided in place).

    The entry is ``np.argmax(np.abs(v), axis=0)``'s, found over row blocks
    without an N x N temporary: a column's pick moves only on a strictly
    larger magnitude, so the first occurrence wins, and a NaN wins as in
    ``np.argmax``.
    """
    v = np.asarray(vectors, dtype=complex)
    cols = np.arange(v.shape[1])
    rows = np.zeros(v.shape[1], dtype=np.intp)
    peak = np.full(v.shape[1], -np.inf)
    step = _block_rows(v.shape[1])
    for i in range(0, v.shape[0], step):
        mag = np.abs(v[i:i + step])
        arg = np.argmax(mag, axis=0)
        best = mag[arg, cols]
        moved = (best > peak) | (np.isnan(best) & ~np.isnan(peak))
        rows[moved] = arg[moved] + i
        peak[moved] = best[moved]
    v /= v[rows, cols]
    return v


def _certified(h: Hamiltonian, values, vectors, left, what: str, meta: dict) -> EigenSystem:
    """The eigensystem of ``h`` with these pairs, once every residual
    ||H v - E v||_inf, H v taken through ``h.dot``, stays within
    RESIDUAL_FACTOR * ||H||_inf (a NaN residual fails)."""
    h_norm = h.norm_inf()
    tol = RESIDUAL_FACTOR * h_norm
    # row blocks: no N x N temporary besides the basis
    step = _block_rows(h.dim)
    residuals = np.zeros(len(values))
    for i in range(0, h.dim, step):
        r = h.dot(vectors, i, i + step)
        r -= vectors[i:i + step] * values[None, :]
        np.maximum(residuals, np.max(np.abs(r), axis=0), out=residuals)
    worst = float(np.max(residuals))
    if not worst <= tol:
        raise ConvergenceFailure(
            f"{what}: residual {worst:.3e} exceeds certified tolerance {tol:.3e}"
        )
    return EigenSystem(values, vectors, left, residuals, h_norm, tol, meta)


def _log_scale(h: Hamiltonian) -> np.ndarray:
    """ln of the gauge D = diag(t**w) of a built lattice: w ln t per site, a
    product's the Kronecker sum of its axes' (axis 0 slowest)."""
    ls = np.zeros(1)
    for spec, t in h.axes:
        ls = (ls[:, None] + spec.potential() * np.log(t)).ravel()
    return ls


def _normal_eig(gauge, scale: np.ndarray, what: str):
    """Eigenpairs of the real G = ``gauge()`` (built twice, so none is alive
    through eigh): values sorted by (Re, Im), unit vectors u times ``scale``
    row by row, and a meta of the commutator and each mode's ||G u - E u||_2.
    G must be normal, max|G G^T - G^T G| <= RESIDUAL_FACTOR * ||G||_inf**2, or
    ConvergenceFailure names that commutator.  G then leaves the eigenspaces
    of its symmetric part S invariant: one eigh of S, split wherever its
    sorted eigenvalues part by more than 100 eps / RESIDUAL_FACTOR *
    ||G||_inf (Davis & Kahan, 1970), then one small eig of each cluster
    basis U's block U^T G U, batched by size; u = U y.  The clusters come in
    order of Re E, so each sorts its own values and fills its own columns.
    """
    g = gauge()
    n, g_norm, step = len(g), float(np.max(np.sum(np.abs(g), axis=1))), _block_rows(len(g))
    bound = RESIDUAL_FACTOR * g_norm ** 2
    commutator = max(float(np.max(np.abs(g[i:i + step] @ g.T - g[:, i:i + step].T @ g)))
                     for i in range(0, n, step))
    if not commutator <= bound:
        raise ConvergenceFailure(
            f"{what} is not normal: commutator "
            f"max|G G^T - G^T G| {commutator:.3e} exceeds {bound:.3e}"
        )
    g += g.T
    g *= 0.5
    values, bauer_fike, vectors = np.empty(n, complex), np.empty(n), np.empty((n, n), complex)
    try:
        real_parts, basis = np.linalg.eigh(g)
        del g
        g = gauge()
        starts = np.flatnonzero(np.diff(real_parts, prepend=-np.inf)
                                > 100 * np.finfo(float).eps / RESIDUAL_FACTOR * g_norm)
        sizes = np.diff(starts, append=n)
        for k in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
            first, per = starts[sizes == k], max(1, _block_rows(n) // (8 * k))
            for c in range(0, len(first), per):
                idx = (first[c:c + per, None] + np.arange(k)).ravel()
                # U and G U as (clusters, n, k) views, about 2**15 entries a chunk
                u, gu = (a.reshape(n, -1, k).transpose(1, 0, 2) for a in (basis[:, idx], g @ basis[:, idx]))
                mu, y = np.linalg.eig(u.transpose(0, 2, 1) @ gu)
                local = np.lexsort((mu.imag, mu.real))
                mu, y = np.take_along_axis(mu, local, -1), np.take_along_axis(y, local[:, None, :], -1)
                v, r = u @ y, gu @ y
                r -= v * mu[:, None, :]
                values[idx] = mu.ravel()
                bauer_fike[idx] = (np.linalg.norm(r, axis=1) / np.linalg.norm(v, axis=1)).ravel()
                vectors[:, idx] = (v.transpose(1, 0, 2) * scale[:, None, None]).reshape(n, -1)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    return values, vectors, {"commutator": commutator, "bauer_fike": bauer_fike}


def gauged_eigendecompose(h: Hamiltonian) -> EigenSystem:
    """Certified eigensystem of a built lattice through its gauge G = D^-1 H D
    (``closed_form``'s D = diag(exp(ls))), scattered from the entries and
    solved by ``_normal_eig``; its unit vectors u map back to D u.  As G is
    normal, each value lies within ||G u - E u||_2 of an eigenvalue (Bauer &
    Fike, 1960): meta["bauer_fike"].  No left vectors are formed."""
    ls = _log_scale(h)
    rows, cols, entries = h.entries()

    def gauge():
        g = np.zeros((h.dim, h.dim))
        g[rows, cols] = entries * np.exp(ls[cols] - ls[rows])
        return g

    values, vectors, meta = _normal_eig(gauge, np.exp(ls - ls.max()), f"gauge of the {h.kind} lattice")
    meta["route"] = "gauged_dense"
    return _certified(h, values, _normalize_columns(vectors), None, "gauged eigendecomposition", meta)


def eigendecompose(h: Hamiltonian) -> EigenSystem:
    """Full certified eigensystem of a dense Hamiltonian: the route of raw
    matrices (a built lattice takes gauged_eigendecompose).

    The raw solver values get a first-order correction through the
    biorthogonal left vectors (delta E_n = w_n . (H v_n - E_n v_n)); for
    strongly non-normal skin-effect matrices this buys several digits of
    eigenvalue accuracy.  Modes whose residual then exceeds half the
    certificate are polished with one inverse-iteration step.  A mode still
    above the certificate gets its raw solver pair back (on repeated
    eigenvalues the near-singular eigenvector matrix spoils the correction).
    Eigenvalues are sorted by (Re, Im) for determinism.  Warns IllConditioned
    when the eigenvector-matrix 1-norm condition estimate exceeds 1e12
    (skin-effect lattices approach this quickly as t**N grows).
    """
    m = h.matrix
    if h.dim < 2:
        raise ConvergenceFailure("eigendecomposition needs dim >= 2")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    raw_values, tol = values, RESIDUAL_FACTOR * h.norm_inf()
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # repeated eigenvalues
            inv = np.linalg.inv(vectors)
            hv = m @ vectors  # read by the correction and the polish screen
            # H V - V diag(E) for the raw and then the corrected E (in place in
            # H V), in column blocks of about 2**14 entries
            corrected, residuals = values.copy(), np.empty(len(values))
            for c in range(0, h.dim, step := max(1, _block_rows(h.dim) // 16)):
                v, cs = vectors[:, c:c + step], slice(c, c + step)
                r = hv[:, cs] - v * values[cs]
                corrected[cs] += np.einsum("ij,ji->i", inv[cs], r) / np.einsum("ij,ji->i", inv[cs], v)
                hv[:, cs] -= v * corrected[cs]
                residuals[cs] = np.max(np.abs(hv[:, cs]), axis=0) / np.max(np.abs(v), axis=0)
            values = corrected
            del inv, hv, v  # v views the unsorted vectors
            for n in np.flatnonzero(residuals > 0.5 * tol):
                # m - E I entry for entry, without an N x N identity: E * 0 off
                # the diagonal and E * 1 on it
                off, on = values[n] * np.array([0.0, 1.0])
                shifted = m - off
                np.fill_diagonal(shifted, m.diagonal() - on)
                try:
                    refined = np.linalg.solve(shifted, vectors[:, n])
                    refined /= np.max(np.abs(refined))
                except np.linalg.LinAlgError:
                    continue
                polished = np.max(np.abs(m @ refined - values[n] * refined))
                if polished < residuals[n] and polished <= tol:
                    vectors[:, n], residuals[n] = refined, polished
            restore = ~(residuals <= tol)
            values[restore] = raw_values[restore]  # their vectors were never replaced
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvector matrix is numerically singular: {exc}") from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    # np.take copies into C order, which the certificate's h.dot reads in place
    vectors = _normalize_columns(np.take(vectors, order, axis=1))
    try:
        inv = np.linalg.inv(vectors)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvector matrix is numerically singular: {exc}") from exc
    cond1 = float(
        np.max(np.sum(np.abs(vectors), axis=0)) * np.max(np.sum(np.abs(inv), axis=0))
    )
    if cond1 > COND_TRUST:
        warnings.warn(
            f"eigenvector matrix condition estimate {cond1:.3e} exceeds {COND_TRUST:.0e}",
            IllConditioned,
            stacklevel=2,
        )
    meta = {"route": "dense", "cond_1": cond1}
    return _certified(h, values, vectors, inv, "numerical eigendecomposition", meta)


@dataclass(frozen=True)
class RingModeSolution:
    """One boundary-matrix mode of a two-segment ring.

    alpha = t**(M/L) * exp(i k) with k = 2 pi n / L; the profile restricted
    to each chain is a single geometric sequence (no two-branch mixing).
    """

    mode_index: int
    k: float
    alpha: complex
    energy: complex
    profile: np.ndarray
    residual: float


def _kron_sum(axis_values) -> np.ndarray:
    """Every sum of one value per axis, axis 0 slowest: the spectrum of a
    Kronecker sum from its axes' spectra."""
    values = np.zeros(1, dtype=complex)
    for v in axis_values:
        values = (values[:, None] + v[None, :]).ravel()
    return values


def mode_values(spec, t: float | None = None) -> np.ndarray:
    """The closed form's eigenvalues of a structured lattice, in the order of
    its transform: n * ifft of a ring's or circulant graph's gauged first row
    (entry q is t**w-scaled hopping to offset q), 2 sqrt(t) cos(theta_m),
    theta_m = pi m / (n + 1), for an open chain, and the Kronecker sum of
    the axes' for a product, whose axes carry their own ratios (``t`` is
    then unused)."""
    if isinstance(spec, ProductLattice):
        return _kron_sum(mode_values(s, at) for s, at in spec.axes)
    n = spec.length
    if isinstance(spec, ObcChain):
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        return (2.0 * np.sqrt(t) * np.cos(theta)).astype(complex)
    row = np.zeros(n)
    if isinstance(spec, SegmentedRing):
        row[1], row[-1] = t ** (spec.n_sites_b / n), t ** (spec.n_sites_a / n)
    else:
        q = np.arange(1, n)
        row[1:] = np.array(spec.a) * t ** ((n - q) / n)
    return n * np.fft.ifft(row)


def closed_form(spec, t: float | None = None, h: Hamiltonian | None = None) -> EigenSystem:
    """Certified eigensystem of a structured lattice via its gauge transform.

    For each ring, circulant graph and open chain, D**-1 H D is normal,
    with D = diag(t**w) and w the spec's potential (Hatano & Nelson's
    imaginary gauge transform): a plain circulant, diagonalized by the
    Fourier basis, or sqrt(t) times the symmetric hopping chain,
    diagonalized by the sine basis; the eigenvalues are ``mode_values``.  The
    eigenvectors are t**w times that basis, the scale formed in log space:
    nothing overflows, and sites beyond the double range underflow to zero
    (which the decay checks report as UnderflowSites).  Every mode is a
    column of ``closed_form_columns`` (a product's is the Kronecker product
    of its axes'), certified through the edges of ``h``, the lattice
    already built from ``spec`` when given.  A product records colliding
    values in meta["degenerate"] (warned as DegenerateAmbiguity), the open
    chain its exponent w[1] - w[0] in meta["rho_exponent"].  No dense
    system borrows these vectors (see ``decay._mode_profiles``).
    """
    h = build(spec, t) if h is None else h
    sys = closed_form_columns(h, np.arange(h.dim))
    if isinstance(spec, ObcChain):
        sys.meta["rho_exponent"] = float(np.diff(spec.potential()[:2])[0])
    if isinstance(spec, ProductLattice):
        sys.meta["degenerate"] = _warn_collisions(sys.degenerate_groups())
    return sys


def _axis_columns(spec, t: float, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of the closed form's basis of one axis: t**w times
    the sine vector sin((j + 1) theta_m), theta_m = pi (m + 1) / (n + 1), of
    an open chain or the Fourier vector exp(2 pi i j m / n) of a ring or
    circulant graph, the scale formed in log space, each column divided by
    its max-magnitude entry."""
    n = spec.length
    j = np.arange(n)
    if isinstance(spec, ObcChain):
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        vectors = np.sin(np.outer(j + 1, theta[cols])).astype(complex)
    else:
        step, roots = _block_rows(n), np.exp(2j * np.pi * j / n)
        vectors = np.empty((n, len(cols)), dtype=complex)
        for i in range(0, n, step):  # gathered in row blocks: no N x N phase table
            vectors[i:i + step] = roots[np.outer(j[i:i + step], cols) % n]
    log_scale = spec.potential() * np.log(t)
    vectors *= np.exp(log_scale - log_scale.max())[:, None]
    return _normalize_columns(vectors)


def closed_form_columns(h: Hamiltonian, modes: list[int]) -> EigenSystem:
    """The closed-form pairs ``modes`` of the lattice ``h`` built from a
    spec, without the rest of its basis: each axis's column
    (``_axis_columns``), their Kronecker product for a product lattice, and
    the values of ``mode_values``, certified through ``h``."""
    if isinstance(h.spec, ProductLattice):
        vectors = np.ones((1, len(modes)), dtype=complex)
        for (spec, t), m in zip(h.axes, np.unravel_index(modes, h.spec.dims)):
            vectors = (vectors[:, None] * _axis_columns(spec, t, m)[None]).reshape(-1, len(modes))
        values, vectors = mode_values(h.spec)[modes], _normalize_columns(vectors)
    else:
        values, vectors = mode_values(h.spec, h.t)[modes], _axis_columns(h.spec, h.t, modes)
    return _certified(h, values, vectors, None, f"closed-form {h.kind} modes", {"route": "closed_form"})


# The per-family names stay public (and bench/tracer.py wraps them), all
# bound to the one closed form.
alternating_ring_modes = closed_form
ring_solutions_as_system = closed_form
circulant_analytic_spectrum = closed_form
obc_analytic_spectrum = closed_form


def ring_analytic_spectrum(ring: SegmentedRing, t: float) -> list[RingModeSolution]:
    """All L mode solutions of a one-A-one-B segmented ring.

    alpha_n = t**(M/L) exp(i k_n) labels mode n of the closed form, whose
    certified vector is t**w times a Bloch wave: alpha**m through the A
    chain and its junction site, then per-site factor alpha/t along B.
    """
    if not ring.is_two_segment:
        raise NotTwoSegment(f"expected one A and one B segment, got {len(ring.segments)}")
    sys = closed_form(ring, t)
    k = 2.0 * np.pi * np.arange(ring.length) / ring.length
    alpha = t ** (ring.n_sites_b / ring.length) * np.exp(1j * k)
    return [
        RingModeSolution(
            n, float(k[n]), complex(alpha[n]), complex(sys.values[n]),
            sys.right_vectors[:, n], float(sys.residuals[n]),
        )
        for n in range(ring.length)
    ]


def kron_sum_spectrum(axis_systems: list[EigenSystem], h: Hamiltonian) -> EigenSystem:
    """Combine certified axis systems into the product-lattice eigensystem.

    Eigenvalues are all sums across axes; eigenvectors are Kronecker
    products in row-major node order (axis 0 slowest), each pair certified
    through the edges of the product Hamiltonian ``h``.  When the summed
    values collide within tolerance a DegenerateAmbiguity warning is
    issued and meta["degenerate"] is set.
    """
    if not axis_systems:
        raise ConvergenceFailure("no axis systems given")
    values = _kron_sum(sys_k.values for sys_k in axis_systems)
    vectors = np.ones((1, 1), dtype=complex)
    for sys_k in axis_systems:
        vectors = np.kron(vectors, sys_k.right_vectors)
    sys = _certified(h, values, _normalize_columns(vectors), None, "kronecker-sum spectrum", {})
    sys.meta["degenerate"] = _warn_collisions(sys.degenerate_groups())
    return sys


def _warn_collisions(groups: list[list[int]]) -> bool:
    """Whether product eigenvalues collide (a group holds more than one
    mode), warned as DegenerateAmbiguity."""
    degenerate = any(len(g) > 1 for g in groups)
    if degenerate:
        warnings.warn(
            "product eigenvalues collide within tolerance; subspace vectors are non-unique",
            DegenerateAmbiguity,
            stacklevel=3,
        )
    return degenerate


def closed_form_values(spec, t: float | None, h: Hamiltonian) -> np.ndarray:
    """``closed_form``'s eigenvalues of the lattice ``h`` built from ``spec``
    without its basis: ``mode_values``, with the closed form's
    DegenerateAmbiguity warning when a product's values collide."""
    values = mode_values(spec, t)
    if isinstance(spec, ProductLattice):
        _warn_collisions(value_groups(values, h.norm_inf()))
    return values


def least_damped_set(sys: EigenSystem | np.ndarray, tolerance: float | None = None) -> np.ndarray:
    """Indices of the modes tied for the largest Im(E): imaginary parts
    within the certified tolerance of the maximum (a numerically real
    spectrum carries ~1e-16 noise).  ``sys`` is an eigensystem, with its
    own tolerance, or an array of eigenvalues with its ``tolerance``."""
    im = getattr(sys, "values", sys).imag
    return np.flatnonzero(im >= im.max() - (sys.tolerance if tolerance is None else tolerance))


def least_damped_mode(sys: EigenSystem | np.ndarray, tolerance: float | None = None) -> int:
    """Mode with the largest Im(E): slowest-decaying once uniform loss is added.

    Ties (least_damped_set, which reads ``sys`` and ``tolerance``) resolve
    to the smallest |Re(E)|, then to the lowest index.
    """
    values = getattr(sys, "values", sys)
    return int(min(least_damped_set(sys, tolerance), key=lambda n: (abs(values[n].real), n)))
