"""Eigensystems: dense numerics plus the closed form of the structured families.

Every returned eigenpair is residual-certified: ||H v - E v||_inf must not
exceed tol = 1e-9 * ||H||_inf.  Right eigenvectors are
normalized so their maximum-magnitude component is exactly 1 (real,
positive); left eigenvectors are biorthogonal rows of the inverse
eigenvector matrix, so w_n . v_m = delta_nm.
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
    _components,
    build_axis,
    build_product_lattice,
)

RESIDUAL_FACTOR = 1e-9
DEGENERACY_FACTOR = 1e-7
COND_TRUST = 1e12


@dataclass(frozen=True)
class EigenSystem:
    """Certified eigendecomposition.

    values[n] pairs with right_vectors[:, n] and left_vectors[n, :].
    ``residuals[n]`` is ||H v_n - E_n v_n||_inf for the max-normalized v_n.
    ``meta["route"]`` is "dense" (eigendecompose) or "closed_form".
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
        DEGENERACY_FACTOR * ||H||_inf (transitive closure over all pairs)."""
        # imported here: loading scipy.spatial at package import costs ~0.13 s
        from scipy.spatial import cKDTree

        tol = DEGENERACY_FACTOR * self.h_norm
        v = self.values
        # the 2 * tol radius only screens; the exact |dE| < tol test decides
        xy = np.column_stack([v.real, v.imag])
        pairs = cKDTree(xy).query_pairs(2 * tol, output_type="ndarray")
        pairs = pairs[np.abs(v[pairs[:, 0]] - v[pairs[:, 1]]) < tol]
        labels = _components(self.dim, pairs)
        order = np.argsort(labels, kind="stable")
        groups = np.split(order, np.cumsum(np.bincount(labels))[:-1])
        return sorted(g.tolist() for g in groups)


def _normalize_columns(vectors: np.ndarray) -> np.ndarray:
    """Divide each column by its max-magnitude entry (a complex input is
    divided in place)."""
    v = np.asarray(vectors, dtype=complex)
    v /= v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v


def _column_residuals(h: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    r = h @ vectors
    r -= vectors * values[None, :]
    return np.max(np.abs(r), axis=0)


def _certified(h: Hamiltonian, values, vectors, left, what: str, meta: dict) -> EigenSystem:
    """The eigensystem of ``h`` with these pairs, once every residual
    ||H v - E v||_inf stays within RESIDUAL_FACTOR * ||H||_inf."""
    h_norm = h.norm_inf()
    tol = RESIDUAL_FACTOR * h_norm
    residuals = _column_residuals(h.matrix, values, vectors)
    worst = float(np.max(residuals))
    if worst > tol:
        raise ConvergenceFailure(
            f"{what}: residual {worst:.3e} exceeds certified tolerance {tol:.3e}"
        )
    return EigenSystem(values, vectors, left, residuals, h_norm, tol, meta)


def eigendecompose(h: Hamiltonian) -> EigenSystem:
    """Full certified eigensystem of a dense Hamiltonian.

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
            residual_mat = m @ vectors - vectors * values[None, :]
            values = values + np.einsum("ij,ji->i", inv, residual_mat) / np.einsum(
                "ij,ji->i", inv, vectors)
            residuals = _column_residuals(m, values, vectors) / np.max(np.abs(vectors), axis=0)
            for n in np.flatnonzero(residuals > 0.5 * tol):
                try:
                    refined = np.linalg.solve(m - values[n] * np.eye(h.dim), vectors[:, n])
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
    vectors = _normalize_columns(vectors[:, order])
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


def ring_mode_values(n_a: int, n_b: int, t: float) -> np.ndarray:
    """Analytic eigenvalues t/alpha_n + alpha_n for the [N, M] ring."""
    length = n_a + n_b
    n = np.arange(length)
    alpha = t ** (n_b / length) * np.exp(2j * np.pi * n / length)
    return t / alpha + alpha


def _gauge(spec, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Potential w, eigenvalues and eigenbasis of D**-1 H D, D = diag(t**w),
    for a ring, circulant graph or open chain.

    Rings and circulant graphs become plain circulants, diagonalized by the
    Fourier basis with eigenvalues the DFT of the gauged first row; the open
    chain becomes sqrt(t) times the symmetric hopping chain, diagonalized by
    the sine basis.  The basis is returned as a fresh complex array.
    """
    n = spec.length
    w = spec.potential()
    if isinstance(spec, ObcChain):
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        values = (2.0 * np.sqrt(t) * np.cos(theta)).astype(complex)
        return w, values, np.sin(np.outer(np.arange(1, n + 1), theta)).astype(complex)
    row = np.zeros(n)
    if isinstance(spec, SegmentedRing):
        row[1] = t ** (spec.n_sites_b / n)
        row[-1] = t ** (spec.n_sites_a / n)
    else:
        q = np.arange(1, n)
        row[1:] = np.array(spec.a) * t ** ((n - q) / n)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    phase = np.outer(np.arange(n), np.arange(n))
    phase %= n
    return w, n * np.fft.ifft(row), roots[phase]


def closed_form(spec, t: float | None = None) -> EigenSystem:
    """Certified eigensystem of a structured lattice via its gauge transform.

    For each ring, circulant graph and open chain, D**-1 H D is normal,
    with D = diag(t**w) and w the spec's potential (Hatano & Nelson's
    imaginary gauge transform), so the eigenvectors are t**w times the
    Fourier or sine basis.  The scale is formed in log space: nothing
    overflows, and sites beyond the double range underflow to zero (which
    the decay checks report as UnderflowSites).  Every pair is certified
    against the built matrix.  Products combine their axes through
    kron_sum_spectrum.  The open chain's per-site exponent w[1] - w[0] is
    recorded in meta["rho_exponent"].
    """
    if isinstance(spec, ProductLattice):
        axes = [closed_form(s, at) for s, at in spec.axes]
        sys = kron_sum_spectrum(axes, build_product_lattice(spec))
    else:
        h = build_axis(spec, t)
        w, values, vectors = _gauge(spec, h.t)
        log_scale = w * np.log(h.t)
        vectors *= np.exp(log_scale - log_scale.max())[:, None]
        meta = {"rho_exponent": float(w[1] - w[0])} if isinstance(spec, ObcChain) else {}
        vectors = _normalize_columns(vectors)
        sys = _certified(h, values, vectors, None, f"closed-form {h.kind} modes", meta)
    sys.meta["route"] = "closed_form"
    return sys


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
    against the assembled product Hamiltonian ``h``.  When the summed
    values collide within tolerance a DegenerateAmbiguity warning is
    issued and meta["degenerate"] is set.
    """
    if not axis_systems:
        raise ConvergenceFailure("no axis systems given")
    values = np.zeros(1, dtype=complex)
    vectors = np.ones((1, 1), dtype=complex)
    for sys_k in axis_systems:
        values = (values[:, None] + sys_k.values[None, :]).ravel()
        vectors = np.kron(vectors, sys_k.right_vectors)
    sys = _certified(h, values, _normalize_columns(vectors), None, "kronecker-sum spectrum", {})
    degenerate = any(len(g) > 1 for g in sys.degenerate_groups())
    if degenerate:
        warnings.warn(
            "product eigenvalues collide within tolerance; subspace vectors are non-unique",
            DegenerateAmbiguity,
            stacklevel=2,
        )
    sys.meta["degenerate"] = degenerate
    return sys


def least_damped_set(sys: EigenSystem) -> np.ndarray:
    """Indices of the modes tied for the largest Im(E): imaginary parts
    within the system's certified tolerance of the maximum (a numerically
    real spectrum carries ~1e-16 noise)."""
    im = sys.values.imag
    return np.flatnonzero(im >= im.max() - sys.tolerance)


def least_damped_mode(sys: EigenSystem) -> int:
    """Mode with the largest Im(E): slowest-decaying once uniform loss is added.

    Ties (least_damped_set) resolve to the smallest |Re(E)|, then to the
    lowest index.
    """
    best = min(least_damped_set(sys), key=lambda n: (abs(sys.values[n].real), n))
    return int(best)
