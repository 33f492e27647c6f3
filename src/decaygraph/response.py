"""Steady-state response of a lossy lattice to single-site driving.

Models the resonator-network measurement: uniform loss gamma on every
site, a point drive of given amplitude at one node, and the linear
steady state x solving ((omega + i gamma) I - H) x = amplitude * e_src.
With gamma above the largest Im(E) the system is net-decaying and the
response near omega = Re(E) of the least-damped mode is dominated by
that mode.

``steady_state`` and ``frequency_sweep`` run one solve loop, on a route
chosen by the lattice alone: a lattice built from a ring, circulant,
open-chain or product spec solves through its family's gauge, and a raw (or
transposed) matrix through its eigenvector expansion, numpy only, whose
uncertified rows the complex Schur form of H rescues.  The loss check reads
an eigensystem or its values when given, else the route's own poles.  The
grid is solved in blocks of frequencies, each certified before it is handed
on; all routes share the pole check, the certificate, refinement and failure
text.  The selected mode comes from the same transforms for a spec lattice.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .decay import _fit_chains, spec_chains
from .errors import SingularSystem, ZeroAmplitude
from .lattice import Hamiltonian, ObcChain
# bench/tracer.py wraps eigendecompose at this binding site, which nothing here calls
from .spectra import (  # noqa: F401
    RESIDUAL_FACTOR, EigenSystem, closed_form_columns, eigendecompose, least_damped_mode,
    least_damped_set, mode_values,
)

SOLVE_RESIDUAL_FACTOR = 1e-10
SINGULAR_DISTANCE = 1e-12
DEFAULT_OMEGA_POINTS = 401
DEFAULT_GAMMA_MARGIN = 0.05
PEAK_TIE = 1e-9  # relative: peaks and mode overlaps within it of the largest tie


@dataclass(frozen=True)
class DriveConfig:
    """Point drive: source node (0-based), uniform loss, frequency grid."""

    source_node: int
    gamma: float
    omega_grid: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.omega_grid, dtype=float))
        grid.setflags(write=False)
        object.__setattr__(self, "omega_grid", grid)
        if grid.size == 0:
            raise ValueError("omega grid must be nonempty")
        for name, values in (("omega grid", grid), ("gamma", self.gamma),
                             ("drive amplitude", self.amplitude)):
            bad = np.extract(~np.isfinite(values), values)
            if bad.size:
                raise ValueError(f"{name} must be finite, got {bad[0]}")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        for name, value in (("gamma", self.gamma), ("drive amplitude", self.amplitude)):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def validate_against(self, sys: EigenSystem | np.ndarray) -> None:
        """Net decay requires gamma above every Im(E), E the eigenvalues of
        the system ``sys`` or the array of them."""
        top = float(np.max(getattr(sys, "values", sys).imag))
        if self.gamma <= top:
            raise SingularSystem(
                f"gamma = {self.gamma} must exceed max Im(E) = {top} for a decaying system"
            )


def default_drive_config(
    h: Hamiltonian, sys: EigenSystem | np.ndarray, source_node: int = 0, **options
) -> DriveConfig:
    """Desk-scale defaults from the eigensystem ``sys`` of ``h``, or the
    array of its eigenvalues E: gamma = max Im(E) + 0.05 ||H||_inf,
    401-point grid spanning [min Re(E) - 1, max Re(E) + 1], each replaced
    by its DriveConfig field in ``options``."""
    values = getattr(sys, "values", sys)
    gamma = float(np.max(values.imag) + DEFAULT_GAMMA_MARGIN * h.norm_inf())
    lo, hi = float(np.min(values.real)) - 1.0, float(np.max(values.real)) + 1.0
    grid = np.linspace(lo, hi, DEFAULT_OMEGA_POINTS)
    return DriveConfig(**{"source_node": source_node, "gamma": gamma, "omega_grid": grid, **options})


def sweep_blocks(count: int, dim: int) -> list[slice]:
    """Slices of a sweep's ``count`` frequencies, each block about 2**16
    entries of the (F, dim) result: one block for dim <= 160 on the
    401-point grid."""
    step = max(1, (1 << 16) // dim)
    return [slice(i, i + step) for i in range(0, count, step)]


def _fail(omega, what: str) -> SingularSystem:
    """The one failure text of a drive solve, naming the grid frequency."""
    return SingularSystem(f"sweep failed at omega={float(omega)}: {what}")


def _transform(y: np.ndarray, chain: bool, inverse: bool) -> np.ndarray:
    """The DFT of ``y`` along its last axis, or for an open chain the type-I
    sine transform S[j, m] = sin(pi (j + 1) (m + 1) / (n + 1)), or either's
    inverse.  S y is read off the FFT of the odd extension (0, y, 0, -y
    reversed), whose entries 1..n are -2i S y; S**-1 = 2 S / (n + 1)."""
    fft = np.fft.ifft if inverse else np.fft.fft
    if not chain:
        return fft(y)
    pad = np.zeros(y.shape[:-1] + (1,), dtype=complex)
    odd = fft(np.concatenate([pad, y, pad, -y[..., ::-1]], axis=-1))[..., 1:y.shape[-1] + 1]
    return odd * (-2j if inverse else 0.5j)


def _transforms(y: np.ndarray, axes, inverse: bool) -> np.ndarray:
    """Every axis's ``_transform`` (or inverse) of y, shaped (k, n_0, n_1, ...):
    each transforms the last axis, which then rotates to position 1."""
    for spec, _ in reversed(axes):
        y = np.moveaxis(_transform(y, isinstance(spec, ObcChain), inverse), -1, 1)
    return y


def _gauge_route(h: Hamiltonian, source: int):
    """Poles and batched solve from the gauge of the lattice's spec.

    Per axis, D_k**-1 H_k D_k (D_k = diag(t_k**w_k)) is a circulant, which the
    DFT diagonalizes (Davis, Circulant Matrices, 1979), or sqrt(t_k) times the
    symmetric hopping chain, which the sine transform diagonalizes.  A product
    is the Kronecker sum of its axes, so x = D T**-1 ((T D**-1 b) / (z - E)),
    with T the axes' transforms (``_transforms``).  D is 1 at the source; the
    poles E are the spec's ``mode_values``, in the transforms' order.  D and
    D**-1 must both lie within float64, else the span is named.
    """
    axes = h.axes
    values = mode_values(h.spec, h.t if len(h.ts) == 1 else None)
    dims = tuple(s.length for s, _ in axes)
    log_d = np.zeros(())
    for (s, t), i in zip(axes, np.unravel_index(source, dims)):
        w = s.potential()
        log_d = np.add.outer(log_d, (w - w[i]) * np.log(t))
    if not np.all(np.abs(log_d) < np.log(np.finfo(float).max)):  # the solve would give nan
        raise SingularSystem(f"the steady state spans 10^{np.ptp(log_d) / np.log(10):.0f}, beyond float64")
    d, energies = np.exp(log_d), values.reshape(dims)

    def solve(rhs, zs):
        y = _transforms(rhs.reshape((-1,) + dims) / d, axes, inverse=False)
        den = zs.reshape((-1,) + (1,) * len(dims)) - energies
        y = _transforms(np.divide(y, den, out=den), axes, inverse=True)
        y *= d
        return y.reshape(len(zs), -1)

    return values, solve


def _modal_route(h: Hamiltonian, sys: EigenSystem | np.ndarray | None = None):
    """Poles E and batched solve x = V ((V**-1 b) / (z - E)) from H = V diag(E) V**-1,
    one GEMM per block of the grid: the values, right vectors and left
    vectors (V**-1) of the dense eigensystem ``sys`` of H when it holds
    them, else one eig and inv.  Its accuracy falls with cond(V) (Trefethen &
    Embree, Spectra and Pseudospectra, 2005): ``_schur_route`` rescues it."""
    if getattr(sys, "left_vectors", None) is not None:
        values, v, w = sys.values, sys.right_vectors, sys.left_vectors
    else:
        values, v = np.linalg.eig(h.matrix)
        w = np.linalg.inv(v)

    def solve(rhs, zs):
        return (v @ ((w @ np.atleast_2d(rhs).T) / (zs - values[:, None]))).T

    return values, solve


def _schur_route(h: Hamiltonian):
    """The expansion's rescue: poles diag(T) and batched solve from the complex
    Schur form H = Q T Q**H:
    (z I - H) x = r is (z I - T) y = Q**H r with x = Q y, one back-substitution
    over the rows of T for every frequency at once.  A real H takes the real
    Schur form, made complex-triangular by rsf2csf.  A unitary reduction has no
    pivot growth (Golub & Van Loan, Matrix Computations, ch. 7)."""
    # imported here, by the rescue alone: scipy.linalg costs ~0.2-0.4 s and 27 MiB
    from scipy.linalg import rsf2csf, schur

    t, q = schur(h.matrix)
    if not np.iscomplexobj(t):
        t, q = rsf2csf(t, q)

    def solve(rhs, zs):
        c = q.conj().T @ np.atleast_2d(rhs).T
        y = np.empty((h.dim, len(zs)), dtype=complex)
        for i in range(h.dim - 1, -1, -1):
            y[i] = (c[i] + t[i, i + 1:] @ y[i + 1:]) / (zs - t[i, i])
        return (q @ y).T

    return np.diag(t), solve


def _drive(
    h: Hamiltonian, cfg: DriveConfig, omegas: np.ndarray, sys: EigenSystem | np.ndarray | None
) -> Iterator[tuple[slice, np.ndarray]]:
    """The certified steady states at the frequencies ``omegas``, as one
    (slice, rows) pair per ``sweep_blocks`` slice of the grid, in grid order.

    A lattice built from a spec takes the gauge route; a raw matrix, or a
    transposed lattice, whose reversed bonds the spec's gauge does not
    symmetrize, takes the eigenvector expansion (from ``sys`` when it is a
    dense eigensystem).  Each block tries the routes in order; a route is
    built on its first need, when the loss (against ``sys``, else its poles)
    and its poles are checked on the whole grid.  When ``eig`` or ``inv``
    refuses H, or rows still fail after the expansion's refinement, the
    Schur route solves the block as it does alone, and those rows take its
    result, bit for bit.  Each row must meet max|b - (z I - H) x| <=
    SOLVE_RESIDUAL_FACTOR * amplitude, H x through ``h.dot``, within 3
    refinement steps (Higham, Accuracy and Stability, ch. 12).  The first
    block with a failing row raises, naming its max|x|, the float64 floor
    eps (|z| + ||H||_inf) max|x| that rounding x alone leaves, and the
    normwise backward error.
    """
    if not 0 <= cfg.source_node < h.dim:
        raise ValueError(f"source node {cfg.source_node} outside 0..{h.dim - 1}")
    if sys is not None:
        cfg.validate_against(sys)
    b = np.zeros(h.dim, dtype=complex)
    b[cfg.source_node] = cfg.amplitude
    z = omegas + 1j * cfg.gamma
    blocks = sweep_blocks(len(z), h.dim)
    if h.spec is not None and not h.kind.endswith("_transposed"):
        routes = {"gauge": lambda: _gauge_route(h, cfg.source_node)}
    else:
        routes = {"modal": lambda: _modal_route(h, sys), "Schur": lambda: _schur_route(h)}

    def build(route):
        """The route's solve, checked on the whole grid; None if eig or inv refuse H."""
        try:
            poles, solve = routes[route]()
        except (ValueError, np.linalg.LinAlgError) as exc:  # eig, inv or scipy refuse H
            if route == "modal":
                return None
            raise _fail(omegas[0], f"no {route} form of H: {exc}") from exc
        if sys is None:
            cfg.validate_against(poles)
        gap = np.concatenate([np.min(np.abs(z[s, None] - poles), axis=1) for s in blocks])
        on_pole = np.flatnonzero(gap < SINGULAR_DISTANCE)
        if on_pole.size:
            raise _fail(omegas[on_pole[0]], f"omega + i gamma = {z[on_pole[0]]} sits on an eigenvalue")
        return solve

    def misfit(x, zs):
        """b - (z I - H) x, one row per frequency, with H x through the edges
        from one (N, k) copy of x that then holds z x, and its max-abs per row."""
        xt = x.T.copy()  # C order, whatever the layout of x
        r = h.dot(xt)
        np.multiply(zs[:, None], xt.T, out=xt.T)  # z x in place, the bits of zs[:, None] * x
        r -= xt
        r += b[:, None]
        return r.T, np.max(np.abs(r), axis=0)

    bound, solvers = SOLVE_RESIDUAL_FACTOR * cfg.amplitude, {}
    for s in blocks:
        zs, x = z[s], None
        for route in routes:
            if route not in solvers:
                solvers[route] = build(route)
            if solvers[route] is None:
                continue
            xs = solvers[route](b, zs)
            r, res = misfit(xs, zs)
            for _ in range(3):
                miss = np.flatnonzero(~(res <= bound))
                if miss.size == 0:
                    break
                xs[miss] += solvers[route](r[miss], zs[miss])
                r[miss], res[miss] = misfit(xs[miss], zs[miss])
            if x is None:
                x, residual = xs, res
            else:  # a rescue solves the whole block, as a row's bits depend on its batch
                keep = ~(residual <= bound)  # the rows no earlier route certified
                np.copyto(x, xs, where=keep[:, None])
                np.copyto(residual, res, where=keep)
            del xs, r  # not held through the next solve
            if np.all(residual <= bound):
                break
        fails = np.flatnonzero(~(residual <= bound))
        if fails.size:
            f = fails[0]
            size, scale = np.max(np.abs(x[f])), abs(zs[f]) + h.norm_inf()
            raise _fail(omegas[s][f], f"{route} solve residual {residual[f]:.3e} exceeds "
                        f"{SOLVE_RESIDUAL_FACTOR:.0e} * drive after 3 refinement steps "
                        f"(max|x| {size:.1e}, float64 floor {np.finfo(float).eps * scale * size:.1e}, "
                        f"backward error {residual[f] / (scale * size + cfg.amplitude):.1e})")
        yield s, x


def _sweep(h: Hamiltonian, cfg: DriveConfig, omegas: np.ndarray, sys) -> np.ndarray:
    """The read-only (F, N) array of ``_drive``'s blocks, one row per frequency."""
    x = np.empty((len(omegas), h.dim), dtype=complex)
    for s, rows in _drive(h, cfg, omegas, sys):
        x[s] = rows
    x.setflags(write=False)
    return x


def steady_state(
    h: Hamiltonian, cfg: DriveConfig, omega: float, sys: EigenSystem | np.ndarray | None = None
) -> np.ndarray:
    """Solve ((omega + i gamma) I - H) x = amplitude * e_source, certified: the
    read-only x, shape (N,), of the one-frequency sweep, through the gauge
    of a built lattice or the eigenvector expansion of a raw matrix (that of
    ``sys`` when it is its dense eigensystem).  gamma > max Im(E) is checked
    against ``sys`` (any eigensystem of ``h``, or its values) when given,
    else the route's poles."""
    return _sweep(h, cfg, np.array([float(omega)]), sys)[0]


def frequency_sweep(
    h: Hamiltonian, cfg: DriveConfig, sys: EigenSystem | np.ndarray | None = None
) -> np.ndarray:
    """One steady state per grid frequency, as the rows of a read-only
    (F, N) array in grid order: the batched gauge solve for a lattice built
    from a spec, the batched eigenvector expansion for a raw matrix, each in
    blocks of frequencies.  ``sys`` serves as in ``steady_state``."""
    return _sweep(h, cfg, cfg.omega_grid, sys)


def resolvent_response(
    sys: EigenSystem, cfg: DriveConfig, omega: float
) -> np.ndarray:
    """Independent route to the same steady state via the biorthogonal
    eigenmode expansion sum_n v_n (w_n . e_src) / ((omega + i gamma) - E_n)."""
    if sys.left_vectors is None:
        raise ValueError("eigensystem lacks left vectors; use eigendecompose()")
    z = omega + 1j * cfg.gamma
    weights = sys.left_vectors[:, cfg.source_node] * cfg.amplitude / (z - sys.values)
    return sys.right_vectors @ weights


@dataclass(frozen=True)
class ModeSelection:
    """Which eigenmode the driven response actually singles out."""

    selected_mode: int
    least_damped: int
    overlap: float
    matches: bool


def _selection(overlaps: np.ndarray, values: np.ndarray, tolerance: float) -> ModeSelection:
    """The one selection rule: the selected mode is the lowest index whose
    overlap lies within PEAK_TIE (relative) of the largest, as the sweep's
    peak is taken.  Every mode tied for the largest Im(E) within
    ``tolerance`` (spectra.least_damped_set) is least damped: when the
    selected mode is one of them, it is reported as the least-damped mode,
    with its own overlap; otherwise spectra.least_damped_mode is."""
    best = int(np.argmax(overlaps >= (1 - PEAK_TIE) * np.max(overlaps)))
    matches = best in least_damped_set(values, tolerance)
    ld = best if matches else least_damped_mode(values, tolerance)
    return ModeSelection(best, ld, float(overlaps[ld]), matches)


def mode_selection_check(x: np.ndarray, sys: EigenSystem) -> ModeSelection:
    """Overlap |<v_hat, x_hat>| of the response with the least-damped mode,
    plus the mode that maximizes the overlap (they should agree when the
    loss sits just above the least-damped line), over the columns of the
    eigensystem ``sys``: |V^H x| / (||V||_col ||x||), by ``_selection``'s rule.
    """
    v = sys.right_vectors
    overlaps = np.abs(x.conj() @ v) / (np.linalg.norm(v, axis=0) * np.linalg.norm(x))
    return _selection(overlaps, sys.values, sys.tolerance)


def _mode_overlaps(h: Hamiltonian, x: np.ndarray) -> np.ndarray:
    """|<v_n, x>| / (||v_n|| ||x||) for every closed-form mode v_n = D B_n of a
    lattice built from a spec, in ``mode_values`` order, without the basis:
    with D per axis as in ``closed_form``, each <D B_n, x> is an entry of the
    transforms of D x.  A Fourier column's norm is ||d||; a sine column's
    squared norm sum d**2 sin**2((j + 1) theta_m) is (sum d**2 - C_m) / 2, C
    the cosine transform of d**2 read off the DFT of (0, d**2); a product's
    is the product of its axes'."""
    axes = h.axes
    y, norms = x.reshape((1,) + tuple(s.length for s, _ in axes)), np.ones(1)
    for k, (spec, t) in enumerate(axes):
        ls = spec.potential() * np.log(t)
        d = np.exp(ls - ls.max())
        y = y * d.reshape((-1,) + (1,) * (len(axes) - 1 - k))
        sq = np.full(spec.length, np.sum(d * d))
        if isinstance(spec, ObcChain):
            sq = (sq - np.fft.fft(np.concatenate([[0.0], d * d])).real[1:]) / 2
        norms = np.outer(norms, np.sqrt(sq)).ravel()
    return np.abs(_transforms(y, axes, inverse=False).ravel()) / (norms * np.linalg.norm(x))


def transform_mode_selection(x: np.ndarray, h: Hamiltonian) -> ModeSelection:
    """``mode_selection_check`` against the closed-form modes of the lattice
    ``h`` built from a spec, with no N x N basis: the overlaps from the
    transforms (``_mode_overlaps``), the values from ``mode_values``, and
    the modes it reports built alone and certified through ``h``
    (``spectra.closed_form_columns``)."""
    values = mode_values(h.spec, h.t if len(h.ts) == 1 else None)
    selection = _selection(_mode_overlaps(h, x), values, RESIDUAL_FACTOR * h.norm_inf())
    closed_form_columns(h, sorted({selection.selected_mode, selection.least_damped}))
    return selection


@dataclass(frozen=True)
class LogProfile:
    """log|x| per node plus per-chain linear fits (mirrors decay fitting)."""

    log_abs: np.ndarray
    slopes: tuple[float, ...]
    residual: float
    chain_ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        arr = np.asarray(self.log_abs)
        arr.setflags(write=False)
        object.__setattr__(self, "log_abs", arr)


def log_profile(x: np.ndarray, spec=None) -> LogProfile:
    """Fit log|x| of the response x chainwise (with a spec) or as one run (without).

    The residual is the worst max-abs fit deviation over chains: small for
    a pure-exponential response, large for an oscillatory one.
    """
    amp = np.abs(x)
    if np.any(amp == 0.0):
        raise ZeroAmplitude("response vanishes at a site; log profile undefined")
    log_amp = np.log(amp)
    if spec is None:
        chains = [("all", "open", tuple(range(len(amp))))]
    else:
        chains = spec_chains(spec)
    slopes = []
    ids = []
    worst = 0.0
    for chain_id, _, sites in chains:
        slope, _, residual = (float(v[0]) for v in _fit_chains(log_amp[None], sites))
        slopes.append(slope)
        ids.append(chain_id)
        worst = max(worst, residual)
    return LogProfile(log_amp, tuple(slopes), float(worst), tuple(ids))
