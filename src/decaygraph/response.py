"""Steady-state response of a lossy lattice to single-site driving.

Models the resonator-network measurement: uniform loss gamma on every
site, a point drive of given amplitude at one node, and the linear
steady state x solving ((omega + i gamma) I - H) x = amplitude * e_src.
With gamma above the largest Im(E) the system is net-decaying and the
response near omega = Re(E) of the least-damped mode is dominated by
that mode.

``steady_state`` and ``frequency_sweep`` run one solve loop on one of two
routes, chosen by the lattice alone: a lattice built from a ring, circulant,
open-chain or product spec solves through its family's gauge, and a raw (or
transposed) matrix through the complex Schur form of H.  An eigensystem,
when given, only sets the loss check.  Each route solves the whole grid at
once; both share the pole check, the certificate, refinement and failure
text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decay import _fit_chains, spec_chains
from .errors import SingularSystem, ZeroAmplitude
from .lattice import Hamiltonian, ObcChain, ProductLattice
# bench/tracer.py wraps eigendecompose at this binding site, which nothing here calls
from .spectra import (  # noqa: F401
    EigenSystem, eigendecompose, least_damped_mode, least_damped_set, mode_values,
)

SOLVE_RESIDUAL_FACTOR = 1e-10
SINGULAR_DISTANCE = 1e-12
DEFAULT_OMEGA_POINTS = 401
DEFAULT_GAMMA_MARGIN = 0.05


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

    def validate_against(self, sys: EigenSystem) -> None:
        """Net decay requires gamma above every Im(E)."""
        top = float(np.max(sys.values.imag))
        if self.gamma <= top:
            raise SingularSystem(
                f"gamma = {self.gamma} must exceed max Im(E) = {top} for a decaying system"
            )


def default_drive_config(h: Hamiltonian, sys: EigenSystem, source_node: int = 0) -> DriveConfig:
    """Desk-scale defaults from the eigensystem ``sys`` of ``h``: gamma =
    max Im(E) + 0.05 ||H||_inf, 401-point grid spanning
    [min Re(E) - 1, max Re(E) + 1]."""
    gamma = float(np.max(sys.values.imag) + DEFAULT_GAMMA_MARGIN * h.norm_inf())
    grid = np.linspace(
        float(np.min(sys.values.real)) - 1.0,
        float(np.max(sys.values.real)) + 1.0,
        DEFAULT_OMEGA_POINTS,
    )
    return DriveConfig(source_node, gamma, grid)


@dataclass(frozen=True)
class ResponseProfile:
    """Steady-state node amplitudes at one drive frequency."""

    omega: float
    x: np.ndarray
    solve_residual: float

    def __post_init__(self):
        arr = np.asarray(self.x)
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)


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


def _gauge_route(h: Hamiltonian, source: int):
    """Poles and batched solve from the gauge of the lattice's spec.

    Per axis, D_k**-1 H_k D_k (D_k = diag(t_k**w_k)) is a circulant, which the
    DFT diagonalizes (Davis, Circulant Matrices, 1979), or sqrt(t_k) times the
    symmetric hopping chain, which the sine transform diagonalizes.  A product
    is the Kronecker sum of its axes, so x = D T**-1 ((T D**-1 b) / (z - E)),
    each T_k applied to the last axis of the (F, n_0, n_1, ...) array, which
    then rotates to the front.  D is 1 at the source; the poles E are the
    spec's ``mode_values``, in the transforms' order.
    """
    spec = h.spec
    product = isinstance(spec, ProductLattice)
    axes = spec.axes if product else ((spec, h.t),)
    values = mode_values(spec, None if product else h.t)
    dims = tuple(s.length for s, _ in axes)
    chains = [isinstance(s, ObcChain) for s, _ in reversed(axes)]
    log_d = np.zeros(())
    for (s, t), i in zip(axes, np.unravel_index(source, dims)):
        w = s.potential()
        log_d = np.add.outer(log_d, (w - w[i]) * np.log(t))
    d, energies = np.exp(log_d), values.reshape(dims)

    def solve(rhs, zs):
        y = rhs.reshape((-1,) + dims) / d
        for chain in chains:
            y = np.moveaxis(_transform(y, chain, inverse=False), -1, 1)
        y = y / (zs.reshape((-1,) + (1,) * len(dims)) - energies)
        for chain in chains:
            y = np.moveaxis(_transform(y, chain, inverse=True), -1, 1)
        y *= d
        return y.reshape(len(zs), -1)

    return values, solve


def _schur_route(h: Hamiltonian):
    """Poles diag(T) and batched solve from the complex Schur form H = Q T Q**H:
    (z I - H) x = r is (z I - T) y = Q**H r with x = Q y, one back-substitution
    over the rows of T for every frequency at once.  A real H takes the real
    Schur form, made complex-triangular by rsf2csf.  A unitary reduction has no
    pivot growth (Golub & Van Loan, Matrix Computations, ch. 7)."""
    # imported here: loading scipy.linalg at package import costs ~0.35 s
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
    h: Hamiltonian, cfg: DriveConfig, omegas: np.ndarray, sys: EigenSystem | None
) -> list[ResponseProfile]:
    """The certified steady state at every frequency of ``omegas``.

    A lattice built from a spec takes the gauge route; a raw matrix, or a
    transposed lattice, whose reversed bonds the spec's gauge does not
    symmetrize, takes the Schur route.  Each gives its poles and a solve of
    one right-hand side per frequency.  The loss (against ``sys``, when
    given) and the poles are checked on the whole grid before any solve.
    Each row must meet max|b - (z I - H) x| <= SOLVE_RESIDUAL_FACTOR *
    amplitude, H x through ``h.dot``, within 3 refinement steps (Higham,
    Accuracy and Stability, ch. 12).  A failing row names max|x|, the
    float64 floor eps (|z| + ||H||_inf) max|x| that rounding x alone leaves,
    and the normwise backward error.
    """
    if not 0 <= cfg.source_node < h.dim:
        raise ValueError(f"source node {cfg.source_node} outside 0..{h.dim - 1}")
    if sys is not None:
        cfg.validate_against(sys)
    b = np.zeros(h.dim, dtype=complex)
    b[cfg.source_node] = cfg.amplitude
    z = omegas + 1j * cfg.gamma
    if h.spec is not None and not h.kind.endswith("_transposed"):
        route, (poles, solve) = "gauge", _gauge_route(h, cfg.source_node)
    else:
        try:  # scipy refuses a non-finite matrix
            route, (poles, solve) = "Schur", _schur_route(h)
        except ValueError as exc:
            raise _fail(omegas[0], f"no Schur form of H: {exc}") from exc
    on_pole = np.flatnonzero(np.min(np.abs(z[:, None] - poles), axis=1) < SINGULAR_DISTANCE)
    if on_pole.size:
        raise _fail(omegas[on_pole[0]], f"omega + i gamma = {z[on_pole[0]]} sits on an eigenvalue")

    def misfit(x, zs):
        """b - (z I - H) x, one row per frequency, with H x through the edges,
        and its max-abs per row."""
        r = h.dot(x.T).T
        r -= zs[:, None] * x
        r += b
        return r, np.max(np.abs(r), axis=1)

    bound = SOLVE_RESIDUAL_FACTOR * cfg.amplitude
    x = solve(b, z)
    r, residual = misfit(x, z)
    for _ in range(3):
        bad = np.flatnonzero(~(residual <= bound))
        if bad.size == 0:
            break
        x[bad] += solve(r[bad], z[bad])
        r[bad], residual[bad] = misfit(x[bad], z[bad])
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        f = bad[0]
        size, scale = np.max(np.abs(x[f])), abs(z[f]) + h.norm_inf()
        raise _fail(omegas[f], f"{route} solve residual {residual[f]:.3e} exceeds "
                    f"{SOLVE_RESIDUAL_FACTOR:.0e} * drive after 3 refinement steps "
                    f"(max|x| {size:.1e}, float64 floor {np.finfo(float).eps * scale * size:.1e}, "
                    f"backward error {residual[f] / (scale * size + cfg.amplitude):.1e})")
    return [ResponseProfile(float(w), row, float(res)) for w, row, res in zip(omegas, x, residual)]


def steady_state(
    h: Hamiltonian, cfg: DriveConfig, omega: float, sys: EigenSystem | None = None
) -> ResponseProfile:
    """Solve ((omega + i gamma) I - H) x = amplitude * e_source, certified: the
    one-frequency call of the sweep, through the gauge of a built lattice or
    the Schur form of a raw matrix.  A given ``sys`` (any eigensystem of
    ``h``) checks gamma > max Im(E)."""
    return _drive(h, cfg, np.array([float(omega)]), sys)[0]


def frequency_sweep(
    h: Hamiltonian, cfg: DriveConfig, sys: EigenSystem | None = None
) -> list[ResponseProfile]:
    """One steady state per grid frequency, in grid order: the batched gauge
    solve for a lattice built from a spec, the batched Schur solve for a raw
    matrix.  ``sys`` (any eigensystem of ``h``) checks gamma > max Im(E)."""
    return _drive(h, cfg, cfg.omega_grid, sys)


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


def mode_selection_check(profile: ResponseProfile, sys: EigenSystem) -> ModeSelection:
    """Overlap |<v_hat, x_hat>| of the response with the least-damped mode,
    plus the mode that maximizes the overlap (they should agree when the
    loss sits just above the least-damped line).

    Every mode tied for the largest Im(E) (spectra.least_damped_set) is
    least damped: when the selected mode is one of them, it is reported
    as the least-damped mode, with its own overlap.
    """
    x_hat = profile.x / np.linalg.norm(profile.x)
    overlaps = np.empty(sys.dim)
    for n in range(sys.dim):
        v = sys.right_vectors[:, n]
        overlaps[n] = abs(np.vdot(v / np.linalg.norm(v), x_hat))
    best = int(np.argmax(overlaps))
    matches = best in least_damped_set(sys)
    ld = best if matches else least_damped_mode(sys)
    return ModeSelection(best, ld, float(overlaps[ld]), matches)


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


def log_profile(profile: ResponseProfile, spec=None) -> LogProfile:
    """Fit log|x| chainwise (with a spec) or as one run (without).

    The residual is the worst max-abs fit deviation over chains: small for
    a pure-exponential response, large for an oscillatory one.
    """
    amp = np.abs(profile.x)
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
