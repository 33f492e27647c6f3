"""Steady-state response of a lossy lattice to single-site driving.

Models the resonator-network measurement: uniform loss gamma on every
site, a point drive of given amplitude at one node, and the linear
steady state x solving ((omega + i gamma) I - H) x = amplitude * e_src.
With gamma above the largest Im(E) the system is net-decaying and the
response near omega = Re(E) of the least-damped mode is dominated by
that mode.

A sweep takes one of two routes, chosen by the eigensystem it is given:
a closed-form system (``meta["route"] == "closed_form"``) solves the whole
grid at once through the structured family's gauge, and a dense one
solves each frequency by LU.  Both certify every row with the same
drive-scaled residual bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .decay import _fit_chain, spec_chains
from .errors import SingularSystem, ZeroAmplitude
from .lattice import Hamiltonian, ProductLattice
from .spectra import EigenSystem, _gauge, eigendecompose, least_damped_mode

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
        if np.any(np.diff(grid) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.amplitude <= 0:
            raise ValueError(f"drive amplitude must be positive, got {self.amplitude}")

    def validate_against(self, sys: EigenSystem) -> None:
        """Net decay requires gamma above every Im(E)."""
        top = float(np.max(sys.values.imag))
        if self.gamma <= top:
            raise SingularSystem(
                f"gamma = {self.gamma} must exceed max Im(E) = {top} for a decaying system"
            )


def default_drive_config(h: Hamiltonian, sys: EigenSystem | None = None, source_node: int = 0) -> DriveConfig:
    """Desk-scale defaults: gamma = max Im(E) + 0.05 ||H||_inf, 401-point grid
    spanning [min Re(E) - 1, max Re(E) + 1]."""
    if sys is None:
        sys = eigendecompose(h)
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


def steady_state(
    h: Hamiltonian, cfg: DriveConfig, omega: float, sys: EigenSystem | None = None
) -> ResponseProfile:
    """Solve ((omega + i gamma) I - H) x = amplitude * e_source, certified.

    Passing the precomputed eigensystem avoids one diagonalization per
    call; it is also used for the singularity pre-check.
    """
    if sys is not None:
        cfg.validate_against(sys)
        z = omega + 1j * cfg.gamma
        if float(np.min(np.abs(sys.values - z))) < SINGULAR_DISTANCE:
            raise SingularSystem(f"omega + i gamma = {z} sits on an eigenvalue")
    n = h.dim
    if not 0 <= cfg.source_node < n:
        raise ValueError(f"source node {cfg.source_node} outside 0..{n - 1}")
    rhs = np.zeros(n, dtype=complex)
    rhs[cfg.source_node] = cfg.amplitude
    a = (omega + 1j * cfg.gamma) * np.eye(n) - h.matrix
    try:
        lu = scipy.linalg.lu_factor(a)
        x = scipy.linalg.lu_solve(lu, rhs)
        # near a resolvent pole ||x|| is large and one solve pass leaves a
        # residual ~ eps ||A|| ||x||; refine until the drive-scaled
        # certificate holds
        residual = float(np.max(np.abs(a @ x - rhs)))
        for _ in range(3):
            if residual <= SOLVE_RESIDUAL_FACTOR * cfg.amplitude:
                break
            x = x + scipy.linalg.lu_solve(lu, rhs - a @ x)
            residual = float(np.max(np.abs(a @ x - rhs)))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(f"shifted matrix is numerically singular at omega={omega}") from exc
    if not residual <= SOLVE_RESIDUAL_FACTOR * cfg.amplitude:
        growth = float(np.max(np.abs(np.triu(lu[0])))) / float(np.max(np.abs(a)))
        raise SingularSystem(
            f"solve residual {residual:.3e} exceeds {SOLVE_RESIDUAL_FACTOR:.0e} * drive "
            f"at omega={omega} (LU growth factor max|U|/max|A| = {growth:.1e})"
        )
    return ResponseProfile(float(omega), x, residual)


def _gauge_sweep(h: Hamiltonian, cfg: DriveConfig) -> list[ResponseProfile]:
    """Every grid frequency at once from the closed form's gauge.

    Per axis, H_k = D_k B_k diag(E_k) B_k**-1 D_k**-1 with D_k = diag(t_k**w_k)
    (spectra._gauge), and a product is the Kronecker sum of its axes, so
    x = D B (c / (z - E)) with c = B**-1 D**-1 b formed once.  Each axis
    factor acts on its own axis of the (F, n_0, n_1, ...) array; the N x N
    product basis is never formed.  The gauged axis matrices are normal
    with orthogonal basis columns, so B_k**-1 = diag(1 / |b_m|**2) B_k**H.
    D is scaled to 1 at the source.  Each row is certified through the
    edges, with up to 3 refinement steps by the same solve.
    """
    # imported here: loading scipy.sparse at package import costs ~50 ms
    from scipy.sparse import csr_array

    spec = h.spec
    axes = spec.axes if isinstance(spec, ProductLattice) else ((spec, h.t),)
    dims = tuple(s.length for s, _ in axes)
    src = np.unravel_index(cfg.source_node, dims)
    energies = log_d = np.zeros(())
    bases = []
    for (s, t), i in zip(axes, src):
        w, values, basis = _gauge(s, t)
        energies = np.add.outer(energies, values)
        log_d = np.add.outer(log_d, (w - w[i]) * np.log(t))
        bases.append((basis, np.sum(np.abs(basis) ** 2, axis=0)))
    d = np.exp(log_d)
    z = cfg.omega_grid + 1j * cfg.gamma
    near = np.min(np.abs(z[:, None] - energies.ravel()), axis=1)
    if np.any(near < SINGULAR_DISTANCE):
        f = int(np.argmax(near < SINGULAR_DISTANCE))
        raise SingularSystem(
            f"sweep failed at omega={float(cfg.omega_grid[f])}: omega + i gamma = {z[f]} "
            "sits on an eigenvalue"
        )

    def solve(rhs, zs):
        y = rhs.reshape((-1,) + dims) / d
        for k, (basis, norms) in enumerate(bases):
            y = np.tensordot(y.conj(), basis, axes=(k + 1, 0)).conj() / norms
            y = np.moveaxis(y, -1, k + 1)
        y = y / (zs.reshape((-1,) + (1,) * len(dims)) - energies)
        for k, (basis, _) in enumerate(bases):
            y = np.moveaxis(np.tensordot(y, basis, axes=(k + 1, 1)), -1, k + 1)
        y *= d
        return y.reshape(len(zs), -1)

    n = h.dim
    e = np.array(h.edges).reshape(-1, 3)
    hop = csr_array(
        (
            np.concatenate([np.asarray(h.ts)[e[:, 2]], np.ones(len(e))]),
            (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])),
        ),
        shape=(n, n),
    )

    b = np.zeros((1, n), dtype=complex)
    b[0, cfg.source_node] = cfg.amplitude

    def misfit(x, zs):
        """b - (z I - H) x, one row per frequency, with H x through the edges."""
        r = (hop @ x.T).T
        r -= zs[:, None] * x
        r += b
        return r

    x = solve(b, z)
    r = misfit(x, z)
    residual = np.max(np.abs(r), axis=1)
    bound = SOLVE_RESIDUAL_FACTOR * cfg.amplitude
    for _ in range(3):
        bad = np.flatnonzero(~(residual <= bound))
        if bad.size == 0:
            break
        x[bad] += solve(r[bad], z[bad])
        r[bad] = misfit(x[bad], z[bad])
        residual[bad] = np.max(np.abs(r[bad]), axis=1)
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        f = bad[0]
        raise SingularSystem(
            f"sweep failed at omega={float(cfg.omega_grid[f])}: gauge solve residual "
            f"{residual[f]:.3e} exceeds {SOLVE_RESIDUAL_FACTOR:.0e} * drive after 3 "
            f"refinement steps (max|x| {np.max(np.abs(x[f])):.1e}, gauge t**w spans "
            f"{np.ptp(log_d) / np.log(10):.1f} decades)"
        )
    return [
        ResponseProfile(float(omega), row, float(res))
        for omega, row, res in zip(cfg.omega_grid, x, residual)
    ]


def frequency_sweep(
    h: Hamiltonian, cfg: DriveConfig, sys: EigenSystem | None = None
) -> list[ResponseProfile]:
    """One steady state per grid frequency, in grid order.

    A closed-form ``sys`` (spectra.closed_form of ``h.spec``) takes the
    batched gauge solve; any other takes one LU solve per frequency.
    """
    if sys is None:
        sys = eigendecompose(h)
    cfg.validate_against(sys)
    if sys.meta.get("route") == "closed_form":
        return _gauge_sweep(h, cfg)
    out = []
    for omega in cfg.omega_grid:
        try:
            out.append(steady_state(h, cfg, float(omega), sys))
        except SingularSystem as exc:
            raise SingularSystem(f"sweep failed at omega={float(omega)}: {exc}") from exc
    return out


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
    loss sits just above the least-damped line)."""
    x_hat = profile.x / np.linalg.norm(profile.x)
    overlaps = np.empty(sys.dim)
    for n in range(sys.dim):
        v = sys.right_vectors[:, n]
        overlaps[n] = abs(np.vdot(v / np.linalg.norm(v), x_hat))
    ld = least_damped_mode(sys)
    best = int(np.argmax(overlaps))
    return ModeSelection(best, ld, float(overlaps[ld]), best == ld)


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
        slope, _, residual = _fit_chain(log_amp, sites)
        slopes.append(slope)
        ids.append(chain_id)
        worst = max(worst, residual)
    return LogProfile(log_amp, tuple(slopes), float(worst), tuple(ids))
