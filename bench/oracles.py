"""Output oracles computed from the spec, independently of the package.

Each check takes one job (its lattice document and command) and the
directory the CLI wrote, and returns ``None`` when every output agrees with
the theory or a one-line reason when it does not.  The lattice model here is
the README's convention restated with numpy: a directed edge ``tail -> head``
on axis k puts ``t_k`` at ``H[tail, head]`` and ``1`` at ``H[head, tail]``.
Nothing in this module imports ``decaygraph``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPECTRUM_TOL = 1e-8  # the CLI's numeric-vs-analytic pairing tolerance
RATIO_REL_TOL = 1e-7
CHARGE_TOL = 1e-8
SOLVE_TOL = 1e-9  # ten times the CLI's 1e-10 drive-scaled certificate
GAMMA_TOL = 1e-7
GAMMA_MARGIN = 0.05  # the CLI's default loss margin, times ||H||_inf
OMEGA_POINTS = 401
SWEEP_SAMPLES = (0, 80, 160, 200, 280, 400)
FIGURES = (
    "fig1b", "fig1c", "fig1d", "fig1e", "fig2a", "fig2b", "fig2d", "fig2e",
    "fig3a", "fig3c-vector", "fig3d-vector", "fig4b", "fig4c", "fig4d",
)
CONTROLS = ("fig1d", "fig4d")


def dim(lat: dict) -> int:
    kind = lat["kind"]
    if kind == "ring":
        return sum(s["len"] for s in lat["segments"])
    if kind in ("circulant", "obc_chain"):
        return lat["n"]
    if kind == "raw":
        return lat["dim"]
    return int(np.prod([dim(a) for a in lat["axes"]]))


def axis_edges(lat: dict) -> tuple[np.ndarray, np.ndarray]:
    """(tails, heads) of a 1D lattice's directed edges."""
    n = dim(lat)
    if lat["kind"] == "ring":
        types = np.concatenate([[s["type"] == "A"] * s["len"] for s in lat["segments"]])
        i = np.arange(n)
        j = (i + 1) % n
        return np.where(types, j, i), np.where(types, i, j)
    if lat["kind"] == "circulant":
        a = np.array(lat["a"])
        i, j = np.triu_indices(n, 1)
        keep = a[j - i - 1] == 1
        return i[keep], j[keep]
    i = np.arange(n - 1)
    return i + 1, i


def edges(lat: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tails, heads, t per edge) of a ring, circulant, chain or product."""
    axes = lat["axes"] if lat["kind"] == "product" else [lat]
    dims = [dim(a) for a in axes]
    strides = [int(np.prod(dims[k + 1:])) for k in range(len(dims))]
    total = int(np.prod(dims))
    index = np.arange(total)
    tails, heads, ts = [], [], []
    for k, axis in enumerate(axes):
        base = index[(index // strides[k]) % dims[k] == 0]
        tail, head = axis_edges(axis)
        tails.append((base[:, None] + tail[None, :] * strides[k]).ravel())
        heads.append((base[:, None] + head[None, :] * strides[k]).ravel())
        ts.append(np.full(tails[-1].size, float(axis["t"])))
    return np.concatenate(tails), np.concatenate(heads), np.concatenate(ts)


def entries(lat: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero (rows, cols, values) of H, 0-based, in row-major order."""
    if lat["kind"] == "raw":
        e = np.array(lat["entries"], dtype=float).reshape(-1, 4)
        rows, cols, vals = e[:, 0].astype(int) - 1, e[:, 1].astype(int) - 1, e[:, 2] + 1j * e[:, 3]
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    else:
        tail, head, t = edges(lat)
        rows = np.concatenate([tail, head])
        cols = np.concatenate([head, tail])
        vals = np.concatenate([t, np.ones(tail.size)]).astype(complex)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def norm_inf(lat: dict) -> float:
    rows, _, vals = entries(lat)
    return float(np.max(np.bincount(rows, np.abs(vals), minlength=dim(lat))))


def matvec(lat: dict, x: np.ndarray) -> np.ndarray:
    rows, cols, vals = entries(lat)
    y = np.zeros(x.shape, dtype=complex)
    np.add.at(y, rows, vals * x[cols])
    return y


def spectrum(lat: dict) -> np.ndarray:
    """Closed-form eigenvalues (numpy's eigvals for raw matrices)."""
    kind = lat["kind"]
    n = dim(lat)
    t = lat.get("t")
    if kind == "ring":
        n_a = sum(s["len"] for s in lat["segments"] if s["type"] == "A")
        k = 2 * np.pi * np.arange(n) / n
        return t ** ((n - n_a) / n) * np.exp(1j * k) + t ** (n_a / n) * np.exp(-1j * k)
    if kind == "circulant":
        q = np.arange(1, n)
        coeff = np.array(lat["a"]) * t ** ((n - q) / n)
        return np.exp(2j * np.pi * np.outer(np.arange(n), q) / n) @ coeff
    if kind == "obc_chain":
        return (2 * np.sqrt(t) * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))).astype(complex)
    if kind == "product":
        values = np.zeros(1, dtype=complex)
        for axis in lat["axes"]:
            values = (values[:, None] + spectrum(axis)[None, :]).ravel()
        return values
    rows, cols, vals = entries(lat)
    h = np.zeros((n, n), dtype=complex)
    h[rows, cols] = vals
    return np.linalg.eigvals(h)


def potential(lat: dict) -> np.ndarray | None:
    """log-amplitude profile shared by every mode, or None (not pure decay)."""
    kind = lat["kind"]
    if kind == "ring":
        n = dim(lat)
        n_a = sum(s["len"] for s in lat["segments"] if s["type"] == "A")
        steps = np.concatenate([
            [(n - n_a) / n if s["type"] == "A" else -n_a / n] * s["len"] for s in lat["segments"]
        ])
        return np.log(lat["t"]) * np.concatenate([[0.0], np.cumsum(steps[:-1])])
    if kind == "circulant":
        return -np.log(lat["t"]) * np.arange(lat["n"]) / lat["n"]
    if kind == "product":
        parts = [potential(a) for a in lat["axes"]]
        if any(p is None for p in parts):
            return None
        out = np.zeros(1)
        for p in parts:
            out = (out[:, None] + p[None, :]).ravel()
        return out
    return None


def _csv(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines]).reshape(len(lines), -1)


def _nearest(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a value in either set to the other set."""
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def check_build(lat: dict, out: Path) -> str | None:
    got = _csv(out / "hamiltonian.csv")
    rows, cols, vals = entries(lat)
    want = np.column_stack([rows + 1, cols + 1, vals.real, vals.imag])
    if got.shape != want.shape or not np.array_equal(got, want):
        return "hamiltonian.csv differs from the spec's edges"
    return None


def _check_profiles(lat: dict, path: Path, shared: bool) -> str | None:
    got = _csv(path)
    n = dim(lat)
    if got.shape != (n * n, 5):
        return f"{path.name} has shape {got.shape}"
    amp = got[:, 4].reshape(n, n)
    if np.max(np.abs(amp - np.hypot(got[:, 2], got[:, 3]).reshape(n, n))) > 1e-12:
        return f"{path.name}: abs_psi disagrees with re_psi, im_psi"
    if np.max(np.abs(amp.max(axis=1) - 1.0)) > 1e-12:
        return f"{path.name}: a mode is not max-normalized"
    w = potential(lat)
    if shared and w is not None:
        want = np.exp(w - w.max())
        dev = float(np.max(np.abs(amp - want[None, :])))
        if dev > 1e-9:
            return f"{path.name}: profile deviates {dev:.2e} from t**w"
    return None


def check_spectrum(lat: dict, out: Path, cmd: list[str]) -> str | None:
    want = spectrum(lat)
    tol = SPECTRUM_TOL * max(1.0, norm_inf(lat))
    for route in ("numeric", "analytic"):
        if f"--{route}" not in cmd:
            continue
        got = _csv(out / f"spectrum_{route}.csv")
        if got.shape != (want.size, 3):
            return f"spectrum_{route}.csv has shape {got.shape}"
        dev = _nearest(got[:, 1] + 1j * got[:, 2], want)
        if dev > tol:
            return f"spectrum_{route}.csv deviates {dev:.2e} from the closed form"
        if "--profiles" in cmd:
            # analytic vectors are the pure-decay ones; numeric vectors in a
            # degenerate subspace may mix and are checked for form only
            reason = _check_profiles(lat, out / f"profiles_{route}.csv", route == "analytic")
            if reason:
                return reason
    return None


def expected_ratios(lat: dict) -> dict[str, float]:
    """Decay constant per chain type in its canonical direction."""
    t = lat["t"]
    if lat["kind"] == "circulant":
        n = lat["n"]
        return {"body": t ** (-1 / n), "wrap": t ** (-(n - 1) / n)}
    n = dim(lat)
    n_a = sum(s["len"] for s in lat["segments"] if s["type"] == "A")
    return {"A": t ** (-(n - n_a) / n), "B": t ** (-n_a / n)}


def check_decay(lat: dict, out: Path, expect: int) -> str | None:
    report = json.loads((out / "decay_report.json").read_text())
    if expect == 1:
        return None if report["pure_decay_pass"] is False else "control passed the pure-decay check"
    if report["pure_decay_pass"] is not True:
        return "decay_report.json does not record a pass"
    want = expected_ratios(lat)
    present = set()
    for chain in report["per_chain"]:
        ratio = want[chain["chain_type"]]
        present.add(chain["chain_type"])
        if abs(chain["ratio"] - ratio) > RATIO_REL_TOL * ratio:
            return f"chain {chain['chain_id']} ratio {chain['ratio']!r}, theory {ratio!r}"
    partition = sum(abs(np.log(want[k]) / np.log(lat["t"])) for k in present)
    if abs(report["partition_sum"] - partition) > RATIO_REL_TOL:
        return f"partition_sum {report['partition_sum']!r}, theory {partition!r}"
    return None


def check_charges(lat: dict, out: Path) -> str | None:
    got = _csv(out / "charges.csv")
    n = dim(lat)
    tail, head, _ = edges(lat)
    want = 0.5 * (np.bincount(tail, minlength=n) - np.bincount(head, minlength=n))
    if got.shape != (n, 3) or not np.array_equal(got[:, 0], np.arange(1, n + 1)):
        return f"charges.csv has shape {got.shape}"
    if not np.array_equal(got[:, 2], want):
        return "Q_combinatorial differs from (out - in)/2 of the spec's edges"
    dev = float(np.max(np.abs(got[:, 1] - want)))
    if dev > CHARGE_TOL:
        return f"Q_amplitude deviates {dev:.2e} from (out - in)/2"
    return None


def check_drive(lat: dict, out: Path) -> str | None:
    """Re-certify sampled sweep rows against ((omega + i gamma) I - H) x = e_1.

    gamma is fitted per sampled frequency by least squares and must match
    the CLI default max Im(E) + 0.05 ||H||_inf from the closed-form spectrum.
    """
    n = dim(lat)
    lines = (out / "sweep.csv").read_text().splitlines()
    if len(lines) != 1 + OMEGA_POINTS * n:
        return f"sweep.csv has {len(lines) - 1} rows, expected {OMEGA_POINTS * n}"
    values = spectrum(lat)
    h_norm = norm_inf(lat)
    gamma = float(values.imag.max()) + GAMMA_MARGIN * h_norm
    grid = (values.real.min() - 1.0, values.real.max() + 1.0)
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    for f in SWEEP_SAMPLES:
        block = np.array([[float(v) for v in line.split(",")] for line in lines[1 + f * n: 1 + (f + 1) * n]])
        omega = block[0, 0]
        if not (np.all(block[:, 0] == omega) and np.array_equal(block[:, 1], np.arange(1, n + 1))):
            return f"sweep.csv block {f} is not one frequency over nodes 1..N"
        x = block[:, 3] + 1j * block[:, 4]
        if np.max(np.abs(block[:, 2] - np.abs(x))) > 1e-12 * max(1.0, float(np.max(block[:, 2]))):
            return f"sweep.csv block {f}: abs_x disagrees with re_x, im_x"
        r0 = omega * x - matvec(lat, x) - rhs
        fit = -float(np.real(np.vdot(1j * x, r0))) / float(np.vdot(x, x).real)
        residual = float(np.max(np.abs(r0 + 1j * fit * x)))
        if residual > SOLVE_TOL:
            return f"sweep.csv at omega={omega!r}: residual {residual:.2e}"
        if abs(fit - gamma) > GAMMA_TOL * max(1.0, gamma):
            return f"sweep.csv at omega={omega!r}: loss {fit!r}, default {gamma!r}"
    first = float(lines[1].split(",")[0])
    last = float(lines[-1].split(",")[0])
    if abs(first - grid[0]) > 1e-7 or abs(last - grid[1]) > 1e-7:
        return f"sweep grid [{first}, {last}] is not the default {grid}"
    return None


def check_reproduce(out: Path) -> str | None:
    checks = json.loads((out / "checks.json").read_text())
    missing = [f for f in FIGURES if f not in checks]
    if missing:
        return f"checks.json lacks {missing}"
    failed = [f for f, c in checks.items() if c["passed"] is not True]
    if failed:
        return f"checks.json records FAIL for {failed}"
    if any(checks[f]["expected_fail_control"] is not True for f in CONTROLS):
        return "open-chain entries are not marked as expected-fail controls"
    return None


def check(job: dict, out: Path) -> str | None:
    """Oracle verdict for a job that exited with its expected code."""
    cmd, lat, expect = job["cmd"], job["lattice"], job["expect"]
    name = cmd[0]
    try:
        if name == "reproduce":
            return check_reproduce(out)
        if expect == 2:
            return None
        if name == "build":
            return check_build(lat, out)
        if name == "spectrum":
            return check_spectrum(lat, out, cmd)
        if name == "decay":
            return check_decay(lat, out, expect)
        if name == "charges":
            return check_charges(lat, out)
        if name == "drive":
            return check_drive(lat, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return f"no oracle for command {name!r}"
