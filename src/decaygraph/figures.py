"""Canned figure-style configurations and their pass/fail checks.

Each entry rebuilds one published configuration and asserts its
quantitative claims at fixed tolerances.  Two entries (fig1d, fig4d) are
expected-fail controls: the open-boundary chain must FAIL the pure-decay
checks, and the control passes exactly when it does.

For the driven entries (fig4b, fig4c) the log-linearity assertion runs in
the mode-isolation regime (loss a few 1e-4 above the least-damped line).
At the mode-selection study's own loss values the response provably
carries percent-level contamination from neighboring resolvent poles, so
log-residuals there are reported but cannot be pushed to 1e-3; see the
acceptance suite for the quantitative bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import decay, response, spectra
from .lattice import (
    CirculantGraph,
    ObcChain,
    ProductLattice,
    SegmentedRing,
    _block_rows,
    build,
    build_product_lattice,
    validate_circulant,
)

T_DEFAULT = 1.5

RING_29_1 = SegmentedRing((("A", 29), ("B", 1)))
RING_13_17 = SegmentedRing((("A", 13), ("B", 17)))
RING_FIG1E = SegmentedRing((("A", 4), ("B", 11), ("A", 3), ("B", 12)))
RING_FIG3A = SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4)))
RING_12 = SegmentedRing((("A", 11), ("B", 1)))
CIRCULANT_FIG2A = validate_circulant(6, [1, 0, 1, 0, 1])
CIRCULANT_FIG2B = validate_circulant(8, [1, 1, 0, 0, 0, 1, 1])
CIRCULANT_FIG3C = validate_circulant(7, [1, 1, 0, 0, 1, 1])
COMPLETE_4 = validate_circulant(4, [1, 1, 1])
OBC_12 = ObcChain(12)
PRODUCT_FIG2D = ProductLattice(
    ((SegmentedRing((("A", 10), ("B", 20))), 1.5), (SegmentedRing((("A", 5), ("B", 3))), 2.0))
)
PRODUCT_FIG2E = ProductLattice(
    ((SegmentedRing((("A", 30),)), 1.5), (SegmentedRing((("A", 5), ("B", 3))), 2.0))
)
CHARGES_FIG3C = np.array([2.0, 1.0, 0.0, 0.0, 0.0, -1.0, -2.0])
CHARGES_FIG3D = np.array([2.5, 1.5, 0.5, 0.0, 0.0, -0.5, -1.5, -2.5])

ISOLATION_EXCESS = 1e-4  # loss offset above max Im(E) for single-mode log-linearity
MATCH_MARGIN = 1e-9  # relative to the max cost: far above the assignment solver's rounding


@dataclass
class CheckResult:
    figure: str
    passed: bool
    expected_fail_control: bool = False
    details: dict = field(default_factory=dict)

    def record(self, name: str, ok: bool, value=None) -> bool:
        self.details[name] = {"ok": bool(ok)} if value is None else {"ok": bool(ok), "value": value}
        if not ok:
            self.passed = False
        return ok


def match_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max eigenvalue deviation after optimal (assignment) pairing.

    Pairing each ``a`` with its nearest ``b`` (costs in row blocks) is the
    unique optimum, the one linear_sum_assignment returns, when it is
    one-to-one and every nearest beats the second-nearest by MATCH_MARGIN *
    max cost; otherwise (ties, a degenerate spectrum) that solver pairs."""
    a, b = np.asarray(a), np.asarray(b)
    near, best, gap, top = np.empty(len(a), dtype=np.intp), np.empty(len(a)), np.empty(len(a)), 0.0
    step = _block_rows(max(len(b), 1))
    for i in range(0, len(a), step):
        cost = np.abs(a[i:i + step, None] - b[None, :])
        rows, j = np.arange(len(cost)), np.argmin(cost, axis=1)
        near[i:i + step], best[i:i + step], top = j, cost[rows, j], max(top, cost.max())
        cost[rows, j] = np.inf
        gap[i:i + step] = cost.min(axis=1) - best[i:i + step]  # NaN for a non-finite row
    if len(np.unique(near)) == len(a) and np.all(gap > MATCH_MARGIN * top):
        return float(best.max())
    from scipy.optimize import linear_sum_assignment  # also loads scipy.linalg and scipy.spatial

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _ring_ratio_checks(res: CheckResult, ring: SegmentedRing, t: float, rel_tol: float = 1e-9):
    h = build(ring, t)
    sys = spectra.gauged_eigendecompose(h)
    purity = decay.pure_decay_check(sys, ring, t)
    res.record("pure_decay_pass", purity.passed, purity.purity)
    length = ring.length
    d_a = t ** (-ring.n_sites_b / length)
    d_b = t ** (-ring.n_sites_a / length)
    by_type: dict[str, list[float]] = {}
    for c in purity.report.per_chain:
        by_type.setdefault(c.chain_type, []).append(c.ratio)
    for kind, want in (("A", d_a), ("B", d_b)):
        ratios = by_type.get(kind, [])
        if not ratios:
            continue
        worst = max(abs(r - want) / want for r in ratios)
        res.record(f"ratio_{kind}_rel_dev", worst <= rel_tol, worst)
        spread = max(ratios) / min(ratios) - 1.0
        res.record(f"ratio_{kind}_shared", spread <= rel_tol, spread)
    res.record(
        "partition_sum", abs(purity.report.partition_sum - 1.0) <= 1e-9, purity.report.partition_sum
    )
    return h, sys, purity


def fig1b() -> CheckResult:
    res = CheckResult("fig1b", True)
    t = T_DEFAULT
    h, sys, _ = _ring_ratio_checks(res, RING_29_1, t)
    analytic = spectra.mode_values(RING_29_1, t)
    res.record("analytic_numeric_dev", (dev := match_deviation(sys.values, analytic)) <= 1e-8, dev)
    sel = spectra.least_damped_mode(sys)
    res.record("localized_at_site_30", int(np.argmax(sys.profile(sel))) == 29)
    return res


def fig1c() -> CheckResult:
    res = CheckResult("fig1c", True)
    h, sys, _ = _ring_ratio_checks(res, RING_13_17, T_DEFAULT)
    sel = spectra.least_damped_mode(sys)
    res.record("localized_at_site_14", int(np.argmax(sys.profile(sel))) == 13)
    return res


def fig1d() -> CheckResult:
    res = CheckResult("fig1d", True, expected_fail_control=True)
    t = T_DEFAULT
    h = build(OBC_12, t)
    sys = spectra.gauged_eigendecompose(h)
    purity = decay.pure_decay_check(sys, OBC_12, t)
    res.record("oscillatory_modes_fail_purity", (not purity.passed) and purity.purity > 1e-3, purity.purity)
    analytic = spectra.closed_form(OBC_12, t)
    res.record("analytic_modes_certified", float(np.max(analytic.residuals)) <= analytic.tolerance)
    res.record("rho_exponent_recorded", analytic.meta.get("rho_exponent") in (0.5, -0.5),
               analytic.meta.get("rho_exponent"))
    return res


def fig1e() -> CheckResult:
    res = CheckResult("fig1e", True)
    _ring_ratio_checks(res, RING_FIG1E, T_DEFAULT)
    return res


def _circulant_checks(res: CheckResult, g: CirculantGraph, t: float):
    analytic = spectra.closed_form(g, t)
    res.record("analytic_certified", float(np.max(analytic.residuals)) <= analytic.tolerance,
               float(np.max(analytic.residuals)))
    r = t ** (-1.0 / g.n_nodes)
    want = r ** np.arange(g.n_nodes)
    worst = max(
        float(np.max(np.abs(analytic.profile(n) - want))) for n in range(g.n_nodes)
    )
    res.record("profiles_geometric", worst <= 1e-9, worst)
    h = build(g, t)
    sys = spectra.gauged_eigendecompose(h)
    res.record("analytic_numeric_dev", (dev := match_deviation(sys.values, analytic.values)) <= 1e-8, dev)
    purity = decay.pure_decay_check(sys, g, t)
    res.record("pure_decay_pass", purity.passed, purity.purity)


def fig2a() -> CheckResult:
    res = CheckResult("fig2a", True)
    res.record("three_neighbors_per_node", CIRCULANT_FIG2A.degree == 3)
    _circulant_checks(res, CIRCULANT_FIG2A, T_DEFAULT)
    return res


def fig2b() -> CheckResult:
    res = CheckResult("fig2b", True)
    res.record("four_neighbors_per_node", CIRCULANT_FIG2B.degree == 4)
    _circulant_checks(res, CIRCULANT_FIG2B, T_DEFAULT)
    return res


def fig2d() -> CheckResult:
    res = CheckResult("fig2d", True)
    p = PRODUCT_FIG2D
    h = build_product_lattice(p)
    axis_systems = [spectra.gauged_eigendecompose(build(spec, t)) for spec, t in p.axes]
    combined = spectra.kron_sum_spectrum(axis_systems, h)
    numeric = spectra.gauged_eigendecompose(h)
    res.record("kron_sum_dev", (dev := match_deviation(numeric.values, combined.values)) <= 1e-8, dev)
    (spec_x, t_x), (spec_y, t_y) = p.axes
    prof_x = axis_systems[0].profile(spectra.least_damped_mode(axis_systems[0]))
    prof_y = axis_systems[1].profile(spectra.least_damped_mode(axis_systems[1]))
    rep_x = decay.extract_decay_constants(prof_x, spec_x, t_x)
    rep_y = decay.extract_decay_constants(prof_y, spec_y, t_y)
    want_x = t_x ** (-20.0 / 30.0)
    want_y = t_y ** (-3.0 / 8.0)
    got_x = rep_x.ratios_by_type()["A"]
    got_y = rep_y.ratios_by_type()["A"]
    res.record("corner_ratio_x", abs(got_x - want_x) / want_x <= 1e-9, got_x)
    res.record("corner_ratio_y", abs(got_y - want_y) / want_y <= 1e-9, got_y)
    corner = int(np.argmax(np.kron(prof_x, prof_y)))
    res.record("corner_node", corner == 10 * spec_y.length + 5, corner + 1)
    return res


def fig2e() -> CheckResult:
    res = CheckResult("fig2e", True)
    p = PRODUCT_FIG2E
    (spec_x, t_x), (spec_y, t_y) = p.axes
    sys_x = spectra.gauged_eigendecompose(build(spec_x, t_x))
    sys_y = spectra.gauged_eigendecompose(build(spec_y, t_y))
    prof_x = sys_x.profile(spectra.least_damped_mode(sys_x))
    prof_y = sys_y.profile(spectra.least_damped_mode(sys_y))
    grid = np.kron(prof_x, prof_y).reshape(spec_x.length, spec_y.length)
    variation = float(np.max(np.ptp(grid, axis=0)))
    res.record("uniform_along_x", variation <= 1e-9, variation)
    rep_y = decay.extract_decay_constants(prof_y, spec_y, t_y)
    want_y = t_y ** (-3.0 / 8.0)
    got_y = rep_y.ratios_by_type()["A"]
    res.record("exponential_along_y", abs(got_y - want_y) / want_y <= 1e-9, got_y)
    res.record("edge_purity", rep_y.purity <= 1e-8, rep_y.purity)
    return res


def fig3a() -> CheckResult:
    res = CheckResult("fig3a", True)
    t = T_DEFAULT
    cm = decay.charge_map(RING_FIG3A, t)
    want = np.zeros(25)
    want[[6, 21]] = 1.0
    want[[0, 14]] = -1.0
    dev = float(np.max(np.abs(cm.amplitude_charge - want)))
    res.record("charge_values", dev <= 1e-9, dev)
    sigma, eq_dev = cm.sign()
    res.record("sigma_positive", sigma == 1)
    res.record("equality_dev", eq_dev <= 1e-9, eq_dev)
    res.record("conservation", abs(cm.total) <= 1e-9, cm.total)
    return res


def fig3c_vector() -> CheckResult:
    res = CheckResult("fig3c-vector", True)
    t = T_DEFAULT
    cm = decay.charge_map(CIRCULANT_FIG3C, t)
    dev = float(np.max(np.abs(cm.combinatorial_charge - CHARGES_FIG3C)))
    res.record("combinatorial_vector", dev <= 1e-12, dev)
    sigma, eq_dev = cm.sign()
    res.record("sigma_positive", sigma == 1)
    res.record("equality_dev", eq_dev <= 1e-9, eq_dev)
    synth = decay.synthesize_charge_graph(CHARGES_FIG3C, t)
    s_sigma, s_dev = decay.verify_charge_equality(synth)
    res.record("synthesized_equality_dev", s_sigma == 1 and s_dev <= 1e-9, s_dev)
    return res


def fig3d_vector() -> CheckResult:
    res = CheckResult("fig3d-vector", True)
    t = T_DEFAULT
    synth = decay.synthesize_charge_graph(CHARGES_FIG3D, t)
    dev = float(np.max(np.abs(
        decay.combinatorial_charges(synth.edges, synth.n_nodes) - CHARGES_FIG3D
    )))
    res.record("combinatorial_vector", dev <= 1e-12, dev)
    cm = decay.charge_map(synth)
    sigma, eq_dev = cm.sign()
    res.record("sigma_positive", sigma == 1)
    res.record("equality_dev", eq_dev <= 1e-9, eq_dev)
    res.record("quantized", cm.quantized)
    return res


def _selected_drive(spec, t: float, excess: float, source: int = 0):
    h = build(spec, t)
    sys = spectra.gauged_eigendecompose(h)
    sel = spectra.least_damped_mode(sys)
    gamma = float(np.max(sys.values.imag)) + excess
    omega = float(sys.values[sel].real)
    cfg = response.DriveConfig(source, gamma, np.array([omega]))
    prof = response.steady_state(h, cfg, omega, sys)
    return h, sys, sel, prof


def fig4b() -> CheckResult:
    res = CheckResult("fig4b", True)
    t = T_DEFAULT
    h = build(RING_12, t)
    sys = spectra.gauged_eigendecompose(h)
    sel = spectra.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    g0 = float(np.max(sys.values.imag)) + 0.01
    overlaps = []
    for factor in (2.0, 1.5, 1.1):
        cfg = response.DriveConfig(0, factor * g0, np.array([omega]))
        prof = response.steady_state(h, cfg, omega, sys)
        check = response.mode_selection_check(prof, sys)
        overlaps.append(check.overlap)
    res.record("overlap_monotone", overlaps[0] < overlaps[1] < overlaps[2], overlaps)
    res.record("overlap_exceeds_0.99", overlaps[-1] > 0.99, overlaps[-1])
    res.record("selects_least_damped", check.matches)
    res.record("log_residual_at_1.1g0_reported", True,
               response.log_profile(prof, RING_12).residual)
    _, _, _, prof_iso = _selected_drive(RING_12, t, ISOLATION_EXCESS)
    iso = response.log_profile(prof_iso, RING_12).residual
    res.record("log_linear_when_isolated", iso <= 1e-3, iso)
    return res


def fig4c() -> CheckResult:
    res = CheckResult("fig4c", True)
    t = T_DEFAULT
    _, sys, sel, prof = _selected_drive(COMPLETE_4, t, ISOLATION_EXCESS)
    amp = np.abs(prof.x)
    res.record("monotone_decay_over_nodes", bool(np.all(np.diff(amp) < 0)),
               (amp / amp.max()).tolist())
    iso = response.log_profile(prof, COMPLETE_4).residual
    res.record("log_linear_when_isolated", iso <= 1e-3, iso)
    res.record("selects_least_damped", response.mode_selection_check(prof, sys).matches)
    return res


def fig4d() -> CheckResult:
    res = CheckResult("fig4d", True, expected_fail_control=True)
    t = T_DEFAULT
    h = build(OBC_12, t)
    sys = spectra.gauged_eigendecompose(h)
    gamma = float(np.max(sys.values.imag)) + 0.05 * h.norm_inf()
    sel = spectra.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    profiles = []
    for source in (0, 3, 5):
        cfg = response.DriveConfig(source, gamma, np.array([omega]))
        prof = response.steady_state(h, cfg, omega, sys)
        residual = response.log_profile(prof, OBC_12).residual
        res.record(f"oscillatory_source_{source + 1}", residual > 1e-3, residual)
        profiles.append(np.abs(prof.x) / np.max(np.abs(prof.x)))
    spread = max(
        float(np.max(np.abs(profiles[i] - profiles[j])))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    res.record("profiles_differ_by_source", spread > 1e-2, spread)
    return res


FIGURES = {
    "fig1b": fig1b,
    "fig1c": fig1c,
    "fig1d": fig1d,
    "fig1e": fig1e,
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig2d": fig2d,
    "fig2e": fig2e,
    "fig3a": fig3a,
    "fig3c-vector": fig3c_vector,
    "fig3d-vector": fig3d_vector,
    "fig4b": fig4b,
    "fig4c": fig4c,
    "fig4d": fig4d,
}


def run_figure(figure_id: str) -> CheckResult:
    if figure_id not in FIGURES:
        raise KeyError(f"unknown figure id {figure_id!r}; choose from {sorted(FIGURES)}")
    return FIGURES[figure_id]()
