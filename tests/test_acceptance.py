"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or in failure output).

Criteria 8 and 9 each carry one quantitatively unattainable clause: a
log-linearity residual of 1e-3 demanded at a loss offset where resolvent
mixing provably contributes ~1e-1 (the selected mode's pole weight is
only ~24x its neighbors' there; the contamination is oscillatory across
sites, so the affine fit cannot absorb it).  Those clauses live in their
own tests, asserted exactly as stated, and fail; companion tests pin the
attainable scaling so the defect is quantified rather than hidden.
"""

import time

import numpy as np
import pytest

import decaygraph as dg
from decaygraph import decay, figures, response, spectra

from oracle_helpers import all_small_lattices, charpoly_roots, match_deviation

T = 1.5


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_ring_spectrum_equivalence():
    started = time.perf_counter()
    ring = dg.SegmentedRing((("A", 29), ("B", 1)))
    sys = dg.eigendecompose(dg.build(ring, T))
    n = np.arange(30)
    alpha = T ** (1 / 30) * np.exp(2j * np.pi * n / 30)
    analytic = T / alpha + alpha
    dev = match_deviation(sys.values, analytic)
    elapsed = time.perf_counter() - started
    ok = dev <= 1e-8 and elapsed < 1.0
    assert report("criterion-01", ok, f"analytic/numeric dev {dev:.2e}, {elapsed * 1e3:.0f} ms")


def test_c02_pure_decay_fig1b():
    ring = dg.SegmentedRing((("A", 29), ("B", 1)))
    sys = dg.eigendecompose(dg.build(ring, T))
    profiles = [sys.profile(k) for k in range(30)]
    cross = max(
        float(np.max(np.abs(profiles[i] - profiles[j])))
        for i in range(30)
        for j in range(i + 1, 30)
    )
    localized = all(int(np.argmax(p)) == 29 for p in profiles)  # the B-segment site
    want_a, want_b = T ** (-1 / 30), T ** (-29 / 30)
    rel_a = rel_b = 0.0
    for p in profiles:
        steps = p[:29] / p[1:30]  # decay direction along the A chain
        rel_a = max(rel_a, float(np.max(np.abs(steps - want_a) / want_a)))
        rel_b = max(rel_b, abs(p[0] / p[29] - want_b) / want_b)  # wrap bond
    ok = cross <= 1e-8 and localized and rel_a <= 1e-9 and rel_b <= 1e-9
    assert report(
        "criterion-02",
        ok,
        f"cross-mode {cross:.2e}, per-site ratio rel dev {rel_a:.2e}, bond ratio rel dev {rel_b:.2e}",
    )


def test_c03_power_partition_200_random_rings():
    rng = np.random.default_rng(20250809)
    worst_partition = 0.0
    worst_sharing = 0.0
    count = 0
    while count < 200:
        pairs = int(rng.integers(1, 5))
        segs = []
        for _ in range(pairs):
            segs.append(("A", int(rng.integers(1, 13))))
            segs.append(("B", int(rng.integers(1, 13))))
        if sum(n for _, n in segs) < 3:
            continue
        t = float(rng.uniform(1.1, 4.0))
        ring = dg.SegmentedRing(tuple(segs))
        profile = dg.decay_profile(ring, t)
        rep = dg.extract_decay_constants(profile, ring, t)
        worst_partition = max(worst_partition, abs(rep.partition_sum - 1.0))
        for kind in ("A", "B"):
            ratios = [c.ratio for c in rep.per_chain if c.chain_type == kind]
            worst_sharing = max(worst_sharing, max(ratios) / min(ratios) - 1.0)
        count += 1
    ok = worst_partition <= 1e-9 and worst_sharing <= 1e-9
    assert report(
        "criterion-03",
        ok,
        f"200 rings: worst |partition-1| {worst_partition:.2e}, worst type-sharing {worst_sharing:.2e}",
    )


def test_c04_circulant_family():
    worst_resid_rel = 0.0
    worst_profile = 0.0
    for n, a in ((6, [1, 0, 1, 0, 1]), (8, [1, 1, 0, 0, 0, 1, 1])):
        g = dg.validate_circulant(n, a)
        h = dg.build(g, T)
        analytic = dg.closed_form(g, T)
        worst_resid_rel = max(
            worst_resid_rel, float(np.max(analytic.residuals)) / h.norm_inf()
        )
        want = (T ** (-1.0 / n)) ** np.arange(n)
        for k in range(n):
            worst_profile = max(worst_profile, float(np.max(np.abs(analytic.profile(k) - want))))
    ok = worst_resid_rel <= 1e-9 and worst_profile <= 1e-9
    assert report(
        "criterion-04",
        ok,
        f"residual/||H|| {worst_resid_rel:.2e}, profile dev from r^m {worst_profile:.2e}",
    )


def test_c05_charges_fig3a():
    ring = dg.SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4)))
    cm = dg.charge_map(ring, T)
    want = np.zeros(25)
    want[[6, 21]] = 1.0
    want[[0, 14]] = -1.0
    dev_vals = float(np.max(np.abs(cm.amplitude_charge - want)))
    sigma, dev_eq = dg.verify_charge_equality(ring, T)
    ok = dev_vals <= 1e-9 and sigma == 1 and dev_eq <= 1e-9 and abs(cm.total) <= 1e-9
    assert report(
        "criterion-05",
        ok,
        f"charge dev {dev_vals:.2e}, sigma {sigma:+d}, equality dev {dev_eq:.2e}, total {cm.total:.1e}",
    )


def test_c06_charge_vectors_fig3c_fig3d():
    targets = {
        "N=7": np.array([2.0, 1.0, 0.0, 0.0, 0.0, -1.0, -2.0]),
        "N=8": np.array([2.5, 1.5, 0.5, 0.0, 0.0, -0.5, -1.5, -2.5]),
    }
    details = []
    ok = True
    for name, target in targets.items():
        g = dg.synthesize_charge_graph(target, T)
        comb = dg.combinatorial_charges(g.edges, g.n_nodes)
        sigma, dev = dg.verify_charge_equality(g)
        ok = ok and np.array_equal(comb, target) and sigma == 1 and dev <= 1e-9
        details.append(f"{name}: dev {dev:.2e}")
    # the 7-node vector is also realized by a true circulant whose actual
    # eigenmodes pass the full equality check
    sigma7, dev7 = dg.verify_charge_equality(dg.validate_circulant(7, [1, 1, 0, 0, 1, 1]), T)
    ok = ok and sigma7 == 1 and dev7 <= 1e-9
    details.append(f"N=7 eigenmode route: dev {dev7:.2e}")
    assert report("criterion-06", ok, "; ".join(details))


def test_c07_2d_separability():
    p = figures.PRODUCT_FIG2D
    h = dg.build_product_lattice(p)
    sys2d = dg.eigendecompose(h)
    (spec_x, t_x), (spec_y, t_y) = p.axes
    ex = dg.eigendecompose(dg.build(spec_x, t_x)).values
    ey = dg.eigendecompose(dg.build(spec_y, t_y)).values
    sums = (ex[:, None] + ey[None, :]).ravel()
    dev_sum = match_deviation(sys2d.values, sums)
    # corner mode, sliced through its maximum along both axes
    mode = sys2d.profile(dg.least_damped_mode(sys2d)).reshape(30, 8)
    ix, iy = np.unravel_index(np.argmax(mode), mode.shape)
    col = mode[:, iy]  # x profile through the corner
    row = mode[ix, :]
    want_x, want_y = t_x ** (-20 / 30), t_y ** (-3 / 8)
    steps_x = col[: ix][:5] / col[1 : ix + 1][:5]
    steps_y = row[: iy][:3] / row[1 : iy + 1][:3]
    rel_x = float(np.max(np.abs(steps_x - want_x) / want_x))
    rel_y = float(np.max(np.abs(steps_y - want_y) / want_y))
    # periodic-along-x lattice: a flat-x, decaying-y mode
    pe = figures.PRODUCT_FIG2E
    he = dg.build_product_lattice(pe)
    sys_e = dg.eigendecompose(he)
    mode_e = sys_e.profile(dg.least_damped_mode(sys_e)).reshape(30, 8)
    variation_x = float(np.max(np.ptp(mode_e, axis=0)))
    (spec_ex, _), (spec_ey, t_ey) = pe.axes
    col_e = mode_e[0, :]
    rep_y = dg.extract_decay_constants(col_e, spec_ey, t_ey)
    want_ey = t_ey ** (-3 / 8)
    rel_ey = abs(rep_y.ratios_by_type()["A"] - want_ey) / want_ey
    ok = dev_sum <= 1e-8 and rel_x <= 1e-9 and rel_y <= 1e-9 and variation_x <= 1e-9 and rel_ey <= 1e-9
    assert report(
        "criterion-07",
        ok,
        f"kron-sum dev {dev_sum:.2e}, corner ratios rel ({rel_x:.2e}, {rel_y:.2e}), "
        f"x-variation {variation_x:.2e}, y-ratio rel {rel_ey:.2e}",
    )


def _criterion8_setup():
    ring = dg.SegmentedRing((("A", 11), ("B", 1)))
    h = dg.build(ring, T)
    sys = dg.eigendecompose(h)
    sel = dg.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    g0 = float(np.max(sys.values.imag)) + 0.01
    return ring, h, sys, sel, omega, g0


def test_c08_mode_selection():
    started = time.perf_counter()
    ring, h, sys, sel, omega, g0 = _criterion8_setup()
    overlaps = []
    for factor in (2.0, 1.5, 1.1):
        cfg = dg.DriveConfig(0, factor * g0, np.array([omega]))
        prof = dg.steady_state(h, cfg, omega, sys)
        overlaps.append(dg.mode_selection_check(prof, sys).overlap)
    elapsed = time.perf_counter() - started
    ok = overlaps[0] < overlaps[1] < overlaps[2] and overlaps[2] > 0.99 and elapsed < 1.0
    assert report(
        "criterion-08",
        ok,
        f"overlaps {[f'{o:.4f}' for o in overlaps]} monotone, >0.99 at 1.1*g0, {elapsed * 1e3:.0f} ms",
    )


def test_c08_log_linearity_clause():
    """Stated clause: log-profile fit residual <= 1e-3 at gamma = 1.1 g0.

    Fails by construction of the regime, not of the implementation: at
    gamma - Im(E_sel) ~= 0.053 the two nearest resolvent poles sit ~1.24
    away, so their summed relative weight is ~8-13 percent; the phase of
    the contamination rotates site to site, producing an oscillatory
    log deviation of order 1e-1 that no affine fit removes.  The
    companion test shows the same pipeline meeting 1e-3 once the pole
    weight ratio actually allows it.
    """
    ring, h, sys, sel, omega, g0 = _criterion8_setup()
    cfg = dg.DriveConfig(0, 1.1 * g0, np.array([omega]))
    prof = dg.steady_state(h, cfg, omega, sys)
    residual = dg.log_profile(prof, ring).residual
    assert report(
        "criterion-08-log-linearity",
        residual <= 1e-3,
        f"fit residual {residual:.3e} at 1.1*g0 (stated bound 1e-3)",
    )


def test_c08_log_linearity_attainable_floor():
    """The residual tracks the resolvent mixing ratio and meets the stated
    1e-3 bound once the loss offset shrinks to ~3e-4 (and 1e-6 near 3e-7),
    confirming the pipeline is exact and only the criterion's offset/bound
    pairing is inconsistent."""
    ring, h, sys, sel, omega, g0 = _criterion8_setup()
    residuals = {}
    for excess in (3e-2, 3e-3, 3e-4, 3e-7):
        gamma = float(np.max(sys.values.imag)) + excess
        prof = dg.steady_state(h, dg.DriveConfig(0, gamma, np.array([omega])), omega, sys)
        residuals[excess] = dg.log_profile(prof, ring).residual
    scaling = [residuals[a] / residuals[b] for a, b in ((3e-2, 3e-3), (3e-3, 3e-4))]
    ok = (
        residuals[3e-4] <= 1e-3
        and residuals[3e-7] <= 1e-6
        and all(8.0 < s < 12.0 for s in scaling)  # residual ~ linear in the offset
    )
    assert report(
        "criterion-08-floor",
        ok,
        f"residuals {dict((k, f'{v:.1e}') for k, v in residuals.items())}, decade scaling {scaling}",
    )


def test_c09_four_node_response_monotone():
    g4 = dg.validate_circulant(4, [1, 1, 1])
    h = dg.build(g4, T)
    sys = dg.eigendecompose(h)
    sel = dg.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    g0 = float(np.max(sys.values.imag)) + 0.01
    cfg = dg.DriveConfig(0, 1.1 * g0, np.array([omega]))
    amp = np.abs(dg.steady_state(h, cfg, omega, sys))
    ok = bool(np.all(np.diff(amp) < 0))
    assert report(
        "criterion-09", ok, f"response monotone over nodes: {np.round(amp / amp.max(), 4)}"
    )


def test_c09_fit_residual_clause():
    """Stated clause: fit residual <= 1e-3 under the criterion-8 regime.

    Same resolvent-mixing floor as criterion 8's clause (see that
    docstring); fails as stated, quantified by the companion test."""
    g4 = dg.validate_circulant(4, [1, 1, 1])
    h = dg.build(g4, T)
    sys = dg.eigendecompose(h)
    sel = dg.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    g0 = float(np.max(sys.values.imag)) + 0.01
    cfg = dg.DriveConfig(0, 1.1 * g0, np.array([omega]))
    prof = dg.steady_state(h, cfg, omega, sys)
    residual = dg.log_profile(prof, g4).residual
    assert report(
        "criterion-09-log-linearity",
        residual <= 1e-3,
        f"fit residual {residual:.3e} at 1.1*g0 (stated bound 1e-3)",
    )


def test_c09_fit_residual_attainable_floor():
    g4 = dg.validate_circulant(4, [1, 1, 1])
    h = dg.build(g4, T)
    sys = dg.eigendecompose(h)
    sel = dg.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    gamma = float(np.max(sys.values.imag)) + 1e-4
    prof = dg.steady_state(h, dg.DriveConfig(0, gamma, np.array([omega])), omega, sys)
    residual = dg.log_profile(prof, g4).residual
    assert report(
        "criterion-09-floor", residual <= 1e-3, f"fit residual {residual:.2e} at offset 1e-4"
    )


def test_c10_obc_control():
    chain = dg.ObcChain(12)
    h = dg.build(chain, T)
    sys = dg.eigendecompose(h)
    purity = dg.pure_decay_check(sys, chain, T)
    modes_fail = (not purity.passed) and purity.purity > 1e-3
    gamma = float(np.max(sys.values.imag)) + 0.05 * h.norm_inf()
    sel = dg.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    drive_residuals = []
    for source in (0, 3, 5):
        prof = dg.steady_state(h, dg.DriveConfig(source, gamma, np.array([omega])), omega, sys)
        drive_residuals.append(dg.log_profile(prof, chain).residual)
    drives_fail = all(r > 1e-3 for r in drive_residuals)
    analytic = dg.closed_form(chain, T)
    certified = float(np.max(analytic.residuals)) <= 1e-9 * h.norm_inf()
    exponent = analytic.meta["rho_exponent"]
    ok = modes_fail and drives_fail and certified and exponent in (0.5, -0.5)
    assert report(
        "criterion-10",
        ok,
        f"mode purity {purity.purity:.2e} (>1e-3), drive residuals "
        f"{[f'{r:.2e}' for r in drive_residuals]}, analytic certified with rho = t**{exponent:+.1f}",
    )


def test_c11_oracle_suite():
    lattices = all_small_lattices(8)
    worst_eig = 0.0
    worst_charge = 0.0
    for spec in lattices:
        h = dg.build(spec, T)
        sys = dg.eigendecompose(h)
        worst_eig = max(worst_eig, match_deviation(sys.values, charpoly_roots(np.asarray(h.matrix))))
        if isinstance(spec, dg.ObcChain):
            continue
        profile = dg.decay_profile(spec, T, sys)
        rep = dg.extract_decay_constants(profile, spec, T)
        q_raw = dg.amplitude_charges(profile, h.edges, h.ts)
        q_fit = dg.charges_from_fit(rep, spec, h)
        worst_charge = max(worst_charge, float(np.max(np.abs(q_fit - q_raw))))
    ok = worst_eig <= 1e-7 and worst_charge <= 1e-9
    assert report(
        "criterion-11",
        ok,
        f"{len(lattices)} lattices: charpoly-vs-dense dev {worst_eig:.2e}, "
        f"raw-vs-fitted charge dev {worst_charge:.2e}",
    )
