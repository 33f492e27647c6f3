"""Driven steady states: solves, sweeps, mode selection, log profiles."""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decaygraph as dg
from decaygraph import response, spectra

from oracle_helpers import (
    csr_reference, drive_residual, resolvent_expansion, same_bits, two_by_two_inverse_solve,
)

T = 1.5
RING_12 = dg.SegmentedRing((("A", 11), ("B", 1)))


def selected_setup(spec, t=T):
    h = dg.build(spec, t)
    sys = dg.eigendecompose(h)
    sel = dg.least_damped_mode(sys)
    omega = float(sys.values[sel].real)
    g_min = float(np.max(sys.values.imag))
    return h, sys, sel, omega, g_min


class TestDriveConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            dg.DriveConfig(0, 1.0, np.array([0.0, 0.0, 1.0]))

    def test_grid_nonempty(self):
        with pytest.raises(ValueError):
            dg.DriveConfig(0, 1.0, np.array([]))

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            dg.DriveConfig(0, -1.0, np.array([0.0]))

    def test_gamma_must_beat_max_im(self):
        h, sys, _, omega, g_min = selected_setup(RING_12)
        cfg = dg.DriveConfig(0, g_min / 2, np.array([omega]))
        with pytest.raises(dg.SingularSystem):
            dg.steady_state(h, cfg, omega, sys)

    @pytest.mark.parametrize("raw", [False, True], ids=["gauge", "schur"])
    def test_gamma_must_beat_max_im_without_a_system(self, raw):
        # A11 B1 at t = 1.5 grows at max Im E = 0.416: with no system given,
        # each route checks the loss against its own poles
        h = dg.build(RING_12, T)
        cfg = dg.DriveConfig(0, 0.208, np.array([0.3]))
        with pytest.raises(dg.SingularSystem) as given:
            dg.steady_state(h, cfg, 0.3, dg.closed_form(RING_12, T))
        text = r"^gamma = 0\.208 must exceed max Im\(E\) = 0\.41579747545868\d* for a decaying system$"
        assert re.match(text, str(given.value))
        if raw:
            h = dg.raw_hamiltonian(h.matrix)
        for run in (lambda: dg.steady_state(h, cfg, 0.3), lambda: dg.frequency_sweep(h, cfg)):
            with pytest.raises(dg.SingularSystem, match=text) as alone:
                run()
            if not raw:  # the gauge's poles are the closed form's values, bit for bit
                assert str(alone.value) == str(given.value)

    def test_default_config(self):
        h, sys, *_ = selected_setup(RING_12)
        cfg = dg.default_drive_config(h, sys)
        assert cfg.omega_grid.shape == (401,)
        assert cfg.gamma > float(np.max(sys.values.imag))
        assert cfg.omega_grid[0] == pytest.approx(float(np.min(sys.values.real)) - 1.0)
        assert cfg.omega_grid[-1] == pytest.approx(float(np.max(sys.values.real)) + 1.0)


class TestSteadyState:
    def test_scalar_resolvent(self):
        # one lossy site driven on resonance: x = 1 / (i gamma) = -i
        h = dg.raw_hamiltonian(np.array([[0.0]]))
        cfg = dg.DriveConfig(0, 1.0, np.array([0.0]))
        x = dg.steady_state(h, cfg, 0.0)
        assert x[0] == pytest.approx(-1j)

    def test_two_node_against_closed_form(self):
        h = dg.raw_hamiltonian(np.array([[0.0, 2.0], [1.0, 0.0]]), t=2.0)
        cfg = dg.DriveConfig(0, 0.1, np.array([2.0]))
        x = dg.steady_state(h, cfg, 2.0)
        a = (2.0 + 0.1j) * np.eye(2) - h.matrix
        want = two_by_two_inverse_solve(a, np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, want, atol=1e-14)

    def test_solve_residual_certificate(self):
        h, sys, _, omega, g_min = selected_setup(RING_12)
        cfg = dg.DriveConfig(0, g_min + 1e-6, np.array([omega]))
        x = dg.steady_state(h, cfg, omega, sys)
        assert drive_residual(h, cfg, [omega], x) <= 1e-10 * cfg.amplitude

    def test_linear_in_amplitude(self):
        h, sys, _, omega, g_min = selected_setup(RING_12)
        x1 = dg.steady_state(h, dg.DriveConfig(0, g_min + 0.1, np.array([omega])), omega, sys)
        x2 = dg.steady_state(h, dg.DriveConfig(0, g_min + 0.1, np.array([omega]), amplitude=2.0), omega, sys)
        np.testing.assert_allclose(x2, 2.0 * x1, rtol=1e-12)

    def test_singular_guard_on_eigenvalue(self):
        h = dg.build_obc_chain(dg.ObcChain(2), 4.0)  # eigenvalues +-2, real
        sys = dg.eigendecompose(h)
        cfg = dg.DriveConfig(0, 1e-13, np.array([2.0]))
        with pytest.raises(dg.SingularSystem):
            dg.steady_state(h, cfg, 2.0, sys)

    def test_two_segment_ring_certifies_through_schur(self):
        # partial-pivoting LU growth on (z I - H) rises exponentially with the
        # length of a two-segment ring, although the shifted matrix is far
        # from singular; the Schur route has no pivot growth
        ring = dg.SegmentedRing((("A", 200), ("B", 100)))
        h = dg.build(ring, 1.1)
        exact = dg.closed_form(ring, 1.1)
        cfg = dg.default_drive_config(h, exact)
        omega = -1.626388234917063
        schur = dg.steady_state(dg.raw_hamiltonian(h.matrix), cfg, omega)
        assert drive_residual(h, cfg, [omega], schur) <= 1e-10
        single = dataclasses.replace(cfg, omega_grid=np.array([omega]))
        assert drive_residual(h, cfg, [omega], dg.frequency_sweep(h, single, exact)) <= 1e-10

    def test_singular_guard_without_a_system(self):
        # the Schur route checks the grid against its own poles diag(T)
        h = dg.raw_hamiltonian(dg.build_obc_chain(dg.ObcChain(2), 4.0).matrix)  # eigenvalues +-2, real
        cfg = dg.DriveConfig(0, 1e-13, np.array([2.0]))
        with pytest.raises(dg.SingularSystem, match=r"^sweep failed at omega=2\.0: .* sits on an eigenvalue$"):
            dg.steady_state(h, cfg, 2.0)

    def test_non_finite_matrix_fails_as_a_solve(self):
        h = dg.raw_hamiltonian(np.array([[0.0, np.nan], [1.0, 0.0]]))
        with pytest.raises(dg.SingularSystem, match=r"^sweep failed at omega=0\.0: no Schur form of H"):
            dg.steady_state(h, dg.DriveConfig(0, 1.0, np.array([0.0])), 0.0)

    def test_resolvent_identity(self):
        # direct solve equals the biorthogonal eigenmode expansion
        h, sys, _, omega, g_min = selected_setup(RING_12)
        for om in (omega, omega + 0.4, omega - 1.0):
            cfg = dg.DriveConfig(2, g_min + 0.07, np.array([min(om, omega - 1.0) - 1, max(om, omega + 1)]))
            direct = dg.steady_state(h, cfg, om, sys)
            expanded = dg.resolvent_response(sys, cfg, om)
            np.testing.assert_allclose(direct, expanded, atol=1e-8 * np.max(np.abs(direct)))
            oracle = resolvent_expansion(np.asarray(h.matrix), om + 1j * cfg.gamma, 2)
            np.testing.assert_allclose(direct, oracle, atol=1e-8 * np.max(np.abs(direct)))


class TestFrequencySweep:
    def test_singleton_equals_steady_state(self):
        h, sys, _, omega, g_min = selected_setup(RING_12)
        cfg = dg.DriveConfig(0, g_min + 0.1, np.array([omega]))
        sweep = dg.frequency_sweep(h, cfg, sys)
        assert len(sweep) == 1
        np.testing.assert_array_equal(sweep[0], dg.steady_state(h, cfg, omega, sys))

    @pytest.mark.parametrize("raw", [False, True], ids=["gauge", "expansion"])
    def test_the_steady_states_are_read_only(self, raw):
        h, sys, _, omega, g_min = selected_setup(RING_12)
        if raw:
            h = dg.raw_hamiltonian(h.matrix)
        cfg = dg.DriveConfig(0, g_min + 0.1, np.linspace(omega - 1, omega + 1, 5))
        sweep, x = dg.frequency_sweep(h, cfg, sys), dg.steady_state(h, cfg, omega, sys)
        assert sweep.shape == (5, h.dim) and x.shape == (h.dim,)
        for row in (sweep, sweep[2], x):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0

    def test_peak_lands_near_selected_mode(self):
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        grid = np.linspace(omega - 1.5, omega + 1.5, 301)
        cfg = dg.DriveConfig(0, g_min + 0.01, grid)
        sweep = dg.frequency_sweep(h, cfg, sys)
        om_peak = grid[int(np.argmax(np.max(np.abs(sweep), axis=1)))]
        spacing = 1.0  # nearest other mode sits ~1.24 away
        assert abs(om_peak - omega) < 0.1 * spacing

    def test_nodes_peak_coherently(self):
        # every node's |x_j(omega)|^2 curve peaks at the same grid frequency
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        grid = np.linspace(omega - 1.0, omega + 1.0, 201)
        cfg = dg.DriveConfig(0, g_min + 0.01, grid)
        sweep = dg.frequency_sweep(h, cfg, sys)
        mags = np.abs(sweep) ** 2  # (n_omega, n_nodes)
        peak_idx = np.argmax(mags, axis=0)
        assert np.ptp(peak_idx) <= 1


class TestSweepContract:
    """Both sweep routes: the built ring with its closed form (gauge) and its
    matrix given raw with its dense system (Schur)."""

    RING = dg.SegmentedRing((("A", 5), ("B", 7)))

    def system(self, route):
        h = dg.build(self.RING, T)
        if route == "closed_form":
            return h, dg.closed_form(self.RING, T)
        raw = dg.raw_hamiltonian(h.matrix)
        return raw, dg.eigendecompose(raw)

    @pytest.mark.parametrize("route", ["closed_form", "dense"])
    def test_source_outside_the_lattice(self, route):
        h, sys = self.system(route)
        cfg = dataclasses.replace(dg.default_drive_config(h, sys), source_node=12)
        with pytest.raises(ValueError, match=r"^source node 12 outside 0\.\.11$"):
            dg.frequency_sweep(h, cfg, sys)

    @pytest.mark.parametrize("route", ["closed_form", "dense"])
    def test_pole_on_the_grid(self, route):
        h, sys = self.system(route)
        pole = sys.values[int(np.argmax(sys.values.imag))]
        cfg = dg.DriveConfig(0, float(np.nextafter(pole.imag, np.inf)), np.array([pole.real]))
        with pytest.raises(dg.SingularSystem, match=r"^sweep failed at omega=.* sits on an eigenvalue$"):
            dg.frequency_sweep(h, cfg, sys)

    @pytest.mark.parametrize("spec", [RING, dg.ProductLattice(((dg.ObcChain(4), T), (RING_12, 1.2)))])
    def test_schur_row_matches_the_gauge_row(self, spec):
        h, exact = dg.build(spec, T), dg.closed_form(spec, T)
        cfg, raw = dg.default_drive_config(h, exact, 2), dg.raw_hamiltonian(h.matrix)
        for omega in cfg.omega_grid[::100].tolist():
            schur, gauge = dg.steady_state(raw, cfg, omega), dg.steady_state(h, cfg, omega, exact)
            assert max(drive_residual(h, cfg, [omega], x) for x in (schur, gauge)) <= 1e-10
            assert np.max(np.abs(schur - gauge)) <= 1e-9 * np.max(np.abs(gauge))


class TestOneDriveLoop:
    """steady_state and frequency_sweep share one pole check, one
    certificate and one failure format across the gauge route, the
    eigenvector expansion and its Schur rescue."""

    FAILURE = (
        r"^sweep failed at omega=\S+: (gauge|Schur) solve residual \S+ exceeds 1e-10 \* drive "
        r"after 3 refinement steps \(max\|x\| \S+, float64 floor \S+, backward error \S+\)$"
    )

    def test_pole_at_the_last_grid_point_raises_before_any_solve(self, monkeypatch):
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        h = dg.raw_hamiltonian(h.matrix)
        pole = sys.values[sel]
        gamma = float(np.nextafter(pole.imag, np.inf))
        cfg = dg.DriveConfig(0, gamma, np.array([pole.real - 2.0, pole.real - 1.0, pole.real]))
        solved = []
        modal_route = response._modal_route

        def counted(*args):
            poles, solve = modal_route(*args)
            return poles, lambda rhs, zs: solved.append(len(zs)) or solve(rhs, zs)

        monkeypatch.setattr(response, "_modal_route", counted)
        with pytest.raises(dg.SingularSystem, match=r"^sweep failed at omega=.* sits on an eigenvalue$"):
            dg.frequency_sweep(h, cfg, sys)
        assert solved == []
        dg.steady_state(h, cfg, float(pole.real - 1.0), sys)
        assert solved == [1]

    @pytest.mark.parametrize("spec", [
        TestSweepContract.RING,
        dg.ProductLattice(((dg.ObcChain(4), T), (RING_12, 1.2))),
        dg.validate_circulant(9, [1, 1, 0, 0, 0, 0, 1, 1]),
        dg.ObcChain(12),
    ])
    def test_steady_state_follows_a_closed_form_system(self, spec):
        h, exact = dg.build(spec, T), dg.closed_form(spec, T)
        cfg = dg.default_drive_config(h, exact, 3)
        sweep = dg.frequency_sweep(h, cfg, exact)
        for f in (0, 123, 400):
            omega = float(cfg.omega_grid[f])
            x = dg.steady_state(h, cfg, omega, exact)
            single = dg.frequency_sweep(h, dataclasses.replace(cfg, omega_grid=np.array([omega])), exact)
            assert x.tobytes() == single[0].tobytes() == sweep[f].tobytes()

    def test_lu_residual_is_taken_through_the_stored_entries(self):
        # a full complex matrix, where the dense a @ x sums in another order;
        # h.dot has the bits of the CSR product
        rng = np.random.default_rng(5)
        h = dg.raw_hamiltonian(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))
        cfg = dg.DriveConfig(3, 50.0, np.array([0.3]))
        x = dg.steady_state(h, cfg, 0.3)
        hx = csr_reference(h) @ x
        assert same_bits(h.dot(x), hx)
        r = hx - (0.3 + 50j) * x
        r[3] += 1.0
        assert float(np.max(np.abs(r))) <= 1e-10

    def test_both_routes_fail_in_one_format(self):
        # |x| near 8e5 leaves a rounding floor above the bound on both routes
        ring = dg.SegmentedRing((("A", 150), ("B", 150)))
        h, exact = dg.build(ring, 1.5), dg.closed_form(ring, 1.5)
        cfg = dg.default_drive_config(h, exact)
        with pytest.raises(dg.SingularSystem, match=self.FAILURE) as schur:
            dg.steady_state(dg.raw_hamiltonian(h.matrix), cfg, -2.0869412943838226)
        assert " Schur solve residual " in str(schur.value)
        with pytest.raises(dg.SingularSystem, match=self.FAILURE) as gauge:
            dg.frequency_sweep(h, cfg, exact)
        assert " gauge solve residual " in str(gauge.value)


class TestRouteChoice:
    """The lattice alone picks the route: a built lattice solves through its
    spec's gauge, whatever eigensystem checks the loss, and a raw or
    transposed matrix through its eigenvector expansion, which hands the
    rows it leaves uncertified to the Schur form."""

    SPECS = [
        TestSweepContract.RING,
        dg.validate_circulant(9, [1, 1, 0, 0, 0, 0, 1, 1]),
        dg.ObcChain(12),
        dg.ProductLattice(((dg.ObcChain(4), T), (RING_12, 1.2))),
    ]
    IDS = ["ring", "circulant", "obc_chain", "product"]

    @staticmethod
    def counting(monkeypatch, name):
        """Record each call of the response route ``name``."""
        calls, route = [], getattr(response, name)
        monkeypatch.setattr(response, name, lambda *args: calls.append(args) or route(*args))
        return calls

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_any_system_or_none_gives_the_gauge_rows(self, spec, monkeypatch):
        h, exact = dg.build(spec, T), dg.closed_form(spec, T)
        cfg = dg.default_drive_config(h, exact, 3)
        cfg = dataclasses.replace(cfg, omega_grid=cfg.omega_grid[::40])
        schur = self.counting(monkeypatch, "_schur_route")
        rows = [dg.frequency_sweep(h, cfg, sys) for sys in (None, dg.gauged_eigendecompose(h), exact)]
        assert rows[0].tobytes() == rows[1].tobytes() == rows[2].tobytes()
        assert schur == []

    @pytest.mark.parametrize("with_t", [False, True], ids=["entries", "bonds"])
    def test_a_raw_matrix_takes_the_expansion(self, with_t, monkeypatch):
        h = dg.build(RING_12, T)
        raw = dg.raw_hamiltonian(h.matrix, T if with_t else None)
        cfg = dg.default_drive_config(raw, dg.closed_form(RING_12, T))
        names = ("_gauge_route", "_modal_route", "_schur_route")
        gauge, modal, schur = (self.counting(monkeypatch, name) for name in names)
        for sys in (None, dg.eigendecompose(raw)):
            assert drive_residual(raw, cfg, cfg.omega_grid, dg.frequency_sweep(raw, cfg, sys)) <= 1e-10
        assert gauge == [] and len(modal) == 2 and schur == []

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_a_transposed_lattice_sweeps_as_its_raw_matrix(self, spec):
        # the transpose keeps its spec but reverses every bond, which the
        # spec's gauge no longer symmetrizes: it takes the raw matrix's route
        ht = dg.transpose(dg.build(spec, T))
        cfg = dg.default_drive_config(ht, dg.closed_form(spec, T), 3)
        cfg = dataclasses.replace(cfg, omega_grid=cfg.omega_grid[::40])
        sweep = dg.frequency_sweep(ht, cfg)
        reference = dg.frequency_sweep(dg.raw_hamiltonian(ht.matrix), cfg)
        assert sweep.tobytes() == reference.tobytes() and drive_residual(ht, cfg, cfg.omega_grid, sweep) <= 1e-10
        b = np.zeros(ht.dim, dtype=complex)
        b[3] = 1.0
        z = cfg.omega_grid + 1j * cfg.gamma
        untransposed = response._gauge_route(ht, 3)[1](b, z)
        assert np.max(np.abs(untransposed - sweep)) > 1e-3

    def test_schur_rescues_the_rows_the_expansion_leaves(self, monkeypatch):
        # on A45 B15 at t = 5 the expansion stops a few rows just above the
        # bound; Schur solves the grid as it does alone and hands those rows
        # over, so each certifies with the bits of a plain Schur sweep
        h = dg.raw_hamiltonian(dg.build(dg.SegmentedRing((("A", 45), ("B", 15))), 5.0).matrix)
        cfg = dg.default_drive_config(h, dg.eigendecompose(h))
        schur = self.counting(monkeypatch, "_schur_route")
        sweep = dg.frequency_sweep(h, cfg)
        assert len(schur) == 1 and drive_residual(h, cfg, cfg.omega_grid, sweep) <= 1e-10

        def refused(*args):
            raise np.linalg.LinAlgError("no expansion")

        monkeypatch.setattr(response, "_modal_route", refused)
        plain = dg.frequency_sweep(h, cfg)
        rescued = [p for p, q in zip(sweep, plain) if p.tobytes() == q.tobytes()]
        assert 0 < len(rescued) < 10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_expansion_certifies_and_matches_schur(data):
    # random complex matrices and raw copies of small two-segment rings: the
    # expansion certifies every row without the rescue, and each row agrees
    # with a plain Schur solve
    if data.draw(st.booleans(), label="random"):
        n = data.draw(st.integers(1, 40), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    else:
        segments = (("A", data.draw(st.integers(1, 20))), ("B", data.draw(st.integers(2, 20))))
        t = data.draw(st.one_of(st.floats(0.25, 1 / 1.01), st.floats(1.01, 4.0)), label="t")
        m = dg.build(dg.SegmentedRing(segments), t).matrix
    h = dg.raw_hamiltonian(m)
    values = np.linalg.eigvals(m)
    gamma = max(float(np.max(values.imag)), 0.0) + 0.05 * h.norm_inf()
    grid = np.linspace(np.min(values.real) - 1.0, np.max(values.real) + 1.0, 41)
    cfg = dg.DriveConfig(data.draw(st.integers(0, h.dim - 1), label="source"), gamma, grid)
    with mock.patch.object(response, "_schur_route", side_effect=AssertionError("rescued")):
        sweep = dg.frequency_sweep(h, cfg)
    b = np.zeros(h.dim, dtype=complex)
    b[cfg.source_node] = cfg.amplitude
    schur = response._schur_route(h)[1](b, grid + 1j * gamma)
    assert drive_residual(h, cfg, grid, sweep) <= 1e-10
    for p, x in zip(sweep, schur):
        assert np.max(np.abs(p - x)) <= 1e-9 * np.max(np.abs(x))


class TestModeSelection:
    def test_overlap_monotone_in_gamma(self):
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        g0 = g_min + 0.01
        overlaps = []
        for factor in (2.0, 1.5, 1.1):
            cfg = dg.DriveConfig(0, factor * g0, np.array([omega]))
            x = dg.steady_state(h, cfg, omega, sys)
            overlaps.append(dg.mode_selection_check(x, sys).overlap)
        assert overlaps[0] < overlaps[1] < overlaps[2]
        assert overlaps[2] > 0.99

    def test_selection_matches_least_damped(self):
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        cfg = dg.DriveConfig(0, g_min + 1e-3, np.array([omega]))
        check = dg.mode_selection_check(dg.steady_state(h, cfg, omega, sys), sys)
        assert check.matches and check.selected_mode == sel

    def test_selected_mode_tied_for_least_damped_is_reported(self):
        # modes 7 and 8 of this ring share the largest Im(E) and have
        # opposite Re(E); the drive peak selects mode 8
        ring = dg.SegmentedRing((("A", 13), ("B", 17)))
        h, sys = dg.build(ring, T), dg.closed_form(ring, T)
        cfg = dataclasses.replace(
            dg.default_drive_config(h, sys), omega_grid=np.array([-0.24152692817136856])
        )
        check = dg.mode_selection_check(dg.frequency_sweep(h, cfg, sys)[0], sys)
        assert (check.selected_mode, check.least_damped, check.matches) == (8, 8, True)
        assert check.overlap == pytest.approx(0.8602059548277289, rel=1e-9)
        assert dg.least_damped_mode(sys) == 7 and list(spectra.least_damped_set(sys)) == [7, 8]

    def test_a_tie_goes_to_the_lowest_index(self):
        # raw A16 B16 at t = 1.5 peaks at omega = 0, where modes 15 and 16
        # (E ~ 0, Im +-9e-18) tie; the lower index wins even when the last
        # bits of x favour the other
        h = dg.raw_hamiltonian(dg.build(dg.SegmentedRing((("A", 16), ("B", 16))), T).matrix)
        sys = dg.eigendecompose(h)
        cfg = dataclasses.replace(dg.default_drive_config(h, sys), omega_grid=np.array([0.0]))
        x = dg.frequency_sweep(h, cfg, sys)[0]
        v = sys.right_vectors
        overlaps = np.abs(x.conj() @ v) / (np.linalg.norm(v, axis=0) * np.linalg.norm(x))
        assert set(np.argsort(overlaps)[-2:]) == {15, 16}
        assert abs(overlaps[15] - overlaps[16]) <= response.PEAK_TIE * overlaps.max()
        assert dg.mode_selection_check(x, sys).selected_mode == 15
        nudged = x + 1e-12 * np.linalg.norm(x) * v[:, 16] / np.linalg.norm(v[:, 16])
        check = dg.mode_selection_check(nudged, sys)
        assert check.selected_mode == 15 and (check.least_damped, check.matches) == (15, True)

    def test_the_reported_modes_carry_a_certificate(self):
        # the transforms' selection builds its two modes alone and certifies
        # them through h: the transpose keeps the spec, whose closed-form
        # modes no longer fit its reversed bonds
        h = dg.build(RING_12, T)
        values = dg.mode_values(RING_12, T)
        x = dg.steady_state(h, dg.default_drive_config(h, values), 0.3)
        got, want = dg.transform_mode_selection(x, h), dg.mode_selection_check(x, dg.closed_form(RING_12, T))
        assert dataclasses.replace(got, overlap=pytest.approx(want.overlap, rel=1e-12)) == want
        with pytest.raises(dg.ConvergenceFailure, match=r"^closed-form ring_transposed modes: residual "):
            dg.transform_mode_selection(x, dg.transpose(h))

    def test_selected_mode_outside_the_tie_is_not_least_damped(self):
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        other = int(np.argmin(sys.values.imag))
        check = dg.mode_selection_check(sys.right_vectors[:, other], sys)
        assert (check.selected_mode, check.least_damped, check.matches) == (other, sel, False)
        assert check.overlap < 1.0

    def test_complete_graph_profile_pure_exponential(self):
        g4 = dg.validate_circulant(4, [1, 1, 1])
        h, sys, sel, omega, g_min = selected_setup(g4)
        cfg = dg.DriveConfig(0, g_min + 1e-4, np.array([omega]))
        x = dg.steady_state(h, cfg, omega, sys)
        amp = np.abs(x)
        assert np.all(np.diff(amp) < 0)
        assert dg.log_profile(x, g4).residual <= 1e-3

    def test_obc_overlap_bounded_away_from_one(self):
        chain = dg.ObcChain(12)
        h, sys, sel, omega, g_min = selected_setup(chain)
        for source in (0, 3, 5):
            cfg = dg.DriveConfig(source, g_min + 0.05 * h.norm_inf(), np.array([omega]))
            x = dg.steady_state(h, cfg, omega, sys)
            pure = (T ** (-1 / 12.0)) ** np.arange(12)
            overlap = abs(np.vdot(pure / np.linalg.norm(pure), x / np.linalg.norm(x)))
            assert overlap < 0.9

    def test_source_independent_shape(self):
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        shapes = []
        for source in (0, 4, 9):
            cfg = dg.DriveConfig(source, g_min + 1e-4, np.array([omega]))
            x = dg.steady_state(h, cfg, omega, sys)
            shapes.append(x / np.linalg.norm(x))
        for a in shapes[1:]:
            assert abs(np.vdot(shapes[0], a)) >= 0.99

    def test_reciprocity_broken(self):
        # drive i, listen j vs drive j, listen i differ when t != 1
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        gamma = g_min + 0.05
        x_from_0 = dg.steady_state(h, dg.DriveConfig(0, gamma, np.array([omega])), omega, sys)
        x_from_6 = dg.steady_state(h, dg.DriveConfig(6, gamma, np.array([omega])), omega, sys)
        assert abs(x_from_0[6]) != pytest.approx(abs(x_from_6[0]), rel=1e-3)


class TestLogProfile:
    def test_pure_decay_response_tight_fit(self):
        # with the loss a hair above the least-damped line the response is
        # single-mode to ~1e-6 in log magnitude
        h, sys, sel, omega, g_min = selected_setup(RING_12)
        cfg = dg.DriveConfig(0, g_min + 3e-7, np.array([omega]))
        x = dg.steady_state(h, cfg, omega, sys)
        lp = dg.log_profile(x, RING_12)
        assert lp.residual <= 1e-6
        assert drive_residual(h, cfg, [omega], x) <= 1e-10

    def test_obc_response_large_residual(self):
        chain = dg.ObcChain(12)
        h, sys, sel, omega, g_min = selected_setup(chain)
        cfg = dg.DriveConfig(0, g_min + 0.05 * h.norm_inf(), np.array([omega]))
        x = dg.steady_state(h, cfg, omega, sys)
        assert dg.log_profile(x, chain).residual > 1e-3

    def test_uniform_ring_near_zero_slope(self):
        ring = dg.SegmentedRing((("A", 12),))
        h, sys, sel, omega, g_min = selected_setup(ring)
        cfg = dg.DriveConfig(0, g_min + 1e-4, np.array([omega]))
        x = dg.steady_state(h, cfg, omega, sys)
        lp = dg.log_profile(x, ring)
        assert abs(lp.slopes[0]) <= 1e-3

    def test_zero_amplitude_guard(self):
        with pytest.raises(dg.ZeroAmplitude):
            dg.log_profile(np.array([1.0, 0.0, 1.0]))

    def test_raw_profile_single_run(self):
        lp = dg.log_profile(np.exp(-0.3 * np.arange(6)))
        assert lp.slopes[0] == pytest.approx(-0.3, abs=1e-12)
        assert lp.residual <= 1e-12
