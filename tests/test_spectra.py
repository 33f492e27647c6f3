"""Numerical and analytic eigensystems, certification, degeneracy handling."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import decaygraph as dg
from decaygraph import io, spectra

from oracle_helpers import match_deviation, union_find_groups


class TestEigendecompose:
    def test_two_by_two(self):
        h = dg.build_obc_chain(dg.ObcChain(2), 4.0)
        sys = dg.eigendecompose(h)
        np.testing.assert_allclose(sys.values, [-2.0, 2.0], atol=1e-12)

    def test_ring_matches_analytic_to_1e9(self):
        ring = dg.SegmentedRing((("A", 29), ("B", 1)))
        t = 1.5
        sys = dg.eigendecompose(dg.build(ring, t))
        analytic = dg.mode_values(ring, t)
        assert match_deviation(sys.values, analytic) <= 1e-9

    def test_complete_circulant_cross_check(self):
        g = dg.validate_circulant(4, [1, 1, 1])
        t = 1.5
        sys = dg.eigendecompose(dg.build(g, t))
        analytic = dg.circulant_analytic_spectrum(g, t)
        assert match_deviation(sys.values, analytic.values) <= 1e-10

    def test_values_sorted_lexicographically(self):
        sys = dg.eigendecompose(dg.build(dg.SegmentedRing((("A", 7), ("B", 3))), 2.0))
        keys = [(v.real, v.imag) for v in sys.values]
        assert keys == sorted(keys)

    def test_vector_normalization(self):
        sys = dg.eigendecompose(dg.build(dg.ObcChain(7), 1.5))
        for n in range(sys.dim):
            col = sys.right_vectors[:, n]
            peak = col[np.argmax(np.abs(col))]
            assert peak == pytest.approx(1.0)
            assert peak.imag == pytest.approx(0.0, abs=1e-15)

    def test_column_normalization_matches_per_column_loop(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
        want = v.copy()
        for n in range(7):
            want[:, n] = v[:, n] / v[np.argmax(np.abs(v[:, n])), n]
        np.testing.assert_array_equal(spectra._normalize_columns(v.copy()), want)

    def test_column_normalization_in_row_blocks_equals_one_shot(self):
        # 2000 rows of 300 columns span three row blocks; ties and NaNs are
        # planted within a block and across blocks
        rng = np.random.default_rng(4)
        v = rng.uniform(-1, 1, (2000, 300)) + 1j * rng.uniform(-1, 1, (2000, 300))
        z = 3.0 - 4.0j
        v[[5, 7, 1500], 0] = z, -z, 1j * z       # first of three in block 0
        v[[900, 1800], 1] = -z, z                # tie across blocks 1 and 2
        v[[10, 11], 2] = 1j * z, -1j * z         # tie inside block 0
        v[[1990, 3], 3] = z, -z                  # later block ties an earlier one
        v[[100, 1000], 4] = np.nan, 9.0          # NaN wins over a larger value
        v[[50, 1200, 1700], 5] = 9.0, np.nan, np.nan  # first NaN wins
        assert spectra._block_rows(300) < 1000
        with np.errstate(invalid="ignore"):  # the NaN columns
            want = v / v[np.argmax(np.abs(v), axis=0), np.arange(300)]
            got = spectra._normalize_columns(v.copy())
        np.testing.assert_array_equal(got, want)

    def test_residual_certificate(self):
        h = dg.build(dg.SegmentedRing((("A", 13), ("B", 17))), 1.5)
        sys = dg.eigendecompose(h)
        assert np.max(sys.residuals) <= 1e-9 * h.norm_inf()

    def test_failed_certificate_names_residual_and_tolerance(self):
        h = dg.build(dg.SegmentedRing((("A", 3), ("B", 2))), 1.5)
        exact = dg.closed_form(h.spec, 1.5)
        with pytest.raises(dg.ConvergenceFailure, match=(
            r"^shifted modes: residual 1\.000e\+00 exceeds certified tolerance \d\.\d{3}e-09$"
        )):
            spectra._certified(h, exact.values + 1.0, exact.right_vectors, None, "shifted modes", {})

    def test_nan_residual_fails_the_certificate(self):
        h = dg.build(dg.SegmentedRing((("A", 3), ("B", 2))), 1.5)
        exact = dg.closed_form(h.spec, 1.5)
        values = exact.values.copy()
        values[0] = np.nan
        with pytest.raises(dg.ConvergenceFailure, match=r"^nan modes: residual nan exceeds"):
            spectra._certified(h, values, exact.right_vectors, None, "nan modes", {})

    @pytest.mark.parametrize("spec, t", [
        (dg.SegmentedRing((("A", 13), ("B", 17))), 1.5),
        (dg.validate_circulant(9, [1, 0, 1, 0, 0, 1, 0, 1]), 0.4),
        (dg.ObcChain(12), 2.5),
        (dg.ProductLattice(((dg.SegmentedRing((("A", 4), ("B", 3))), 1.3), (dg.ObcChain(5), 0.6))), None),
    ], ids=["ring", "circulant", "obc_chain", "product"])
    def test_residuals_through_edges_match_dense_product(self, spec, t):
        sys = dg.closed_form(spec, t)
        h = dg.build(spec, t)
        v = sys.right_vectors
        dense = np.max(np.abs(h.matrix @ v - v * sys.values[None, :]), axis=0)
        assert np.max(np.abs(sys.residuals - dense)) <= 1e-15 * h.norm_inf()

    def test_left_vectors_biorthogonal(self):
        h = dg.build(dg.SegmentedRing((("A", 5), ("B", 3))), 1.5)
        sys = dg.eigendecompose(h)
        gram = sys.left_vectors @ sys.right_vectors
        np.testing.assert_allclose(gram, np.eye(h.dim), atol=1e-10)

    def test_conjugate_pairing_for_real_matrix(self):
        sys = dg.eigendecompose(dg.build(dg.SegmentedRing((("A", 9), ("B", 4))), 1.8))
        assert match_deviation(sys.values, np.conj(sys.values)) <= 1e-10

    def test_ill_conditioned_warning(self):
        h = dg.build(dg.ObcChain(40), 4.0)
        with pytest.warns(dg.IllConditioned):
            dg.eigendecompose(h)

    @pytest.mark.filterwarnings("ignore::decaygraph.IllConditioned")
    @pytest.mark.parametrize("segments, t", [
        *[((("A", 1), ("B", 1), ("A", 1), ("B", 1)), t) for t in (0.25, 0.5, 1 / 1.01, 2.0)],
        *[((("A", 2), ("B", 2)), t) for t in (0.25, 0.5, 4.0)],
    ])
    def test_repeated_eigenvalues_keep_the_raw_pair(self, segments, t):
        # exactly repeated eigenvalues leave the eigenvector matrix singular,
        # and the first-order correction through its inverse is garbage
        ring = dg.SegmentedRing(segments)
        h = dg.build(ring, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sys = dg.eigendecompose(h)
        assert np.max(sys.residuals) <= 1e-14 * h.norm_inf()
        assert match_deviation(sys.values, dg.closed_form(ring, t).values) <= 1e-8


def drive_sweep_raw_matrices():
    """The raw-matrix lattices of the drive-sweep benchmark at seeds 1-3."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    return [
        io.parse_spec(json.dumps({"lattice": job["lattice"]})).build()
        for seed in (1, 2, 3) for job in workloads.generate("drive-sweep", seed)
        if job["lattice"]["kind"] == "raw"
    ]


def test_eigendecompose_in_column_blocks_keeps_its_bits(monkeypatch):
    # one column block against blocks of 7 columns (_block_rows // 16),
    # whose last blocks are ragged
    rng = np.random.default_rng(17)
    raws = drive_sweep_raw_matrices() + [
        dg.raw_hamiltonian(rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300)))
    ]
    assert len(raws) == 7

    def run(rows):
        monkeypatch.setattr(spectra, "_block_rows", lambda width: rows)
        return [dg.eigendecompose(h) for h in raws]

    for h, want, got in zip(raws, run(1 << 30), run(112)):
        for name in ("values", "right_vectors", "left_vectors", "residuals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (h.dim, name)


class TestGaugedEigendecompose:
    def test_meta_and_route(self):
        ring = dg.SegmentedRing((("A", 7), ("B", 5)))
        sys = dg.gauged_eigendecompose(dg.build(ring, 1.5))
        assert sys.meta["route"] == "gauged_dense" and sys.left_vectors is None
        assert sys.meta["commutator"] <= spectra.RESIDUAL_FACTOR
        assert sys.meta["bauer_fike"].shape == (12,)
        assert match_deviation(sys.values, dg.closed_form(ring, 1.5).values) <= 1e-13
        keys = [(v.real, v.imag) for v in sys.values]
        assert keys == sorted(keys)

    def test_balanced_ring_groups_every_degenerate_pair(self):
        sys = dg.gauged_eigendecompose(dg.build(dg.SegmentedRing((("A", 150), ("B", 150))), 1.5))
        sizes = sorted(map(len, sys.degenerate_groups()))
        assert sizes == [1, 1] + [2] * 149

    def test_wrong_potential_fails_naming_the_commutator(self, monkeypatch):
        ring = dg.SegmentedRing((("A", 7), ("B", 5)))
        h = dg.build(ring, 1.5)
        w = ring.potential()
        w[3] = -w[3]
        monkeypatch.setattr(dg.SegmentedRing, "potential", lambda self: w)
        with pytest.raises(dg.ConvergenceFailure, match=r"commutator max\|G G\^T - G\^T G\| \S+ exceeds"):
            dg.gauged_eigendecompose(h)

    @staticmethod
    def _solve_recording_eig(monkeypatch, m):
        shapes, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
        values, vectors, meta = spectra._normal_eig(m.copy, np.ones(len(m)), "synthetic G")
        assert match_deviation(values, eig(m)[0]) <= 1e-13 * np.max(np.sum(np.abs(m), axis=1))
        assert np.max(np.abs(m @ vectors - vectors * values)) <= 1e-13 * np.max(np.abs(m))
        assert np.max(meta["bauer_fike"]) <= 1e-13 * np.max(np.abs(m))
        keys = [(v.real, v.imag) for v in values]
        assert keys == sorted(keys)
        return shapes

    def test_skew_gauge_is_one_cluster(self, monkeypatch):
        # S = (G + G^T) / 2 = 0: the whole spectrum is one block, one eig of G's size
        a = np.random.default_rng(3).standard_normal((12, 12))
        assert self._solve_recording_eig(monkeypatch, a - a.T) == [(1, 12, 12)]

    def test_block_rotation_with_repeated_real_parts(self, monkeypatch):
        # rotations a +- i b, three with a = 1 and two with a = -2, in a random
        # orthonormal basis: S has the eigenvalue 1 six times and -2 four times
        q = np.linalg.qr(np.random.default_rng(4).standard_normal((10, 10)))[0]
        blocks = np.zeros((10, 10))
        for i, (a, b) in enumerate([(1, 0.5), (1, 1.0), (1, 2.0), (-2, 0.3), (-2, 0.7)]):
            blocks[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[a, -b], [b, a]]
        assert sorted(self._solve_recording_eig(monkeypatch, q @ blocks @ q.T)) == [(1, 4, 4), (1, 6, 6)]

    def test_large_circulant_never_runs_an_n_by_n_eig(self, monkeypatch):
        shapes, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
        a = [0] * 599
        for q in (1, 7):
            a[q - 1] = a[599 - q] = 1
        dg.gauged_eigendecompose(dg.build(dg.validate_circulant(600, a), 1.06))
        assert shapes and max(shape[-1] for shape in shapes) < 600

    def test_bauer_fike_bounds_stay_finite_where_the_gauge_scale_underflows(self):
        # ln t**w spans 832 on A400 B400 at t = 64: exp(ls - ls.max()) underflows
        ring = dg.SegmentedRing((("A", 400), ("B", 400)))
        h = dg.build(ring, 64.0)
        sys = dg.gauged_eigendecompose(h)
        bound = sys.meta["bauer_fike"]
        assert bound.shape == (800,) and np.all(np.isfinite(bound))
        exact = dg.closed_form(ring, 64.0, h).values
        gap = np.min(np.abs(sys.values[:, None] - exact[None, :]), axis=1)
        assert np.all(gap <= bound + 1e-12 * h.norm_inf())


class TestRingAnalytic:
    def test_29_1_decay_constants(self):
        t = 1.5
        sols = dg.ring_analytic_spectrum(dg.SegmentedRing((("A", 29), ("B", 1))), t)
        assert len(sols) == 30
        for s in sols:
            assert abs(s.alpha) == pytest.approx(t ** (1 / 30), rel=1e-14)
            amp = np.abs(s.profile)
            steps = amp[1:30] / amp[:29]
            np.testing.assert_allclose(steps, t ** (1 / 30), rtol=1e-9)
            assert amp[0] / amp[29] == pytest.approx(t ** (-29 / 30), rel=1e-9)

    def test_equal_segments_real_spectrum(self):
        # alpha = sqrt(t) e^{ik} gives E = 2 sqrt(t) cos(k), all real
        t = 2.2
        n = 5
        ring = dg.SegmentedRing((("A", n), ("B", n)))
        sols = dg.ring_analytic_spectrum(ring, t)
        for s in sols:
            assert abs(s.alpha) == pytest.approx(t ** 0.5, rel=1e-14)
            assert s.energy.imag == pytest.approx(0.0, abs=1e-12)
            assert s.energy.real == pytest.approx(2 * np.sqrt(t) * np.cos(s.k), rel=1e-12)

    def test_13_17_localization_shift(self):
        t = 1.5
        sols = dg.ring_analytic_spectrum(dg.SegmentedRing((("A", 13), ("B", 17))), t)
        for s in sols:
            assert int(np.argmax(np.abs(s.profile))) == 13  # site 14, first B site
        sols_29 = dg.ring_analytic_spectrum(dg.SegmentedRing((("A", 29), ("B", 1))), t)
        assert int(np.argmax(np.abs(sols_29[0].profile))) == 29

    def test_profile_single_geometric_per_chain(self):
        t = 1.5
        sols = dg.ring_analytic_spectrum(dg.SegmentedRing((("A", 13), ("B", 17))), t)
        for s in sols[:5]:
            a_part = s.profile[:14]
            ratios = a_part[1:] / a_part[:-1]
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
            b_part = s.profile[13:]
            ratios_b = b_part[1:] / b_part[:-1]
            np.testing.assert_allclose(ratios_b, ratios_b[0], rtol=1e-10)

    def test_multi_segment_rejected(self):
        with pytest.raises(dg.NotTwoSegment):
            dg.ring_analytic_spectrum(dg.SegmentedRing((("A", 2), ("B", 2), ("A", 2), ("B", 2))), 1.5)

    def test_numeric_equivalence_measured(self):
        t = 1.5
        ring = dg.SegmentedRing((("A", 29), ("B", 1)))
        sols = dg.ring_analytic_spectrum(ring, t)
        sys = dg.eigendecompose(dg.build(ring, t))
        assert match_deviation([s.energy for s in sols], sys.values) <= 1e-9


class TestAlternatingRingModes:
    def test_matches_two_segment_route(self):
        ring = dg.SegmentedRing((("A", 5), ("B", 3)))
        t = 1.5
        via_similarity = dg.alternating_ring_modes(ring, t)
        via_boundary = dg.ring_solutions_as_system(ring, t)
        assert match_deviation(via_similarity.values, via_boundary.values) <= 1e-12

    def test_multi_segment_certified(self):
        ring = dg.SegmentedRing((("A", 4), ("B", 11), ("A", 3), ("B", 12)))
        sys = dg.alternating_ring_modes(ring, 1.5)
        assert np.max(sys.residuals) <= sys.tolerance

    def test_uniform_ring_bloch_modes(self):
        ring = dg.SegmentedRing((("A", 8),))
        sys = dg.alternating_ring_modes(ring, 1.5)
        for n in range(8):
            p = sys.profile(n)
            assert np.ptp(p) <= 1e-12  # uniform magnitude


class TestCirculantAnalytic:
    def test_two_node(self):
        g = dg.validate_circulant(2, [1])
        sys = dg.circulant_analytic_spectrum(g, 4.0)
        assert match_deviation(sys.values, [2.0, -2.0]) <= 1e-12

    def test_identical_profiles_all_modes(self):
        g = dg.validate_circulant(6, [1, 0, 1, 0, 1])
        t = 2.0
        sys = dg.circulant_analytic_spectrum(g, t)
        want = (t ** (-1 / 6)) ** np.arange(6)
        for n in range(6):
            np.testing.assert_allclose(sys.profile(n), want, atol=1e-12)

    def test_certified_against_matrix(self):
        g = dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1])
        sys = dg.circulant_analytic_spectrum(g, 1.5)
        assert np.max(sys.residuals) <= sys.tolerance


class TestObcAnalytic:
    def test_three_site_closed_form(self):
        # 2 sqrt(2) cos(pi n / 4) for n = 1, 2, 3
        sys = dg.obc_analytic_spectrum(dg.ObcChain(3), 2.0)
        assert match_deviation(sys.values, [2.0, 0.0, -2.0]) <= 1e-12

    def test_two_site_consistency(self):
        sys = dg.obc_analytic_spectrum(dg.ObcChain(2), 4.0)
        assert match_deviation(sys.values, [2.0, -2.0]) <= 1e-12

    def test_exponent_sign_recorded(self):
        sys = dg.obc_analytic_spectrum(dg.ObcChain(12), 1.5)
        assert sys.meta["rho_exponent"] == 0.5
        assert np.max(sys.residuals) <= sys.tolerance

    def test_every_mode_oscillatory(self):
        sys = dg.obc_analytic_spectrum(dg.ObcChain(12), 1.5)
        for n in range(12):
            d = np.diff(sys.profile(n))
            assert not (np.all(d > 0) or np.all(d < 0))


class TestKronSum:
    def test_pairwise_sums(self):
        c2 = dg.validate_circulant(2, [1])
        p = dg.ProductLattice(((dg.ObcChain(2), 4.0), (c2, 9.0)))
        a = dg.eigendecompose(dg.build_obc_chain(dg.ObcChain(2), 4.0))   # {-2, +2}
        b = dg.eigendecompose(dg.build(c2, 9.0))  # [[0, 9], [1, 0]]: {-3, +3}
        combined = dg.kron_sum_spectrum([a, b], dg.build(p))
        assert match_deviation(combined.values, [-5.0, -1.0, 1.0, 5.0]) <= 1e-12

    def test_certified_against_product(self):
        c2 = dg.validate_circulant(2, [1])
        ring = dg.SegmentedRing((("A", 3), ("B", 2)))
        p = dg.ProductLattice(((c2, 2.0), (ring, 1.5)))
        h = dg.build_product_lattice(p)
        systems = [dg.eigendecompose(dg.build(s, t)) for s, t in p.axes]
        combined = dg.kron_sum_spectrum(systems, h)
        assert np.max(combined.residuals) <= combined.tolerance

    def test_degeneracy_flagged(self):
        a = dg.eigendecompose(dg.build_obc_chain(dg.ObcChain(2), 4.0))  # {-2, 2}
        h = dg.build(dg.ProductLattice(((dg.ObcChain(2), 4.0), (dg.ObcChain(2), 4.0))))
        with pytest.warns(dg.DegenerateAmbiguity):
            combined = dg.kron_sum_spectrum([a, a], h)  # sums: -4, 0, 0, 4
        assert combined.meta["degenerate"]

    @pytest.mark.parametrize("p", [
        dg.ProductLattice(((dg.SegmentedRing((("A", 5), ("B", 3))), 2.0), (dg.SegmentedRing((("A", 8),)), 1.5))),
        dg.ProductLattice(((dg.ObcChain(4), 2.0), (dg.validate_circulant(6, [1, 0, 1, 0, 1]), 1.5),
                           (dg.SegmentedRing((("A", 3), ("B", 2))), 0.5))),
        dg.ProductLattice(((dg.ObcChain(3), 2.0), (dg.ObcChain(3), 2.0))),
    ], ids=["ring-ring", "chain-circulant-ring", "degenerate"])
    def test_closed_form_is_the_kron_sum_of_its_axes_bit_for_bit(self, p):
        h = dg.build(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dg.DegenerateAmbiguity)
            got = dg.closed_form(p)
            want = dg.kron_sum_spectrum([dg.closed_form(s, t) for s, t in p.axes], h)
        for name in ("values", "right_vectors", "residuals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.h_norm, got.tolerance) == (want.h_norm, want.tolerance)
        assert got.meta["degenerate"] == want.meta["degenerate"]

    def test_vectors_row_major(self):
        c2 = dg.validate_circulant(2, [1])
        sys2 = dg.eigendecompose(dg.build(c2, 4.0))
        sys3 = dg.eigendecompose(dg.build(dg.ObcChain(3), 2.0))
        p = dg.ProductLattice(((c2, 4.0), (dg.ObcChain(3), 2.0)))
        h = dg.build_product_lattice(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dg.DegenerateAmbiguity)
            combined = dg.kron_sum_spectrum([sys2, sys3], h)
        # residual certification against the row-major product is the proof
        assert np.max(combined.residuals) <= combined.tolerance


class TestLeastDamped:
    def test_unique_maximizer_12_ring(self):
        t = 1.5
        ring = dg.SegmentedRing((("A", 11), ("B", 1)))
        sys = dg.eigendecompose(dg.build(ring, t))
        # oracle: evaluate E_n = t/alpha_n + alpha_n directly and take argmax Im
        analytic = dg.mode_values(ring, t)
        want = complex(analytic[np.argmax(analytic.imag)])
        got = sys.values[dg.least_damped_mode(sys)]
        assert abs(got - want) <= 1e-10

    def test_tie_rule_on_real_spectrum(self):
        ring = dg.SegmentedRing((("A", 4), ("B", 4)))
        sys = dg.eigendecompose(dg.build(ring, 2.0))
        sel = dg.least_damped_mode(sys)
        # all Im = 0; the rule picks the smallest |Re|
        assert abs(sys.values[sel].real) == pytest.approx(min(np.abs(sys.values.real)), abs=1e-12)

    def test_conjugate_partner_most_damped(self):
        ring = dg.SegmentedRing((("A", 11), ("B", 1)))
        sys = dg.eigendecompose(dg.build(ring, 1.5))
        sel = dg.least_damped_mode(sys)
        partner = np.conj(sys.values[sel])
        dev = np.abs(sys.values - partner)
        assert sys.values[np.argmin(dev)].imag == pytest.approx(np.min(sys.values.imag), abs=1e-12)


class TestDegenerateSubspaces:
    def test_equal_segment_ring_analytic_vectors_pass_residual(self):
        # E = 2 sqrt(t) cos(k): k and -k collide, numerics may mix the pair
        ring = dg.SegmentedRing((("A", 6), ("B", 6)))
        t = 1.5
        sys = dg.eigendecompose(dg.build(ring, t))
        groups = [g for g in sys.degenerate_groups() if len(g) > 1]
        assert groups, "expected degenerate pairs on the equal-segment ring"
        analytic = dg.alternating_ring_modes(ring, t)
        assert np.max(analytic.residuals) <= analytic.tolerance

    def test_circulant_degenerate_pair(self):
        # offset-2-only connectivity: E = +-sqrt(t), each twice
        g = dg.validate_circulant(4, [0, 1, 0])
        sys = dg.eigendecompose(dg.build(g, 1.5))
        groups = [grp for grp in sys.degenerate_groups() if len(grp) > 1]
        assert groups
        analytic = dg.circulant_analytic_spectrum(g, 1.5)
        assert np.max(analytic.residuals) <= analytic.tolerance


def spectrum_system(values, h_norm):
    # no vectors: the grouping reads only the values and the norm
    n = len(values)
    return spectra.EigenSystem(np.asarray(values, dtype=complex), np.empty((n, 0)), None, np.zeros(n), h_norm, 0.0)


def planted_spectrum(rng):
    """Random values plus planted clusters, transitive chains, and pairs
    exactly tol and one ulp below tol apart, in shuffled order."""
    h_norm = rng.uniform(0.5, 8.0)
    tol = spectra.DEGENERACY_FACTOR * h_norm
    n = int(rng.integers(1, 120))
    parts = [rng.uniform(-4, 4, n) + 1j * rng.uniform(-4, 4, n) * rng.integers(0, 2)]
    for _ in range(rng.integers(0, 6)):
        c = complex(*rng.uniform(-4, 4, 2))
        k = int(rng.integers(2, 6))
        offsets = (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)) * tol / 3
        parts.append(c + offsets * rng.integers(0, 2))
    for _ in range(rng.integers(0, 3)):
        c = complex(*rng.uniform(-4, 4, 2))
        step = 0.9 * tol * np.exp(1j * rng.uniform(0, 2 * np.pi))
        parts.append(c + step * np.arange(int(rng.integers(3, 8))))
    for _ in range(rng.integers(0, 4)):
        a, b = rng.uniform(-4, 4, 2)
        parts.append(np.array([a, complex(a, tol), 1j * b, complex(tol, b)]))
        parts.append(np.array([a + 10, complex(a + 10, np.nextafter(tol, 0))]))
    values = np.concatenate(parts)
    return values[rng.permutation(len(values))], h_norm


class TestDegenerateGroups:
    def test_boundary_pairs(self):
        tol = spectra.DEGENERACY_FACTOR * 2.0
        sys = spectrum_system([0.0, 1j * tol, 5.0, 5.0 + 1j * np.nextafter(tol, 0)], 2.0)
        assert sys.degenerate_groups() == [[0], [1], [2, 3]]

    def test_transitive_chain(self):
        tol = spectra.DEGENERACY_FACTOR
        sys = spectrum_system([1.8 * tol, 3.0, 0.0, 0.9 * tol], 1.0)
        assert sys.degenerate_groups() == [[0, 2, 3], [1]]

    def test_matches_union_find_on_planted_spectra(self):
        rng = np.random.default_rng(11)
        joined = 0
        for _ in range(300):
            values, h_norm = planted_spectrum(rng)
            groups = spectrum_system(values, h_norm).degenerate_groups()
            assert groups == union_find_groups(values, spectra.DEGENERACY_FACTOR * h_norm)
            joined += sum(len(g) > 1 for g in groups)
        assert joined > 300

    def test_matches_union_find_on_product_spectrum(self):
        ring = dg.SegmentedRing((("A", 6), ("B", 6)))
        product = dg.ProductLattice(((ring, 1.5), (dg.SegmentedRing((("A", 8),)), 2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dg.DegenerateAmbiguity)
            sys = dg.closed_form(product)
        groups = sys.degenerate_groups()
        assert any(len(g) > 2 for g in groups)
        assert groups == union_find_groups(sys.values, spectra.DEGENERACY_FACTOR * sys.h_norm)

    def test_matches_union_find_where_real_parts_coincide(self):
        # conjugate pairs, duplicates and one vertical line of 800 values:
        # more candidate pairs than one chunk holds
        rng = np.random.default_rng(31)
        h_norm = 3.0
        tol = spectra.DEGENERACY_FACTOR * h_norm
        cloud = rng.uniform(-4, 4, 60) + 1j * rng.uniform(0.1, 4, 60)
        line = 0.5 + 1j * np.concatenate([rng.uniform(-4, 4, 700), np.arange(100) * 0.9 * tol])
        values = np.concatenate([cloud, np.conj(cloud), cloud[:10], line])
        values = values[rng.permutation(len(values))]
        groups = spectrum_system(values, h_norm).degenerate_groups()
        assert groups == union_find_groups(values, tol)
        assert sorted(map(len, groups))[-1] == 100

    def test_matches_union_find_on_degenerate_64x64_product(self):
        ring = dg.SegmentedRing((("A", 32), ("B", 32)))
        axis = dg.closed_form(ring, 1.5).values
        values = (axis[:, None] + axis[None, :]).ravel()
        h_norm = dg.build(dg.ProductLattice(((ring, 1.5), (ring, 1.5)))).norm_inf()
        groups = spectrum_system(values, h_norm).degenerate_groups()
        assert sum(len(g) > 1 for g in groups) > 100
        assert groups == union_find_groups(values, spectra.DEGENERACY_FACTOR * h_norm)


def test_import_leaves_graph_and_spatial_scipy_unloaded():
    lazy = ("scipy.sparse.csgraph", "scipy.spatial", "scipy.linalg", "scipy.optimize", "orjson")
    env = {**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1])}
    for module in ("decaygraph", "decaygraph.cli"):
        code = f"import sys, {module}; print([m for m in {lazy!r} if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", module


RING = '{"lattice":{"kind":"ring","t":1.5,"segments":[{"type":"A","len":29},{"type":"B","len":1}]}}'
CIRCULANT = '{"lattice":{"kind":"circulant","t":1.5,"n":6,"a":[1,0,1,0,1]}}'
PRODUCT = (
    '{"lattice":{"kind":"product","axes":['
    '{"kind":"ring","t":1.5,"segments":[{"type":"A","len":10},{"type":"B","len":20}]},'
    '{"kind":"ring","t":2.0,"segments":[{"type":"A","len":5},{"type":"B","len":3}]}]}}'
)


RAW = '{"lattice":{"kind":"raw","dim":3,"entries":[[1,2,1.0,0.0],[2,3,0.5,0.2],[3,1,2.0,0.0],[2,1,1.0,0.0]]}}'


def _scipy_modules_after(tmp_path, argv: list[str]) -> list[str]:
    """Every scipy module in sys.modules after ``cli.main(argv)`` exits 0
    in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1])}
    code = (
        "import sys; from decaygraph import cli\n"
        f"assert cli.main({argv + ['--out', str(tmp_path / 'o')]!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1].split()


def _subpackages(modules: list[str]) -> set[str]:
    """The public scipy subpackages among ``modules``, but scipy.version,
    which scipy itself loads."""
    names = {m.split(".")[1] for m in modules if m.startswith("scipy.")}
    return {m for m in names if not m.startswith("_")} - {"version"}


@pytest.mark.parametrize("command, doc", [
    (["drive"], RING),
    (["drive"], '{"lattice":{"kind":"obc_chain","t":1.5,"n":12}}'),
    (["spectrum", "--numeric", "--analytic"], RING),
    (["spectrum", "--numeric", "--analytic"], CIRCULANT),
    (["drive"], PRODUCT),
    (["spectrum", "--numeric"], PRODUCT),
    (["decay"], RING),
    (["charges"], PRODUCT),
    (["build"], RING),
    (["build"], PRODUCT),
    (["spectrum", "--analytic"], PRODUCT),
    (["decay"], CIRCULANT),
    (["charges"], RING),
], ids=["ring", "obc_chain", "spectrum-ring", "spectrum-circulant", "drive-product",
        "spectrum-product", "decay-ring", "charges-product", "build-ring", "build-product",
        "spectrum-analytic-product", "decay-circulant", "charges-ring"])
def test_drive_loads_no_scipy_subpackage_beyond_sparse(tmp_path, command, doc):
    # the gauge route takes its transforms from numpy.fft and every
    # certificate and misfit takes H x from Hamiltonian.dot: a structured
    # command imports no part of scipy, not even scipy itself
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    assert _scipy_modules_after(tmp_path, command + ["--spec", str(spec)]) == []


def test_gauged_spectrum_loads_no_scipy_and_never_assembles_the_matrix(tmp_path):
    # G is scattered from the entries and eig comes from numpy: neither
    # scipy nor the dense H is needed
    spec = tmp_path / "spec.json"
    spec.write_text(RING)
    argv = ["spectrum", "--spec", str(spec), "--numeric", "--out", str(tmp_path / "o")]
    code = (
        "import sys; from decaygraph import cli, spectra\n"
        "seen, solve = [], spectra.gauged_eigendecompose\n"
        "spectra.gauged_eigendecompose = lambda h: seen.append(h) or solve(h)\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(len(seen), 'matrix' in vars(seen[0]), *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "False"]


def test_reproduce_all_loads_no_scipy(tmp_path):
    # fig4's steady states on built lattices take their gauge, whatever
    # eigensystem checks the loss: no figure needs any part of scipy
    assert _scipy_modules_after(tmp_path, ["reproduce", "all"]) == []


def test_raw_drive_loads_no_scipy(tmp_path):
    # a raw matrix solves through its eigenvector expansion, numpy only
    spec = tmp_path / "spec.json"
    spec.write_text(RAW)
    assert _scipy_modules_after(tmp_path, ["drive", "--spec", str(spec)]) == []


def test_raw_drive_loads_linalg_only_for_the_schur_rescue(tmp_path):
    # on A39 B13 at t = 6 the expansion leaves one row uncertified, and the
    # Schur form, the one route that needs scipy, certifies it
    h = dg.build(dg.SegmentedRing((("A", 39), ("B", 13))), 6.0)
    entries = [[i + 1, j + 1, v, 0.0] for i, j, v in zip(*(a.tolist() for a in h.entries()))]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lattice": {"kind": "raw", "dim": h.dim, "entries": entries}}))
    assert _subpackages(_scipy_modules_after(tmp_path, ["drive", "--spec", str(spec)])) == {"linalg"}


def test_no_drive_sweep_job_loads_scipy(tmp_path):
    # every drive of the benchmark's drive-sweep workload at seeds 1-3, raw
    # matrices included, meets its expected exit code with numpy alone: a
    # raw drive reuses the one eigendecomposition and needs no Schur rescue
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    code = (
        "import importlib.util, json, sys\n"
        "from decaygraph import cli\n"
        f"spec = importlib.util.spec_from_file_location('bench_workloads', {str(path)!r})\n"
        "workloads = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(workloads)\n"
        "for seed in (1, 2, 3):\n"
        "    for job in workloads.generate('drive-sweep', seed):\n"
        f"        doc = {str(tmp_path)!r} + '/spec.json'\n"
        "        open(doc, 'w').write(json.dumps({'lattice': job['lattice']}))\n"
        f"        argv = job['cmd'] + ['--spec', doc, '--out', {str(tmp_path / 'o')!r}]\n"
        "        assert cli.main(argv) == job['expect'], (seed, job['id'])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1].split() == []
