"""Numerical and analytic eigensystems, certification, degeneracy handling."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import decaygraph as dg
from decaygraph import spectra

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
        analytic = dg.ring_mode_values(29, 1, t)
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
        analytic = dg.ring_mode_values(11, 1, t)
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
    n = len(values)
    return spectra.EigenSystem(np.asarray(values, dtype=complex), np.eye(n), None, np.zeros(n), h_norm, 0.0)


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


def test_import_leaves_graph_and_spatial_scipy_unloaded():
    code = (
        "import sys, decaygraph; "
        "print([m for m in ('scipy.sparse.csgraph', 'scipy.spatial') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
