"""Randomized invariant sweeps (seeded, deterministic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decaygraph as dg
from decaygraph import figures

import oracle_helpers
from oracle_helpers import match_deviation, symmetric_binary_vectors


def random_two_segment_rings(rng, count, max_len=31):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_len))
        m = int(rng.integers(1, max_len))
        if n + m < 3:
            continue
        t = float(rng.uniform(1.1, 4.0))
        out.append((dg.SegmentedRing((("A", n), ("B", m))), t))
    return out


def random_alternating_rings(rng, count, max_pairs=4, max_len=12):
    out = []
    for _ in range(count):
        pairs = int(rng.integers(1, max_pairs + 1))
        segs = []
        for k in range(pairs):
            segs.append(("A", int(rng.integers(1, max_len + 1))))
            segs.append(("B", int(rng.integers(1, max_len + 1))))
        if sum(n for _, n in segs) < 3:
            continue
        t = float(rng.uniform(1.1, 4.0))
        out.append((dg.SegmentedRing(tuple(segs)), t))
    return out


def random_circulants(rng, count, max_n=16):
    out = []
    while len(out) < count:
        n = int(rng.integers(2, max_n + 1))
        options = symmetric_binary_vectors(n)
        a = options[int(rng.integers(0, len(options)))]
        t = float(rng.uniform(1.1, 4.0))
        out.append((dg.validate_circulant(n, a), t))
    return out


RNG = np.random.default_rng(20240831)
TWO_SEG = random_two_segment_rings(RNG, 12)
MULTI_SEG = random_alternating_rings(RNG, 12)
CIRCS = random_circulants(RNG, 12)


class TestAnalyticNumericEquivalence:
    @pytest.mark.parametrize("ring,t", TWO_SEG)
    def test_rings(self, ring, t):
        sys = dg.eigendecompose(dg.build(ring, t))
        analytic = [s.energy for s in dg.ring_analytic_spectrum(ring, t)]
        assert match_deviation(sys.values, analytic) <= 1e-8

    @pytest.mark.parametrize("g,t", CIRCS)
    def test_circulants(self, g, t):
        sys = dg.eigendecompose(dg.build(g, t))
        analytic = dg.circulant_analytic_spectrum(g, t)
        assert match_deviation(sys.values, analytic.values) <= 1e-8

    @pytest.mark.parametrize("ring,t", TWO_SEG[:6])
    def test_conjugate_pairing(self, ring, t):
        sys = dg.eigendecompose(dg.build(ring, t))
        assert match_deviation(sys.values, np.conj(sys.values)) <= 1e-10


class TestPurityAcrossFamilies:
    @pytest.mark.parametrize("ring,t", MULTI_SEG[:8])
    def test_rings_pass(self, ring, t):
        sys = dg.eigendecompose(dg.build(ring, t))
        assert dg.pure_decay_check(sys, ring, t).passed

    @pytest.mark.parametrize("g,t", CIRCS[:8])
    def test_circulants_pass(self, g, t):
        sys = dg.eigendecompose(dg.build(g, t))
        assert dg.pure_decay_check(sys, g, t).passed


class TestPowerPartition:
    @pytest.mark.parametrize("ring,t", MULTI_SEG)
    def test_partition_and_type_sharing(self, ring, t):
        sys = dg.eigendecompose(dg.build(ring, t))
        report = dg.pure_decay_check(sys, ring, t).report
        assert report.partition_sum == pytest.approx(1.0, abs=1e-9)
        for kind in ("A", "B"):
            ratios = [c.ratio for c in report.per_chain if c.chain_type == kind]
            assert max(ratios) / min(ratios) - 1.0 <= 1e-9

    def test_permuted_segments_share_ratios(self):
        # ratios depend only on the type totals, not the segment order
        t = 1.5
        a = dg.SegmentedRing((("A", 4), ("B", 11), ("A", 3), ("B", 12)))
        b = dg.SegmentedRing((("A", 3), ("B", 12), ("A", 4), ("B", 11)))
        reports = []
        for ring in (a, b):
            sys = dg.eigendecompose(dg.build(ring, t))
            reports.append(dg.pure_decay_check(sys, ring, t).report.ratios_by_type())
        assert reports[0]["A"] == pytest.approx(reports[1]["A"], rel=1e-9)
        assert reports[0]["B"] == pytest.approx(reports[1]["B"], rel=1e-9)


class TestChargeInvariants:
    @pytest.mark.parametrize("spec,t", (MULTI_SEG[:5] + CIRCS[:5]))
    def test_quantization_and_conservation(self, spec, t):
        cm = dg.charge_map(spec, t)
        assert cm.quantized
        assert abs(cm.total) <= 1e-9
        sigma, dev = dg.verify_charge_equality(spec, t)
        assert sigma == 1 and dev <= 1e-9

    @pytest.mark.parametrize("g,t", CIRCS[:5])
    def test_circulant_scaled_similarity(self, g, t):
        h = dg.build(g, t)
        n = g.n_nodes
        d = (t ** (-1.0 / n)) ** np.arange(n)
        sim = h.matrix * np.outer(1.0 / d, d)
        q = np.arange(1, n)
        first_row = np.concatenate([[0.0], np.array(g.a) * t ** ((n - q) / n)])
        for i in range(n):
            np.testing.assert_allclose(sim[i], np.roll(first_row, i), rtol=1e-12, atol=1e-12)


class TestEquivalenceAtSizeBoundary:
    def test_ring_n64(self):
        # largest size the 1e-8 equivalence bound is promised for
        ring = dg.SegmentedRing((("A", 34), ("B", 30)))
        t = 4.0
        sys = dg.eigendecompose(dg.build(ring, t))
        analytic = [s.energy for s in dg.ring_analytic_spectrum(ring, t)]
        assert match_deviation(sys.values, analytic) <= 1e-8

    def test_circulant_n64(self):
        a = [0] * 63
        for q in (1, 16):
            a[q - 1] = 1
            a[63 - q] = 1
        g = dg.validate_circulant(64, a)
        t = 4.0
        sys = dg.eigendecompose(dg.build(g, t))
        analytic = dg.circulant_analytic_spectrum(g, t)
        assert match_deviation(sys.values, analytic.values) <= 1e-8


class TestProductInvariants:
    def test_eigenvalue_additivity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            ring = dg.SegmentedRing((("A", int(rng.integers(2, 6))), ("B", int(rng.integers(1, 5)))))
            circs = symmetric_binary_vectors(int(rng.integers(2, 5)))
            g = dg.validate_circulant(len(circs[0]) + 1, circs[int(rng.integers(0, len(circs)))])
            tx, ty = float(rng.uniform(1.2, 3.0)), float(rng.uniform(1.2, 3.0))
            p = dg.ProductLattice(((ring, tx), (g, ty)))
            h = dg.build_product_lattice(p)
            ex = dg.eigendecompose(dg.build(ring, tx)).values
            ey = dg.eigendecompose(dg.build(g, ty)).values
            sums = (ex[:, None] + ey[None, :]).ravel()
            assert match_deviation(dg.eigendecompose(h).values, sums) <= 1e-8


@st.composite
def value_pairs(draw):
    """Two equal-length value sets on a small integer grid (exact duplicates
    and ties), the second a permutation of the first moved by noise scaled
    from zero through the pairing margin to far above it."""
    n = draw(st.integers(1, 9))
    grid = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    a = np.array(draw(st.lists(grid, min_size=n, max_size=n)))
    noise = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    scale = draw(st.sampled_from([0.0, 1e-12, 2e-9, 4e-9, 8e-9, 1e-3, 0.4]))
    b = a[draw(st.permutations(range(n)))] + scale * np.array(draw(st.lists(noise, min_size=n, max_size=n)))
    return (b, a) if draw(st.booleans()) else (a, b)


class TestMatchDeviation:
    """`figures.match_deviation` gives the bits of the assignment-solver
    reference, whether it pairs by nearest partner or falls back."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(value_pairs())
    def test_matches_assignment_reference(self, pair):
        a, b = pair
        assert figures.match_deviation(a, b) == oracle_helpers.match_deviation(a, b)

    @staticmethod
    def solver_calls(monkeypatch):
        import scipy.optimize

        calls = []
        solver = scipy.optimize.linear_sum_assignment
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", lambda c: calls.append(c) or solver(c))
        return calls

    @pytest.mark.parametrize("excess, falls_back", [(1 - 1e-3, True), (1 + 1e-3, False)])
    def test_near_tie_either_side_of_the_margin(self, monkeypatch, excess, falls_back):
        # a[0]'s two partners differ by `excess` margins; the max cost is 4
        gap = excess * figures.MATCH_MARGIN * 4.0
        a, b = np.array([0.0, -3.0]), np.array([1.0, -(1.0 + gap)])
        calls = self.solver_calls(monkeypatch)
        assert figures.match_deviation(a, b) == oracle_helpers.match_deviation(a, b)
        assert bool(calls) == falls_back

    def test_balanced_ring_falls_back(self, monkeypatch):
        # k and -k share 2 sqrt(t) cos(k): every nearest partner is tied
        ring = dg.SegmentedRing((("A", 6), ("B", 6)))
        numeric, exact = dg.eigendecompose(dg.build(ring, 1.5)).values, dg.closed_form(ring, 1.5).values
        calls = self.solver_calls(monkeypatch)
        assert figures.match_deviation(numeric, exact) == oracle_helpers.match_deviation(numeric, exact)
        assert len(calls) == 1

    def test_distinct_spectrum_pairs_by_nearest_partner(self, monkeypatch):
        ring = dg.SegmentedRing((("A", 29), ("B", 1)))
        numeric, exact = dg.eigendecompose(dg.build(ring, 1.5)).values, dg.closed_form(ring, 1.5).values
        calls = self.solver_calls(monkeypatch)
        assert figures.match_deviation(numeric, exact) == oracle_helpers.match_deviation(numeric, exact)
        assert not calls
