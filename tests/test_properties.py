"""Randomized invariant sweeps (seeded, deterministic)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decaygraph as dg
from decaygraph import figures, lattice
from decaygraph.lattice import _assemble

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
        analytic = dg.closed_form(ring, t).values
        assert match_deviation(sys.values, analytic) <= 1e-8

    @pytest.mark.parametrize("g,t", CIRCS)
    def test_circulants(self, g, t):
        sys = dg.eigendecompose(dg.build(g, t))
        analytic = dg.closed_form(g, t)
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
        analytic = dg.closed_form(ring, t).values
        assert match_deviation(sys.values, analytic) <= 1e-8

    def test_circulant_n64(self):
        a = [0] * 63
        for q in (1, 16):
            a[q - 1] = 1
            a[63 - q] = 1
        g = dg.validate_circulant(64, a)
        t = 4.0
        sys = dg.eigendecompose(dg.build(g, t))
        analytic = dg.closed_form(g, t)
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


SPECIALS = (0.0, -0.0, 5e-324, -1e-310, 1e-300, 1e300, -1e300, np.inf, -np.inf, np.nan)


def _with_specials(rng, shape, specials, complex_):
    """Normal draws of ``shape`` with a share of them replaced by ``specials``."""
    def part():
        v = rng.normal(size=shape)
        if specials:
            swap = rng.random(shape) < 0.3
            v[swap] = rng.choice(specials, size=int(swap.sum()))
        return v
    if not complex_:
        return part()
    v = np.empty(shape, dtype=complex)
    v.real, v.imag = part(), part()
    return v


@st.composite
def axis_lattices(draw):
    """A 1D spec and its t: a uniform, two- or four-segment ring, a
    circulant (symmetric connectivity drawn by half) or an open chain."""
    t = draw(st.sampled_from([1 / 64, 0.5, 1.02, 1.5, 64.0]))
    kind = draw(st.sampled_from(["ring", "circulant", "obc"]))
    if kind == "ring":
        lengths = draw(st.sampled_from([[3], [1, 2], [4, 9], [1, 1, 1, 1], [5, 2, 7, 3]]))
        lengths = [n + draw(st.integers(0, 6)) for n in lengths]
        return dg.SegmentedRing(tuple(zip("AB" * 2, lengths))), t
    if kind == "circulant":
        n = draw(st.integers(2, 24))
        half = draw(st.lists(st.booleans(), min_size=n // 2, max_size=n // 2).filter(any))
        a = [int(half[min(q, n - q) - 1]) for q in range(1, n)]
        return dg.validate_circulant(n, a), t
    return dg.ObcChain(draw(st.integers(2, 40))), t


@st.composite
def hamiltonians(draw):
    """Any Hamiltonian kind: a 1D family, a 2- or 3-axis product, a
    transpose, a synthesized charge graph, or a raw real or complex matrix
    whose entries include zeros, subnormals, 1e+-300, inf and NaN."""
    kind = draw(st.sampled_from(["axis", "product", "transpose", "synthesized", "raw"]))
    if kind == "raw":
        n = draw(st.integers(1, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = _with_specials(rng, (n, n), draw(st.sampled_from([(), SPECIALS])), draw(st.booleans()))
        return dg.raw_hamiltonian(np.where(rng.random((n, n)) < draw(st.sampled_from([0.2, 0.6, 1.0])), m, 0))
    if kind == "synthesized":
        g = dg.synthesize_charge_graph(draw(st.sampled_from([
            [2.0, 1.0, 0.0, 0.0, 0.0, -1.0, -2.0], [2.5, 1.5, 0.5, 0.0, 0.0, -0.5, -1.5, -2.5], [0.5, -0.5],
        ])), draw(st.sampled_from([1.5, 3.0])))
        e = np.array(g.edges).reshape(-1, 3)
        return _assemble(g.n_nodes, e[:, 0], e[:, 1], 0, (g.t,), "synthesized", None)
    if kind == "product":
        axes = draw(st.lists(axis_lattices(), min_size=2, max_size=3).filter(
            lambda axes: np.prod([s.length for s, _ in axes]) <= 400))
        h = dg.build(dg.ProductLattice(tuple(axes)))
    else:
        h = dg.build(*draw(axis_lattices()))
    return dg.transpose(h) if kind == "transpose" else h


@st.composite
def product_inputs(draw):
    """A Hamiltonian, an x for it (float or complex, 1-D or 2-D, C-ordered
    or a transposed view, with or without special values), a row range
    and a row-block step."""
    h = draw(hamiltonians())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specials = draw(st.sampled_from([(), SPECIALS, (0.0, -0.0, 5e-324), (np.inf, np.nan)]))
    complex_, layout = draw(st.booleans()), draw(st.sampled_from(["1d", "c", "transposed"]))
    k = draw(st.integers(1, 4))
    if layout == "1d":
        x = _with_specials(rng, (h.dim,), specials, complex_)
    elif layout == "c":
        x = _with_specials(rng, (h.dim, k), specials, complex_)
    else:
        x = _with_specials(rng, (k, h.dim), specials, complex_).T
    lo = draw(st.integers(0, h.dim))
    return h, x, lo, draw(st.integers(lo, h.dim)), draw(st.integers(1, h.dim))


class TestEdgeProduct:
    """`Hamiltonian.dot` has the bits of the scipy CSR product, entry for
    entry, on every kind of Hamiltonian and x."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(product_inputs(), st.sampled_from([1, 3, 16, 1 << 15]))
    def test_matches_csr_reference(self, case, chunk):
        h, x, lo, hi, step = case
        want = oracle_helpers.csr_reference(h) @ x
        # chunks of a few floats put chunk edges inside runs and gathers
        with mock.patch.object(lattice, "_CHUNK_FLOATS", chunk), np.errstate(all="ignore"):
            assert oracle_helpers.same_bits(h.dot(x, lo, hi), want[lo:hi])
            blocks = [h.dot(x, i, i + step) for i in range(0, h.dim, step)]
            assert oracle_helpers.same_bits(np.concatenate(blocks), want)

    @pytest.mark.parametrize("wrong", ["reversed order", "float view of x"])
    def test_reference_tells_wrong_products_apart(self, wrong):
        # controls: the same entries summed last column first, or real
        # entries scaling x's float view on an x with infinite parts (the
        # CSR product's a + 0j makes 0 * inf NaN), miss the CSR bits
        rng = np.random.default_rng(11)
        h = dg.raw_hamiltonian(rng.normal(size=(40, 40)) * np.array([1.0, 1e16, -1e16, 1.0] * 10))
        x = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        entries = list(zip(*h.entries()))
        if wrong == "reversed order":
            entries.reverse()
        else:
            x[::7, 1] = complex(1.0, np.inf)
        got = np.zeros((40, 6))
        with np.errstate(invalid="ignore"):
            for r, c, v in entries:
                got[r] += v * x.view(float)[c]
            want = oracle_helpers.csr_reference(h) @ x
        assert oracle_helpers.same_bits(h.dot(x), want)
        assert not oracle_helpers.same_bits(got.view(complex), want)
