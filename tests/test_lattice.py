"""Builders, validators, edge lists, and structural invariants."""

import numpy as np
import pytest

import decaygraph as dg
from decaygraph import io
from decaygraph.lattice import _assemble, _components

from oracle_helpers import (
    csr_reference,
    dense_hamiltonian_csv,
    eager_matrix,
    edge_order_csr,
    kron_sum_matrix,
    loop_edge_list,
    same_bits,
    symmetric_binary_vectors,
)


class TestHoppingRatio:
    def test_rejects_unity(self):
        with pytest.raises(dg.TrivialHopping):
            dg.validate_hopping_ratio(1.0)

    @pytest.mark.parametrize("t", [0.0, -2.0, 1 / 128, 128.0, float("nan")])
    def test_rejects_out_of_range(self, t):
        with pytest.raises(dg.InvalidHopping):
            dg.validate_hopping_ratio(t)

    @pytest.mark.parametrize("t", [1 / 64, 64.0, 1.5, 0.25])
    def test_accepts_range(self, t):
        assert dg.validate_hopping_ratio(t) == t


class TestValidateCirculant:
    def test_fig2a_vector_valid(self):
        g = dg.validate_circulant(6, [1, 0, 1, 0, 1])
        assert g.degree == 3  # each of the 6 sites connects with 3 sites

    def test_symmetry_violation_carries_offset(self):
        with pytest.raises(dg.SymmetryViolation) as err:
            dg.validate_circulant(4, [1, 0, 0])
        assert err.value.offset == 1

    def test_fig2b_vector_among_weight4_enumeration(self):
        # independent oracle: enumerate every symmetric binary vector of
        # weight 4 for N=8 and confirm membership
        candidates = symmetric_binary_vectors(8, weight=4)
        assert (1, 1, 0, 0, 0, 1, 1) in candidates
        g = dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1])
        assert g.degree == 4

    def test_empty_connectivity(self):
        with pytest.raises(dg.EmptyConnectivity):
            dg.validate_circulant(5, [0, 0, 0, 0])

    def test_wrong_length(self):
        with pytest.raises(dg.EmptyConnectivity):
            dg.validate_circulant(5, [1, 1, 1])

    def test_constructor_validates(self):
        # unchecked, this graph reached closed_form and failed its certificate
        with pytest.raises(dg.SymmetryViolation) as err:
            dg.CirculantGraph(5, (1, 0, 0, 0))
        assert err.value.offset == 1
        with pytest.raises(dg.EmptyConnectivity):
            dg.CirculantGraph(4, (0, 0, 0))

    def test_every_symmetric_vector_validates(self):
        for n in range(2, 9):
            for a in symmetric_binary_vectors(n):
                assert dg.validate_circulant(n, a).a == a


class TestSegmentedRing:
    def test_lengths(self):
        ring = dg.SegmentedRing((("A", 4), ("B", 11), ("A", 3), ("B", 12)))
        assert ring.length == 30
        assert ring.n_sites_a == 7
        assert ring.n_sites_b == 23

    def test_adjacent_same_type_rejected(self):
        with pytest.raises(dg.InvalidRing):
            dg.SegmentedRing((("A", 4), ("A", 3)))

    def test_odd_segment_count_rejected(self):
        with pytest.raises(dg.InvalidRing):
            dg.SegmentedRing((("A", 4), ("B", 3), ("A", 2)))

    def test_single_b_rejected(self):
        with pytest.raises(dg.InvalidRing):
            dg.SegmentedRing((("B", 4),))

    def test_uniform_ring_allowed(self):
        ring = dg.SegmentedRing((("A", 30),))
        assert ring.is_uniform and ring.length == 30

    def test_too_short(self):
        with pytest.raises(dg.InvalidRing):
            dg.SegmentedRing((("A", 1),))

    def test_two_site_rings_rejected_as_multigraphs(self):
        with pytest.raises(dg.InvalidRing):
            dg.SegmentedRing((("A", 2),))
        with pytest.raises(dg.InvalidRing):
            dg.SegmentedRing((("A", 1), ("B", 1)))

    def test_potential_closes_around_ring(self):
        ring = dg.SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4)))
        w = ring.potential()
        up = ring.n_sites_b / ring.length
        # the wrap step must bring the potential back to w[0]
        last_step = up if ring.bond_types()[-1] == "A" else -ring.n_sites_a / ring.length
        assert w[-1] + last_step == pytest.approx(w[0], abs=1e-12)


class TestBuildRing:
    def test_a2_b1_structure(self):
        h = dg.build_ring_hamiltonian(dg.SegmentedRing((("A", 2), ("B", 1))), 2.0)
        m = h.matrix
        assert m.shape == (3, 3)
        assert np.all(np.diag(m) == 0)
        off = m[~np.eye(3, dtype=bool)]
        assert np.count_nonzero(off) == 6
        assert set(np.unique(off)) == {1.0, 2.0}
        # A bonds (1,2),(2,3) point backward; the B wrap bond points 3->1
        assert set(h.edges) == {dg.Edge(1, 0), dg.Edge(2, 1), dg.Edge(2, 0)}

    def test_fig1e_ring_is_30_nodes(self):
        h = dg.build_ring_hamiltonian(dg.SegmentedRing((("A", 4), ("B", 11), ("A", 3), ("B", 12))), 1.5)
        assert h.dim == 30
        assert len(h.edges) == 30

    def test_trivial_hopping_rejected(self):
        with pytest.raises(dg.TrivialHopping):
            dg.build_ring_hamiltonian(dg.SegmentedRing((("A", 29), ("B", 1))), 1.0)


class TestBuildCirculant:
    def test_complete_4_split(self):
        g = dg.validate_circulant(4, [1, 1, 1])
        h = dg.build_circulant_hamiltonian(g, 3.0)
        m = h.matrix
        upper = m[np.triu_indices(4, k=1)]
        lower = m[np.tril_indices(4, k=-1)]
        assert np.all(upper == 3.0)
        assert np.all(lower == 1.0)

    def test_two_node(self):
        g = dg.validate_circulant(2, [1])
        h = dg.build_circulant_hamiltonian(g, 2.0)
        assert np.array_equal(h.matrix, [[0.0, 2.0], [1.0, 0.0]])

    def test_eq7_first_row_and_column(self):
        a = [1, 0, 1, 0, 1]
        g = dg.validate_circulant(6, a)
        t = 1.5
        h = dg.build_circulant_hamiltonian(g, t)
        assert np.array_equal(h.matrix[0], [0.0] + [x * t for x in a])
        assert np.array_equal(h.matrix[:, 0], [0.0] + list(map(float, a)))


class TestBuildObc:
    def test_two_site(self):
        h = dg.build_obc_chain(dg.ObcChain(2), 4.0)
        assert np.array_equal(h.matrix, [[0.0, 1.0], [4.0, 0.0]])

    def test_bond_pattern(self):
        h = dg.build_obc_chain(dg.ObcChain(5), 1.5)
        m = h.matrix
        assert np.all(np.diag(m, 1) == 1.0)
        assert np.all(np.diag(m, -1) == 1.5)
        assert np.count_nonzero(m) == 8


class TestBuildProduct:
    def test_two_by_two_hand_expansion(self):
        c2 = dg.validate_circulant(2, [1])
        p = dg.ProductLattice(((c2, 2.0), (c2, 3.0)))
        h = dg.build_product_lattice(p)
        hx = np.array([[0.0, 2.0], [1.0, 0.0]])
        hy = np.array([[0.0, 3.0], [1.0, 0.0]])
        want = np.kron(hx, np.eye(2)) + np.kron(np.eye(2), hy)
        assert np.array_equal(h.matrix, want)
        assert h.ts == (2.0, 3.0)

    def test_fig2d_lattice_is_240_nodes(self):
        p = dg.ProductLattice(
            ((dg.SegmentedRing((("A", 10), ("B", 20))), 1.5),
             (dg.SegmentedRing((("A", 5), ("B", 3))), 2.0))
        )
        h = dg.build_product_lattice(p)
        assert h.dim == 240
        assert len(h.edges) == 240 * 2  # one bond per site per ring axis

    def test_fig2e_uniform_axis(self):
        p = dg.ProductLattice(
            ((dg.SegmentedRing((("A", 30),)), 1.5),
             (dg.SegmentedRing((("A", 5), ("B", 3))), 2.0))
        )
        h = dg.build_product_lattice(p)
        assert h.dim == 240

    def test_edges_carry_axis_tags(self):
        c2 = dg.validate_circulant(2, [1])
        p = dg.ProductLattice(((c2, 2.0), (c2, 3.0)))
        h = dg.build_product_lattice(p)
        axes = sorted(set(e.axis for e in h.edges))
        assert axes == [0, 1]

    # distinct t per axis: with equal ratios edge_list cannot tell the axes apart
    MIXED = [
        ((dg.SegmentedRing((("A", 2), ("B", 1))), 1.5),
         (dg.validate_circulant(4, [1, 0, 1]), 2.0),
         (dg.ObcChain(3), 0.5)),
        ((dg.ObcChain(2), 3.0),
         (dg.SegmentedRing((("A", 1), ("B", 2), ("A", 1), ("B", 1))), 0.25),
         (dg.validate_circulant(5, [1, 1, 1, 1]), 1.5)),
        ((dg.validate_circulant(3, [1, 1]), 4.0),
         (dg.ObcChain(4), 1.5),
         (dg.SegmentedRing((("A", 3),)), 2.0)),
    ]

    @pytest.mark.parametrize("axes", MIXED)
    def test_mixed_three_axis_against_kron_sum(self, axes):
        h = dg.build_product_lattice(dg.ProductLattice(axes))
        want = kron_sum_matrix([dg.build(spec, t).matrix for spec, t in axes])
        assert np.array_equal(h.matrix, want)
        assert dg.edge_list(h) == h.edges

    def test_needs_two_axes(self):
        c2 = dg.validate_circulant(2, [1])
        with pytest.raises(dg.InvalidRing):
            dg.ProductLattice(((c2, 2.0),))


class TestEdgeList:
    def test_two_node_circulant_single_edge(self):
        h = dg.build_circulant_hamiltonian(dg.validate_circulant(2, [1]), 2.0)
        assert len(dg.edge_list(h)) == 1

    def test_ring_has_l_edges(self):
        h = dg.build_ring_hamiltonian(dg.SegmentedRing((("A", 29), ("B", 1))), 1.5)
        assert len(dg.edge_list(h)) == 30

    def test_complete_graph_edge_count(self):
        h = dg.build_circulant_hamiltonian(dg.validate_circulant(4, [1, 1, 1]), 1.5)
        assert len(dg.edge_list(h)) == 6  # C(4,2)

    def test_rederived_edges_match_stored(self):
        for spec, t in [
            (dg.SegmentedRing((("A", 5), ("B", 3))), 1.7),
            (dg.validate_circulant(6, [1, 0, 1, 0, 1]), 2.5),
            (dg.ObcChain(6), 0.5),
            (dg.ProductLattice(((dg.ObcChain(3), 2.0), (dg.validate_circulant(4, [1, 1, 1]), 0.5))), None),
        ]:
            h = dg.build(spec, t)
            assert dg.edge_list(h) == h.edges

    def test_inconsistent_entries_detected(self):
        m = np.array([[0.0, 2.0], [0.7, 0.0]])
        with pytest.raises(dg.InconsistentEntries):
            dg.raw_hamiltonian(m, t=2.0)

    @staticmethod
    def random_raw(rng, n, ts, dtype):
        """Random {1, t_axis} bonds; some matrices get one or two corrupted entries."""
        m = np.zeros((n, n), dtype=dtype)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    t = ts[rng.integers(len(ts))]
                    m[i, j], m[j, i] = (t, 1.0) if rng.random() < 0.5 else (1.0, t)
        for _ in range(rng.choice(3, p=[0.7, 0.15, 0.15])):
            i, j = rng.choice(n, 2, replace=False)
            m[i, j] = rng.choice([0.7, 1.0, ts[0], 3.0 + 1j if dtype == complex else 3.0])
        return m

    def test_matches_pairwise_loop_on_random_raw_matrices(self):
        rng = np.random.default_rng(7)
        inconsistent = 0
        for _ in range(300):
            n = int(rng.integers(2, 10))
            ts = [(2.0,), (0.5,), (2.0, 0.25), (3.0, 3.0)][rng.integers(4)]
            dtype = complex if rng.random() < 0.3 else float
            m = self.random_raw(rng, n, ts, dtype)
            h = dg.Hamiltonian(m, ts, (), n, "raw")
            try:
                want = loop_edge_list(m, ts)
            except dg.InconsistentEntries as exc:
                inconsistent += 1
                with pytest.raises(dg.InconsistentEntries) as got:
                    dg.edge_list(h)
                assert str(got.value) == str(exc)
                continue
            got = dg.edge_list(h)
            assert got == want
            assert all(type(x) is int for e in got for x in e)
        assert inconsistent > 20


class TestStructuralInvariants:
    SPECS = [
        (dg.SegmentedRing((("A", 29), ("B", 1))), 1.5),
        (dg.SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4))), 2.0),
        (dg.SegmentedRing((("A", 12),)), 1.5),
        (dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]), 1.5),
        (dg.ObcChain(12), 4.0),
    ]

    @pytest.mark.parametrize("spec,t", SPECS)
    def test_zero_diagonal_and_binary_weights(self, spec, t):
        h = dg.build(spec, t)
        assert np.all(np.diag(h.matrix) == 0.0)
        off = h.matrix[~np.eye(h.dim, dtype=bool)]
        nz = off[off != 0]
        assert set(np.unique(nz)) <= {1.0, t}

    @pytest.mark.parametrize("spec,t", SPECS)
    def test_reciprocity_ratio_exact(self, spec, t):
        h = dg.build(spec, t)
        for e in h.edges:
            assert h.matrix[e.tail, e.head] / h.matrix[e.head, e.tail] == t

    @pytest.mark.parametrize("spec,t", SPECS)
    def test_transpose_reversal_duality(self, spec, t):
        # reversing every bond orientation is the same matrix operation as
        # transposing, and equals t * build(spec, 1/t)
        h = dg.build(spec, t)
        ht = dg.transpose(h)
        assert np.array_equal(ht.matrix, h.matrix.T)
        h_inv = dg.build(spec, 1.0 / t)
        np.testing.assert_allclose(ht.matrix, t * h_inv.matrix, rtol=0, atol=1e-15)
        assert set((e.tail, e.head) for e in ht.edges) == set(
            (e.head, e.tail) for e in h.edges
        )

    @pytest.mark.parametrize("spec,t", SPECS + [(dg.ProductLattice((
        (dg.SegmentedRing((("A", 3), ("B", 4))), 1.5), (dg.ObcChain(5), 3.0),
    )), None)])
    def test_sparse_matches_matrix(self, spec, t):
        # H times the identity is H; a complex x gets the CSR product's bits
        h = dg.build(spec, t)
        assert np.array_equal(h.dot(np.eye(h.dim)), h.matrix)
        x = np.random.default_rng(3).normal(size=(h.dim, 2)).view(complex)[:, 0]
        assert same_bits(h.dot(x), edge_order_csr(h) @ x)

    def test_circulant_scaled_similarity(self):
        # D^-1 H D must be the circulant with c_q = a_q t**((N-q)/N)
        t = 1.7
        g = dg.validate_circulant(6, [1, 0, 1, 0, 1])
        h = dg.build_circulant_hamiltonian(g, t)
        n = g.n_nodes
        r = t ** (-1.0 / n)
        d = r ** np.arange(n)
        sim = h.matrix * np.outer(1.0 / d, d)
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                q = (j - i) % n
                want[i, j] = g.a[q - 1] * t ** ((n - q) / n)
        np.testing.assert_allclose(sim, want, rtol=1e-12, atol=1e-12)

    def test_product_axis_terms_commute(self):
        c2 = dg.validate_circulant(2, [1])
        ring = dg.SegmentedRing((("A", 2), ("B", 1)))
        p = dg.ProductLattice(((c2, 2.0), (ring, 1.5)))
        hx = dg.build(c2, 2.0).matrix
        hy = dg.build(ring, 1.5).matrix
        a = np.kron(hx, np.eye(3))
        b = np.kron(np.eye(2), hy)
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)

    def test_matrix_is_immutable(self):
        h = dg.build(dg.ObcChain(3), 2.0)
        with pytest.raises(ValueError):
            h.matrix[0, 1] = 5.0


def _synthesized(target) -> dg.Hamiltonian:
    g = dg.synthesize_charge_graph(target)
    e = np.array(g.edges).reshape(-1, 3)
    return _assemble(g.n_nodes, e[:, 0], e[:, 1], 0, (g.t,), "synthesized", None)


EDGE_BUILT = {
    "ring-A29-B1": lambda: dg.build(dg.SegmentedRing((("A", 29), ("B", 1))), 1.5),
    "ring-4seg": lambda: dg.build(dg.SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4))), 2.0),
    "ring-uniform": lambda: dg.build(dg.SegmentedRing((("A", 12),)), 0.5),
    "circulant-8": lambda: dg.build(dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]), 1.5),
    "circulant-2": lambda: dg.build(dg.validate_circulant(2, [1]), 2.0),
    "circulant-complete-5": lambda: dg.build(dg.validate_circulant(5, [1, 1, 1, 1]), 64.0),
    "obc-12": lambda: dg.build(dg.ObcChain(12), 4.0),
    "obc-2": lambda: dg.build(dg.ObcChain(2), 1 / 64),
    **{f"product-3axis-{i}": (lambda axes=axes: dg.build(dg.ProductLattice(axes)))
       for i, axes in enumerate(TestBuildProduct.MIXED)},
    "transpose-ring": lambda: dg.transpose(dg.build(dg.SegmentedRing((("A", 5), ("B", 3))), 1.7)),
    "transpose-circulant": lambda: dg.transpose(dg.build(dg.validate_circulant(6, [1, 0, 1, 0, 1]), 2.5)),
    "transpose-product": lambda: dg.transpose(dg.build(dg.ProductLattice(TestBuildProduct.MIXED[1]))),
    "synthesized-fig3c": lambda: _synthesized([2.0, 1.0, 0.0, 0.0, 0.0, -1.0, -2.0]),
    "synthesized-fig3d": lambda: _synthesized([2.5, 1.5, 0.5, 0.0, 0.0, -0.5, -1.5, -2.5]),
}


def _raw(dtype, t):
    """A 6-node raw matrix of {1, t} bonds, in the given dtype."""
    m = np.zeros((6, 6), dtype=dtype)
    for a, b in [(0, 1), (2, 1), (3, 4), (5, 0), (2, 5)]:
        m[a, b], m[b, a] = 2, 1
    return dg.raw_hamiltonian(m, t)


RAW = {
    "raw-real-t": lambda: _raw(float, 2.0),
    "raw-real": lambda: _raw(float, None),
    "raw-complex-t": lambda: _raw(complex, 2.0),
    "raw-complex": lambda: dg.raw_hamiltonian(np.array([[0, 2.0], [0.5j, 0]])),
    "raw-int": lambda: _raw(int, None),
    "raw-special": lambda: dg.raw_hamiltonian(np.array(
        [[0.0, -0.0, 5e-324, np.nan], [np.inf, 1e300, 0.0, -2.5], [0.0, 0.0, 0.0, 0.0],
         [1.0 + 1j, -1e-310j, np.nan * 1j, 3.0]]
    )),
}


class TestEdgesFirst:
    """A built lattice stores its sorted edges; the dense matrix is
    assembled only on first read, with the bytes of an eager assembly."""

    @pytest.mark.parametrize("name", EDGE_BUILT)
    def test_exports_read_no_dense_matrix(self, name):
        h = EDGE_BUILT[name]()
        io.hamiltonian_csv(h)
        h.dot(np.ones(h.dim))
        h.entries()
        assert "matrix" not in vars(h) and "edges" not in vars(h)

    @pytest.mark.parametrize("name", EDGE_BUILT)
    def test_matrix_bytes_equal_eager_assembly(self, name):
        h = EDGE_BUILT[name]()
        want = eager_matrix(h.dim, np.array(dg.edge_list(h)), h.ts)
        assert h.matrix.dtype == np.float64 and h.matrix.tobytes() == want.tobytes()
        assert h.matrix is h.matrix and not h.matrix.flags.writeable
        assert h.edge_array.dtype == np.intp and not h.edge_array.flags.writeable

    @pytest.mark.parametrize("i", range(len(TestBuildProduct.MIXED)))
    def test_product_matrix_bytes_equal_kron_sum(self, i):
        axes = TestBuildProduct.MIXED[i]
        h = dg.build(dg.ProductLattice(axes))
        want = kron_sum_matrix([dg.build(spec, t).matrix for spec, t in axes])
        assert h.matrix.tobytes() == want.tobytes()

    def test_transpose_matrix_bytes_equal_copied_transpose(self):
        for name in ("ring-4seg", "circulant-8", "product-3axis-2", "synthesized-fig3d", "raw-complex-t"):
            h = {**EDGE_BUILT, **RAW}[name]()
            ht = dg.transpose(h)
            assert ht.matrix.tobytes() == h.matrix.T.copy().tobytes()
            assert ht.edges == tuple(sorted(dg.Edge(e.head, e.tail, e.axis) for e in h.edges))

    def test_synthesized_matrix_equals_graph_matrix(self):
        g = dg.synthesize_charge_graph([2.5, 1.5, 0.5, 0.0, 0.0, -0.5, -1.5, -2.5])
        assert _synthesized(g.target).matrix.tobytes() == g.matrix.tobytes()

    @pytest.mark.parametrize("name", [*EDGE_BUILT, *RAW])
    def test_hamiltonian_csv_equals_dense_scan(self, name):
        h = {**EDGE_BUILT, **RAW}[name]()
        assert io.hamiltonian_csv(h) == dense_hamiltonian_csv(h)

    @pytest.mark.parametrize("name", [*EDGE_BUILT, "repeated-pairs"])
    def test_entries_in_lexsort_order(self, name):
        # repeated-pairs: one (row, col) pair from three edges over two axes,
        # a tie that keeps the edges' order
        h = EDGE_BUILT[name]() if name in EDGE_BUILT else _assemble(
            3, [0, 1, 0, 2], [1, 0, 1, 0], [0, 0, 1, 1], (2.0, 3.0), "repeated", None)
        tail, head, axis = h.edge_array.T
        rows, cols = np.concatenate([tail, head]), np.concatenate([head, tail])
        values = np.concatenate([np.asarray(h.ts)[axis], np.ones(len(tail))])
        order = np.lexsort((cols, rows))
        for got, want in zip(h.entries(), (rows[order], cols[order], values[order])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [*EDGE_BUILT, "raw-real-t", "raw-complex-t"])
    def test_edges_equal_edge_list(self, name):
        h = {**EDGE_BUILT, **RAW}[name]()
        assert h.edges == dg.edge_list(h) == loop_edge_list(np.asarray(h.matrix), h.ts)
        assert all(type(x) is int for e in h.edges for x in e)
        assert h.edge_array.tolist() == [list(e) for e in h.edges]

    @pytest.mark.parametrize("name", EDGE_BUILT)
    def test_sparse_keeps_edge_order_layout(self, name):
        # the entries are the edge-order CSR's rows, columns and data, and
        # the product has its bits
        h = EDGE_BUILT[name]()
        want = edge_order_csr(h)
        rows, cols, values = h.entries()
        assert np.array_equal(np.searchsorted(rows, np.arange(h.dim + 1)), want.indptr)
        assert np.array_equal(cols, want.indices)
        assert values.dtype == want.data.dtype and np.array_equal(values, want.data)
        x = np.random.default_rng(5).normal(size=(h.dim, 4)).view(complex)
        for v in (x, x[:, 0], x.real, np.asfortranarray(x)):
            assert same_bits(h.dot(v), want @ v)

    @pytest.mark.parametrize("name", [n for n in RAW if n != "raw-special"])
    def test_raw_sparse_holds_the_matrix_entries(self, name):
        h = RAW[name]()
        assert np.array_equal(h.dot(np.eye(h.dim)), h.matrix)
        x = np.random.default_rng(7).normal(size=(h.dim, 3)) + 1j
        for v in (x, x[:, 0], x.real):
            assert same_bits(h.dot(v), csr_reference(h) @ v)

    @pytest.mark.parametrize("name", ["ring-600", "product-24x24", "raw-complex-600"])
    def test_norm_inf_in_row_blocks_equals_dense_row_sum(self, name):
        rng = np.random.default_rng(7)
        h = {
            "ring-600": lambda: dg.build(dg.SegmentedRing((("A", 250), ("B", 350))), 1.3),
            "product-24x24": lambda: dg.build(dg.ProductLattice((
                (dg.SegmentedRing((("A", 10), ("B", 14))), 1.3),
                (dg.validate_circulant(24, [1, 0, 1] + [0] * 17 + [1, 0, 1]), 1.7),
            ))),
            "raw-complex-600": lambda: dg.raw_hamiltonian(
                rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
            ),
        }[name]()
        assert h.dim > (1 << 18) // h.dim  # more than one row block
        assert h.norm_inf() == float(np.max(np.sum(np.abs(h.matrix), axis=1)))

    def test_raw_without_t_sparse_is_not_empty(self):
        m = np.array([[0, 2.0], [0.5j, 0]])
        h = dg.raw_hamiltonian(m)
        assert np.array_equal(h.dot(np.eye(2)), m)
        x = np.array([1.5 - 2j, -0.25 + 1j])
        assert same_bits(h.dot(x), csr_reference(h) @ x)


class TestSizeCap:
    def test_cap_is_4096_nodes(self):
        # the cap is checked before any edge array is built
        with pytest.raises(dg.DimensionOverflow, match="4097 nodes, exceeding the cap of 4096"):
            dg.build(dg.ObcChain(4097), 1.5)
        assert dg.build(dg.ObcChain(4096), 1.5).dim == 4096

    def test_default_cap_allows_240(self):
        p = dg.ProductLattice(
            ((dg.SegmentedRing((("A", 10), ("B", 20))), 1.5),
             (dg.SegmentedRing((("A", 5), ("B", 3))), 2.0))
        )
        assert dg.build_product_lattice(p).dim == 240


class TestComponents:
    """`_components` labels nodes as scipy's connected_components does:
    components numbered by their smallest node."""

    @staticmethod
    def reference(n, pairs):
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components

        graph = coo_array((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        return connected_components(graph, directed=False)[1]

    @pytest.mark.parametrize("n, pairs", [
        (1, []),
        (1, [[0, 0]]),
        (5, []),
        (5, [[3, 3], [1, 1]]),
        (6, [[4, 2], [2, 4], [4, 2], [5, 5]]),
        (7, [[6, 5], [5, 4], [4, 3], [3, 2], [2, 1], [1, 0]]),
    ], ids=["single", "single-self", "no-pairs", "self-pairs", "duplicates", "reversed-path"])
    def test_edge_cases(self, n, pairs):
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        assert np.array_equal(_components(n, pairs), self.reference(n, pairs))

    def test_random_graphs(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            pairs = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
            assert np.array_equal(_components(n, pairs), self.reference(n, pairs))

    def test_long_paths_in_shuffled_order(self):
        rng = np.random.default_rng(23)
        nodes = rng.permutation(3000)
        pairs = np.stack([nodes[:-1], nodes[1:]], axis=1)[rng.permutation(2999)]
        pairs = np.concatenate([pairs[:1500], pairs[1501:]])  # two paths
        assert np.array_equal(_components(3000, pairs), self.reference(3000, pairs))
