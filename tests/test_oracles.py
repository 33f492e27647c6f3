"""Independent-oracle cross checks for every small lattice.

The dense eigensolver is checked against characteristic-polynomial roots
obtained by the Faddeev-LeVerrier trace recursion (a completely separate
computational path), and fitted decay quantities are checked against raw
eigenvector ratios.
"""

import numpy as np
import pytest

import decaygraph as dg

from oracle_helpers import (
    all_small_lattices,
    charpoly_roots,
    circulant_dft_eigenvalues,
    match_deviation,
    symmetric_binary_vectors,
)


SMALL = all_small_lattices()
PRODUCTS = [
    dg.ProductLattice(
        ((dg.validate_circulant(2, [1]), 1.5), (dg.validate_circulant(2, [1]), 2.0))
    ),
    dg.ProductLattice(
        ((dg.validate_circulant(2, [1]), 1.5), (dg.SegmentedRing((("A", 2), ("B", 2))), 2.5))
    ),
    dg.ProductLattice(
        (
            (dg.validate_circulant(2, [1]), 1.5),
            (dg.validate_circulant(2, [1]), 2.0),
            (dg.ObcChain(2), 3.0),
        )
    ),
]


def test_lattice_enumeration_covers_families():
    kinds = {type(s).__name__ for s in SMALL}
    assert kinds == {"SegmentedRing", "CirculantGraph", "ObcChain"}
    assert len(SMALL) > 80


@pytest.mark.parametrize("t", [1.5, 1 / 1.5])
def test_charpoly_roots_match_dense_eigenvalues(t):
    for spec in SMALL:
        h = dg.build(spec, t)
        roots = charpoly_roots(np.asarray(h.matrix))
        values = dg.eigendecompose(h).values
        dev = match_deviation(values, roots)
        assert dev <= 1e-7, f"{spec} deviates by {dev}"


def test_charpoly_roots_match_for_products():
    for p in PRODUCTS:
        h = dg.build_product_lattice(p)
        roots = charpoly_roots(np.asarray(h.matrix))
        values = dg.eigendecompose(h).values
        assert match_deviation(values, roots) <= 1e-7


def test_circulant_dft_similarity_invariance():
    # eigenvalues of the graph equal those of the plain circulant with
    # first row c_q = a_q t**((N-q)/N), computable by DFT sums alone
    t = 1.7
    for n in range(2, 9):
        for a in symmetric_binary_vectors(n):
            g = dg.validate_circulant(n, a)
            q = np.arange(1, n)
            first_row = np.concatenate([[0.0], np.array(a) * t ** ((n - q) / n)])
            oracle = circulant_dft_eigenvalues(first_row)
            got = dg.closed_form(g, t).values
            assert match_deviation(got, oracle) <= 1e-10


def test_fitted_charges_match_raw_ratio_charges():
    # charges from the fitted per-chain lines against charges from raw
    # eigenvector ratios, across every small pure-decay lattice
    t = 1.5
    for spec in SMALL:
        if isinstance(spec, dg.ObcChain):
            continue
        h = dg.build(spec, t)
        sys = dg.eigendecompose(h)
        sel = dg.least_damped_mode(sys)
        profile = dg.decay_profile(spec, t, sys, sel)
        report = dg.extract_decay_constants(profile, spec, t)
        q_raw = dg.amplitude_charges(profile, h.edges, h.ts)
        q_fit = dg.charges_from_fit(report, spec, h)
        assert float(np.max(np.abs(q_fit - q_raw))) <= 1e-9, spec


def test_obc_closed_form_against_charpoly():
    # E_n = 2 sqrt(t) cos(pi n/(N+1)) vs Faddeev-LeVerrier roots
    t = 2.0
    for n in range(2, 9):
        h = dg.build(dg.ObcChain(n), t)
        roots = charpoly_roots(np.asarray(h.matrix))
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        closed = 2 * np.sqrt(t) * np.cos(theta)
        assert match_deviation(closed, roots) <= 1e-7
