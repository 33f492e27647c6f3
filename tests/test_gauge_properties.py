"""Property tests: the closed form against the dense eigensolver, and the
closed form's batched sweep against the Schur route's solves.

Random valid rings (uniform and one to three A/B pairs), circulant graphs
and open chains with N <= 40 and t in [1/4, 1/1.01] or [1.01, 4].  Beyond
t = 4 the dense reference itself stops certifying on some specs, so the
range is bounded there on purpose.  The gauged dense route, whose bound
holds for any t, is checked over N <= 64 and t in [1/8, 8], and on products
of two equal uniform rings.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import decaygraph as dg

from oracle_helpers import match_deviation

MAX_N = 40
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ratios = st.one_of(st.floats(0.25, 1 / 1.01), st.floats(1.01, 4.0))


@st.composite
def rings(draw, max_n=MAX_N):
    pairs = draw(st.integers(0, 3))
    if pairs == 0:
        return dg.SegmentedRing((("A", draw(st.integers(3, max_n))),))
    budget = max_n // (2 * pairs)
    segs = []
    for _ in range(pairs):
        segs += [("A", draw(st.integers(1, budget))), ("B", draw(st.integers(1, budget)))]
    if sum(n for _, n in segs) < 3:
        segs[0] = ("A", 2)
    return dg.SegmentedRing(tuple(segs))


@st.composite
def circulants(draw, max_n=MAX_N):
    n = draw(st.integers(2, max_n))
    picks = draw(st.lists(st.booleans(), min_size=n // 2, max_size=n // 2))
    offsets = [q for q, on in enumerate(picks, 1) if on] or [1]
    a = [0] * (n - 1)
    for q in offsets:
        a[q - 1] = a[n - q - 1] = 1
    return dg.validate_circulant(n, a)


chains = st.builds(dg.ObcChain, st.integers(2, MAX_N))


@SETTINGS
@given(st.one_of(rings(), circulants(), chains), ratios)
def test_closed_form_matches_dense_eigenvalues(spec, t):
    exact = dg.closed_form(spec, t)
    dense = dg.eigendecompose(dg.build(spec, t))
    assert match_deviation(exact.values, dense.values) <= 1e-8


@SETTINGS
@given(st.one_of(rings(), circulants()), ratios)
def test_every_mode_carries_the_normalized_gauge_profile(spec, t):
    want = t ** spec.potential()
    want /= want.max()
    sys = dg.closed_form(spec, t)
    assert np.max(np.abs(np.abs(sys.right_vectors) - want[:, None])) <= 1e-12


@st.composite
def products(draw):
    small = st.one_of(rings(), circulants(), chains).filter(lambda spec: spec.length <= 6)
    return dg.ProductLattice(((draw(small), draw(ratios)), (draw(small), draw(ratios))))


@pytest.mark.filterwarnings("ignore::decaygraph.DegenerateAmbiguity")
@SETTINGS
@given(st.one_of(rings(), circulants(), chains, products()), ratios, st.data())
def test_gauge_sweep_matches_schur_where_schur_certifies(spec, t, data):
    h = dg.build(spec, t)
    exact = dg.closed_form(spec, t)
    cfg = dg.default_drive_config(h, exact, data.draw(st.integers(0, h.dim - 1)))
    cfg = dataclasses.replace(cfg, omega_grid=cfg.omega_grid[::50])
    bound = dg.response.SOLVE_RESIDUAL_FACTOR * cfg.amplitude
    raw, schur = dg.raw_hamiltonian(h.matrix), {}
    for omega in cfg.omega_grid.tolist():
        try:
            schur[omega] = dg.steady_state(raw, cfg, omega).x
        except dg.SingularSystem:
            pass
    try:
        sweep = dg.frequency_sweep(h, cfg, exact)
    except dg.SingularSystem as exc:
        # a row may fail only where rounding x to doubles alone leaves a
        # residual near the bound, which the Schur route then meets or
        # misses by chance
        omega = float(re.search(r"omega=(\S+?):", str(exc)).group(1))
        if omega in schur:
            scale = abs(omega + 1j * cfg.gamma) + h.norm_inf()
            assert np.finfo(float).eps * scale * np.max(np.abs(schur[omega])) > 0.1 * bound
        return
    assert [p.omega for p in sweep] == cfg.omega_grid.tolist()
    for p in sweep:
        assert p.solve_residual <= bound
        if p.omega in schur:
            assert np.max(np.abs(p.x - schur[p.omega])) <= 1e-9 * np.max(np.abs(schur[p.omega]))


wide_ratios = st.floats(1 / 8, 8.0).filter(lambda t: t != 1.0)


@st.composite
def small_products(draw):
    axis = st.one_of(rings(8), circulants(8), st.builds(dg.ObcChain, st.integers(2, 8)))
    axis = axis.filter(lambda spec: spec.length <= 8)
    return dg.ProductLattice(((draw(axis), draw(wide_ratios)), (draw(axis), draw(wide_ratios))))


@st.composite
def equal_ring_products(draw):
    # S is the Kronecker sum of one axis's S with itself: large clusters
    ring, t = dg.SegmentedRing((("A", draw(st.integers(3, 8))),)), draw(wide_ratios)
    return dg.ProductLattice(((ring, t), (ring, t)))


@pytest.mark.filterwarnings("ignore::decaygraph.DegenerateAmbiguity")
@SETTINGS
@given(st.one_of(rings(64), circulants(64), st.builds(dg.ObcChain, st.integers(2, 64)), small_products(),
                 equal_ring_products()),
       wide_ratios)
def test_gauged_values_lie_within_their_bauer_fike_bounds(spec, t):
    # G = D^-1 H D is normal, so each gauged value lies within its residual
    # ||G u - E u||_2 of an exact eigenvalue: the closed form's, to rounding
    h = dg.build(spec, t)
    sys = dg.gauged_eigendecompose(h)
    exact = dg.closed_form(spec, t, h)
    gap = np.min(np.abs(sys.values[:, None] - exact.values[None, :]), axis=1)
    assert np.all(gap <= sys.meta["bauer_fike"] + 1e-12 * h.norm_inf())
    assert np.all(sys.meta["bauer_fike"] <= 1e-12 * h.norm_inf())  # finite, and tight


@st.composite
def axis_products(draw):
    # two or three axes of up to 6 sites, each with its own ratio
    axis = st.one_of(rings(6), circulants(6), st.builds(dg.ObcChain, st.integers(2, 6)))
    axis = axis.filter(lambda spec: spec.length <= 6)
    return dg.ProductLattice(tuple((draw(axis), draw(ratios)) for _ in range(draw(st.integers(2, 3)))))


@pytest.mark.filterwarnings("ignore::decaygraph.DegenerateAmbiguity")
@SETTINGS
@given(st.one_of(rings(), circulants(), chains, axis_products()), ratios)
def test_mode_values_are_the_closed_form_values_bit_for_bit(spec, t):
    # the drive's gauge route takes its poles from mode_values, the
    # closed form its eigenvalues: one formula, the same bits
    got = dg.mode_values(spec, t)
    assert got.tobytes() == dg.closed_form(spec, t).values.tobytes()


@pytest.mark.filterwarnings("ignore::decaygraph.DegenerateAmbiguity")
@SETTINGS
@given(st.one_of(rings(), circulants(), chains, axis_products()), ratios, st.data())
def test_transform_overlaps_are_the_closed_form_column_overlaps(spec, t, data):
    # the drive's selection without the basis: overlaps from the transforms
    # of D x against the dense closed-form columns, and the reported modes
    # built alone with the closed form's bits
    h, exact = dg.build(spec, t), dg.closed_form(spec, t)
    cfg = dg.default_drive_config(h, exact, data.draw(st.integers(0, h.dim - 1), label="source"))
    omega = float(cfg.omega_grid[data.draw(st.integers(0, 400), label="omega")])
    try:
        prof = dg.steady_state(h, cfg, omega)
    except dg.SingularSystem:
        reject()
    v = exact.right_vectors
    dense = np.abs(prof.x.conj() @ v) / (np.linalg.norm(v, axis=0) * np.linalg.norm(prof.x))
    assert np.max(np.abs(dg.response._mode_overlaps(h, prof.x) - dense)) <= 1e-12 * dense.max()
    got, want = dg.transform_mode_selection(prof, h), dg.mode_selection_check(prof, exact)
    assert (got.selected_mode, got.least_damped, got.matches) == (want.selected_mode, want.least_damped, want.matches)
    assert abs(got.overlap - want.overlap) <= 1e-12 * dense.max()
    modes = [got.selected_mode, got.least_damped]
    assert dg.spectra.closed_form_columns(h, modes).right_vectors.tobytes() == v[:, modes].tobytes()
