"""Decay-constant extraction, purity checks, and quantized charges."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import decaygraph as dg
from decaygraph import decay

from oracle_helpers import (
    loop_amplitude_charges,
    loop_combinatorial_charges,
    per_mode_pure_decay_check,
    polyfit_chain,
    traced_peak,
    union_find_synthesize,
)

T = 1.5

RING_29_1 = dg.SegmentedRing((("A", 29), ("B", 1)))
RING_FIG1E = dg.SegmentedRing((("A", 4), ("B", 11), ("A", 3), ("B", 12)))
RING_FIG3A = dg.SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4)))
FIG3C = np.array([2.0, 1.0, 0.0, 0.0, 0.0, -1.0, -2.0])
FIG3D = np.array([2.5, 1.5, 0.5, 0.0, 0.0, -0.5, -1.5, -2.5])


def least_damped_profile(spec, t):
    sys = dg.eigendecompose(dg.build(spec, t))
    return sys.profile(dg.least_damped_mode(sys)), sys


class TestExtractDecayConstants:
    def test_29_1_ratios_and_partition(self):
        profile, _ = least_damped_profile(RING_29_1, T)
        report = dg.extract_decay_constants(profile, RING_29_1, T)
        ratios = report.ratios_by_type()
        assert ratios["A"] == pytest.approx(T ** (-1 / 30), rel=1e-9)
        assert ratios["B"] == pytest.approx(T ** (-29 / 30), rel=1e-9)
        assert report.partition_sum == pytest.approx(1.0, abs=1e-9)
        assert report.localization_node == 29

    def test_multi_segment_shared_totals(self):
        # ratios depend only on the type totals: sum A = 7, sum B = 23 of 30
        profile, _ = least_damped_profile(RING_FIG1E, T)
        report = dg.extract_decay_constants(profile, RING_FIG1E, T)
        a_chains = [c for c in report.per_chain if c.chain_type == "A"]
        b_chains = [c for c in report.per_chain if c.chain_type == "B"]
        assert len(a_chains) == 2 and len(b_chains) == 2
        for c in a_chains:
            assert c.ratio == pytest.approx(T ** (-23 / 30), rel=1e-9)
        for c in b_chains:
            assert c.ratio == pytest.approx(T ** (-7 / 30), rel=1e-9)
        assert a_chains[0].ratio == pytest.approx(a_chains[1].ratio, rel=1e-9)
        assert report.partition_sum == pytest.approx(1.0, abs=1e-9)

    def test_obc_mode_flagged_impure(self):
        # oracle: build psi_m = rho^m sin(m theta) explicitly; its log-linear
        # fit residual is order unity
        n = 12
        theta = np.pi * 3 / (n + 1)
        m = np.arange(1, n + 1)
        psi = (T ** 0.5) ** m * np.sin(m * theta)
        report = dg.extract_decay_constants(psi, dg.ObcChain(n), T)
        assert report.purity > 1e-4

    def test_circulant_body_and_wrap(self):
        g = dg.validate_circulant(6, [1, 0, 1, 0, 1])
        sys = dg.closed_form(g, T)
        report = dg.extract_decay_constants(sys.profile(0), g, T)
        ratios = {c.chain_id: c.ratio for c in report.per_chain}
        assert ratios["body"] == pytest.approx(T ** (-1 / 6), rel=1e-12)
        assert ratios["wrap"] == pytest.approx(T ** (-5 / 6), rel=1e-12)
        assert report.partition_sum == pytest.approx(1.0, abs=1e-12)

    def test_uniform_ring_flat(self):
        ring = dg.SegmentedRing((("A", 8),))
        profile, _ = least_damped_profile(ring, T)
        report = dg.extract_decay_constants(profile, ring, T)
        assert report.per_chain[0].ratio == pytest.approx(1.0, abs=1e-10)
        assert report.partition_sum == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(dg.ChainTooShort):
            dg.extract_decay_constants(np.ones(5), RING_29_1, T)

    def test_underflow_guard(self):
        profile = np.ones(30)
        profile[3] = 1e-310
        with pytest.raises(dg.UnderflowSites):
            dg.extract_decay_constants(profile, RING_29_1, T)

    def test_zero_profile(self):
        with pytest.raises(dg.ZeroAmplitude):
            dg.extract_decay_constants(np.zeros(30), RING_29_1, T)


class TestPureDecayCheck:
    @pytest.mark.parametrize(
        "spec",
        [
            dg.validate_circulant(6, [1, 0, 1, 0, 1]),
            dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]),
            dg.SegmentedRing((("A", 13), ("B", 17))),
            RING_FIG1E,
        ],
    )
    def test_valid_specs_pass(self, spec):
        sys = dg.eigendecompose(dg.build(spec, T))
        result = dg.pure_decay_check(sys, spec, T)
        assert result.passed
        assert result.purity <= 1e-8
        assert result.cross_mode_deviation <= 1e-8

    def test_obc_fails(self):
        chain = dg.ObcChain(12)
        sys = dg.eigendecompose(dg.build(chain, T))
        result = dg.pure_decay_check(sys, chain, T)
        assert not result.passed
        assert result.purity > 1e-3

    @pytest.mark.parametrize("spec", [dg.ObcChain(12), RING_FIG1E])
    def test_cross_mode_deviation_matches_pairwise_loop(self, spec):
        sys = dg.eigendecompose(dg.build(spec, T))
        profiles = [sys.profile(n) for n in range(sys.dim)]
        want = max(
            float(np.max(np.abs(profiles[i] - profiles[j])))
            for i in range(len(profiles))
            for j in range(i + 1, len(profiles))
        )
        assert dg.pure_decay_check(sys, spec, T).cross_mode_deviation == want

    def test_degenerate_ring_handled(self):
        # equal segments give a real, doubly degenerate spectrum; the check
        # must judge each mixed pair by its subspace, not its vectors
        ring = dg.SegmentedRing((("A", 6), ("B", 6)))
        sys = dg.eigendecompose(dg.build(ring, 2.0))
        assert any(len(g) > 1 for g in sys.degenerate_groups())
        result = dg.pure_decay_check(sys, ring, 2.0)
        assert result.passed

    def test_degenerate_circulant_handled(self):
        g = dg.validate_circulant(4, [0, 1, 0])
        sys = dg.eigendecompose(dg.build(g, 2.0))
        assert any(len(grp) > 1 for grp in sys.degenerate_groups())
        result = dg.pure_decay_check(sys, g, 2.0)
        assert result.passed


def decay_system(spec, t, route):
    if route == "closed_form":
        return dg.closed_form(spec, t)
    return dg.eigendecompose(dg.build(spec, t))


class TestPureDecayOnePass:
    """One chain list and one report per check, equal to the per-mode reference."""

    @pytest.mark.parametrize("spec, t, route", [
        (dg.SegmentedRing((("A", 13), ("B", 17))), T, "closed_form"),
        (dg.SegmentedRing((("A", 13), ("B", 17))), T, "dense"),
        (dg.SegmentedRing((("A", 100), ("B", 200))), 1.05, "closed_form"),
        (RING_FIG1E, T, "closed_form"),
        (RING_FIG1E, T, "dense"),
        (dg.SegmentedRing((("A", 8),)), T, "closed_form"),
        (dg.SegmentedRing((("A", 8),)), T, "dense"),
        (dg.SegmentedRing((("A", 6), ("B", 6))), 2.0, "dense"),
        (dg.SegmentedRing((("A", 150), ("B", 150))), 1.5, "closed_form"),
        (dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]), T, "closed_form"),
        (dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]), T, "dense"),
        (dg.validate_circulant(4, [0, 1, 0]), 2.0, "dense"),
        (dg.ObcChain(12), T, "closed_form"),
        (dg.ObcChain(12), T, "dense"),
        (dg.ObcChain(13), T, "closed_form"),
    ], ids=[
        "two-segment", "two-segment-dense", "two-segment-300", "four-segment",
        "four-segment-dense", "uniform", "uniform-dense", "balanced-dense-swap",
        "balanced-300", "circulant", "circulant-dense", "circulant-dense-swap",
        "open-chain", "open-chain-dense", "open-chain-sine-nodes",
    ])
    def test_equals_per_mode_reference(self, spec, t, route):
        sys = decay_system(spec, t, route)
        assert dg.pure_decay_check(sys, spec, t) == per_mode_pure_decay_check(sys, spec, t)

    def test_underflow_raises_as_reference(self):
        ring = dg.SegmentedRing((("A", 500), ("B", 500)))
        sys = dg.closed_form(ring, 64.0)
        with pytest.raises(dg.DecayGraphError) as got:
            dg.pure_decay_check(sys, ring, 64.0)
        with pytest.raises(dg.DecayGraphError) as want:
            per_mode_pure_decay_check(sys, ring, 64.0)
        assert type(got.value) is type(want.value) is dg.UnderflowSites
        assert str(got.value) == str(want.value)

    def test_one_chain_list_and_one_report(self, monkeypatch):
        calls = []
        for name in ("spec_chains", "extract_decay_constants"):
            def counted(*args, _name=name, _original=getattr(decay, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(decay, name, counted)
        ring = dg.SegmentedRing((("A", 13), ("B", 17)))
        assert dg.pure_decay_check(dg.closed_form(ring, T), ring, T).passed
        assert sorted(calls) == ["extract_decay_constants", "spec_chains"]


class TestSubspacePurity:
    """A dense system's degenerate group is judged by the profile of its
    subspace, with no closed-form vector."""

    RING = dg.SegmentedRing((("A", 150), ("B", 150)))

    def test_balanced_ring_passes_without_the_closed_form(self, monkeypatch):
        sys = dg.gauged_eigendecompose(dg.build(self.RING, 1.5))

        def refuse(*args, **kwargs):
            raise AssertionError("the dense purity check built the closed form")

        monkeypatch.setattr(dg.spectra, "closed_form", refuse)
        assert sum(len(g) > 1 for g in sys.degenerate_groups()) == 149
        result = dg.pure_decay_check(sys, self.RING, 1.5)
        assert result.passed and result.purity <= 1e-12

    @pytest.mark.parametrize("spec, t, solve", [
        (dg.SegmentedRing((("A", 6), ("B", 6))), 2.0, dg.eigendecompose),
        (dg.validate_circulant(4, [0, 1, 0]), 2.0, dg.eigendecompose),
        (RING, 1.5, dg.gauged_eigendecompose),
    ], ids=["balanced-ring", "circulant", "balanced-300-gauged"])
    def test_group_profile_ignores_the_mixing(self, spec, t, solve):
        sys = solve(dg.build(spec, t))
        rng = np.random.default_rng(7)
        vectors = np.array(sys.right_vectors)
        groups = [g for g in sys.degenerate_groups() if len(g) > 1]
        for group in groups:
            z = rng.normal(size=(len(group), len(group))) + 1j * rng.normal(size=(len(group), len(group)))
            vectors[:, group] = vectors[:, group] @ np.linalg.qr(z)[0]
        mixed = dataclasses.replace(sys, right_vectors=vectors)
        want, got = (decay._mode_profiles(s, spec, t) for s in (sys, mixed))
        assert groups and not np.allclose(np.abs(vectors), np.abs(sys.right_vectors))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        # the pure profile: the closed form's, shared by every mode
        exact = dg.closed_form(spec, t).profile(0)
        for n in (n for g in groups for n in g):
            np.testing.assert_allclose(got[:, n], exact, rtol=1e-9, atol=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gauge_beyond_float64_raises_underflow(self):
        # the gauge of A400 B400 at t=64 spans far more than float64: sites
        # below AMPLITUDE_FLOOR read 0 instead of overflowing v / d
        ring = dg.SegmentedRing((("A", 400), ("B", 400)))
        sys = dataclasses.replace(dg.closed_form(ring, 64.0), meta={"route": "gauged_dense"})
        assert sum(len(g) > 1 for g in sys.degenerate_groups()) == 399
        with pytest.raises(dg.UnderflowSites):
            dg.pure_decay_check(sys, ring, 64.0)


class TestDecayProfileOneColumn:
    """decay_profile with no system builds its mode's closed-form column
    alone, with the bits of that column of the whole closed form."""

    SPECS = {
        "ring": (RING_FIG3A, T),
        "ring-degenerate": (dg.SegmentedRing((("A", 6), ("B", 6))), 2.0),
        "circulant": (dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]), T),
        "chain": (dg.ObcChain(12), 4.0),
        "product": (dg.ProductLattice((
            (dg.SegmentedRing((("A", 5), ("B", 3))), 2.0), (dg.validate_circulant(6, [1, 0, 1, 0, 1]), T),
        )), None),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_bits_equal_the_whole_closed_form(self, name, monkeypatch):
        spec, t = self.SPECS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dg.DegenerateAmbiguity)
            full = dg.closed_form(spec, t)
        want = decay._mode_profiles(full, spec, t)

        def refuse(*args, **kwargs):
            raise AssertionError("decay_profile built the whole closed form")

        monkeypatch.setattr(dg.spectra, "closed_form", refuse)
        assert dg.decay_profile(spec, t).tobytes() == want[:, dg.least_damped_mode(full)].tobytes()
        for mode in range(full.dim):
            assert dg.decay_profile(spec, t, mode=mode).tobytes() == want[:, mode].tobytes()

    def test_cap_ring_peaks_under_an_eighth_of_the_basis(self):
        ring = dg.SegmentedRing((("A", 2048), ("B", 2048)))
        profile, peak = traced_peak(lambda: dg.decay_profile(ring, 1.02))
        assert profile.shape == (4096,) and profile.max() == 1.0
        assert peak < 4096 * 4096 * 16 / 8


@st.composite
def fit_blocks(draw):
    """An (M, n) log-amplitude block and a site run on it: a cyclic run of
    2 to n sites, or the circulant wrap (n - 1, 0)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 40))
    noise = draw(arrays(float, (m, n), elements=st.floats(-1e3, 1e3)))
    trend = draw(arrays(float, (m, 1), elements=st.floats(-50, 50)))
    scale = draw(st.sampled_from([0.0, 1e-12, 1.0]))
    if draw(st.booleans()):
        sites = (n - 1, 0)
    else:
        start, length = draw(st.integers(0, n - 1)), draw(st.integers(2, n))
        sites = tuple((start + i) % n for i in range(length))
    return trend * np.arange(n) + scale * noise, sites


class TestFitChains:
    """One stacked fit per chain with the bits of a per-row np.polyfit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fit_blocks())
    def test_equals_polyfit_bit_for_bit(self, block):
        log_amp, sites = block
        got = np.column_stack(decay._fit_chains(log_amp, sites))
        want = np.array([polyfit_chain(row, sites) for row in log_amp])
        assert got.tobytes() == want.tobytes()

    def test_non_finite_rows_as_polyfit(self):
        log_amp = np.array([[0.0, 1.0, 2.5], [np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0]])
        got = np.column_stack(decay._fit_chains(log_amp, (0, 1, 2)))
        np.testing.assert_array_equal(got, [polyfit_chain(row, (0, 1, 2)) for row in log_amp])

    def test_single_site_run_raises(self):
        with pytest.raises(dg.ChainTooShort, match="chain spans 1 site"):
            decay._fit_chains(np.zeros((2, 5)), (3,))

    def test_pure_decay_check_makes_no_polyfit_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.polyfit called")

        monkeypatch.setattr(np, "polyfit", refuse)
        ring = dg.SegmentedRing((("A", 13), ("B", 17)))
        assert dg.pure_decay_check(dg.closed_form(ring, T), ring, T).passed


class TestAmplitudeCharges:
    def test_fig3a_values(self):
        cm = dg.charge_map(RING_FIG3A, T)
        want = np.zeros(25)
        want[[6, 21]] = 1.0   # sites 7 and 22
        want[[0, 14]] = -1.0  # sites 1 and 15
        np.testing.assert_allclose(cm.amplitude_charge, want, atol=1e-9)
        np.testing.assert_allclose(cm.combinatorial_charge, want, atol=0)

    def test_fig3c_vector(self):
        g = dg.validate_circulant(7, [1, 1, 0, 0, 1, 1])
        cm = dg.charge_map(g, T)
        np.testing.assert_allclose(cm.amplitude_charge, FIG3C, atol=1e-9)

    def test_fig3d_vector_on_synthesized_graph(self):
        g = dg.synthesize_charge_graph(FIG3D, T)
        cm = dg.charge_map(g)
        np.testing.assert_allclose(cm.amplitude_charge, FIG3D, atol=1e-9)

    def test_zero_amplitude_rejected(self):
        h = dg.build(RING_FIG3A, T)
        profile = np.ones(25)
        profile[3] = 0.0
        with pytest.raises(dg.ZeroAmplitude):
            dg.amplitude_charges(profile, h.edges, T)

    def test_scale_invariance(self):
        h = dg.build(RING_FIG3A, T)
        sys = dg.eigendecompose(h)
        profile = sys.profile(dg.least_damped_mode(sys))
        q1 = dg.amplitude_charges(profile, h.edges, T)
        q2 = dg.amplitude_charges(7.25 * profile, h.edges, T)
        np.testing.assert_allclose(q1, q2, atol=1e-12)


class TestCombinatorialCharges:
    def test_single_edge(self):
        q = dg.combinatorial_charges((dg.Edge(0, 1),), 2)
        assert q[0] == 0.5 and q[1] == -0.5

    def test_uniform_ring_all_zero(self):
        h = dg.build(dg.SegmentedRing((("A", 9),)), T)
        q = dg.combinatorial_charges(h.edges, h.dim)
        assert np.all(q == 0.0)

    def test_2d_junction_charges(self):
        # two 4-segment rings crossed: corner charges add to +-2
        ring_x = RING_FIG3A
        ring_y = dg.SegmentedRing((("A", 5), ("B", 3), ("A", 2), ("B", 6)))
        p = dg.ProductLattice(((ring_x, T), (ring_y, T)))
        h = dg.build_product_lattice(p)
        q = dg.combinatorial_charges(h.edges, h.dim)
        assert set(np.unique(q)) == {-2.0, -1.0, 0.0, 1.0, 2.0}
        qx = dg.combinatorial_charges(dg.build(ring_x, T).edges, 25)
        qy = dg.combinatorial_charges(dg.build(ring_y, T).edges, 16)
        np.testing.assert_allclose(q, (qx[:, None] + qy[None, :]).ravel(), atol=0)

    def test_conservation_exact(self):
        h = dg.build(dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]), T)
        q = dg.combinatorial_charges(h.edges, h.dim)
        assert q.sum() == 0.0


def kernel_cases():
    """(edges, ts, n, profiles) on a ring, a three-axis product with distinct
    t per axis, a transposed ring and a synthesized graph."""
    rng = np.random.default_rng(3)
    ring = dg.build(RING_FIG3A, T)
    product = dg.build(dg.ProductLattice((
        (dg.SegmentedRing((("A", 4), ("B", 3))), 1.5),
        (dg.validate_circulant(5, [1, 1, 1, 1]), 0.4),
        (dg.SegmentedRing((("A", 3),)), 2.75),
    )))
    synth = dg.synthesize_charge_graph(FIG3D, T)
    cases = [(h.edges, h.ts, h.dim) for h in (ring, product, dg.transpose(ring))]
    cases.append((synth.edges, synth.t, synth.n_nodes))
    out = []
    for edges, ts, n in cases:
        phases = np.exp(1j * rng.uniform(0, 6, n))
        profiles = [rng.uniform(1e-3, 1.0, n), rng.uniform(1e-3, 1.0, n) * phases]
        out.append((edges, ts, n, profiles))
    out[0][3].append(dg.decay_profile(RING_FIG3A, T))
    out[3][3].append(synth.profile)
    return out


class TestEdgeKernels:
    @pytest.mark.parametrize("case", range(4), ids=["ring", "product3", "transposed", "synthesized"])
    def test_bit_identical_to_edge_loops(self, case):
        edges, ts, n, profiles = kernel_cases()[case]
        np.testing.assert_array_equal(
            dg.combinatorial_charges(edges, n), loop_combinatorial_charges(edges, n)
        )
        for profile in profiles:
            np.testing.assert_array_equal(
                dg.amplitude_charges(profile, edges, ts), loop_amplitude_charges(profile, edges, ts)
            )

    def test_synthesized_laplacian_matches_edge_loop(self):
        g = dg.synthesize_charge_graph(FIG3D, T)
        lap = np.zeros((g.n_nodes, g.n_nodes))
        for e in g.edges:
            lap[e.tail, e.tail] += 1.0
            lap[e.head, e.head] += 1.0
            lap[e.tail, e.head] -= 1.0
            lap[e.head, e.tail] -= 1.0
        w = np.linalg.lstsq(lap, FIG3D, rcond=None)[0]
        np.testing.assert_array_equal(g.profile, T ** (w - w.max()))


class TestVerifyChargeEquality:
    def test_fig3a(self):
        sigma, dev = dg.verify_charge_equality(RING_FIG3A, T)
        assert sigma == 1 and dev <= 1e-9

    def test_circulant(self):
        sigma, dev = dg.verify_charge_equality(dg.validate_circulant(6, [1, 0, 1, 0, 1]), T)
        assert sigma == 1 and dev <= 1e-9

    def test_degenerate_least_damped_ring(self):
        # L = 12, N = M: least-damped ties into a degenerate real pair
        ring = dg.SegmentedRing((("A", 6), ("B", 6)))
        sigma, dev = dg.verify_charge_equality(ring, 2.0)
        assert sigma == 1 and dev <= 1e-9

    def test_transpose_negates_charges(self):
        h = dg.build(RING_FIG3A, T)
        ht = dg.transpose(h)
        sys_t = dg.eigendecompose(ht)
        profile = sys_t.profile(dg.least_damped_mode(sys_t))
        q_amp = dg.amplitude_charges(profile, ht.edges, T)
        q_comb = dg.combinatorial_charges(ht.edges, ht.dim)
        cm = dg.charge_map(RING_FIG3A, T)
        np.testing.assert_allclose(q_amp, -cm.amplitude_charge, atol=1e-9)
        np.testing.assert_allclose(q_comb, -cm.combinatorial_charge, atol=0)

    def test_convention_mismatch_detected(self):
        # feeding the transposed profile with the original edge list flips sigma
        h = dg.build(RING_FIG3A, T)
        g = dg.synthesize_charge_graph(-FIG3D, T)
        flipped = dg.SynthesizedChargeGraph(
            g.n_nodes, tuple(dg.Edge(e.head, e.tail) for e in g.edges), g.t, g.profile, g.target
        )
        with pytest.raises(dg.ConventionMismatch):
            dg.verify_charge_equality(flipped)


class TestChargeMapProperties:
    @pytest.mark.parametrize(
        "spec",
        [
            RING_29_1,
            RING_FIG3A,
            dg.validate_circulant(6, [1, 0, 1, 0, 1]),
            dg.validate_circulant(7, [1, 1, 0, 0, 1, 1]),
        ],
    )
    def test_quantized_and_conserved(self, spec):
        cm = dg.charge_map(spec, T)
        assert cm.quantized
        assert abs(cm.total) <= 1e-9
        doubled = 2 * cm.amplitude_charge
        np.testing.assert_allclose(doubled, np.round(doubled), atol=2e-9)

    def test_2d_additivity(self):
        ring_x = dg.SegmentedRing((("A", 3), ("B", 5)))
        ring_y = dg.SegmentedRing((("A", 4), ("B", 2)))
        p = dg.ProductLattice(((ring_x, 1.5), (ring_y, 2.0)))
        cm = dg.charge_map(p)
        qx = dg.charge_map(ring_x, 1.5).amplitude_charge
        qy = dg.charge_map(ring_y, 2.0).amplitude_charge
        np.testing.assert_allclose(cm.amplitude_charge, (qx[:, None] + qy[None, :]).ravel(), atol=1e-9)
        assert cm.quantized

    def test_product_checks_least_and_most_damped_profiles(self):
        axes = ((dg.SegmentedRing((("A", 3), ("B", 2))), 1.3), (dg.SegmentedRing((("A", 4), ("B", 3))), 1.7))
        p = dg.ProductLattice(axes)
        # reference: per axis, |v| of the least- and most-damped closed-form
        # modes (the next mode if they coincide), joined by outer products
        least, most = np.ones(1), np.ones(1)
        for spec, t in axes:
            sys = dg.closed_form(spec, t)
            sel = dg.least_damped_mode(sys)
            low = int(np.argmin(sys.values.imag))
            low = (sel + 1) % sys.dim if low == sel else low
            least = np.multiply.outer(least, np.abs(sys.right_vectors[:, sel])).ravel()
            most = np.multiply.outer(most, np.abs(sys.right_vectors[:, low])).ravel()
        h = dg.build(p)
        q_comb = dg.combinatorial_charges(h.edge_array, h.dim)
        q_least, q_most = (dg.amplitude_charges(prof, h.edge_array, h.ts) for prof in (least, most))
        cm = dg.charge_map(p)
        assert cm.amplitude_charge.tobytes() == q_least.tobytes()
        assert cm.dev_plus == max(float(np.max(np.abs(q - q_comb))) for q in (q_least, q_most))

    def test_charges_insensitive_to_hopping_strength(self):
        for t in (1.2, 2.0, 3.7):
            cm = dg.charge_map(RING_FIG3A, t)
            want = np.zeros(25)
            want[[6, 21]] = 1.0
            want[[0, 14]] = -1.0
            np.testing.assert_allclose(cm.amplitude_charge, want, atol=1e-9)


class TestChargesFromFit:
    @pytest.mark.parametrize(
        "spec",
        [RING_29_1, RING_FIG1E, dg.validate_circulant(6, [1, 0, 1, 0, 1])],
    )
    def test_fitted_matches_raw(self, spec):
        h = dg.build(spec, T)
        sys = dg.eigendecompose(h)
        sel = dg.least_damped_mode(sys)
        profile = dg.decay_profile(spec, T, sys, sel)
        report = dg.extract_decay_constants(profile, spec, T)
        q_raw = dg.amplitude_charges(profile, h.edges, h.ts)
        q_fit = dg.charges_from_fit(report, spec, h)
        np.testing.assert_allclose(q_fit, q_raw, atol=1e-9)


class TestBfsParents:
    """The level-synchronous breadth-first search reproduces scipy's
    breadth_first_order predecessors."""

    @staticmethod
    def reference(adj, start):
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import breadth_first_order

        parent = breadth_first_order(csr_array(adj), start, return_predecessors=True)[1]
        return np.where(parent < 0, -1, parent)

    def test_random_dense_graphs(self):
        rng = np.random.default_rng(29)
        for _ in range(400):
            n = int(rng.integers(1, 40))
            adj = rng.random((n, n)) < rng.uniform(0.0, 0.5)
            if rng.integers(0, 2):
                adj |= adj.T  # the symmetric free-pair matrices the synthesis searches
            start = int(rng.integers(0, n))
            assert np.array_equal(decay._bfs_parents(adj, start), self.reference(adj, start))

    def test_isolated_start(self):
        adj = np.ones((4, 4), dtype=bool)
        adj[2], adj[:, 2] = False, False
        assert decay._bfs_parents(adj, 2).tolist() == [-1, -1, -1, -1]


class TestSynthesizeChargeGraph:
    def test_fig3c_target(self):
        g = dg.synthesize_charge_graph(FIG3C, T)
        np.testing.assert_allclose(
            dg.combinatorial_charges(g.edges, g.n_nodes), FIG3C, atol=0
        )
        sigma, dev = dg.verify_charge_equality(g)
        assert sigma == 1 and dev <= 1e-9

    def test_fig3d_target(self):
        g = dg.synthesize_charge_graph(FIG3D, T)
        np.testing.assert_allclose(
            dg.combinatorial_charges(g.edges, g.n_nodes), FIG3D, atol=0
        )
        sigma, dev = dg.verify_charge_equality(g)
        assert sigma == 1 and dev <= 1e-9

    def test_simple_pair_target(self):
        g = dg.synthesize_charge_graph([0.5, -0.5], 2.0)
        assert g.edges == (dg.Edge(0, 1),)
        assert g.profile[0] > g.profile[1]

    def test_matrix_is_binary_weighted(self):
        g = dg.synthesize_charge_graph(FIG3D, T)
        nz = g.matrix[g.matrix != 0]
        assert set(np.unique(nz)) == {1.0, T}

    def test_rejects_unbalanced(self):
        with pytest.raises(dg.DecayGraphError):
            dg.synthesize_charge_graph([1.0, 0.0], T)

    def test_rejects_non_half_integer(self):
        with pytest.raises(dg.DecayGraphError):
            dg.synthesize_charge_graph([0.3, -0.3], T)

    def test_random_targets_round_trip(self):
        # feasible targets by construction: charges of random simple digraphs
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    draw = rng.random()
                    if draw < 0.35:
                        edges.append(dg.Edge(i, j))
                    elif draw < 0.7:
                        edges.append(dg.Edge(j, i))
            if not edges:
                continue
            target = dg.combinatorial_charges(tuple(edges), n)
            g = dg.synthesize_charge_graph(target, 1.5)
            np.testing.assert_allclose(
                dg.combinatorial_charges(g.edges, g.n_nodes), target, atol=0
            )
            sigma, dev = dg.verify_charge_equality(g)
            assert sigma == 1 and dev <= 1e-9

    def test_disconnected_greedy_result_is_stitched(self):
        # the greedy phase leaves nodes 2 and 3 isolated; one 3-cycle joins them
        g = dg.synthesize_charge_graph([0.5, -0.5, 0, 0], T)
        assert g.edges == (dg.Edge(0, 1), dg.Edge(0, 2), dg.Edge(2, 3), dg.Edge(3, 0))

    def test_matches_union_find_stitching(self):
        rng = np.random.default_rng(2024)
        targets = [[0.5, -0.5, 0, 0], [0, 0, 0], [0, 0, 0, 0, 0, 0], [1.5, -1.5, 0.5, -0.5], FIG3C, FIG3D]
        while len(targets) < 400:
            doubled = rng.integers(-3, 4, int(rng.integers(2, 10)))
            doubled[-1] -= doubled.sum()
            targets.append(doubled / 2)
        outcomes = {"ok": 0, "error": 0}
        for target in targets:
            try:
                want = union_find_synthesize(target, T)
            except dg.DecayGraphError as exc:
                with pytest.raises(type(exc)) as got:
                    dg.synthesize_charge_graph(target, T)
                assert str(got.value) == str(exc)
                outcomes["error"] += 1
                continue
            g = dg.synthesize_charge_graph(target, T)
            assert g.edges == want[0]
            assert g.profile.tobytes() == want[1].tobytes()
            outcomes["ok"] += 1
        assert outcomes["ok"] > 250 and outcomes["error"] > 0

    def test_unit_routed_through_an_intermediate_node(self):
        # the second unit 0 -> 1 finds the pair used and goes 0 -> 2 -> 1
        g = dg.synthesize_charge_graph([1.0, -1.0, 0.0], T)
        assert g.edges == (dg.Edge(0, 1), dg.Edge(0, 2), dg.Edge(2, 1))

    def test_matches_the_hand_written_search_on_steep_targets(self):
        # |2 q| up to n - 1: units need routing, components need stitching,
        # and some targets run out of node pairs
        rng = np.random.default_rng(11)
        outcomes = {"ok": 0, "error": 0, "more edges than units": 0}
        for _ in range(600):
            n = int(rng.integers(2, 12))
            doubled = rng.integers(1 - n, n, n)
            doubled[-1] -= doubled.sum()
            target = doubled / 2
            try:
                want = union_find_synthesize(target, T)
            except dg.DecayGraphError as exc:
                with pytest.raises(type(exc)) as got:
                    dg.synthesize_charge_graph(target, T)
                assert str(got.value) == str(exc)
                outcomes["error"] += 1
                continue
            g = dg.synthesize_charge_graph(target, T)
            assert g.edges == want[0]
            assert g.profile.tobytes() == want[1].tobytes()
            outcomes["ok"] += 1
            outcomes["more edges than units"] += len(g.edges) > doubled[doubled > 0].sum()
        assert min(outcomes.values()) > 100, outcomes
