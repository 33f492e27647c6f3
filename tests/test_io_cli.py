"""Spec documents, exports, and the command-line pipeline."""

import contextlib
import hashlib
import io as io_module
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decaygraph as dg
from decaygraph import cli, decay, io, lattice, response, spectra

from oracle_helpers import (
    dense_hamiltonian_csv,
    per_float_rows,
    per_row_charges_csv,
    per_row_profiles_csv,
    per_row_spectrum_csv,
    per_row_sweep_csv,
    traced_peak,
)

# signed zeros, subnormals, extremes and non-finite values
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300, -1e300,
                    1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan, 1.0, -3.5])

# where repr's notation switches (1e-4, 1e16), where orjson's does (1e-5,
# 1e16) and where io._rows changes how it rewrites a value (1e-9), plus the
# float range's ends; each with its neighbours
NOTATION_EDGES = [1e-9, 1e-5, 1e-4, 1e16, 9999999999999998.0, 5e-324, 1.7976931348623157e308]
with np.errstate(over="ignore"):
    EDGES = np.concatenate([np.nextafter(NOTATION_EDGES, 0.0), NOTATION_EDGES,
                            np.nextafter(NOTATION_EDGES, np.inf)])
BOUNDARY = np.concatenate([EDGES, -EDGES, [0.0, -0.0, np.inf, -np.inf, np.nan]])

def assert_same_csv(got: str, want: str) -> None:
    """Exact equality of two exports, reported by line count and first
    differing line: pytest's own diff of multi-megabyte strings can run for
    minutes before it reports."""
    if got == want:
        return
    ours, theirs = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs)))
    where = f"first difference at line {first + 1}"
    assert len(ours) == len(theirs), f"{len(ours)} lines against {len(theirs)}, {where}"
    raise AssertionError(f"{where}: {ours[first]!r} against {theirs[first]!r}")


def assert_same_chunks(chunks, want: str, width: int) -> None:
    """The chunks joined are ``want``: the header line, then blocks of whole
    rows, each at most max(ROWS_PER_DUMP, width) rows."""
    chunks = list(chunks)
    assert_same_csv("".join(chunks), want)
    assert chunks[0] == want[:want.index("\n") + 1]
    for chunk in chunks[1:]:
        assert chunk[-1:] in ("", "\n") and chunk.count("\n") <= max(io.ROWS_PER_DUMP, width)


RING_DOC = (
    '{"lattice":{"kind":"ring","t":1.5,'
    '"segments":[{"type":"A","len":29},{"type":"B","len":1}]}}'
)
CIRC_DOC = '{"lattice":{"kind":"circulant","t":1.5,"n":6,"a":[1,0,1,0,1]}}'
OBC_DOC = '{"lattice":{"kind":"obc_chain","t":1.5,"n":12}}'
PRODUCT_DOC = json.dumps(
    {
        "lattice": {
            "kind": "product",
            "axes": [
                {"kind": "ring", "t": 1.5, "segments": [{"type": "A", "len": 30}]},
                {
                    "kind": "ring",
                    "t": 2.0,
                    "segments": [{"type": "A", "len": 5}, {"type": "B", "len": 3}],
                },
            ],
        }
    }
)
RAW_DOC = json.dumps(
    {"lattice": {"kind": "raw", "dim": 2, "t": 2.0, "entries": [[1, 2, 2.0, 0.0], [2, 1, 1.0, 0.0]]}}
)

# numbers int() would truncate, each with the error that names its field
NON_INTEGRAL = {
    "ring_len": ('{"lattice": {"kind": "ring", "t": 1.5, "segments": '
                 '[{"type": "A", "len": 2.5}, {"type": "B", "len": 3}]}}',
                 r"lattice\.segments\[0\]\.len: expected an integer, got 2\.5"),
    "circulant_n": ('{"lattice": {"kind": "circulant", "t": 1.5, "n": 6.9, "a": [1, 0, 0, 0, 1]}}',
                    r"lattice\.n: expected an integer, got 6\.9"),
    "circulant_a": ('{"lattice": {"kind": "circulant", "t": 1.5, "n": 6, "a": [1, 0.5, 1, 0.5, 1]}}',
                    r"lattice: connectivity entry a\[2\] must be 0 or 1, got 0\.5"),
    "raw_row": ('{"lattice": {"kind": "raw", "dim": 2, "entries": [[1.9, 2, 1.0, 0.0], [2, 1, 1.0, 0.0]]}}',
                r"lattice\.entries\[0\] row: expected an integer, got 1\.9"),
}


class TestParse:
    @pytest.mark.parametrize("case", NON_INTEGRAL)
    def test_non_integral_number_is_refused(self, case):
        text, message = NON_INTEGRAL[case]
        with pytest.raises(dg.ValidationError, match=f"^{message}$"):
            io.parse_spec(text)

    def test_integral_float_is_accepted(self):
        doc = io.parse_spec('{"lattice": {"kind": "circulant", "t": 1.5, "n": 6.0, "a": [1, 0, 0.0, 0, 1.0]}}')
        assert doc.spec == dg.validate_circulant(6, [1, 0, 0, 0, 1])

    def test_ring_round_trip_of_29_1(self):
        doc = io.parse_spec(RING_DOC)
        assert doc.spec == dg.SegmentedRing((("A", 29), ("B", 1)))
        assert doc.t == 1.5

    def test_symmetry_violation_surfaces(self):
        bad = '{"lattice":{"kind":"circulant","n":4,"a":[1,0,0],"t":2}}'
        with pytest.raises(dg.ValidationError) as err:
            io.parse_spec(bad)
        assert isinstance(err.value.__cause__, dg.SymmetryViolation)
        assert err.value.__cause__.offset == 1

    def test_product_fig2e_document(self):
        doc = io.parse_spec(PRODUCT_DOC)
        assert doc.kind == "product"
        h = doc.build()
        assert h.dim == 240

    def test_malformed_json_has_position(self):
        with pytest.raises(dg.ParseError) as err:
            io.parse_spec('{"lattice": {"kind": "ring",}}')
        assert err.value.line is not None

    def test_missing_field_named(self):
        with pytest.raises(dg.ValidationError, match="segments"):
            io.parse_spec('{"lattice":{"kind":"ring","t":1.5}}')

    def test_unknown_kind(self):
        with pytest.raises(dg.ValidationError, match="kind"):
            io.parse_spec('{"lattice":{"kind":"mobius","t":1.5}}')

    def test_raw_document(self):
        doc = io.parse_spec(RAW_DOC)
        h = doc.build()
        assert np.array_equal(h.matrix, [[0.0, 2.0], [1.0, 0.0]])
        assert len(h.edges) == 1

    @pytest.mark.parametrize("text", [RING_DOC, CIRC_DOC, OBC_DOC, PRODUCT_DOC, RAW_DOC])
    def test_round_trip(self, text):
        doc = io.parse_spec(text)
        assert io.parse_spec(io.serialize_spec(doc)) == doc


class TestExports:
    def test_hamiltonian_csv(self):
        h = dg.build_circulant_hamiltonian(dg.validate_circulant(2, [1]), 2.0)
        assert io.hamiltonian_csv(h) == "row,col,real,imag\n1,2,2.0,0.0\n2,1,1.0,0.0\n"

    def test_spectrum_csv_header(self):
        sys = dg.eigendecompose(dg.build(dg.ObcChain(2), 4.0))
        text = io.spectrum_csv(sys.values)
        lines = text.strip().split("\n")
        assert lines[0] == "n,re_E,im_E"
        assert float(lines[1].split(",")[1]) == pytest.approx(-2.0, abs=1e-12)

    def test_charges_csv_one_based(self):
        cm = dg.charge_map(dg.SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4))), 1.5)
        lines = io.charges_csv(cm).strip().split("\n")
        assert lines[0] == "node,Q_amplitude,Q_combinatorial"
        assert len(lines) == 26
        row7 = lines[7].split(",")
        assert row7[0] == "7" and float(row7[1]) == pytest.approx(1.0, abs=1e-9)

    def test_profiles_csv_shape(self):
        sys = dg.eigendecompose(dg.build(dg.ObcChain(3), 2.0))
        lines = io.profiles_csv(sys).strip().split("\n")
        assert lines[0] == "n,site,re_psi,im_psi,abs_psi"
        assert len(lines) == 1 + 9

    def test_sweep_csv(self):
        h = dg.build(dg.ObcChain(2), 4.0)
        sys = dg.eigendecompose(h)
        cfg = dg.DriveConfig(0, 1.0, np.array([0.0, 1.0]))
        sweep = dg.frequency_sweep(h, cfg, sys)
        lines = io.sweep_csv(cfg.omega_grid, sweep).strip().split("\n")
        assert lines[0] == "omega,node,abs_x,re_x,im_x"
        assert len(lines) == 1 + 2 * 2

    @staticmethod
    def special_profiles():
        """40 (omega, x) of 1 to 59 nodes: magnitudes from 1e-300 to 1e300,
        signed zeros, subnormals and non-finite parts, in complex and in
        real rows."""
        rng = np.random.default_rng(7)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                            1e-300, -1e300, np.inf, -np.inf, np.nan])
        profiles = []
        for k in range(40):
            n = int(rng.integers(1, 60))
            mag = 10.0 ** rng.uniform(-300, 300, (2, n)) * rng.choice([-1.0, 1.0], (2, n))
            mag[rng.random((2, n)) < 0.2] = rng.choice(special, 1)[0]
            x = mag[0].copy()
            if k % 4:
                x = x.astype(complex)
                x.imag = mag[1]
            omega = float(rng.choice([-0.0, 1e-310, rng.uniform(-5, 5)]))
            profiles.append((omega, x))
        return profiles

    def test_sweep_csv_matches_per_row_formatter(self):
        # each profile of its own length, a one-frequency sweep
        for omega, x in self.special_profiles():
            assert_same_csv(io.sweep_csv([omega], x[None]), per_row_sweep_csv([omega], x[None]))
        empty = np.zeros((0, 0))
        assert_same_csv(io.sweep_csv([], empty), per_row_sweep_csv([], empty))

    def test_sweep_chunks_join_to_the_per_row_formatter(self):
        for omega, x in self.special_profiles():
            assert_same_chunks(io.sweep_chunks([omega], x[None]), per_row_sweep_csv([omega], x[None]), 59)
        # 401 frequencies of 30 nodes: 12030 rows, in blocks of 136 frequencies
        parts = self.seeded(np.random.default_rng(17), (2, 401, 30))
        x = parts[0].astype(complex)
        x.imag = parts[1]
        omegas = np.linspace(-3, 3, 401)
        chunks = list(io.sweep_chunks(omegas, x))
        assert len(chunks) == 1 + 3
        with np.errstate(over="ignore"):
            assert_same_chunks(chunks, per_row_sweep_csv(omegas, x), 30)

    def test_profiles_chunks_join_to_the_per_row_formatter(self):
        # 80 modes of 80 sites: 6400 rows, one full block of 51 modes and a part
        parts = self.seeded(np.random.default_rng(19), (2, 80, 80))
        x = parts[0].astype(complex)
        x.imag = parts[1]
        with np.errstate(invalid="ignore", over="ignore"):
            vectors = x / np.maximum(np.abs(x), 1.0)
        sys = dg.EigenSystem(x[0], vectors, None, np.zeros(80), 1.0, 1e-10)
        chunks = list(io.profiles_chunks(sys))
        assert len(chunks) == 1 + 2
        with np.errstate(over="ignore"):
            assert_same_chunks(chunks, per_row_profiles_csv(sys), 80)

    @staticmethod
    def seeded(rng, shape):
        """Magnitudes from 1e-300 to 1e300 with about a third replaced by SPECIAL."""
        x = 10.0 ** rng.uniform(-300, 300, shape) * rng.choice([-1.0, 1.0], shape)
        mask = rng.random(shape) < 0.3
        x[mask] = rng.choice(SPECIAL, int(mask.sum()))
        return x

    def test_exports_match_per_row_formatters(self):
        rng = np.random.default_rng(11)
        for k in range(40):
            n = int(rng.integers(1, 25))
            parts = self.seeded(rng, (2, n, n))
            x = parts[0].copy()
            if k % 4:
                x = x.astype(complex)
                x.imag = parts[1]
            # max-normalized like every solver's right vectors, so |v| <= 1
            with np.errstate(invalid="ignore"):
                vectors = x / np.maximum(np.abs(x), 1.0)
            sys = dg.EigenSystem(x[0], vectors, None, np.zeros(n), 1.0, 1e-10)
            assert_same_csv(io.spectrum_csv(x[0]), per_row_spectrum_csv(x[0]))
            assert_same_csv(io.profiles_csv(sys), per_row_profiles_csv(sys))
            cm = dg.ChargeMap(parts[0, 0], parts[1, 0], 0.0, True, 0.0, 0.0)
            assert_same_csv(io.charges_csv(cm), per_row_charges_csv(cm))
            h = dg.raw_hamiltonian(x)
            assert_same_csv(io.hamiltonian_csv(h), dense_hamiltonian_csv(h))
        empty = dg.EigenSystem(np.zeros(0), np.zeros((0, 0)), None, np.zeros(0), 1.0, 1e-10)
        assert_same_csv(io.profiles_csv(empty), per_row_profiles_csv(empty))
        assert_same_csv(io.spectrum_csv(np.zeros(0)), per_row_spectrum_csv(np.zeros(0)))

    def test_modulus_above_the_float_max_is_written_as_inf(self):
        big = 1.7976931348623157e308 + 1.7976931348623157e308j
        x = np.array([1.0 - 2.0j, big, -0.0j])
        profiles = [([0.5], x[None]), ([1.0], x[None, [0, 2]])]
        sys = dg.EigenSystem(x, np.stack([x, x[::-1], x], axis=1), None, np.zeros(3), 1.0, 1e-10)
        with np.errstate(over="ignore"):
            for omegas, rows in profiles:
                assert_same_csv(io.sweep_csv(omegas, rows), per_row_sweep_csv(omegas, rows))
            assert_same_csv(io.profiles_csv(sys), per_row_profiles_csv(sys))
        assert io.sweep_csv(*profiles[0]).splitlines()[2] == (
            "0.5,2,inf,1.7976931348623157e+308,1.7976931348623157e+308"
        )

    def test_hypot_has_numpy_scalar_abs_bits(self):
        # profiles_csv and sweep_csv take np.hypot of the parts (io._modulus)
        # where the per-row formatters took numpy's scalar abs
        re, im = np.meshgrid(SPECIAL, SPECIAL)
        rng = np.random.default_rng(3)
        z = np.concatenate([re.ravel(), self.seeded(rng, 4000)]).astype(complex)
        z.imag = np.concatenate([im.ravel(), self.seeded(rng, 4000)])
        ours = np.array(io._modulus(z))
        with np.errstate(over="ignore"):
            theirs = np.array([abs(v) for v in z])
        # a finite value whose modulus passes the float max gives inf on both
        assert np.any(np.isfinite(z) & np.isinf(theirs))
        nan = np.isnan(theirs)
        assert np.array_equal(np.isnan(ours), nan)  # NaN payloads differ; repr does not show them
        assert np.array_equal(ours[~nan].view(np.uint64), theirs[~nan].view(np.uint64))


class TestFloatKernel:
    @staticmethod
    def leads(n):
        """Two lead columns of n rows, and the one column of them joined."""
        first = [repr(i / 3) for i in range(n)]
        second = [str(i + 1) for i in range(n)]
        return first, second, [f"{a},{b}" for a, b in zip(first, second)]

    def check(self, block):
        first, second, joined = self.leads(len(block))
        want = per_float_rows(joined, block)
        assert_same_csv(io._rows(block, joined), want)
        assert_same_csv(io._rows(block, first, second), want)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1))
    def test_matches_repr_on_any_float(self, values):
        x = np.asarray(values, dtype=float)
        self.check(x.reshape(-1, 1))
        self.check(x.reshape(1, -1))

    def test_matches_repr_on_raw_bit_patterns(self):
        bits = np.random.default_rng(13).integers(0, 2**64, 1 << 20, dtype=np.uint64)
        self.check(bits.view(float).reshape(-1, 4))  # more rows than one dump takes

    def test_notation_boundaries(self):
        self.check(BOUNDARY.reshape(-1, 1))
        self.check(BOUNDARY.reshape(1, -1))
        assert io._rows(np.array([[1e-5, 1e-4, 1e16, -1.5e-7]]), ["a"]) == "a,1e-05,0.0001,1e+16,-1.5e-07\n"
        assert io._rows(np.zeros((0, 3)), []) == ""

    def test_exports_at_the_boundaries(self):
        re, im = (part.ravel() for part in np.meshgrid(BOUNDARY, BOUNDARY))
        z = re + 0j
        z.imag = im
        with np.errstate(over="ignore"):
            assert np.any(np.isfinite(z) & np.isinf(np.abs(z)))  # a modulus that overflows to inf
            grid = np.broadcast_to(z, (len(BOUNDARY), len(z)))  # z at every omega
            assert_same_csv(io.sweep_csv(BOUNDARY, grid), per_row_sweep_csv(BOUNDARY, grid))
            sys = dg.EigenSystem(z[:len(BOUNDARY)], z.reshape(len(BOUNDARY), -1), None,
                                 np.zeros(len(BOUNDARY)), 1.0, 1e-10)
            assert_same_csv(io.profiles_csv(sys), per_row_profiles_csv(sys))
        assert_same_csv(io.spectrum_csv(z), per_row_spectrum_csv(z))
        cm = dg.ChargeMap(re, im, 0.0, True, 0.0, 0.0)
        assert_same_csv(io.charges_csv(cm), per_row_charges_csv(cm))
        h = dg.raw_hamiltonian(z.reshape(len(BOUNDARY), -1))
        assert_same_csv(io.hamiltonian_csv(h), dense_hamiltonian_csv(h))


class TestRowBlocks:
    """sweep_csv and profiles_csv with blocks that straddle frequencies and
    modes: ROWS_PER_DUMP is cut to 7 rows."""

    @pytest.fixture(autouse=True)
    def seven_rows(self, monkeypatch):
        monkeypatch.setattr(io, "ROWS_PER_DUMP", 7)

    @pytest.mark.parametrize("lengths", [
        [3, 3, 3, 3, 3],  # equal, two per block
        [0, 0],  # no rows: ROWS_PER_DUMP // 0 would fail
        [],
        [10, 9, 16, 10],  # more nodes than one block: each its own one-frequency sweep
    ], ids=["equal", "all-zero-length", "empty", "above-block"])
    def test_sweep(self, lengths):
        rng = np.random.default_rng(len(lengths))
        omegas, rows = [], []
        for k, n in enumerate(lengths):
            x = TestExports.seeded(rng, n)
            if k % 3:  # real and complex rows in one block
                x = x.astype(complex)
                x.imag = TestExports.seeded(rng, n)
            omegas.append(float(rng.uniform(-5, 5)))
            rows.append(x)
        if len(set(lengths)) > 1:
            sweeps = [([w], x[None]) for w, x in zip(omegas, rows)]
        else:
            shape = (len(lengths), lengths[0] if lengths else 0)
            sweeps = [(omegas, np.array(rows, dtype=complex).reshape(shape))]
        with np.errstate(over="ignore"):
            for w, x in sweeps:
                assert_same_csv(io.sweep_csv(w, x), per_row_sweep_csv(w, x))
                assert_same_chunks(io.sweep_chunks(w, x), per_row_sweep_csv(w, x), max(lengths, default=0))

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
    def test_profiles(self, n):
        rng = np.random.default_rng(n)
        x = TestExports.seeded(rng, (n, n)).astype(complex)
        x.imag = TestExports.seeded(rng, (n, n))
        with np.errstate(invalid="ignore"):
            vectors = x / np.maximum(np.abs(x), 1.0)
        sys = dg.EigenSystem(x[0] if n else np.zeros(0), vectors, None, np.zeros(n), 1.0, 1e-10)
        assert_same_csv(io.profiles_csv(sys), per_row_profiles_csv(sys))
        assert_same_chunks(io.profiles_chunks(sys), per_row_profiles_csv(sys), n)
        h = dg.raw_hamiltonian(x)
        assert_same_csv(io.hamiltonian_csv(h), dense_hamiltonian_csv(h))


# a small pool of values that repeat: signed zeros, non-finite values (a
# NaN of either sign bit), a subnormal, and values of every notation
POOL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 3e-7, 1.5e-5, 1e16, -2.5e300])


class TestDistinctEntryTable:
    """hamiltonian.csv formats each distinct entry (by bit pattern) once and
    gathers its lines from that table: the bytes of the dense scan."""

    @staticmethod
    def formatted_rows(monkeypatch):
        """The number of rows of each ``_rows`` call, recorded."""
        seen, rows = [], io._rows

        def counted(values, *leads):
            seen.append(len(values))
            return rows(values, *leads)

        monkeypatch.setattr(io, "_rows", counted)
        return seen

    @staticmethod
    def distinct_bits(h) -> int:
        values = h.entries()[2].astype(complex)
        return len(np.unique(values.view(np.int64).reshape(-1, 2), axis=0))

    @pytest.mark.parametrize("seed", range(12))
    def test_raw_matrices_from_a_repeating_pool(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        re = rng.choice(POOL, (n, n))
        z = re.astype(complex)
        z.imag = np.where(rng.random((n, n)) < 0.5, rng.choice(POOL, (n, n)), 0.0)
        seen = self.formatted_rows(monkeypatch)
        for m in (re, z):
            h = dg.raw_hamiltonian(m)
            assert_same_csv(io.hamiltonian_csv(h), dense_hamiltonian_csv(h))
            assert seen.pop() == self.distinct_bits(h)

    def test_signed_zeros_keep_their_text(self):
        z = np.array([[0.0, complex(1.0, -0.0)], [complex(-0.0, 1.0), 1.0]])
        h = dg.raw_hamiltonian(z)
        assert io.hamiltonian_csv(h) == "row,col,real,imag\n1,2,1.0,-0.0\n2,1,-0.0,1.0\n2,2,1.0,0.0\n"

    @pytest.mark.parametrize("spec", [
        dg.SegmentedRing((("A", 6), ("B", 8), ("A", 7), ("B", 4))),
        dg.SegmentedRing((("A", 12),)),
        dg.validate_circulant(8, [1, 1, 0, 0, 0, 1, 1]),
        dg.ObcChain(12),
        dg.ProductLattice((
            (dg.SegmentedRing((("A", 5), ("B", 3))), 2.0),
            (dg.validate_circulant(6, [1, 0, 1, 0, 1]), 2.0),
            (dg.ObcChain(4), 2.0),
        )),
    ], ids=["ring", "uniform-ring", "circulant", "chain", "product-one-t"])
    def test_built_lattices_format_two_entries(self, spec, monkeypatch):
        seen = self.formatted_rows(monkeypatch)
        h = dg.build(spec, None if isinstance(spec, dg.ProductLattice) else 2.0)
        assert_same_csv(io.hamiltonian_csv(h), dense_hamiltonian_csv(h))
        assert seen == [2]  # t and 1.0


def run_cli(tmp_path, *argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def ring_spec(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(RING_DOC)
    return path


class TestCli:
    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, ring_spec):
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "decay", "--spec", ring_spec, "--bogus")
        assert exc.value.code == 2
        assert run_cli(tmp_path, "decay", "--spec", ring_spec, "--out", tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["overrides"] == {}

    def test_build_writes_hamiltonian(self, tmp_path, ring_spec):
        out = tmp_path / "out"
        assert run_cli(tmp_path, "build", "--spec", ring_spec, "--out", out) == 0
        text = (out / "hamiltonian.csv").read_text()
        assert text.startswith("row,col,real,imag\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["hamiltonian.csv"]
        assert manifest["command"] == "build"

    def test_spectrum_both_routes(self, tmp_path, ring_spec, capsys):
        out = tmp_path / "out"
        rc = run_cli(tmp_path, "spectrum", "--spec", ring_spec, "--analytic", "--numeric", "--out", out)
        assert rc == 0
        assert (out / "spectrum_numeric.csv").exists()
        assert (out / "spectrum_analytic.csv").exists()
        assert "max eigenvalue mismatch" in capsys.readouterr().out

    def test_decay_pass_and_fail_exit_codes(self, tmp_path, ring_spec):
        obc = tmp_path / "obc.json"
        obc.write_text(OBC_DOC)
        assert run_cli(tmp_path, "decay", "--spec", ring_spec, "--out", tmp_path / "a") == 0
        assert run_cli(tmp_path, "decay", "--spec", obc, "--out", tmp_path / "b") == 1
        report = json.loads((tmp_path / "b" / "decay_report.json").read_text())
        assert report["pure_decay_pass"] is False

    def test_charges_command(self, tmp_path):
        spec = tmp_path / "fig3a.json"
        spec.write_text(json.dumps({"lattice": {"kind": "ring", "t": 1.5, "segments": [
            {"type": "A", "len": 6}, {"type": "B", "len": 8},
            {"type": "A", "len": 7}, {"type": "B", "len": 4}]}}))
        out = tmp_path / "out"
        assert run_cli(tmp_path, "charges", "--spec", spec, "--out", out) == 0
        lines = (out / "charges.csv").read_text().strip().split("\n")
        by_node = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert by_node[7] == pytest.approx(1.0, abs=1e-9)
        assert by_node[22] == pytest.approx(1.0, abs=1e-9)
        assert by_node[1] == pytest.approx(-1.0, abs=1e-9)
        assert by_node[15] == pytest.approx(-1.0, abs=1e-9)

    def test_drive_outputs(self, tmp_path, ring_spec):
        out = tmp_path / "out"
        rc = run_cli(
            tmp_path, "drive", "--spec", ring_spec, "--source", 1,
            "--omega-min", -3, "--omega-max", 3, "--omega-steps", 41, "--out", out,
        )
        assert rc == 0
        selection = json.loads((out / "selection.json").read_text())
        assert set(selection) == {
            "selected_mode", "least_damped_mode", "overlap", "matches_least_damped", "omega_at_peak",
        }
        assert (out / "sweep.csv").exists()

    def test_drive_peak_ties_go_to_the_lowest_omega(self, tmp_path, capsys):
        # the open chain's spectrum is symmetric under E -> -E, so its sweep
        # peaks at a mirror pair +-omega whose heights differ by rounding only
        spec = tmp_path / "obc.json"
        spec.write_text(OBC_DOC)
        assert run_cli(tmp_path, "drive", "--spec", spec, "--out", tmp_path / "o") == 0
        rows = np.loadtxt(tmp_path / "o" / "sweep.csv", delimiter=",", skiprows=1)
        omegas, nodes = np.unique(rows[:, 0]), int(rows[:, 1].max())
        peaks = rows[:, 2].reshape(len(omegas), nodes).max(axis=1)
        top = np.flatnonzero(peaks >= (1 - 1e-9) * peaks.max())
        assert len(top) == 2 and omegas[top[0]] == pytest.approx(-omegas[top[1]], rel=1e-12)
        selection = json.loads((tmp_path / "o" / "selection.json").read_text())
        assert selection["omega_at_peak"] == omegas[top[0]] < 0
        assert capsys.readouterr().out.startswith("drive: peak at omega=-0.287157,")
        assert selection["selected_mode"] == 7

    @pytest.mark.parametrize("doc", [RING_DOC, PRODUCT_DOC], ids=["ring", "product"])
    def test_exports_match_per_row_formatters(self, tmp_path, doc):
        # the default 401-point grid: sweep blocks hold many frequencies
        spec = tmp_path / "spec.json"
        spec.write_text(doc)
        assert run_cli(tmp_path, "drive", "--spec", spec, "--out", tmp_path / "drive") == 0
        parsed = io.parse_spec(doc)
        h = parsed.build()
        sys = spectra.closed_form(parsed.spec, parsed.t)
        cfg = response.default_drive_config(h, sys, 0)
        sweep = response.frequency_sweep(h, cfg, sys)
        assert len(sweep) == response.DEFAULT_OMEGA_POINTS
        want = per_row_sweep_csv(cfg.omega_grid, sweep)
        assert_same_csv((tmp_path / "drive" / "sweep.csv").read_text(), want)
        out = tmp_path / "spectrum"
        run_cli(tmp_path, "spectrum", "--spec", spec, "--numeric", "--analytic", "--profiles", "--out", out)
        for name, sys in (("numeric", spectra.gauged_eigendecompose(h)), ("analytic", sys)):
            assert_same_csv((out / f"profiles_{name}.csv").read_text(), per_row_profiles_csv(sys))

    def test_sweep_and_profiles_are_written_block_by_block(self, tmp_path, ring_spec, monkeypatch):
        def whole(*args):
            raise AssertionError("a whole export was built in memory")

        monkeypatch.setattr(io, "sweep_csv", whole)
        monkeypatch.setattr(io, "profiles_csv", whole)
        out = tmp_path / "out"
        assert run_cli(tmp_path, "drive", "--spec", ring_spec, "--out", out) == 0
        assert run_cli(tmp_path, "spectrum", "--spec", ring_spec, "--numeric", "--profiles", "--out", out) == 0
        monkeypatch.undo()
        doc = io.parse_spec(RING_DOC)
        h, exact = doc.build(), spectra.closed_form(doc.spec, doc.t)
        cfg = response.default_drive_config(h, exact, 0)
        sweep = response.frequency_sweep(h, cfg, exact)
        assert (out / "sweep.csv").read_bytes() == io.sweep_csv(cfg.omega_grid, sweep).encode()
        numeric = spectra.gauged_eigendecompose(h)
        assert (out / "profiles_numeric.csv").read_bytes() == io.profiles_csv(numeric).encode()

    @pytest.mark.parametrize("options, named", [
        (["--gamma", "-1"], "gamma must be positive, got -1.0"),
        (["--amplitude", "0"], "amplitude must be positive, got 0.0"),
        (["--source", "0"], "--source 0"),
        (["--source", "99"], "--source 99"),
        (["--omega-min", "1", "--omega-max", "2", "--omega-steps", "0"], "omega grid must be nonempty"),
        (["--omega-min", "-3"], "--omega-max is missing"),
        (["--omega-max", "3"], "--omega-min is missing"),
        (["--omega-steps", "5"], "--omega-steps needs --omega-min and --omega-max"),
        (["--gamma", "nan"], "invalid drive option: gamma must be finite, got nan"),
        (["--gamma", "inf"], "invalid drive option: gamma must be finite, got inf"),
        (["--amplitude", "nan"], "invalid drive option: drive amplitude must be finite, got nan"),
        (["--omega-min", "nan", "--omega-max", "1", "--omega-steps", "3"],
         "invalid drive option: omega grid must be finite, got nan"),
    ], ids=["gamma", "amplitude", "source-0", "source-99", "omega-steps-0", "no-omega-max", "no-omega-min",
            "lone-omega-steps", "gamma-nan", "gamma-inf", "amplitude-nan", "omega-min-nan"])
    def test_drive_option_error_exit_2(self, tmp_path, ring_spec, capsys, options, named):
        rc = run_cli(tmp_path, "drive", "--spec", ring_spec, *options, "--out", tmp_path / "o")
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]

    @pytest.mark.parametrize("command", [["build"], ["drive"], ["reproduce", "fig2a"]])
    def test_tolerance_is_a_usage_error_where_unread(self, tmp_path, ring_spec, command):
        spec = [] if command[0] == "reproduce" else ["--spec", ring_spec]
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, *command, *spec, "--tolerance", 1, "--out", tmp_path / "o")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["spectrum", "--numeric", "--analytic"], ["decay"], ["charges"]],
                             ids=["spectrum", "decay", "charges"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, ring_spec, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before --tolerance was checked")

        for module, name in ((spectra, "gauged_eigendecompose"), (spectra, "closed_form"),
                             (decay, "pure_decay_check"), (decay, "charge_map")):
            monkeypatch.setattr(module, name, refuse)
        for value in ("nan", "inf", "-inf", "-1e-9"):
            out = tmp_path / value
            assert run_cli(tmp_path, *command, "--spec", ring_spec, f"--tolerance={value}", "--out", out) == 2
            message = f"--tolerance must be finite and non-negative, got {float(value)}"
            assert capsys.readouterr().err == f"error: {message}\n"
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["error"] == {"class": "DecayGraphError", "message": message}
            assert manifest["outputs"] == []

    def test_validation_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lattice":{"kind":"circulant","n":4,"a":[1,0,0],"t":2}}')
        assert run_cli(tmp_path, "charges", "--spec", bad, "--out", tmp_path / "o") == 2

    def test_raw_ineligible_for_decay_claims(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(RAW_DOC)
        assert run_cli(tmp_path, "decay", "--spec", raw, "--out", tmp_path / "o") == 2
        assert run_cli(tmp_path, "charges", "--spec", raw, "--out", tmp_path / "o") == 2

    def test_raw_allowed_for_spectrum_and_drive(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(RAW_DOC)
        assert run_cli(tmp_path, "spectrum", "--spec", raw, "--out", tmp_path / "o") == 0
        assert run_cli(
            tmp_path, "drive", "--spec", raw, "--gamma", "0.5", "--out", tmp_path / "o2"
        ) == 0

    @pytest.mark.parametrize("first,named", [
        ([1, 2, 0.7, 0], "entry (1,2) listed twice"),  # would overwrite 0.5 in hamiltonian.csv
        ([4, 2, 0.7, 0], "entry (4,2) outside 1..3"),
    ], ids=["listed-twice", "outside"])
    def test_raw_position_refused_exits_2(self, tmp_path, capsys, first, named):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"lattice": {"kind": "raw", "dim": 3, "entries": [
            [1, 2, 0.5, 0], first, [2, 3, 1.0, 0], [3, 1, 1.0, 0]]}}))
        assert run_cli(tmp_path, "build", "--spec", raw, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: lattice: {named}\n"
        assert not (tmp_path / "o" / "hamiltonian.csv").exists()

    @pytest.mark.parametrize("entry, named", [
        ("[1, 2, NaN, 0]", "entry (1,2) is not finite: re nan, im 0.0"),
        ("[1, 2, 0.5, -Infinity]", "entry (1,2) is not finite: re 0.5, im -inf"),
    ], ids=["nan", "infinity"])
    @pytest.mark.parametrize("command", [["build"], ["spectrum"], ["drive"]])
    def test_raw_non_finite_entry_refused_at_parse(self, tmp_path, capsys, entry, named, command):
        raw = tmp_path / "raw.json"
        raw.write_text('{"lattice": {"kind": "raw", "dim": 2, "entries": [%s, [2, 1, 1.0, 0]]}}' % entry)
        assert run_cli(tmp_path, *command, "--spec", raw, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: lattice: {named}\n"
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"]["class"] == "ValidationError" and manifest["outputs"] == []

    # max Im E + 0.05 ||H||_inf is 0 for the zero matrix and -1 + 0.05 * 2
    # for a loss -1 on every site with two unit couplings
    NON_POSITIVE_LOSS = {
        "zero": ({"kind": "raw", "dim": 3, "entries": []}, "0.0", "0.1"),
        "lossy": ({"kind": "raw", "dim": 3, "entries": [[1, 1, 0, -1], [2, 2, 0, -1], [3, 3, 0, -1],
                                                          [1, 2, 1.0, 0], [2, 1, 1.0, 0]]}, "-0.9", "0.5"),
    }

    @pytest.mark.parametrize("case", sorted(NON_POSITIVE_LOSS))
    def test_a_non_positive_default_loss_exits_2_or_takes_gamma(self, tmp_path, capsys, case):
        lattice, default, gamma = self.NON_POSITIVE_LOSS[case]
        spec = tmp_path / "raw.json"
        spec.write_text(json.dumps({"lattice": lattice}))
        assert run_cli(tmp_path, "drive", "--spec", spec, "--out", tmp_path / "o") == 2
        message = (f"invalid drive option: gamma must be positive, got {default} "
                   "(the default loss max Im(E) + 0.05 ||H||_inf): give --gamma")
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["error"] == {"class": "DecayGraphError", "message": message}
        assert run_cli(tmp_path, "drive", "--spec", spec, "--gamma", gamma, "--out", tmp_path / "g") == 0
        outputs = json.loads((tmp_path / "g" / "manifest.json").read_text())["outputs"]
        assert outputs == ["sweep.csv", "selection.json"]
        sweep = np.loadtxt(tmp_path / "g" / "sweep.csv", delimiter=",", skiprows=1)
        assert sweep.shape == (3 * response.DEFAULT_OMEGA_POINTS, 5) and np.all(np.isfinite(sweep))

    def test_t_override(self, tmp_path, ring_spec, capsys):
        out = tmp_path / "out"
        assert run_cli(tmp_path, "decay", "--spec", ring_spec, "--t", 2.5, "--out", out) == 0
        report = json.loads((out / "decay_report.json").read_text())
        ratios = {c["chain_id"]: c["ratio"] for c in report["per_chain"]}
        assert ratios["A1"] == pytest.approx(2.5 ** (-1 / 30), rel=1e-9)

    @pytest.mark.parametrize("doc", [PRODUCT_DOC, RAW_DOC], ids=["product", "raw"])
    def test_t_override_rejected_off_1d(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(doc)
        assert run_cli(tmp_path, "build", "--spec", spec, "--t", 2.5, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: --t override applies to 1D lattice documents only\n"

    @pytest.mark.parametrize("case", NON_INTEGRAL)
    def test_non_integral_number_exits_2_naming_the_field(self, tmp_path, capsys, case):
        text, message = NON_INTEGRAL[case]
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert run_cli(tmp_path, "spectrum", "--spec", spec, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message}\n", err)

    def test_spectrum_mismatch_beyond_tolerance_exits_1(self, tmp_path, ring_spec, capsys):
        out = tmp_path / "out"
        argv = ["spectrum", "--spec", ring_spec, "--numeric", "--analytic", "--tolerance", 0, "--out", out]
        assert run_cli(tmp_path, *argv) == 1
        assert "(tolerance 0.0e+00)" in capsys.readouterr().out
        assert (out / "spectrum_numeric.csv").exists() and (out / "spectrum_analytic.csv").exists()

    def test_drive_grid_bounds_without_steps_take_default_count(self, tmp_path, ring_spec):
        out = tmp_path / "out"
        assert run_cli(
            tmp_path, "drive", "--spec", ring_spec, "--omega-min", -3, "--omega-max", 3, "--out", out,
        ) == 0
        omegas = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, usecols=0)
        np.testing.assert_array_equal(np.unique(omegas), np.linspace(-3, 3, 401))

    def test_size_cap_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "chain.json"
        spec.write_text('{"lattice":{"kind":"obc_chain","t":1.5,"n":4097}}')
        assert run_cli(tmp_path, "build", "--spec", spec, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: lattice has 4097 nodes, exceeding the cap of 4096\n"

    def test_byte_identical_reruns(self, tmp_path, ring_spec):
        for cmd in (
            ["build"],
            ["spectrum", "--analytic", "--numeric", "--profiles"],
            ["decay"],
            ["charges"],
            ["drive", "--source", "1", "--omega-min", "-3", "--omega-max", "3", "--omega-steps", "21"],
        ):
            out1, out2 = tmp_path / f"{cmd[0]}_1", tmp_path / f"{cmd[0]}_2"
            assert run_cli(tmp_path, *cmd, "--spec", ring_spec, "--out", out1) == 0
            assert run_cli(tmp_path, *cmd, "--spec", ring_spec, "--out", out2) == 0
            files1 = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
            files2 = sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
            assert files1 == files2 and files1
            for name in files1:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reproduce_single_figure(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run_cli(tmp_path, "reproduce", "fig2a", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "[fig2a] PASS" in stdout
        checks = json.loads((out / "checks.json").read_text())
        assert checks["fig2a"]["passed"]

    def test_reproduce_prints_plain_floats(self, tmp_path, capsys):
        assert run_cli(tmp_path, "reproduce", "fig4c", "--out", tmp_path / "rep") == 0
        stdout = capsys.readouterr().out
        assert "[fig4c] PASS" in stdout and "np.float64" not in stdout

    def test_reproduce_expected_fail_control(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run_cli(tmp_path, "reproduce", "fig1d", "--out", out) == 0
        checks = json.loads((out / "checks.json").read_text())
        assert checks["fig1d"]["expected_fail_control"]
        assert checks["fig1d"]["passed"]


def ring_doc(segments, t):
    return json.dumps({"lattice": {"kind": "ring", "t": t, "segments": [
        {"type": k, "len": n} for k, n in segments]}})


class TestClosedFormRoute:
    """Inputs inside the cap where the dense eigensolver cannot certify."""

    def run_decay(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        out = tmp_path / "out"
        rc = run_cli(tmp_path, "decay", "--spec", spec, "--out", out)
        return rc, json.loads((out / "decay_report.json").read_text())

    def test_balanced_ring_300_at_t_1_5(self, tmp_path):
        rc, report = self.run_decay(tmp_path, ring_doc([("A", 150), ("B", 150)], 1.5))
        assert rc == 0 and report["pure_decay_pass"] is True
        for chain in report["per_chain"]:
            assert chain["ratio"] == pytest.approx(1.5 ** -0.5, rel=1e-9)
        assert report["partition_sum"] == pytest.approx(1.0, abs=1e-9)

    def test_unbalanced_ring_300_at_t_1_5(self, tmp_path):
        rc, report = self.run_decay(tmp_path, ring_doc([("A", 100), ("B", 200)], 1.5))
        assert rc == 0 and report["pure_decay_pass"] is True
        want = {"A": 1.5 ** (-200 / 300), "B": 1.5 ** (-100 / 300)}
        for chain in report["per_chain"]:
            assert chain["ratio"] == pytest.approx(want[chain["chain_type"]], rel=1e-9)

    def test_open_chain_with_sine_nodes_fails_cleanly(self, tmp_path):
        # N + 1 = 14 is composite: some modes have exact sine nodes
        text = '{"lattice":{"kind":"obc_chain","t":1.5,"n":13}}'
        rc, report = self.run_decay(tmp_path, text)
        assert rc == 1 and report["pure_decay_pass"] is False

    def test_analytic_spectrum_of_multi_segment_ring(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(ring_doc([("A", 4), ("B", 11), ("A", 3), ("B", 12)], 1.5))
        out = tmp_path / "out"
        assert run_cli(tmp_path, "spectrum", "--spec", spec, "--analytic", "--numeric", "--out", out) == 0
        raw = tmp_path / "raw.json"
        raw.write_text(RAW_DOC)
        capsys.readouterr()
        for routes in (["--analytic"], ["--numeric", "--analytic"]):
            out = tmp_path / "o" / routes[0]
            assert run_cli(tmp_path, "spectrum", "--spec", raw, *routes, "--out", out) == 2
            got = capsys.readouterr()
            assert got.out == ""
            assert got.err == (
                "error: no analytic spectrum for a raw matrix "
                "(rings, circulants, open chains, products)\n"
            )
            assert [p.name for p in out.iterdir()] == ["manifest.json"]


class TestGaugedSpectrum:
    """`spectrum --numeric` on a structured lattice runs one eig of the
    normal D^-1 H D, so skin-effect rings whose H-eigenvalues are off by up
    to 0.1 pair with the closed form to rounding."""

    @pytest.mark.parametrize("segments, t", [([("A", 250), ("B", 350)], 1.4), ([("A", 80), ("B", 120)], 2.0)])
    def test_skin_effect_ring_matches_the_closed_form(self, tmp_path, capsys, segments, t):
        spec = tmp_path / "spec.json"
        spec.write_text(ring_doc(segments, t))
        out = tmp_path / "out"
        assert run_cli(tmp_path, "spectrum", "--spec", spec, "--numeric", "--analytic", "--out", out) == 0
        got = capsys.readouterr()
        found = re.fullmatch(r"max eigenvalue mismatch after optimal pairing: (\S+) \(tolerance 1.0e-08\)\n", got.out)
        assert found is not None and float(found.group(1)) < 1e-8
        assert got.err == "" and json.loads((out / "manifest.json").read_text())["warnings"] == []


class TestChargesSolveOnce:
    """`charges` builds the lattice once and its closed-form columns once
    per axis."""

    def count_calls(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def run_charges(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        return run_cli(tmp_path, "charges", "--spec", spec, "--out", tmp_path / "out")

    def test_product_builds_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, decay, "build")
        assert self.run_charges(tmp_path, PRODUCT_DOC) == 0
        assert len(calls) == 1

    def test_ring_solves_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, spectra, "closed_form_columns")
        assert self.run_charges(tmp_path, ring_doc([("A", 6), ("B", 8), ("A", 7), ("B", 4)], 1.5)) == 0
        assert len(calls) == 1

    def test_product_solves_once_per_axis(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch, spectra, "closed_form_columns")
        assert self.run_charges(tmp_path, PRODUCT_DOC) == 0
        assert len(calls) == 2


class TestProductAtCapReadsEdges:
    """`build` and `charges` on a 16x16x16 product never assemble, or
    allocate, a dense N x N matrix."""

    CUBE = json.dumps({"lattice": {"kind": "product", "axes": [
        {"kind": "ring", "t": 1.5, "segments": [{"type": "A", "len": 10}, {"type": "B", "len": 6}]},
        {"kind": "circulant", "t": 2.0, "n": 16, "a": [1] + [0] * 13 + [1]},
        {"kind": "ring", "t": 0.5, "segments": [{"type": "A", "len": 16}]},
    ]}})

    @pytest.mark.parametrize("command", ["build", "charges"])
    def test_no_dense_matrix(self, tmp_path, monkeypatch, command):
        assembled = []
        lazy = lattice.Hamiltonian.__dict__["matrix"]

        def spy(h):
            if h.raw_matrix is None and "matrix" not in vars(h):
                assembled.append(h.dim)
            return lazy.__get__(h, type(h))

        monkeypatch.setattr(lattice.Hamiltonian, "matrix", property(spy))
        spec = tmp_path / "cube.json"
        spec.write_text(self.CUBE)
        rc, peak = traced_peak(lambda: run_cli(tmp_path, command, "--spec", spec, "--out", tmp_path / "out"))
        assert rc == 0
        assert all(n <= 16 for n in assembled)  # axis matrices only
        assert peak < 4096 * 4096 * 8 / 4


class TestRingAtCapBuildsTwoColumns:
    """`charges` on the ring at the cap builds its two checked columns,
    never the 4096 x 4096 closed-form basis (268 MB)."""

    def test_peak_under_an_eighth_of_the_basis(self, tmp_path):
        spec = tmp_path / "ring.json"
        spec.write_text(ring_doc([("A", 2048), ("B", 2048)], 1.02))
        rc, peak = traced_peak(lambda: run_cli(tmp_path, "charges", "--spec", spec, "--out", tmp_path / "out"))
        assert rc == 0
        assert peak < 4096 * 4096 * 16 / 8


class TestDecayInColumnBlocks:
    """`decay` checks the closed form's columns block by block, never its
    N x N basis, and writes the report of the whole basis's check."""

    def test_ring_2048_peaks_under_a_quarter_of_the_basis(self, tmp_path):
        ring, t = dg.SegmentedRing((("A", 1024), ("B", 1024))), 1.02
        spec = tmp_path / "ring.json"
        spec.write_text(ring_doc(ring.segments, t))
        rc, peak = traced_peak(lambda: run_cli(tmp_path, "decay", "--spec", spec, "--out", tmp_path / "out"))
        assert rc == 0
        assert peak < 2048 * 2048 * 16 / 4
        whole = dg.pure_decay_check(dg.closed_form(ring, t), ring, t)
        assert (tmp_path / "out" / "decay_report.json").read_text() == io.decay_report_json(whole.report, whole)


class TestProductAtCapHamiltonianCsv:
    """`build` on a 64x64 two-ring product writes the dense scan's bytes,
    in row-major order."""

    def test_equals_the_dense_scan(self, tmp_path):
        spec = tmp_path / "product.json"
        spec.write_text(json.dumps({"lattice": {"kind": "product", "axes": [
            json.loads(ring_doc([("A", 26), ("B", 38)], 1.43))["lattice"],
            json.loads(ring_doc([("A", 17), ("B", 15), ("A", 16), ("B", 16)], 1.61))["lattice"],
        ]}}))
        assert run_cli(tmp_path, "build", "--spec", spec, "--out", tmp_path / "out") == 0
        text = (tmp_path / "out" / "hamiltonian.csv").read_text()
        h = io.parse_spec(spec.read_text()).build()
        assert h.dim == 4096
        assert_same_csv(text, dense_hamiltonian_csv(h))
        index = np.loadtxt(text.splitlines()[1:], delimiter=",", usecols=(0, 1), dtype=np.int64)
        assert len(index) == 4 * 4096 and np.all(np.diff((index[:, 0] - 1) * 4096 + index[:, 1]) > 0)


class TestOnlyDenseSolversAssemble:
    """A built lattice's dense matrix is read by the dense solvers only:
    every structured command runs unchanged with it raising."""

    DOCS = {"ring": RING_DOC, "circulant": CIRC_DOC, "product": PRODUCT_DOC}
    CASES = [(["decay"], "ring"), (["decay"], "circulant")] + [  # decay refuses products
        (cmd, doc) for cmd in (["charges"], ["drive"], ["spectrum", "--analytic"])
        for doc in ("ring", "circulant", "product")
    ]

    @pytest.mark.parametrize("command, doc", CASES, ids=[f"{c[0]}-{d}" for c, d in CASES])
    def test_runs_without_the_dense_matrix(self, tmp_path, monkeypatch, command, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(self.DOCS[doc])
        argv = [command[0], "--spec", spec, *command[1:], "--out"]
        assert run_cli(tmp_path, *argv, tmp_path / "dense") == 0
        lazy = lattice.Hamiltonian.__dict__["matrix"]

        def guarded(h):
            if h.raw_matrix is None:
                raise AssertionError(f"dense matrix of a built {h.kind} lattice assembled")
            return lazy.__get__(h, type(h))

        monkeypatch.setattr(lattice.Hamiltonian, "matrix", property(guarded))
        assert run_cli(tmp_path, *argv, tmp_path / "edges") == 0
        names = sorted(p.name for p in (tmp_path / "dense").iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in (tmp_path / "edges").iterdir() if p.name != "manifest.json")
        for name in names:
            assert (tmp_path / "edges" / name).read_bytes() == (tmp_path / "dense" / name).read_bytes()


class TestWarnings:
    """The CLI reports each command's warnings itself: one line per warning
    on stderr, also listed in the manifest."""

    DEGENERATE = json.dumps({"lattice": {"kind": "product", "axes": [
        {"kind": "ring", "t": 1.5, "segments": [{"type": "A", "len": 3}, {"type": "B", "len": 3}]},
    ] * 2}})
    LINE = ("warning: DegenerateAmbiguity: product eigenvalues collide within tolerance; "
            "subspace vectors are non-unique\n")

    def test_every_drive_in_one_process_reports(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.DEGENERATE)
        for run in ("first", "second"):
            assert run_cli(tmp_path, "drive", "--spec", spec, "--out", tmp_path / run) == 0
            assert capsys.readouterr().err == self.LINE
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            assert manifest["warnings"] == [{
                "category": "DegenerateAmbiguity",
                "message": "product eigenvalues collide within tolerance; subspace vectors are non-unique",
            }]

    def test_warnings_precede_the_error_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.DEGENERATE)
        # E = 0 is a pole: 2 sqrt(t) (cos(pi / 3) + cos(2 pi / 3))
        grid = ["--omega-min", -1, "--omega-max", 1, "--omega-steps", 3]
        assert run_cli(tmp_path, "drive", "--spec", spec, "--gamma", 1e-13, *grid, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(self.LINE) and err.count("\n") == 2
        assert err.splitlines()[1].startswith("error: sweep failed at omega=0.0: ")

    def test_exit_2_writes_the_manifest(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(self.DEGENERATE)
        grid = ["--omega-min", -1, "--omega-max", 1, "--omega-steps", 3]
        assert run_cli(tmp_path, "drive", "--spec", spec, "--gamma", 1e-13, *grid, "--out", tmp_path / "o") == 2
        error = capsys.readouterr().err.splitlines()[1].removeprefix("error: ")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert [w["category"] for w in manifest["warnings"]] == ["DegenerateAmbiguity"]
        assert manifest["error"] == {"class": "SingularSystem", "message": error}
        assert manifest["outputs"] == []


class TestDriveRoute:
    """`drive` sweeps a structured lattice through the closed form's gauge and a
    raw matrix through its eigenvector expansion, with the Schur form as rescue."""

    def run_drive(self, tmp_path, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        return run_cli(tmp_path, "drive", "--spec", spec, "--out", tmp_path / "out")

    def test_ring_600_at_t_1_02_certifies_every_row(self, tmp_path):
        n_a, n_b, t = 400, 200, 1.02
        assert self.run_drive(tmp_path, ring_doc([("A", n_a), ("B", n_b)], t)) == 0
        ring = dg.SegmentedRing((("A", n_a), ("B", n_b)))
        cfg = dg.default_drive_config(dg.build(ring, t), dg.closed_form(ring, t))
        assert self.sweep_residual(tmp_path, n_a, n_b, t, cfg) <= response.SOLVE_RESIDUAL_FACTOR

    def test_ring_600_holds_less_than_its_sweep_export(self, tmp_path):
        # sweep.csv goes to disk a block at a time, so the whole export is
        # never held: about 17 MiB traced at peak against a 20.6 MiB file
        rc, peak = traced_peak(lambda: self.run_drive(tmp_path, ring_doc([("A", 400), ("B", 200)], 1.02)))
        assert rc == 0
        assert peak < (tmp_path / "out" / "sweep.csv").stat().st_size

    @pytest.mark.parametrize("n_a, n_b, t", [(200, 100, 1.1), (400, 200, 1.02)])
    def test_raw_ring_certifies_every_row(self, tmp_path, n_a, n_b, t):
        # the same rings given as raw matrices take the expansion, and the
        # Schur form certifies the rows the expansion leaves
        h = dg.build(dg.SegmentedRing((("A", n_a), ("B", n_b))), t)
        entries = [[i + 1, j + 1, v, 0.0] for i, j, v in zip(*(a.tolist() for a in h.entries()))]
        doc = json.dumps({"lattice": {"kind": "raw", "dim": h.dim, "entries": entries}})
        assert self.run_drive(tmp_path, doc) == 0
        cfg = dg.default_drive_config(h, dg.eigendecompose(h))
        assert self.sweep_residual(tmp_path, n_a, n_b, t, cfg) <= 1e-10

    @pytest.mark.parametrize("t", [64, 1 / 64], ids=["t64", "t1_64"])
    def test_a_steady_state_beyond_float64_names_its_span(self, tmp_path, t):
        # the gauge D = diag(t**w) of A512 B512 spans 10^462, so exp(log D)
        # overflows (t = 64) or underflows to 0 (t = 1/64): the drive stops
        # before any solve, with no nan cause and no numpy warning
        assert self.run_drive(tmp_path, ring_doc([("A", 512), ("B", 512)], t)) == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        message = "the steady state spans 10^462, beyond float64"
        assert manifest["error"] == {"class": "SingularSystem", "message": message}
        assert manifest["warnings"] == []

    @pytest.mark.parametrize("n, rc", [(682, 0), (684, 2)])
    def test_the_subnormal_window_at_t_1_64_names_its_span(self, tmp_path, n, rc):
        # from N = 684 the gauge's smallest entry is subnormal and its inverse
        # overflows, which would turn the refinement's r / d into nan
        assert self.run_drive(tmp_path, ring_doc([("A", n // 2), ("B", n // 2)], 1 / 64)) == rc
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["warnings"] == []
        if rc:
            message = "the steady state spans 10^309, beyond float64"
            assert manifest["error"] == {"class": "SingularSystem", "message": message}

    @pytest.mark.parametrize("command", [["drive"], ["spectrum", "--analytic"]])
    def test_builds_the_lattice_once(self, tmp_path, monkeypatch, command):
        from decaygraph import lattice

        calls = []
        assemble = lattice._assemble
        monkeypatch.setattr(lattice, "_assemble", lambda *args: calls.append(args[0]) or assemble(*args))
        spec = tmp_path / "spec.json"
        spec.write_text(ring_doc([("A", 200), ("B", 100)], 1.1))
        assert run_cli(tmp_path, *command, "--spec", spec, "--out", tmp_path / "out") == 0
        assert calls == [300]

    @staticmethod
    def sweep_residual(tmp_path, n_a, n_b, t, cfg):
        """Largest |b - (z I - H) x| over sweep.csv, H x by the ring's bonds."""
        rows = np.loadtxt(tmp_path / "out" / "sweep.csv", delimiter=",", skiprows=1)
        n = n_a + n_b
        blocks = rows.reshape(len(cfg.omega_grid), n, 5)
        np.testing.assert_array_equal(blocks[:, :, 0], np.repeat(cfg.omega_grid[:, None], n, axis=1))
        x = blocks[:, :, 3] + 1j * blocks[:, :, 4]
        # bond (i, i+1) of an A site points i+1 -> i: H[i+1, i] = t, H[i, i+1] = 1;
        # a B bond the other way round
        is_a = np.arange(n) < n_a
        right = np.where(is_a, 1.0, t)
        left = np.roll(np.where(is_a, t, 1.0), 1)
        hx = right * np.roll(x, -1, axis=1) + left * np.roll(x, 1, axis=1)
        r = (cfg.omega_grid[:, None] + 1j * cfg.gamma) * x - hx
        r[:, 0] -= 1.0
        return np.max(np.abs(r))

    def test_ring_300_at_t_1_5_fails_naming_residual_and_float64_floor(self, tmp_path, capsys):
        assert self.run_drive(tmp_path, ring_doc([("A", 150), ("B", 150)], 1.5)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sweep failed at omega=")
        assert "gauge solve residual" in err[0] and "exceeds 1e-10 * drive" in err[0]
        found = re.fullmatch(
            r"error: sweep failed at omega=(\S+): gauge solve residual (\S+) exceeds 1e-10 \* drive "
            r"after 3 refinement steps \(max\|x\| (\S+), float64 floor (\S+), backward error (\S+)\)",
            err[0])
        assert found is not None
        omega, residual, size, floor, backward = map(float, found.groups())
        # the failing row is one of the grid's, and max|x| is that of a dense
        # solve there (condition number about 1e7, so max|x| is good to ~1e-9)
        ring = dg.SegmentedRing((("A", 150), ("B", 150)))
        h = dg.build(ring, 1.5)
        cfg = dg.default_drive_config(h, dg.closed_form(ring, 1.5))
        assert omega in cfg.omega_grid
        b = np.zeros(h.dim, dtype=complex)
        b[cfg.source_node] = cfg.amplitude
        x = np.linalg.solve((omega + 1j * cfg.gamma) * np.eye(h.dim) - h.matrix, b)
        assert size == pytest.approx(np.max(np.abs(x)), rel=0.06)
        # the floor is eps (|z| + ||H||_inf) max|x|, the residual sits under it,
        # and the backward error is at rounding level
        scale = abs(omega + 1j * cfg.gamma) + h.norm_inf()
        assert floor == pytest.approx(np.finfo(float).eps * scale * size, rel=0.06)
        assert residual <= floor
        assert backward == pytest.approx(residual / (scale * size + cfg.amplitude), rel=0.06)
        assert backward < 1e-15

    @pytest.mark.parametrize("doc", [RING_DOC, CIRC_DOC, OBC_DOC, PRODUCT_DOC],
                             ids=["ring", "circulant", "obc_chain", "product"])
    def test_a_structured_drive_never_builds_the_closed_form(self, tmp_path, monkeypatch, doc):
        # the loss and grid take mode_values, the selection the transforms'
        # overlaps and two certified columns: no N x N basis is formed
        def refuse(*args, **kwargs):
            raise AssertionError("closed form built")

        monkeypatch.setattr(spectra, "closed_form", refuse)
        assert self.run_drive(tmp_path, doc) == 0

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_the_cap_ring_drive_adds_under_20_mib(self, tmp_path):
        # A2048 B2048: the 401 x 4096 sweep alone would be 26 MB, and the
        # closed form's 4096 x 4096 basis 268 MB; the drive streams its
        # blocks, so the peak grows by a few blocks and the formatting.
        # VmHWM is the process's own peak: ru_maxrss would carry the
        # parent's across fork and exec
        spec = tmp_path / "spec.json"
        spec.write_text(ring_doc([("A", 2048), ("B", 2048)], 1.02))
        argv = ["drive", "--spec", str(spec), "--out", str(tmp_path / "out")]
        code = (
            "def hwm():\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM'))\n"
            "from decaygraph import cli\n"
            "before = hwm()\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(before, hwm())"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(dg.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        before, after = map(int, out.stdout.split()[-2:])  # KiB
        assert after - before < 20 * 1024

    def test_a_failed_drive_leaves_no_partial_export(self, tmp_path, capsys):
        # A150 B150 at t = 1.5 fails in a block of the grid after sweep.csv
        # is opened for the stream: the partial file goes, and only the
        # manifest is written
        assert self.run_drive(tmp_path, ring_doc([("A", 150), ("B", 150)], 1.5)) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: sweep failed at omega=-2.1041887430977386: gauge solve residual 1.302e-10 exceeds "
            "1e-10 * drive after 3 refinement steps (max|x| 5.8e+05, float64 floor 6.5e-10, "
            "backward error 4.4e-17)\n"
        )
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["outputs"] == []
        assert manifest["error"] == {"class": "SingularSystem", "message": err[len("error: "):-1]}

    @pytest.mark.parametrize("doc, select", [(ring_doc([("A", 6), ("B", 4)], 1.5), "transform_mode_selection"),
                                             (RAW_DOC, "mode_selection_check")], ids=["ring", "raw"])
    def test_a_failed_selection_leaves_no_sweep(self, tmp_path, capsys, monkeypatch, doc, select):
        # the selection runs once sweep.csv is written: when it fails, the
        # sweep goes too, as when the selection ran first
        def fail(*args):
            raise dg.ConvergenceFailure("selection failed")

        monkeypatch.setattr(response, select, fail)
        assert self.run_drive(tmp_path, doc) == 2
        assert capsys.readouterr().err == "error: selection failed\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["outputs"] == []
        assert manifest["error"] == {"class": "ConvergenceFailure", "message": "selection failed"}

    # sha256 of sweep.csv and the stdout line, taken before the drive
    # stopped building the closed form: a change that moves the drive's
    # bytes must update them on purpose
    PINNED = {
        "ring": (ring_doc([("A", 80), ("B", 120)], 1.05),
                 "d5f3dd7407a4dfa68bbc29763d6ba9a3c6061a4d08ffecec4ceb7b2b7301953e",
                 "drive: peak at omega=-2.04311, overlap with least-damped mode 0.0020, selected mode 106"),
        "obc_chain": ('{"lattice":{"kind":"obc_chain","t":1.5,"n":40}}',
                      "7e500cbbe180b3685a539fc8e2fdd877dd85841f85b2539a2acaf7a5d5a1fd22",
                      "drive: peak at omega=-0.0860576, overlap with least-damped mode 0.9829, "
                      "selected mode 21 (least damped)"),
        "product": (json.dumps({"lattice": {"kind": "product", "axes": [
                        {"kind": "ring", "t": 1.3, "segments": [{"type": "A", "len": 6}, {"type": "B", "len": 4}]},
                        {"kind": "circulant", "t": 1.4, "n": 8, "a": [1, 1, 0, 0, 0, 1, 1]}]}}),
                    "54ab2d25aa5b69991ba8cb84980187d9f83edb0ca7faf05b3e42a191c401e843",
                    "drive: peak at omega=-0.2798, overlap with least-damped mode 0.0612, selected mode 50"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_the_sweep_bytes_are_pinned(self, tmp_path, capsys, name):
        doc, digest, line = self.PINNED[name]
        assert self.run_drive(tmp_path, doc) == 0
        assert hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out == line + "\n"

    def test_sweep_calls_no_dense_solver(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(spectra, "eigendecompose", refuse)
        monkeypatch.setattr(response, "steady_state", refuse)
        assert self.run_drive(tmp_path, PRODUCT_DOC) == 0


def _array_exports(text: str) -> tuple[bytes, bytes] | None:
    """sweep.csv and selection.json as the drive would write them from the
    whole (F, N) array of ``frequency_sweep``, with the peak row picked by
    the CLI's rule; None when the sweep raises."""
    doc = io.parse_spec(text)
    h = doc.build()
    raw = isinstance(doc.spec, io.RawMatrix)
    sys_ = spectra.eigendecompose(h) if raw else spectra.closed_form_values(doc.spec, doc.t, h)
    cfg = response.default_drive_config(h, sys_, 0)
    try:
        x = response.frequency_sweep(h, cfg, sys_)
    except dg.SingularSystem:
        return None
    peaks = np.max(np.abs(x), axis=1)
    i = int(np.flatnonzero(peaks >= (1 - response.PEAK_TIE) * peaks.max())[0])
    selection = (response.mode_selection_check(x[i], sys_) if raw
                 else response.transform_mode_selection(x[i], h))
    return io.sweep_csv(cfg.omega_grid, x).encode(), io.selection_json(selection, float(cfg.omega_grid[i])).encode()


def _segments(draw, n: int) -> list[tuple[str, int]]:
    a = draw(st.integers(1, n - 1))
    return [("A", a), ("B", n - a)]


@st.composite
def drive_lattices(draw, kind: str):
    """A ``kind`` lattice of 8 to 400 sites, so that sweeps of one block
    (N <= 160) and of several are drawn."""
    n, t = draw(st.integers(8, 400)), draw(st.floats(1.01, 1.1))
    if kind == "ring":
        return {"kind": "ring", "t": t, "segments": [{"type": k, "len": m} for k, m in _segments(draw, n)]}
    if kind == "circulant":
        q = draw(st.integers(1, n // 2))
        return {"kind": "circulant", "t": t, "n": n, "a": [int(p in (q, n - q)) for p in range(1, n)]}
    if kind == "obc_chain":
        return {"kind": "obc_chain", "t": t, "n": min(n, 300)}
    m = draw(st.integers(2, 20))
    ring_axis = {"kind": "ring", "t": t, "segments": [{"type": k, "len": s} for k, s in _segments(draw, max(3, n // m))]}
    return {"kind": "product", "axes": [ring_axis, {"kind": "obc_chain", "t": draw(st.floats(1.01, 1.2)), "n": m}]}


class TestStreamedSweep:
    """`drive` streams the certified blocks of its sweep into sweep.csv and
    keeps only the per-frequency peaks and the rows tied for the largest:
    its exports are those of the whole array."""

    @staticmethod
    def drive(directory: Path, text: str, *options) -> int:
        spec = directory / "spec.json"
        spec.write_text(text)
        return cli.main(["drive", "--spec", str(spec), "--out", str(directory / "out"), *map(str, options)])

    @pytest.mark.parametrize("kind", ["ring", "circulant", "obc_chain", "product"])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_the_streamed_exports_are_the_array_exports(self, kind, data):
        text = json.dumps({"lattice": data.draw(drive_lattices(kind), label="lattice")})
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory)
            with contextlib.redirect_stdout(io_module.StringIO()), contextlib.redirect_stderr(io_module.StringIO()):
                rc = self.drive(out, text)
            want = _array_exports(text)
            if want is None:
                assert rc == 2 and sorted(p.name for p in (out / "out").iterdir()) == ["manifest.json"]
                return
            assert rc == 0
            assert (out / "out" / "sweep.csv").read_bytes() == want[0]
            assert (out / "out" / "selection.json").read_bytes() == want[1]

    def test_raw_a39_b13_takes_the_schur_rescue_once(self, tmp_path, monkeypatch):
        # the expansion leaves rows of this raw ring uncertified; the Schur
        # form is built once and rescues them, block by block
        h = dg.build(dg.SegmentedRing((("A", 39), ("B", 13))), 6.0)
        entries = [[i + 1, j + 1, v, 0.0] for i, j, v in zip(*(a.tolist() for a in h.entries()))]
        text = json.dumps({"lattice": {"kind": "raw", "dim": h.dim, "entries": entries}})
        calls, schur = [], response._schur_route
        monkeypatch.setattr(response, "_schur_route", lambda *args: calls.append(args) or schur(*args))
        assert self.drive(tmp_path, text) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        sweep, selection = _array_exports(text)
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == sweep
        assert (tmp_path / "out" / "selection.json").read_bytes() == selection

    def test_mirror_peaks_in_different_blocks_go_to_the_lowest_omega(self, tmp_path):
        # the open chain's spectrum is symmetric under E -> -E, so its sweep
        # peaks at +-omega; on 10001 frequencies a block holds 65536 // 12
        # of them, and the two peaks fall in different blocks
        grid = np.linspace(-3.0, 3.0, 10001)
        assert self.drive(tmp_path, OBC_DOC, "--omega-min", -3, "--omega-max", 3, "--omega-steps", 10001) == 0
        doc = io.parse_spec(OBC_DOC)
        h = doc.build()
        values = spectra.closed_form_values(doc.spec, doc.t, h)
        cfg = response.default_drive_config(h, values, 0, omega_grid=grid)
        x = response.frequency_sweep(h, cfg, values)
        peaks = np.max(np.abs(x), axis=1)
        top = np.flatnonzero(peaks >= (1 - response.PEAK_TIE) * peaks.max())
        blocks = response.sweep_blocks(len(grid), h.dim)
        assert len(top) == 2 and grid[top[0]] == pytest.approx(-grid[top[1]], rel=1e-12)
        assert [next(k for k, s in enumerate(blocks) if s.start <= i < s.stop) for i in top] == [0, 1]
        selection = json.loads((tmp_path / "out" / "selection.json").read_text())
        assert selection["omega_at_peak"] == grid[top[0]] < 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == io.sweep_csv(grid, x).encode()
