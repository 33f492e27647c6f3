"""The package's public names: a change to them edits this list on purpose."""

import types

import decaygraph as dg

PUBLIC = {
    # errors
    "ChainTooShort", "ConvergenceFailure", "ConventionMismatch", "DecayGraphError",
    "DegenerateAmbiguity", "DimensionOverflow", "EmptyConnectivity", "IllConditioned",
    "InconsistentEntries", "InvalidHopping", "InvalidRing", "ParseError", "SingularSystem",
    "SymmetryViolation", "TrivialHopping", "UnderflowSites", "ValidationError", "ZeroAmplitude",
    # lattice
    "CirculantGraph", "Edge", "Hamiltonian", "ObcChain", "ProductLattice", "SegmentedRing", "build",
    "build_circulant_hamiltonian", "build_obc_chain", "build_product_lattice", "build_ring_hamiltonian",
    "edge_list", "raw_hamiltonian", "transpose", "validate_circulant", "validate_hopping_ratio",
    # spectra
    "EigenSystem", "closed_form", "eigendecompose", "gauged_eigendecompose", "kron_sum_spectrum",
    "least_damped_mode", "mode_values",
    # decay
    "ChainFit", "ChargeMap", "DecayReport", "PurityResult", "SynthesizedChargeGraph",
    "amplitude_charges", "charge_map", "charges_from_fit", "combinatorial_charges", "decay_profile",
    "extract_decay_constants", "pure_decay_check", "synthesize_charge_graph", "verify_charge_equality",
    # response
    "DriveConfig", "LogProfile", "ModeSelection", "default_drive_config", "frequency_sweep",
    "log_profile", "mode_selection_check", "resolvent_response", "steady_state",
    "transform_mode_selection",
    # io
    "LatticeDocument", "RawMatrix", "parse_spec", "serialize_spec",
}


def test_public_names_are_the_written_list():
    names = {n for n, v in vars(dg).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
