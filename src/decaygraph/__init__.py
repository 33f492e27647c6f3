"""decaygraph: directed-graph tight-binding lattices with pure decay modes.

Build segmented directed rings, symmetric circulant graphs, open chains,
and their Kronecker products; diagonalize them numerically and (for the
structured families) analytically with residual certification; quantify
the pure-decay structure and its quantized decay charges; and emulate the
driven steady-state measurement of a lossy resonator network.
"""

from .errors import (
    ChainTooShort,
    ConvergenceFailure,
    ConventionMismatch,
    DecayGraphError,
    DegenerateAmbiguity,
    DimensionOverflow,
    EmptyConnectivity,
    IllConditioned,
    InconsistentEntries,
    InvalidHopping,
    InvalidRing,
    NotTwoSegment,
    ParseError,
    SingularSystem,
    SymmetryViolation,
    TrivialHopping,
    UnderflowSites,
    ValidationError,
    ZeroAmplitude,
)
from .lattice import (
    CirculantGraph,
    Edge,
    Hamiltonian,
    ObcChain,
    ProductLattice,
    SegmentedRing,
    build,
    build_circulant_hamiltonian,
    build_obc_chain,
    build_product_lattice,
    build_ring_hamiltonian,
    edge_list,
    raw_hamiltonian,
    transpose,
    validate_circulant,
    validate_hopping_ratio,
)
from .spectra import (
    EigenSystem,
    RingModeSolution,
    alternating_ring_modes,
    circulant_analytic_spectrum,
    closed_form,
    eigendecompose,
    gauged_eigendecompose,
    kron_sum_spectrum,
    least_damped_mode,
    mode_values,
    obc_analytic_spectrum,
    ring_analytic_spectrum,
    ring_solutions_as_system,
)
from .decay import (
    ChainFit,
    ChargeMap,
    DecayReport,
    PurityResult,
    SynthesizedChargeGraph,
    amplitude_charges,
    charge_map,
    charges_from_fit,
    combinatorial_charges,
    decay_profile,
    extract_decay_constants,
    pure_decay_check,
    synthesize_charge_graph,
    verify_charge_equality,
)
from .response import (
    DriveConfig,
    LogProfile,
    ModeSelection,
    ResponseProfile,
    default_drive_config,
    frequency_sweep,
    log_profile,
    mode_selection_check,
    resolvent_response,
    steady_state,
    transform_mode_selection,
)
from .io import LatticeDocument, RawMatrix, parse_spec, serialize_spec

__version__ = "0.1.0"
