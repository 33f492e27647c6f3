"""Exception and warning types shared across the package."""


class DecayGraphError(Exception):
    """Base class for all decaygraph errors."""


class InvalidHopping(DecayGraphError):
    """Hopping ratio outside the supported range (0, inf) ∩ [1/64, 64]."""


class TrivialHopping(InvalidHopping):
    """t = 1 makes the lattice reciprocal (Hermitian); rejected at validation."""


class InvalidRing(DecayGraphError):
    """Segment list violates the alternating-ring constraints."""


class SymmetryViolation(DecayGraphError):
    """Circulant connectivity vector breaks a_q = a_{N-q}.

    Carries the first offending offset (1-based) as ``offset``.
    """

    def __init__(self, offset: int, message: str | None = None):
        self.offset = offset
        super().__init__(message or f"connectivity a[{offset}] != a[N-{offset}]")


class EmptyConnectivity(DecayGraphError):
    """All connectivity offsets are zero."""


class DimensionOverflow(DecayGraphError):
    """Requested lattice exceeds the configured node cap."""


class InconsistentEntries(DecayGraphError):
    """A coupled pair of matrix entries is not {1, t} up to the stored ratio."""


class ConvergenceFailure(DecayGraphError):
    """Dense eigensolver did not converge or failed residual certification."""


class IllConditioned(UserWarning):
    """Eigenvector matrix condition estimate exceeds the trust threshold."""


class DegenerateAmbiguity(UserWarning):
    """Summed eigenvalues collide within tolerance; subspace vectors are non-unique."""


class UnderflowSites(DecayGraphError):
    """Mode amplitudes fall below the representable floor; reduce t or N."""


class ChainTooShort(DecayGraphError):
    """Chain does not span enough sites for a ratio estimate."""


class ZeroAmplitude(DecayGraphError):
    """Mode profile vanishes at a site where a log-ratio is required."""


class ConventionMismatch(DecayGraphError):
    """Amplitude charges match the negated combinatorial charges (sigma = -1)."""


class SingularSystem(DecayGraphError):
    """Drive frequency placed the shifted matrix within 1e-12 of an eigenvalue."""


class ParseError(DecayGraphError):
    """Spec document is not well-formed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ValidationError(DecayGraphError):
    """Spec document is well-formed but violates a lattice constraint."""
