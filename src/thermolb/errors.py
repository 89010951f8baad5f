"""Exception hierarchy shared by all modules."""


class ThermoLBError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ThermoLBError):
    """Invalid user-supplied configuration (bad model name, indivisible extents, ...)."""


class ContractViolation(ThermoLBError):
    """A caller broke an operation precondition (out-of-range index, bad region, ...)."""


class DomainError(ThermoLBError):
    """Physically inadmissible input (non-positive density or temperature)."""


class DegenerateStateError(DomainError):
    """A simulation state produced non-positive density; carries site coordinates when known."""

    def __init__(self, message, sites=None):
        super().__init__(message)
        self.sites = sites


class AllocationError(ThermoLBError):
    """Requested field does not fit addressable storage."""


class ProtocolError(ThermoLBError):
    """Halo-exchange message mismatch (wrong size or step tag)."""


class DeadlockError(ThermoLBError):
    """A rank timed out waiting for a message; names the stalled rank."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class PeerAbortedError(ThermoLBError):
    """A rank stopped waiting because another rank failed first; a
    consequence of that failure, not a failure of its own."""


class UnsupportedCaseError(ThermoLBError):
    """A model formula is only stated for a restricted case (e.g. square lattices)."""
