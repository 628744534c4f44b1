"""Exception hierarchy.

``SeqirError`` is the package-wide base.  ``ConfigError`` marks problems with
user-supplied configuration files (CLI exit code 2); ``MathDomainError``
groups failures of mathematical preconditions (CLI exit code 3).
"""


class SeqirError(Exception):
    """Base class for all package errors."""


class ConfigError(SeqirError):
    """Invalid or inconsistent run configuration."""


class MathDomainError(SeqirError):
    """A mathematical precondition is violated."""


# --- regime chain -----------------------------------------------------------

class NegativeOffDiagonal(MathDomainError):
    """Generator has a negative off-diagonal transition rate."""


class RowSumViolation(MathDomainError):
    """Generator row sum deviates from zero beyond tolerance."""


class ReducibleChain(MathDomainError):
    """Generator's transition graph is not a single communicating class."""


class SingularSystem(MathDomainError):
    """Stationary-distribution solve failed; indicates an internal error."""


class AbsorbingState(MathDomainError):
    """A state with no exit rate was reached in a multi-state chain."""


class StepTooLarge(MathDomainError):
    """Discretization step too coarse for the chain's fastest exit rate."""


# --- model / thresholds -----------------------------------------------------

class DegenerateBounds(MathDomainError):
    """Invariant-set bounds are undefined (zero minimum death rate)."""


class NotPersistent(MathDomainError):
    """Persistence bounds requested although the persistence threshold <= 1."""


class DegeneratePsi2(MathDomainError):
    """Persistence bounds are undefined because the psi2 average vanishes."""


# --- integrator / analysis --------------------------------------------------

class NegativeState(SeqirError):
    """A compartment went negative under the erroring negativity policy."""


class NonFiniteState(MathDomainError):
    """A stepped state has a nan or infinite component (the scheme blew up)."""


class EmptyWindow(SeqirError):
    """A time window selects no usable samples."""


class NonPositiveValues(SeqirError):
    """Logarithmic rate estimation requires strictly positive values."""


class InconsistentConfigs(SeqirError):
    """Ensemble trajectories were produced from incompatible configurations."""
