"""Domain errors raised by gauss_renyi.

Everything that signals a bad physical or mathematical input derives from
GaussRenyiError; callers (notably the CLI) can catch the base class and
distinguish domain failures from I/O problems.
"""


class GaussRenyiError(Exception):
    """Base class for all domain errors raised by this package."""


class UnphysicalStateError(GaussRenyiError):
    """A mean/covariance pair does not describe a quantum state."""


class NotTraceClassError(GaussRenyiError):
    """Kernel parameters do not define a positive trace-class operator."""


class NotFaithfulError(GaussRenyiError):
    """The reference state has a pure mode, so its fractional powers blow up."""


class DecompositionError(GaussRenyiError):
    """A matrix factorization failed or left residues beyond tolerance."""


class AlphaRangeError(GaussRenyiError):
    """The Renyi order is outside the supported open interval."""


class ModeMismatchError(GaussRenyiError, ValueError):
    """rho and sigma have different numbers of modes."""


class StateFileError(GaussRenyiError):
    """A state file is missing, unreadable, or does not follow the JSON schema.

    Deliberately distinct from the physics errors: the CLI reports schema and
    I/O problems with a different exit code than domain failures.
    """
