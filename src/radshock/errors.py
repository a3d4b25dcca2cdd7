"""Typed exceptions raised by the radshock library."""


class RadshockError(Exception):
    """Base class for all radshock errors."""


class DomainError(RadshockError):
    """An input outside the domain a function is defined on (CLI exit 2)."""


class StateOutsideDomain(DomainError):
    """State violates psi0 > |psi1|."""


class EpsilonOutOfRange(DomainError):
    """Dissipation parameter outside its admissible interval."""


class NonPositiveParameter(DomainError):
    """Transport coefficient that must be positive and finite is not."""


class QOutOfRange(DomainError):
    """Shock-strength parameter outside (3/4, 1)."""


class ZOutOfRange(DomainError):
    """Downstream squared velocity outside (1/8, 1/2)."""


class DegenerateShock(DomainError):
    """Shock strength too close to the zero-amplitude limit 3/4."""


class OptionOutOfRange(DomainError, ValueError):
    """A setting (shooting offset or tolerance, sample count) outside its range.

    Also a ValueError, so callers that catch that keep working.
    """


class RootFindingFailure(RadshockError):
    """Residual polishing of a polynomial root stalled."""


class EpsilonAboveHat(DomainError):
    """Upper separatrix requested where its defining root leaves (1/8, 1/2)."""


class ParamsOutOfOmega(DomainError):
    """(eps, q_tilde) outside the parameter square (0,1] x (3/4,1)."""


class SingularBsharp(RadshockError):
    """Dissipation matrix numerically singular at the requested state."""


class NotASaddle(RadshockError):
    """Upstream rest point failed the opposite-sign eigenvalue test."""


class TooFewSamples(RadshockError):
    """Oscillation analysis needs at least three trajectory samples."""


class InternalInconsistency(RadshockError):
    """Two independent classification routes disagree outside tie bands."""
