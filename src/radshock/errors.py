"""Typed exceptions raised by the radshock library, and the input gate of its entry points."""

import math
import numbers

import numpy as np


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
    """A setting (a shooting tolerance, a sample count, a scan's non-bool shoot) outside its range.

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


def _reals(x):
    """The input gate: x as a float or float64 array, with its least and greatest entries.

    Each entry point passes each numeric argument through it (or `_real` or
    `_count`) once, then checks the range with plain comparisons.  A
    `numbers.Real` value or a 0-d real array gives a Python float three times;
    a non-empty array or list of real dtype gives itself as float64, without a
    copy if it is one.  Anything else (a Decimal, a string, None, a complex
    value, an empty or ragged array, an int beyond the float range) gives three
    NaN, which every range check rejects with its entry point's typed error.
    """
    if type(x) is float:
        return x, x, x
    try:
        arr = np.asarray(x)  # a ragged nesting of lists raises ValueError
        if not arr.ndim and (isinstance(x, numbers.Real) or arr.dtype.kind in "biuf"):
            x = float(x)  # an int or Fraction beyond the float range raises OverflowError
            return x, x, x
    except (ValueError, OverflowError):
        return math.nan, math.nan, math.nan
    if not (arr.ndim and arr.size and arr.dtype.kind in "biuf"):
        return math.nan, math.nan, math.nan
    arr = arr.astype(float, copy=False)
    return arr, float(arr.min()), float(arr.max())


def _real(x) -> float:
    """One real number as a Python float; anything else, an array included, as NaN."""
    x = x if type(x) is float else _reals(x)[0]
    return x if type(x) is float else math.nan


def _count(n) -> int:
    """An int, a numpy integer or a 0-d integer array as an int; anything else as 0.

    So is a count beyond the longest float64 array numpy can size,
    np.iinfo(np.intp).max // 8 elements: no array of that many samples or
    grid points can exist.
    """
    integral = isinstance(n, np.ndarray) and n.shape == () and n.dtype.kind in "iu"
    n = int(n) if integral or isinstance(n, numbers.Integral) else 0
    return n if n <= np.iinfo(np.intp).max // 8 else 0
