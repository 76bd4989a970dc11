"""Exception types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager


class ProjheatError(Exception):
    """Base class for all package-specific errors."""


class PoleError(ProjheatError):
    """A lower hypergeometric parameter hit a pole inside the summation range."""


class NonIntegerDimension(ProjheatError):
    """An eigenspace dimension came out non-integral (input-convention bug)."""


class DimensionMismatch(ProjheatError):
    """Two projective-space points with different coordinate dimensions."""


class IndexOutOfRange(ProjheatError):
    """Monopole-harmonic index k outside [-m, 2*nu + m]."""


class NonPositiveTime(ProjheatError):
    """Heat-flow time t must be one real number, finite and strictly positive.

    Also raised for a t that is not one real number: a sequence, an array
    with an axis, a complex number or a string.
    """


class AntipodalDegenerate(ProjheatError):
    """Point pair too close to antipodal for the integral representation."""


class UnsupportedNu(ProjheatError):
    """Heat-coefficient theorem branch requires a non-negative integer nu."""


class UnsupportedN(ProjheatError):
    """Requested closed-form table only exists for n in {1, 2, 3, 4}."""


class TruncationFailed(ProjheatError):
    """A series tail bound did not fall below its tolerance within the term cap."""


class Binary64Overflow(ProjheatError):
    """An exact intermediate (a Gamma ratio or factorial quotient) exceeds binary64."""


@contextmanager
def binary64_range(what: str):
    """Re-raise an OverflowError from the block as Binary64Overflow naming ``what``."""
    try:
        yield
    except OverflowError:
        raise Binary64Overflow(f"{what} exceeds the binary64 range") from None
