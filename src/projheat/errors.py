"""Exception types shared across the package."""

from __future__ import annotations


class ProjheatError(Exception):
    """Base class for all package-specific errors."""


class PoleError(ProjheatError):
    """A lower hypergeometric parameter hit a pole inside the summation range."""


class DegenerateNormalization(ProjheatError):
    """Normalization by a Jacobi value at 1 that is exactly zero."""


class NonIntegerDimension(ProjheatError):
    """An eigenspace dimension came out non-integral (input-convention bug)."""


class DimensionMismatch(ProjheatError):
    """Two projective-space points with different coordinate dimensions."""


class IndexOutOfRange(ProjheatError):
    """Monopole-harmonic index k outside [-m, 2*nu + m]."""


class NonPositiveTime(ProjheatError):
    """Heat-flow time parameter t must be strictly positive."""


class AntipodalDegenerate(ProjheatError):
    """Point pair too close to antipodal for the integral representation."""


class UnsupportedNu(ProjheatError):
    """Heat-coefficient theorem branch requires a non-negative integer nu."""


class UnsupportedN(ProjheatError):
    """Requested closed-form table only exists for n in {1, 2, 3, 4}."""


class TruncationFailed(ProjheatError):
    """A series tail bound did not fall below its tolerance within the term cap."""
