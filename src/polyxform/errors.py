"""Exception hierarchy shared across the library."""


class PolyxformError(Exception):
    """Base class for all library errors."""


class UsageError(PolyxformError):
    """Caller violated a precondition (mismatched moduli, bad arguments)."""


class NotInvertible(PolyxformError):
    """Element has no multiplicative inverse in the given ring."""


class Singular(PolyxformError):
    """Linear system has a singular matrix; carries the zero determinant."""

    def __init__(self, message, determinant=0):
        super().__init__(message)
        self.determinant = determinant


class NoncubeImpossible(PolyxformError):
    """Every residue is a cube (modulus = 2 mod 3), so no non-cube exists."""


class NoSuchRoot(PolyxformError):
    """No root of unity of the requested order exists in the field."""


class PrimeSupplyExhausted(PolyxformError):
    """Plan construction ran out of candidate primes before meeting its bound."""


class OverflowRisk(UsageError):
    """Packing parameters would let a convolution coefficient wrap the modulus;
    the caller chose operands or parameters the backend cannot take."""
