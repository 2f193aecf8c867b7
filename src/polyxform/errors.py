"""Exception hierarchy shared across the library.

UsageError is the one class for a caller's bad argument (see modcore._as_int);
a zero to invert, a singular matrix and a root the field lacks are usage
errors too.  So the CLI's exit 4, for a PolyxformError that is neither a
UsageError nor PrimeSupplyExhausted, means only an oracle mismatch.
"""


class PolyxformError(Exception):
    """Base class for all library errors."""


class UsageError(PolyxformError):
    """Caller violated a precondition (mismatched moduli, bad arguments)."""


class PrimeSupplyExhausted(PolyxformError):
    """Plan construction ran out of candidate primes before meeting its bound."""


class OverflowRisk(UsageError):
    """Packing parameters would let a convolution coefficient wrap the modulus;
    the caller chose operands or parameters the backend cannot take."""
