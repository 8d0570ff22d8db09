"""Exact coefficient rings: the integers and the integers modulo m.

All group-ring computation in this package happens over one of these
rings.  Arithmetic is exact everywhere; there is no floating point.
Values of ``IntegersMod(m)`` are kept as canonical representatives in
``[0, m)``; integer values are arbitrary-precision Python ints.
"""

from __future__ import annotations

from .errors import NotInvertibleError, RingMismatchError, UnsupportedRingError

# Miller-Rabin with the prime bases up to 41 is exact below the bound (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin, exact below
    ``_WITNESS_BOUND``.  Above it a composite is still rejected, but a
    probable prime raises :class:`UnsupportedRingError`: it is not proved."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x != 1 and all(pow(x, 2 ** k, n) != n - 1 for k in range(twos)):
            return False
    if n >= _WITNESS_BOUND:
        raise UnsupportedRingError(f"cannot prove {n} prime: Miller-Rabin is exact only "
                                   f"below {_WITNESS_BOUND}")
    return True


class ScalarRing:
    """The ring of integers (``modulus=0``) or the integers mod m (m >= 2).

    Instances are immutable and compare by modulus.  ``is_field`` is true
    exactly when the modulus is prime (see :func:`is_prime` for a modulus
    past its bound).
    """

    __slots__ = ("modulus", "_is_field")

    def __init__(self, modulus: int = 0):
        if modulus != 0 and modulus < 2:
            raise ValueError(f"modulus must be 0 (integers) or >= 2, got {modulus}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_is_field", None)

    @property
    def is_field(self) -> bool:
        """Whether the modulus is prime.  Tested on first access and kept, so
        rings that never divide never pay for :func:`is_prime`."""
        if self._is_field is None:
            object.__setattr__(self, "_is_field", self.modulus != 0 and is_prime(self.modulus))
        return self._is_field

    def __setattr__(self, name, value):
        raise AttributeError("ScalarRing is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarRing) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(("ScalarRing", self.modulus))

    def __repr__(self) -> str:
        return "ScalarRing(integers)" if self.modulus == 0 else f"ScalarRing(mod {self.modulus})"

    def canon(self, value: int) -> int:
        """Canonical representative of an integer in this ring."""
        return value if self.modulus == 0 else value % self.modulus

    def scalar(self, value: int) -> "Scalar":
        return Scalar(self, value)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def invert(self, value: int) -> int:
        """Inverse of a canonical representative; the ring must be a field."""
        if not self.is_field:
            raise NotInvertibleError(f"{self!r} is not a field")
        v = self.canon(value)
        if v == 0:
            raise NotInvertibleError("zero is not invertible")
        return pow(v, self.modulus - 2, self.modulus)


#: The ring of rational integers.
INTEGERS = ScalarRing(0)


class Scalar:
    """An exact element of a :class:`ScalarRing`.

    Immutable.  Mixed-ring arithmetic raises :class:`RingMismatchError`;
    plain Python ints are accepted and interpreted in this scalar's ring.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: ScalarRing, value: int):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", ring.canon(int(value)))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other) -> int:
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatchError(f"cannot mix {self.ring!r} and {other.ring!r}")
            return other.value
        if isinstance(other, int):
            return self.ring.canon(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.value * v)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.ring, -self.value)

    def invert(self) -> "Scalar":
        """Multiplicative inverse; requires a field and a nonzero value."""
        return Scalar(self.ring, self.ring.invert(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == self.ring.canon(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.value!r}, {self.ring!r})"
