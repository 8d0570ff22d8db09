"""Exact normal-form arithmetic in the wreath product Z/dZ wr Z.

An element is written uniquely as b * x^n where b is a finitely supported
configuration of lamps (values mod d, indexed by integer positions) and
x generates the shift.  Conjugation by x moves lamps one step up:
x * a[i] * x^-1 = a[i+1], where a[i] is the lamp generator at position i.

The multiplication law in this normal form is

    (b1, n1) * (b2, n2) = (b1 + shift_{n1}(b2), n1 + n2),

with shift_n(f)(i) = f(i - n).  Elements are immutable and hashable, so
they serve directly as group-ring support keys.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import LimitExceededError, RingMismatchError
from .ring import Immutable

Lamps = tuple[tuple[int, int], ...]


class WreathGroup(Immutable):
    """Parameters of the group Z/dZ wr Z: the lamp order d >= 2."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        if not isinstance(d, int) or d < 2:
            raise ValueError(f"lamp order d must be an integer >= 2, got {d}")
        object.__setattr__(self, "d", d)

    def __eq__(self, other) -> bool:
        return isinstance(other, WreathGroup) and self.d == other.d

    def __hash__(self) -> int:
        return hash(("WreathGroup", self.d))

    def __repr__(self) -> str:
        return f"WreathGroup(d={self.d})"

    @property
    def identity(self) -> "WreathElement":
        return WreathElement(self, (), 0)

    def element(self, lamps: Mapping[int, int] | Iterable[tuple[int, int]] = (),
                shift: int = 0) -> "WreathElement":
        """Build an element from a lamp assignment and a shift.

        Lamp values are reduced mod d; zero lamps are dropped, so the
        result is in normal form regardless of the input.
        """
        items = lamps.items() if isinstance(lamps, Mapping) else lamps
        cleaned = {}
        for pos, val in items:
            v = val % self.d
            if v:
                cleaned[int(pos)] = v
        return WreathElement(self, tuple(sorted(cleaned.items())), int(shift))

    def generator_a(self, i: int = 0) -> "WreathElement":
        """The lamp generator a[i] = x^i * a * x^-i: lamp i set to 1."""
        return WreathElement(self, ((int(i), 1),), 0)

    def generator_x(self, n: int = 1) -> "WreathElement":
        """The shift x^n."""
        return WreathElement(self, (), int(n))


class WreathElement(Immutable):
    """Normal form b * x^n of an element of Z/dZ wr Z.

    ``lamps`` is a sorted tuple of (position, value) pairs with values in
    1..d-1; ``shift`` is the exponent of x.  Two elements are equal iff
    their groups, lamps and shifts agree.  The hash of (d, lamps, shift)
    is computed once, at construction, and kept in ``_hash``.
    """

    __slots__ = ("group", "lamps", "shift", "_hash")

    def __init__(self, group: WreathGroup, lamps: Lamps, shift: int):
        _set_group(self, group)
        _set_lamps(self, lamps)
        _set_shift(self, shift)
        _set_hash(self, hash((group.d, lamps, shift)))

    def _check(self, other: "WreathElement") -> None:
        if self.group is not other.group and self.group != other.group:
            raise RingMismatchError(
                f"cannot combine elements of {self.group!r} and {other.group!r}")

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        group = self.group
        if other.group is not group:
            self._check(other)
        n = self.shift
        d = group.d
        if not other.lamps:
            merged = self.lamps
        elif not self.lamps and n == 0:
            merged = other.lamps
        else:
            acc = dict(self.lamps)
            for pos, val in other.lamps:
                p = pos + n
                v = (acc.get(p, 0) + val) % d
                if v:
                    acc[p] = v
                else:
                    del acc[p]
            merged = tuple(sorted(acc.items()))
        return WreathElement(group, merged, n + other.shift)

    def inverse(self) -> "WreathElement":
        """The group inverse: (b, n)^-1 = (shift_{-n}(-b), -n)."""
        d = self.group.d
        n = self.shift
        lamps = tuple((pos - n, d - val) for pos, val in self.lamps)
        return WreathElement(self.group, lamps, -n)

    def __pow__(self, k: int) -> "WreathElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.group.identity
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return not self.lamps and self.shift == 0

    def sort_key(self):
        """Total-order key: shift first (by magnitude, ties broken toward
        negative), then lamp support lexicographically by (position, value).

        Ordering shifts by magnitude keeps the shift-free block first, so
        printed group-ring sums start with their constant part.
        """
        return (abs(self.shift), self.shift, self.lamps)

    def __lt__(self, other: "WreathElement") -> bool:
        self._check(other)
        return self.sort_key() < other.sort_key()

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, WreathElement)
                                 and self._hash == other._hash
                                 and self.shift == other.shift
                                 and self.lamps == other.lamps
                                 and self.group.d == other.group.d)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = []
        for pos, val in self.lamps:
            parts.append(f"a[{pos}]" + (f"^{val}" if val != 1 else ""))
        if self.shift == 1:
            parts.append("x")
        elif self.shift != 0:
            parts.append(f"x^{self.shift}")
        return "*".join(parts) if parts else "e"

    def __repr__(self) -> str:
        return f"WreathElement(d={self.group.d}, {self})"


# The slots' own setters, which build an element without going through the
# __setattr__ that keeps it immutable.
_set_group, _set_lamps, _set_shift, _set_hash = (
    WreathElement.__dict__[name].__set__ for name in WreathElement.__slots__)


# Default bound on the elements one enumeration may build (CLI --cap).
DEFAULT_CAP = 10 ** 6


def lamp_span(group: WreathGroup, generators: Iterable[Lamps], cap: int) -> list[WreathElement]:
    """The subgroup of the base group spanned by the lamp configurations
    ``generators``, by coset extension: with m <= d the order of the next
    generator g modulo the span S so far, the disjoint cosets S*g, ...,
    S*g^(m-1) are appended in order.  While g^m lies outside S the span
    has at least (m + 1) * |S| members; that count is checked against
    ``cap`` before each further power, so the cap bounds the work for any d
    and refuses exactly the spans of more than ``cap`` members."""
    members, seen = [group.identity], {()}      # seen: the lamps of the members
    for lamps in generators:
        g = power = WreathElement(group, lamps, 0)
        m = 1
        while power.lamps not in seen:
            if (m + 1) * len(members) > cap:
                raise LimitExceededError(f"subgroup closure exceeds the cap {cap}")
            power, m = power * g, m + 1
        coset, new = members, []
        for _ in range(m - 1):
            coset = [c * g for c in coset]
            new += coset
        seen.update(c.lamps for c in new)
        members += new
    return members

