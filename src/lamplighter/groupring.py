"""Sparse exact arithmetic in the group ring of Z/dZ wr Z.

A group-ring element is a finitely supported formal sum of wreath
elements with coefficients in a :class:`~lamplighter.ring.ScalarRing`.
Beyond the ring operations this module provides

* the augmentation map (sum of coefficients),
* the projection onto the Laurent ring k[x, x^-1] induced by the group
  quotient b * x^n -> x^n, whose kernel is the ideal generated by the
  base group's augmentation ideal, and
* dense coefficient matrices of left-multiplication maps restricted to
  finite supports, which feed the Ore-equation solver.

Coefficients are stored internally as canonical Python ints for speed;
:class:`~lamplighter.ring.Scalar` values appear at the API boundary.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import RingMismatchError, UnsupportedRingError, WindowOverflowError
from .ring import Scalar, ScalarRing
from .wreath import WreathElement, WreathGroup


def _coeff_value(ring: ScalarRing, c) -> int:
    if isinstance(c, Scalar):
        if c.ring != ring:
            raise RingMismatchError(f"coefficient ring {c.ring!r} does not match {ring!r}")
        return c.value
    return ring.canon(int(c))


class GroupRing:
    """The group algebra of a wreath group over a scalar ring."""

    __slots__ = ("ring", "group")

    def __init__(self, ring: ScalarRing, group: WreathGroup):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "group", group)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRing is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRing)
                and self.ring == other.ring and self.group == other.group)

    def __hash__(self) -> int:
        return hash((self.ring, self.group))

    def __repr__(self) -> str:
        return f"GroupRing({self.ring!r}, {self.group!r})"

    @property
    def zero(self) -> "GroupRingElement":
        return GroupRingElement(self, {})

    @property
    def one(self) -> "GroupRingElement":
        return GroupRingElement(self, {self.group.identity: 1})

    def monomial(self, g: WreathElement, coeff=1) -> "GroupRingElement":
        """The element coeff * g."""
        if g.group != self.group:
            raise RingMismatchError(f"{g!r} does not live in {self.group!r}")
        c = _coeff_value(self.ring, coeff)
        return GroupRingElement(self, {g: c} if c else {})

    def element(self, terms: Mapping[WreathElement, object] |
                Iterable[tuple[WreathElement, object]]) -> "GroupRingElement":
        """Build an element from (group element, coefficient) pairs.

        Repeated group elements accumulate; zero coefficients are pruned.
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[WreathElement, int] = {}
        for g, c in items:
            if g.group != self.group:
                raise RingMismatchError(f"{g!r} does not live in {self.group!r}")
            v = acc.get(g, 0) + _coeff_value(self.ring, c)
            v = self.ring.canon(v)
            if v:
                acc[g] = v
            else:
                acc.pop(g, None)
        return GroupRingElement(self, acc)

    def geometric_a(self, count: int) -> "GroupRingElement":
        """1 + a + a^2 + ... + a^(count-1) for the lamp generator a = a[0]."""
        a = self.group.generator_a(0)
        return self.element([(a ** k, 1) for k in range(count)])

    def random_element(self, rng, terms: int = 3, lamp_bound: int = 2,
                       shift_bound: int = 2, coeff_bound: int = 3) -> "GroupRingElement":
        """A small random element, deterministic for a seeded ``rng``."""
        picked = []
        for _ in range(terms):
            lamps = {}
            for pos in range(-lamp_bound, lamp_bound + 1):
                lamps[pos] = rng.randrange(self.group.d)
            g = self.group.element(lamps, rng.randint(-shift_bound, shift_bound))
            c = rng.randint(-coeff_bound, coeff_bound)
            picked.append((g, c))
        return self.element(picked)

    def from_json(self, data: list) -> "GroupRingElement":
        """Inverse of :meth:`GroupRingElement.to_json`."""
        pairs = []
        for item in data:
            g = self.group.element([(int(p), int(v)) for p, v in item["lamps"]],
                                   int(item["shift"]))
            pairs.append((g, int(item["coeff"])))
        return self.element(pairs)


class GroupRingElement:
    """A finitely supported formal sum of wreath elements.

    Immutable; ``terms`` maps group elements to nonzero canonical
    coefficient values.  Construct through :class:`GroupRing`.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GroupRing, terms: dict[WreathElement, int]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @property
    def ring(self) -> ScalarRing:
        return self.algebra.ring

    @property
    def group(self) -> WreathGroup:
        return self.algebra.group

    def _check(self, other: "GroupRingElement") -> None:
        if self.algebra != other.algebra:
            raise RingMismatchError(
                f"cannot combine elements of {self.algebra!r} and {other.algebra!r}")

    def support(self) -> tuple[WreathElement, ...]:
        """The group elements with nonzero coefficient, in canonical order."""
        return tuple(sorted(self.terms, key=WreathElement.sort_key))

    def coefficient(self, g: WreathElement) -> Scalar:
        return Scalar(self.ring, self.terms.get(g, 0))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        canon = self.ring.canon
        acc = dict(self.terms)
        for g, c in other.terms.items():
            v = canon(acc.get(g, 0) + c)
            if v:
                acc[g] = v
            else:
                acc.pop(g, None)
        return GroupRingElement(self.algebra, acc)

    def __neg__(self) -> "GroupRingElement":
        canon = self.ring.canon
        return GroupRingElement(self.algebra,
                                {g: canon(-c) for g, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def scale(self, c) -> "GroupRingElement":
        """Left/right scalar multiple (the coefficient ring is commutative)."""
        v = _coeff_value(self.ring, c)
        canon = self.ring.canon
        acc = {}
        for g, cg in self.terms.items():
            w = canon(cg * v)
            if w:
                acc[g] = w
        return GroupRingElement(self.algebra, acc)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check(other)
        # Convolution: sum of c_g * c_h over (g h).  Coefficients accumulate
        # as raw ints and are canonicalized once at the end.
        acc: dict[WreathElement, int] = {}
        get = acc.get
        for g, cg in self.terms.items():
            for h, ch in other.terms.items():
                k = g * h
                acc[k] = get(k, 0) + cg * ch
        canon = self.ring.canon
        out = {}
        for g, c in acc.items():
            v = canon(c)
            if v:
                out[g] = v
        return GroupRingElement(self.algebra, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def augmentation(self) -> Scalar:
        """The augmentation map: the sum of all coefficients."""
        return Scalar(self.ring, sum(self.terms.values()))

    def project_to_laurent(self) -> "LaurentElement":
        """Image under the ring map induced by the quotient b * x^n -> x^n.

        The kernel of this projection is the two-sided ideal generated by
        the base group's augmentation ideal.
        """
        acc: dict[int, int] = {}
        for g, c in self.terms.items():
            acc[g.shift] = acc.get(g.shift, 0) + c
        canon = self.ring.canon
        return LaurentElement(self.ring, {n: canon(c) for n, c in acc.items() if canon(c)})

    def in_base_augmentation_ideal(self) -> bool:
        """True iff the projection onto k[x, x^-1] is zero."""
        return self.project_to_laurent().is_zero()

    def to_json(self) -> list:
        """Canonically ordered list of {coeff, lamps, shift} term records."""
        return [{"coeff": self.terms[g],
                 "lamps": [[p, v] for p, v in g.lamps],
                 "shift": g.shift}
                for g in self.support()]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        signed = self.ring.modulus == 0
        parts = []
        for g in self.support():
            c = self.terms[g]
            neg = signed and c < 0
            mag = -c if neg else c
            if g.is_identity():
                text = str(mag)
            elif mag == 1:
                text = str(g)
            else:
                text = f"{mag}*{g}"
            if not parts:
                parts.append(("-" if neg else "") + text)
            else:
                parts.append(("- " if neg else "+ ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<GroupRingElement {self} over {self.ring!r}, d={self.group.d}>"


class LaurentElement:
    """An element of k[x, x^-1]: a finitely supported map exponent -> k."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ScalarRing, coeffs: dict[int, int]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentElement is immutable")

    def _check(self, other: "LaurentElement") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"cannot mix {self.ring!r} and {other.ring!r}")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        canon = self.ring.canon
        acc = dict(self.coeffs)
        for n, c in other.coeffs.items():
            v = canon(acc.get(n, 0) + c)
            if v:
                acc[n] = v
            else:
                acc.pop(n, None)
        return LaurentElement(self.ring, acc)

    def __neg__(self) -> "LaurentElement":
        canon = self.ring.canon
        return LaurentElement(self.ring, {n: canon(-c) for n, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        self._check(other)
        acc: dict[int, int] = {}
        for n, c in self.coeffs.items():
            for m, e in other.coeffs.items():
                acc[n + m] = acc.get(n + m, 0) + c * e
        canon = self.ring.canon
        return LaurentElement(self.ring, {n: canon(c) for n, c in acc.items() if canon(c)})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            neg = self.ring.modulus == 0 and c < 0
            mag = -c if neg else c
            if n == 0:
                text = str(mag)
            else:
                xs = "x" if n == 1 else f"x^{n}"
                text = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(("-" if neg else "") + text)
            else:
                parts.append(("- " if neg else "+ ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<LaurentElement {self} over {self.ring!r}>"


def left_mul_matrix(alpha: GroupRingElement,
                    domain: Sequence[WreathElement],
                    codomain: Sequence[WreathElement]) -> np.ndarray:
    """Coefficient matrix of g -> alpha * g on finite supports.

    Column j holds the coefficient vector of ``alpha * domain[j]`` in the
    ``codomain`` basis.  Entries are canonical representatives of the
    coefficient field.  Raises :class:`WindowOverflowError` if any product
    has support outside ``codomain``.
    """
    ring = alpha.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"left_mul_matrix needs field coefficients, got {ring!r}")
    index = {g: i for i, g in enumerate(codomain)}
    mat = np.zeros((len(codomain), len(domain)), dtype=np.int64)
    for j, g in enumerate(domain):
        for h, c in alpha.terms.items():
            k = h * g
            i = index.get(k)
            if i is None:
                raise WindowOverflowError(
                    f"support of alpha*{g} escapes the codomain at {k}")
            mat[i, j] = ring.canon(mat[i, j] + c)
    return mat
