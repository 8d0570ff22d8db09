"""Sparse exact arithmetic in the group ring of Z/dZ wr Z.

A group-ring element is a finitely supported formal sum of wreath
elements with coefficients in a :class:`~lamplighter.ring.ScalarRing`.
Beyond the ring operations this module provides

* the augmentation map (sum of coefficients),
* the projection onto the Laurent ring k[x, x^-1] induced by the group
  quotient b * x^n -> x^n, whose kernel is the ideal generated by the
  base group's augmentation ideal, and
* dense coefficient matrices of left-multiplication maps restricted to
  finite supports, which feed the Ore-equation solver.  They are built
  from integer-coded elements (:class:`CodedElements`), not from
  per-cell products of wreath elements.

Coefficients are stored internally as canonical Python ints for speed;
:class:`~lamplighter.ring.Scalar` values appear at the API boundary.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (LimitExceededError, RingMismatchError, UnsupportedRingError,
                     WindowOverflowError)
from .linalg import working_dtype
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


class CodedElements:
    """Group elements as integer arrays, for index arithmetic without
    building :class:`~lamplighter.wreath.WreathElement` objects.

    Element i is the lamp configuration ``digits[i]`` (column k holds the
    base-d digit of position ``lo + k``) times x^``shifts[i]``.
    """

    __slots__ = ("group", "lo", "shifts", "digits")

    def __init__(self, group: WreathGroup, lo: int, shifts: np.ndarray, digits: np.ndarray):
        self.group = group
        self.lo = lo
        self.shifts = shifts
        self.digits = digits

    @classmethod
    def encode(cls, group: WreathGroup, elements: Sequence[WreathElement]) -> "CodedElements":
        """The elements in order, over the range of positions their lamps use."""
        rows, positions, values = [], [], []
        for i, g in enumerate(elements):
            if g.group != group:
                raise RingMismatchError(f"{g!r} does not live in {group!r}")
            for pos, val in g.lamps:
                rows.append(i)
                positions.append(pos)
                values.append(val)
        lo = min(positions, default=0)
        width = max(positions, default=lo - 1) - lo + 1
        digits = np.zeros((len(elements), width), dtype=np.int64)
        digits[rows, np.array(positions, dtype=np.int64) - lo] = values
        shifts = np.array([g.shift for g in elements], dtype=np.int64)
        return cls(group, lo, shifts, digits)

    def __len__(self) -> int:
        return len(self.shifts)

    def take(self, index) -> "CodedElements":
        return CodedElements(self.group, self.lo, self.shifts[index], self.digits[index])

    def decode(self) -> list[WreathElement]:
        lo, group = self.lo, self.group
        return [WreathElement(group, tuple((lo + k, v) for k, v in enumerate(row) if v), n)
                for row, n in zip(self.digits.tolist(), self.shifts.tolist())]

    def left_translates(self, hs: Sequence[WreathElement]) -> "CodedElements":
        """Every h * g, h-major: row k * len(self) + j is hs[k] * self[j].

        h * g adds the digits of g, moved up by the shift of h, to the
        lamps of h mod d, and adds the shifts.
        """
        n, width = self.digits.shape
        ends = [p for h in hs for p in (self.lo + h.shift, self.lo + h.shift + width - 1)]
        ends += [pos for h in hs for pos, _ in h.lamps]
        lo = min(ends, default=0)
        digits = np.zeros((len(hs) * n, max(ends, default=lo - 1) - lo + 1), dtype=np.int64)
        shifts = np.empty(len(hs) * n, dtype=np.int64)
        for k, h in enumerate(hs):
            if h.group != self.group:
                raise RingMismatchError(f"{h!r} does not live in {self.group!r}")
            block = digits[k * n:(k + 1) * n]
            start = self.lo + h.shift - lo
            block[:, start:start + width] = self.digits
            for pos, val in h.lamps:
                block[:, pos - lo] += val
            shifts[k * n:(k + 1) * n] = self.shifts + h.shift
        digits %= self.group.d
        return CodedElements(self.group, lo, shifts, digits)


def element_codes(*tables: CodedElements) -> list[np.ndarray]:
    """One sortable code per row of each table, equal iff the elements are.

    All tables are read in one frame: the shift offset and each lamp
    digit are mixed-radix digits, packed into as many int64 words as
    exactness needs.  One word gives an int64 code; several give a
    fixed-width byte string, so no window overflows the code.
    """
    used = [t for t in tables if len(t)]
    if not used:
        return [np.zeros(0, dtype=np.int64) for _ in tables]
    lo = min(t.lo for t in used)
    hi = max(t.lo + t.digits.shape[1] for t in used)
    low = min(int(t.shifts.min()) for t in used)
    high = max(int(t.shifts.max()) for t in used)
    radices = [high - low + 1] + [used[0].group.d] * (hi - lo)
    words, start = [], 0          # column ranges and place values of each word
    while start < len(radices):
        stop, span = start, 1
        while stop < len(radices) and (stop == start or span * radices[stop] <= 2 ** 63):
            span *= radices[stop]
            stop += 1
        places = [1] * (stop - start)
        for i in range(stop - start - 2, -1, -1):
            places[i] = places[i + 1] * radices[start + i + 1]
        words.append((start, stop, np.array(places, dtype=np.int64)))
        start = stop
    codes = []
    for t in tables:
        columns = np.zeros((len(t), len(radices)), dtype=np.int64)
        columns[:, 0] = t.shifts - low
        columns[:, 1 + t.lo - lo:1 + t.lo - lo + t.digits.shape[1]] = t.digits
        packed = np.stack([columns[:, a:b] @ places for a, b, places in words], axis=1)
        codes.append(packed[:, 0] if len(words) == 1 else
                     np.ascontiguousarray(packed).view(np.dtype((np.void, 8 * len(words))))[:, 0])
    return codes


# Bound on the cells (rows x columns) of a dense coefficient matrix,
# checked before it is allocated.  The largest matrix of the GF(2), d = 2
# searches up to window (3,3) has 34,865,152 cells; the system of window
# (4,4) would have 66,060,288.
MAX_MATRIX_CELLS = 5 * 10 ** 7


def check_matrix_cells(rows: int, cols: int) -> None:
    """Raise :class:`LimitExceededError` for a matrix over the cell bound."""
    if rows * cols > MAX_MATRIX_CELLS:
        raise LimitExceededError(f"a {rows} x {cols} matrix exceeds the bound of "
                                 f"{MAX_MATRIX_CELLS} cells")


def left_mul_matrix(alpha: GroupRingElement,
                    domain: Sequence[WreathElement] | CodedElements,
                    codomain: Sequence[WreathElement] | None = None) -> np.ndarray:
    """Coefficient matrix of g -> alpha * g on finite supports.

    Column j holds the coefficient vector of ``alpha * domain[j]``.  Rows
    follow ``codomain``; without one they are the distinct products in
    code order (see :func:`element_codes`), which no kernel depends on.
    Entries are canonical representatives of the coefficient field.
    Raises :class:`WindowOverflowError` if a product has support outside
    ``codomain`` and :class:`LimitExceededError` if the matrix would have
    more than ``MAX_MATRIX_CELLS`` cells (see :func:`check_matrix_cells`).
    """
    ring = alpha.ring
    if not ring.is_field:
        raise UnsupportedRingError(f"left_mul_matrix needs field coefficients, got {ring!r}")
    if not isinstance(domain, CodedElements):
        domain = CodedElements.encode(alpha.group, domain)
    products = domain.left_translates(list(alpha.terms))
    if codomain is None:
        table, rows = np.unique(element_codes(products)[0], return_inverse=True)
        height = len(table)
    else:
        codes, table = element_codes(products, CodedElements.encode(alpha.group, codomain))
        order = np.argsort(table, kind="stable")
        found = np.searchsorted(table, codes, sorter=order)
        hit = found < len(table)
        hit[hit] = table[order[found[hit]]] == codes[hit]
        if not hit.all():
            i = int(np.argmin(hit))
            g = domain.take([i % len(domain)]).decode()[0]
            k = products.take([i]).decode()[0]
            raise WindowOverflowError(f"support of alpha*{g} escapes the codomain at {k}")
        rows, height = order[found], len(codomain)
    check_matrix_cells(height, len(domain))
    mat = np.zeros((height, len(domain)), dtype=working_dtype(ring.modulus))
    # h * g = h' * g forces h = h', so every cell is written at most once.
    mat[rows, np.tile(np.arange(len(domain)), len(alpha.terms))] = \
        np.repeat(np.array(list(alpha.terms.values()), dtype=mat.dtype), len(domain))
    return mat
