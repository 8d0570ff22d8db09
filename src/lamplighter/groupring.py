"""Sparse exact arithmetic in the group ring of Z/dZ wr Z.

A group-ring element is a finitely supported formal sum of wreath
elements with coefficients in a :class:`~lamplighter.ring.ScalarRing`.
Beyond the ring operations this module provides

* the augmentation map (sum of coefficients),
* the JSON term records of an element (:class:`TermRecords`), which
  write themselves indented at any depth,
* the projection onto the Laurent ring k[x, x^-1] induced by the group
  quotient b * x^n -> x^n, whose kernel is the ideal generated by the
  base group's augmentation ideal,
* integer-coded elements (:class:`CodedElements`, :func:`element_codes`),
  whose translates and codes the Ore system and the annihilator search
  read instead of per-cell products of wreath elements, written straight
  as digits by :func:`lamp_configurations`, the one enumerator of lamp
  configurations on given positions; products of many term pairs run
  through them too (:func:`_coded_product`): every product is one
  translate, its digits reduced mod d by one conditional subtract, and
  equal products are grouped by one sort of their codes, and
* left-multiplication maps restricted to finite supports: the row of
  every product (:func:`left_mul_rows`) and the dense coefficient matrix
  (:func:`left_mul_matrix`), with the distinct products in code order as
  rows.

Coefficients are stored internally as canonical Python ints for speed;
:class:`~lamplighter.ring.Scalar` values appear at the API boundary.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import LimitExceededError, RingMismatchError
from .linalg import field_dtype
from .ring import Immutable, Scalar, ScalarRing
from .wreath import WreathElement, WreathGroup


def _coeff_value(ring: ScalarRing, c) -> int:
    if isinstance(c, Scalar):
        if c.ring != ring:
            raise RingMismatchError(f"coefficient ring {c.ring!r} does not match {ring!r}")
        return c.value
    return ring.canon(int(c))


def _signed_sum(ring: ScalarRing, terms: Sequence[tuple[str, int]]) -> str:
    """Print the sum of c * m over (monomial text m, coefficient c) pairs in
    print order: the empty text (the unit monomial) prints as the bare
    coefficient, a coefficient 1 is left out, and over the integers a
    negative one is printed by magnitude after a minus sign."""
    parts = []
    for text, c in terms:
        neg = ring.modulus == 0 and c < 0
        mag = -c if neg else c
        body = str(mag) if not text else text if mag == 1 else f"{mag}*{text}"
        sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
        parts.append(sign + body)
    return " ".join(parts) or "0"


class GroupRing(Immutable):
    """The group algebra of a wreath group over a scalar ring."""

    __slots__ = ("ring", "group")

    def __init__(self, ring: ScalarRing, group: WreathGroup):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "group", group)

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
            if g.group is not self.group and g.group != self.group:
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


class GroupRingElement(Immutable):
    """A finitely supported formal sum of wreath elements.

    Immutable; ``terms`` maps group elements to nonzero canonical
    coefficient values.  Construct through :class:`GroupRing`.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GroupRing, terms: dict[WreathElement, int]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", terms)

    @property
    def ring(self) -> ScalarRing:
        return self.algebra.ring

    @property
    def group(self) -> WreathGroup:
        return self.algebra.group

    def _check(self, other: "GroupRingElement") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
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
        if _runs_coded(self, other):
            return GroupRingElement(self.algebra, _coded_product(self, other))
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

    def to_json(self) -> "TermRecords":
        """Canonically ordered list of {coeff, lamps, shift} term records."""
        return TermRecords([{"coeff": self.terms[g],
                             "lamps": [[p, v] for p, v in g.lamps],
                             "shift": g.shift}
                            for g in self.support()])

    def __str__(self) -> str:
        return _signed_sum(self.ring, [("" if g.is_identity() else str(g), self.terms[g])
                                       for g in self.support()])

    def __repr__(self) -> str:
        return f"<GroupRingElement {self} over {self.ring!r}, d={self.group.d}>"


class TermRecords(list):
    """The list that :meth:`GroupRingElement.to_json` returns.  To json,
    equality and pickle it is a plain list of term records
    ``{"coeff": c, "lamps": [[p, v], ...], "shift": n}`` with int fields;
    its type tells a JSON writer that :meth:`indented` may render it.
    """

    __slots__ = ()

    def indented(self, depth: int) -> str:
        """``json.dumps(self, indent=2)`` with every line after the first
        indented by ``depth`` more levels: one ``%`` of :meth:`template`
        per record.  The records are not checked, since only ``to_json``
        builds them."""
        if not self:
            return "[]"
        inner, template, out = "\n" + "  " * (depth + 1), self.template, []
        for rec in self:
            lamps = rec["lamps"]
            out.append(template(depth, len(lamps))
                       % (rec["coeff"], *chain.from_iterable(lamps), rec["shift"]))
        return "[" + inner + ("," + inner).join(out) + inner[:-2] + "]"

    @staticmethod
    @lru_cache(maxsize=1024)
    def template(depth: int, lamps: int) -> str:
        """The layout of one record with ``lamps`` lamp pairs in a list
        nested ``depth`` levels deep, with ``%d`` for the coefficient, each
        position and value, and the shift."""
        i1, i2, i3, i4 = ("\n" + "  " * (depth + k) for k in range(1, 5))
        pairs = ("[" + i3 + ("," + i3).join([f"[{i4}%d,{i4}%d{i3}]"] * lamps) + i2 + "]"
                 if lamps else "[]")
        return f'{{{i2}"coeff": %d,{i2}"lamps": {pairs},{i2}"shift": %d{i1}}}'


class LaurentElement(Immutable):
    """An element of k[x, x^-1]: a finitely supported map exponent -> k."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ScalarRing, coeffs: dict[int, int]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

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
        return _signed_sum(self.ring, [("" if n == 0 else "x" if n == 1 else f"x^{n}",
                                        self.coeffs[n]) for n in sorted(self.coeffs)])

    def __repr__(self) -> str:
        return f"<LaurentElement {self} over {self.ring!r}>"


def _digit_dtype(d: int) -> np.dtype:
    """One byte while the sum of two digits fits (d <= 128), else int64,
    which holds that sum only while 2(d - 1) < 2^63."""
    return np.dtype(np.uint8 if d <= 128 else np.int64)


class CodedElements:
    """Group elements as integer arrays, for index arithmetic without
    building :class:`~lamplighter.wreath.WreathElement` objects.

    Element i is the lamp configuration ``digits[i]`` (column k holds the
    base-d digit of position ``lo + k``) times x^``shifts[i]``.  Digits
    are one byte wide while d <= 128, so the sum of two fits.
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
        for g in elements:
            if g.group is not group and g.group != group:
                raise RingMismatchError(f"{g!r} does not live in {group!r}")
        lamps = np.fromiter(chain.from_iterable(chain.from_iterable(g.lamps for g in elements)),
                            dtype=np.int64).reshape(-1, 2)
        lo = int(lamps[:, 0].min()) if len(lamps) else 0
        width = int(lamps[:, 0].max()) - lo + 1 if len(lamps) else 0
        digits = np.zeros((len(elements), width), dtype=_digit_dtype(group.d))
        rows = np.repeat(np.arange(len(elements)), [len(g.lamps) for g in elements])
        digits[rows, lamps[:, 0] - lo] = lamps[:, 1]
        shifts = np.fromiter((g.shift for g in elements), dtype=np.int64, count=len(elements))
        return cls(group, lo, shifts, digits)

    def __len__(self) -> int:
        return len(self.shifts)

    def take(self, index) -> "CodedElements":
        return CodedElements(self.group, self.lo, self.shifts[index], self.digits[index])

    def decode(self) -> list[WreathElement]:
        """The elements, reading only the lit lamps (row-major nonzeros)."""
        rows, cols = np.nonzero(self.digits)
        lamps = list(zip((cols + self.lo).tolist(), self.digits[rows, cols].tolist()))
        ends = np.cumsum(np.bincount(rows, minlength=len(self))).tolist()
        return [WreathElement(self.group, tuple(lamps[start:end]), n)
                for start, end, n in zip([0] + ends, ends, self.shifts.tolist())]

    def left_translates(self, hs: Sequence[WreathElement]) -> "CodedElements":
        """Every h * g, h-major: row k * len(self) + j is hs[k] * self[j].

        h * g adds the digits of g, moved up by the shift of h, to the
        lamps of h mod d, and adds the shifts.  The hs are encoded once
        and translated in blocks of equal shift.  A sum of two digits is
        below 2d, so mod d is one conditional subtract, ``min(v, v - d)``
        on the table read as unsigned, where v - d wraps past v for v < d.
        """
        left = CodedElements.encode(self.group, hs)
        (m, lw), (n, width) = left.digits.shape, self.digits.shape
        spans = [(left.lo, left.lo + lw)] if lw else []
        if m and width:
            spans.append((self.lo + int(left.shifts.min()),
                          self.lo + int(left.shifts.max()) + width))
        lo = min((a for a, _ in spans), default=0)
        hi = max((b for _, b in spans), default=lo)
        digits = np.zeros((m, n, hi - lo), dtype=self.digits.dtype)
        if lw:
            digits[:, :, left.lo - lo:left.lo - lo + lw] = left.digits[:, None, :]
        # dict.fromkeys, not np.unique: a plain np.unique imports numpy.ma,
        # about 1 MB of RSS in every process that multiplies.
        for shift in dict.fromkeys(left.shifts.tolist()):
            start = self.lo + shift - lo
            digits[left.shifts == shift, :, start:start + width] += self.digits
        v = digits.view(np.dtype(f"u{digits.itemsize}"))
        np.minimum(v, v - self.group.d, out=v)
        shifts = (left.shifts[:, None] + self.shifts).reshape(m * n)
        return CodedElements(self.group, lo, shifts, digits.reshape(m * n, hi - lo))


def lamp_configurations(group: WreathGroup, positions: Iterable[int],
                        shifts: Sequence[int], cap: int) -> CodedElements:
    """Every b * x^n with b supported on ``positions`` and n in ``shifts``,
    coded: the d^k configurations of the k positions are written as one
    digit array and tiled over the shifts, with no element built.

    The count len(shifts) * d^k is multiplied toward ``cap`` one position
    at a time and refused once it passes, so a huge k costs nothing.  The
    shifts are counted only as far as cap + 1, so a range too long for
    len() is refused the same way.  Its
    digits (count x the positions' range x digit bytes) are then checked
    against ``CODED_PRODUCT_BYTES`` before they are allocated.  Order:
    shifts as given, then lamp values lexicographically over ``positions``.
    """
    d, rest = group.d, iter(positions)
    count, taken = len(shifts[:cap + 1]), []
    while 0 < count <= cap and (p := next(rest, None)) is not None:
        taken.append(p)
        count *= d
    if count > cap:
        more = "at least " if next(rest, None) is not None or shifts[cap + 1:cap + 2] else ""
        raise LimitExceededError(f"enumeration of {more}{count} elements exceeds the cap {cap}")
    k, lo, dtype = len(taken), min(taken, default=0), _digit_dtype(d)
    width = max(taken) - lo + 1 if taken else 0
    if count * width * dtype.itemsize > CODED_PRODUCT_BYTES:
        raise LimitExceededError(f"{count} lamp configurations over {width} positions exceed "
                                 f"the bound of {CODED_PRODUCT_BYTES} bytes")
    configs = np.zeros((d,) * k + (width,), dtype=dtype)
    for j, p in enumerate(taken):       # position j is axis j of the d x ... x d block
        configs[..., p - lo] = np.arange(d, dtype=dtype).reshape((d,) + (1,) * (k - 1 - j))
    return CodedElements(group, lo, np.repeat(np.array(shifts, dtype=np.int64), d ** k),
                         np.tile(configs.reshape(d ** k, width), (len(shifts), 1)))


def element_codes(table: CodedElements,
                  shift_range: tuple[int, int] | None = None) -> np.ndarray:
    """One sortable code per row of the table, equal iff the elements are.

    The shift offset and each lamp digit are mixed-radix digits, packed
    into as many int64 words as exactness needs.  One word gives an int64
    code; several give a fixed-width byte string, so no window overflows
    the code.  Codes are summed one digit column at a time, so no rows x
    digits matrix of int64 is built.  The shift offset runs over the
    table's own shifts, or over ``shift_range`` = (low, high) when given:
    tables with the same lamp positions then share one code scheme.
    """
    if not len(table):
        return np.zeros(0, dtype=np.int64)
    low, high = shift_range or (int(table.shifts.min()), int(table.shifts.max()))
    radices = [high - low + 1] + [table.group.d] * table.digits.shape[1]
    place, words = [], 0              # (word, place value) of each digit column
    while len(place) < len(radices):
        start = stop = len(place)
        span = radices[start]
        while stop + 1 < len(radices) and span * radices[stop + 1] <= 2 ** 63:
            stop += 1
            span *= radices[stop]
        for radix in radices[start:stop + 1]:
            span //= radix
            place.append((words, np.int64(span)))
        words += 1
    packed = np.zeros((words, len(table)), dtype=np.int64)
    packed[0] = (table.shifts - low) * place[0][1]
    for k in range(table.digits.shape[1]):
        word, value = place[1 + k]
        packed[word] += np.multiply(table.digits[:, k], value, dtype=np.int64)
    return packed[0] if words == 1 else \
        np.ascontiguousarray(packed.T).view(np.dtype((np.void, 8 * words)))[:, 0]


# Products of at least this many term pairs run through the coded kernel
# (:func:`_coded_product`), the rest through the dict loop of
# :meth:`GroupRingElement.__mul__`.  Timed on the benchmark's own products
# of 256-511 pairs, each path forced (best of 7, three runs): the kernel
# takes 0.11-0.25 of the dict loop's time on annihilate's beta * alpha and
# 0.16-0.24 on certify's u * gamma, which all cancel to zero, and 0.70-1.13
# (median 0.80-0.96) on fox-boundary's, which do not cancel; ore-search
# forms none over 16 pairs.  Below the threshold, at 128-255 pairs, it
# takes 0.24-0.60 on certify's and annihilate's products but 0.90-1.90
# (median 1.02-1.23) on fox-boundary's: a lower threshold would slow the
# products that do not cancel.
CODED_PRODUCT_PAIRS = 256
# The kernel's work and memory grow with the number of lamp positions the
# products span, the dict loop's only with the lamps that are lit.  On
# sparse lamps that do not cancel the two break even at 128-256 positions;
# half of that leaves room for timing noise.
CODED_PRODUCT_WIDTH = 64
# Bound on the kernel's transient memory, estimated as itemsize + 3 bytes
# per digit of every product (its digit and its share of the packed codes,
# which the sort copies) plus 64 bytes of indices and sums per pair.
CODED_PRODUCT_BYTES = 2 ** 26


def coded_width(left: Iterable[WreathElement], right: Iterable[WreathElement]) -> int | None:
    """The number of lamp positions that the coded products g * h, g in
    ``left`` and h in ``right``, span (see
    :meth:`CodedElements.left_translates`), or None when a shift or lamp
    position reaches 2^60.  Below that their sums fit in int64, so the
    digits and codes of the products are exact; nothing is allocated here.
    """
    left, right = list(left), list(right)
    if not left or not right:
        return 0
    shifts = [g.shift for g in left]
    low, high = min(shifts), max(shifts)
    bounds = [low, high] + [h.shift for h in right]
    spans = []                        # lamp positions of the g, then of the moved h
    for lamps, move in (([g.lamps for g in left if g.lamps], (0, 0)),
                        ([h.lamps for h in right if h.lamps], (low, high))):
        if lamps:
            first, last = min(b[0][0] for b in lamps), max(b[-1][0] for b in lamps)
            bounds += [first, last]
            spans.append((first + move[0], last + move[1]))
    if max(map(abs, bounds)) >= 2 ** 60:
        return None
    return max(b for _, b in spans) - min(a for a, _ in spans) + 1 if spans else 0


def _runs_coded(left: GroupRingElement, right: GroupRingElement) -> bool:
    """Whether left * right runs through the coded kernel: enough pairs,
    few enough lamp positions and bytes, and exact int64 arithmetic.

    Each product g h arises once per g, so no coefficient sum has more
    than min(|left|, |right|) terms, and it is reduced mod m in int64.
    The sum of two lamp digits, up to 2(d - 1), stays below 2^63, and
    positions and shifts below 2^60 (see :func:`coded_width`).
    """
    pairs = len(left) * len(right)
    if (pairs < CODED_PRODUCT_PAIRS or left.ring.modulus >= 2 ** 63
            or 2 * (left.group.d - 1) >= 2 ** 63
            or max(map(abs, left.terms.values())) * max(map(abs, right.terms.values()))
            * min(len(left), len(right)) >= 2 ** 63):
        return False
    width = coded_width(left.terms, right.terms)
    itemsize = _digit_dtype(left.group.d).itemsize
    return (width is not None and width <= CODED_PRODUCT_WIDTH
            and pairs * (width * (itemsize + 3) + 64) <= CODED_PRODUCT_BYTES)


def _coded_product(left: GroupRingElement, right: GroupRingElement) -> dict[WreathElement, int]:
    """The terms of left * right, summed over integer codes in int64.

    The caller checks :func:`_runs_coded` first.  Row k * |right| + j
    of the translates is g_k * h_j, the order in which the dict loop
    meets the products.  One unstable argsort groups equal codes: a group
    starts where the sorted codes change, ``np.add.reduceat`` sums its
    coefficient products, and ``np.minimum.reduceat`` of the sorting
    permutation gives its least row, the product's first occurrence.
    Ordered by those rows, the survivors keep the dict loop's order.
    """
    products = CodedElements.encode(left.group, list(right.terms)).left_translates(
        list(left.terms))
    codes = element_codes(products)
    order = np.argsort(codes)
    codes = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    acc = np.add.reduceat(np.multiply.outer(
        np.array(list(left.terms.values()), dtype=np.int64),
        np.array(list(right.terms.values()), dtype=np.int64)).reshape(-1)[order], starts)
    first = np.minimum.reduceat(order, starts)
    if left.ring.modulus:
        acc %= left.ring.modulus
    kept = np.flatnonzero(acc)
    kept = kept[np.argsort(first[kept])]
    return dict(zip(products.take(first[kept]).decode(), acc[kept].tolist()))


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


def left_mul_rows(alpha: GroupRingElement,
                  domain: Sequence[WreathElement] | CodedElements) -> tuple[np.ndarray, int]:
    """Row indices of the coefficient matrix of g -> alpha * g, and its height.

    Entry [k, j] is the row of ``h_k * domain[j]``, where h_k is the k-th
    term of alpha, so column j holds the coefficient of h_k at that row;
    h * g = h' * g forces h = h', so the rows of a column are distinct.
    The rows are the distinct products in code order (see
    :func:`element_codes`), which no kernel depends on.  Raises
    :class:`LimitExceededError` if the matrix would have more than
    ``MAX_MATRIX_CELLS`` cells (see :func:`check_matrix_cells`).
    """
    if not isinstance(domain, CodedElements):
        domain = CodedElements.encode(alpha.group, domain)
    products = domain.left_translates(list(alpha.terms))
    table, rows = np.unique(element_codes(products), return_inverse=True)
    check_matrix_cells(len(table), len(domain))
    return rows.reshape(len(alpha.terms), len(domain)), len(table)


def left_mul_matrix(alpha: GroupRingElement,
                    domain: Sequence[WreathElement] | CodedElements) -> np.ndarray:
    """Coefficient matrix of g -> alpha * g on finite supports.

    Column j holds the coefficient vector of ``alpha * domain[j]``, with
    rows as in :func:`left_mul_rows`.  Entries are canonical
    representatives of the coefficient field.
    """
    dtype = field_dtype(alpha.ring.modulus)
    rows, height = left_mul_rows(alpha, domain)
    mat = np.zeros((height, rows.shape[1]), dtype=dtype)
    mat[rows, np.arange(rows.shape[1])] = np.array(list(alpha.terms.values()),
                                                  dtype=dtype)[:, None]
    return mat
