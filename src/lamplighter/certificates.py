"""Constructive zerodivisor witnesses in the group ring of Z/dZ wr Z.

Central construction: from any coefficient vector z_0..z_N of group-ring
elements, form

    u = sum_{l=0..N} z_l dr_l/da,

the generator-a component of the relator boundary map applied to z, read
from the cached Fox derivatives of :mod:`~lamplighter.foxwords`:
dr_0/da = 1 + a + ... + a^(d-1) and dr_l/da = x^l (a[-l] - 1) - (a[l] - 1).
Let C be the subgroup of the base group spanned by the lamps at positions
1 <= |n| <= N and set

    gamma = (1 - a) * sum_{c in C} c.

Then gamma != 0 and u * gamma = 0 always: a[l] - 1 and a[-l] - 1 kill the
C-sum because C contains those lamps, and the a-power sum kills 1 - a
because a^d = 1.  The pair (u, gamma) is therefore a self-contained
certificate that u is a left zerodivisor, checkable by a single
convolution.

Also here: the annihilator of finitely many elements of the base
augmentation ideal by a finite-subgroup sum, and the linearization of
augmentation-zero base elements modulo the square of the augmentation
ideal (lamp-exponent vectors over GF(p), for d = p prime).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (NotInAugmentationIdealError, RingMismatchError, SupportError,
                     UnsupportedRingError)
from .foxwords import relator_fox_derivative
from .groupring import GroupRing, GroupRingElement, lamp_configurations
from .ring import Immutable, ScalarRing
from .wreath import DEFAULT_CAP, WreathElement, WreathGroup, lamp_span


class RelatorCoefficients(Immutable):
    """A coefficient vector z_0..z_N over a group ring (N = len - 1)."""

    __slots__ = ("algebra", "entries")

    def __init__(self, entries: Sequence[GroupRingElement]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("need at least the z_0 entry")
        algebra = entries[0].algebra
        for z in entries:
            if z.algebra != algebra:
                raise RingMismatchError("all entries must share one group ring")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "entries", entries)

    @property
    def depth(self) -> int:
        """The highest relator index N."""
        return len(self.entries) - 1

    def __getitem__(self, n: int) -> GroupRingElement:
        return self.entries[n]

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelatorCoefficients):
            return NotImplemented
        return self.entries == other.entries

    def to_json(self) -> list:
        return [z.to_json() for z in self.entries]

    @classmethod
    def from_json(cls, data: list, algebra: GroupRing) -> "RelatorCoefficients":
        return cls([algebra.from_json(item) for item in data])


def zerodivisor_from_coefficients(z: RelatorCoefficients,
                                  cap: int = DEFAULT_CAP) -> GroupRingElement:
    """u = sum of z_l dr_l/da, read from the cached Fox derivatives; only the
    r_l with z_l != 0 are spelled, each under ``cap`` letters (r_0 = a^d has
    d letters, r_l has 4l + 4)."""
    u = z.algebra.zero
    for l, zl in enumerate(z.entries):
        if zl:
            u = u + zl * relator_fox_derivative(z.algebra, l, "a", cap)
    return u


def lamp_subgroup(group: WreathGroup, depth: int, cap: int = DEFAULT_CAP) -> list[WreathElement]:
    """All lamp configurations supported on positions 1 <= |n| <= depth.

    The lamps at those positions are independent coordinates, so this is
    exactly the subgroup they span: d^(2*depth) elements, written as digits
    by :func:`~lamplighter.groupring.lamp_configurations` and decoded.  The
    positions are read only as far as the count stays within ``cap``.
    """
    positions = (n for n in range(-depth, depth + 1) if n)
    return lamp_configurations(group, positions, (0,), cap).decode()


def right_annihilator(depth: int, algebra: GroupRing, cap: int = DEFAULT_CAP) -> GroupRingElement:
    """gamma = (1 - a) * sum over the depth-N lamp subgroup; never zero.

    The subgroup sum has d^(2*depth) terms; the product has exactly twice
    that many before cancellation, and none cancel: multiplying a shift-0
    configuration by a changes lamp 0, so the two orbits are disjoint.
    So gamma is written down term by term, c with coefficient 1 and a * c
    with coefficient -1, without a convolution.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    group = algebra.group
    members = lamp_subgroup(group, depth, cap)
    a = group.generator_a(0)
    return algebra.element([(c, 1) for c in members] + [(a * c, -1) for c in members])


class Certificate(Immutable):
    """A verified (or failed) zerodivisor witness: u, gamma, u * gamma.

    ``verified`` is true exactly when gamma is nonzero and the product is
    zero.  The JSON form carries everything an independent checker needs
    to re-verify with one group-ring multiplication.
    """

    __slots__ = ("coefficients", "u", "gamma", "product", "verified")

    def __init__(self, coefficients: RelatorCoefficients, u: GroupRingElement,
                 gamma: GroupRingElement, product: GroupRingElement):
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "verified", bool(gamma) and product.is_zero())

    def to_json(self) -> dict:
        algebra = self.u.algebra
        return {
            "d": algebra.group.d,
            "k": algebra.ring.modulus,
            "N": self.coefficients.depth,
            "z": self.coefficients.to_json(),
            "u": self.u.to_json(),
            "gamma": self.gamma.to_json(),
            "product": self.product.to_json(),
            "verified": self.verified,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        """Load the stored fields and re-verify them from z alone.

        ``verified`` holds only if N is the depth of z and the stored u,
        gamma and product equal those of ``certify(z)``.  The stored
        ``verified`` flag is never read.
        """
        algebra = GroupRing(ScalarRing(int(data["k"])), WreathGroup(int(data["d"])))
        z = RelatorCoefficients.from_json(data["z"], algebra)
        cert = cls(z, algebra.from_json(data["u"]), algebra.from_json(data["gamma"]),
                   algebra.from_json(data["product"]))
        ref = certify(z)
        if int(data["N"]) != z.depth or \
                (cert.u, cert.gamma, cert.product) != (ref.u, ref.gamma, ref.product):
            object.__setattr__(cert, "verified", False)
        return cert

    def __repr__(self) -> str:
        return f"<Certificate verified={self.verified} u={self.u} gamma terms={len(self.gamma)}>"


def certify(z: RelatorCoefficients, cap: int = DEFAULT_CAP) -> Certificate:
    """Build gamma, then u (so the lamp-subgroup count refuses a deep z
    first), and verify u * gamma = 0 by convolution."""
    gamma = right_annihilator(z.depth, z.algebra, cap)
    u = zerodivisor_from_coefficients(z, cap)
    return Certificate(z, u, gamma, u * gamma)


def finite_subgroup_annihilator(alphas: Iterable[GroupRingElement],
                                algebra: GroupRing | None = None,
                                cap: int = DEFAULT_CAP) -> GroupRingElement:
    """A nonzero beta with beta * alpha_i = 0 for all i.

    Each alpha_i must lie in the base augmentation ideal: every shift
    slice must have coefficient sum zero.  beta is the sum over the
    subgroup of the base group spanned by all configurations in those
    slices; left-multiplying an augmentation-zero slice by that sum kills
    it because the sum is invariant under the slice's support.

    With no inputs the subgroup is trivial and beta = 1 (``algebra`` must
    then be given explicitly).
    """
    alphas = list(alphas)
    if algebra is None:
        if not alphas:
            raise ValueError("with no inputs the target group ring must be given")
        algebra = alphas[0].algebra
    if any(alpha.algebra != algebra for alpha in alphas):
        raise RingMismatchError("all inputs must share one group ring")
    for i, alpha in enumerate(alphas):
        sums = alpha.project_to_laurent().coeffs      # the nonzero slice sums
        if sums:
            shift, total = next(iter(sums.items()))
            raise NotInAugmentationIdealError(
                f"input {i}: shift-{shift} slice has coefficient sum {total} != 0")
    generators = sorted({g.lamps for alpha in alphas for g in alpha.terms})
    return algebra.element([(b, 1) for b in lamp_span(algebra.group, generators, cap)])


class LampVector(Immutable):
    """A finitely supported lamp-position -> scalar vector over GF(p).

    The image of an augmentation-zero base element modulo the square of
    the augmentation ideal, written in the basis dual to lamp positions.
    """

    __slots__ = ("ring", "entries")

    def __init__(self, ring: ScalarRing, entries: dict[int, int]):
        cleaned = {pos: ring.canon(v) for pos, v in entries.items() if ring.canon(v)}
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", cleaned)

    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LampVector):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    def __add__(self, other: "LampVector") -> "LampVector":
        if self.ring != other.ring:
            raise RingMismatchError("cannot mix lamp vectors over different rings")
        acc = dict(self.entries)
        for pos, v in other.entries.items():
            acc[pos] = acc.get(pos, 0) + v
        return LampVector(self.ring, acc)

    def scale(self, c: int) -> "LampVector":
        return LampVector(self.ring, {pos: v * c for pos, v in self.entries.items()})

    def to_json(self) -> list:
        return [[pos, self.entries[pos]] for pos in sorted(self.entries)]

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for pos in sorted(self.entries):
            v = self.entries[pos]
            parts.append(f"e[{pos}]" if v == 1 else f"{v}*e[{pos}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<LampVector {self}>"


def reduce_mod_ideal_square(beta: GroupRingElement) -> LampVector:
    """Linearize an augmentation-zero base element: b - 1 -> lamp vector.

    Requires GF(p) coefficients with d = p (the quotient degenerates
    otherwise), shift-0 support, and augmentation zero.  On that domain
    the configuration product maps to the lamp-exponent sum, so the map
    is well defined modulo products of two augmentation-zero elements.
    """
    ring = beta.ring
    d = beta.group.d
    if not ring.is_field or ring.modulus != d:
        raise UnsupportedRingError(
            f"reduction needs GF(p) coefficients with p = d = {d}, got {ring!r}")
    vec: dict[int, int] = {}
    for g, c in beta.terms.items():
        if g.shift != 0:
            raise SupportError(f"term {g} has nonzero shift; not a base-group element")
        for pos, val in g.lamps:
            vec[pos] = vec.get(pos, 0) + c * val
    if not beta.augmentation().is_zero():
        raise NotInAugmentationIdealError(
            f"augmentation is {beta.augmentation()}, expected 0")
    return LampVector(ring, vec)
