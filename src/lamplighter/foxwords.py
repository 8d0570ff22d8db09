"""Free words, the standard presentation, Fox derivatives and chain maps.

The group Z/dZ wr Z carries the presentation with generators a, x and
relators

    r_0 = a^d,        r_l = [a, x^l a x^-l]   (l = 1, 2, ...),

using the commutator convention [u, v] = u v u^-1 v^-1.  This module
evaluates free words in the group, differentiates them with the Fox
calculus, and implements the two boundary maps of the associated partial
resolution

    (free module on relators) --F--> (free module on a, x) --> kG,

where the second map sends a basis vector u*s to u*(s - 1) and F sends
u*r to sum_s u * (dr/ds) * s.  Fox derivatives are evaluated directly in
the group ring: evaluation is a ring map, so this commutes with the
calculus.

The relator family is infinite; every concrete computation truncates it
at a caller-chosen highest index L.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RingMismatchError
from .groupring import GroupRing, GroupRingElement
from .parsing import Letters, parse_word_letters, word_to_text
from .ring import Immutable
from .wreath import DEFAULT_CAP, WreathElement, WreathGroup

GENERATOR_SYMBOLS = ("a", "x")


class FreeWord(Immutable):
    """A word in the letters a^+-1, x^+-1, kept exactly as written.

    ``reduce`` returns the freely reduced form; other operations work on
    the raw sequence.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Letters = ()):
        for sym, exp in letters:
            if sym not in GENERATOR_SYMBOLS or exp not in (1, -1):
                raise ValueError(f"bad letter {(sym, exp)!r}")
        object.__setattr__(self, "letters", tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((s, -e) for s, e in reversed(self.letters)))

    def reduce(self) -> "FreeWord":
        """Freely reduced form: no adjacent s^+1 s^-1 pairs remain."""
        stack: list[tuple[str, int]] = []
        for sym, exp in self.letters:
            if stack and stack[-1] == (sym, -exp):
                stack.pop()
            else:
                stack.append((sym, exp))
        return FreeWord(tuple(stack))

    def __str__(self) -> str:
        return word_to_text(self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({self})"


def parse_word(text: str, cap: int = DEFAULT_CAP) -> FreeWord:
    """Parse the word grammar; see :mod:`lamplighter.parsing`."""
    return FreeWord(parse_word_letters(text, cap))


def _letter_images(group: WreathGroup) -> dict[tuple[str, int], WreathElement]:
    """Group images of the letters a^+-1, x^+-1 under a -> a[0], x -> x."""
    a = group.generator_a(0)
    x = group.generator_x(1)
    return {("a", 1): a, ("a", -1): a.inverse(),
            ("x", 1): x, ("x", -1): x.inverse()}


def evaluate(word: FreeWord, group: WreathGroup) -> WreathElement:
    """Image of a free word under a -> a[0], x -> x."""
    images = _letter_images(group)
    out = group.identity
    for letter in word.letters:
        out = out * images[letter]
    return out


def fox_derivative(word: FreeWord, symbol: str, algebra: GroupRing) -> GroupRingElement:
    """The Fox derivative d(word)/d(symbol), evaluated in the group ring.

    Letter rules: ds/ds = 1 and d(s^-1)/ds = -s^-1, other letters
    differentiate to zero; each letter's contribution is weighted on the
    left by the group image of the prefix before it.
    """
    if symbol not in GENERATOR_SYMBOLS:
        raise ValueError(f"unknown generator symbol {symbol!r}")
    group = algebra.group
    images = _letter_images(group)
    acc: dict[WreathElement, int] = {}
    prefix = group.identity
    for sym, exp in word.letters:
        if sym == symbol:
            if exp == 1:
                g, c = prefix, 1
            else:
                g, c = prefix * images[(sym, -1)], -1
            acc[g] = acc.get(g, 0) + c
        prefix = prefix * images[(sym, exp)]
    return algebra.element(acc.items())


def relator_word(d: int, l: int, cap: int = DEFAULT_CAP) -> FreeWord:
    """r_0 = a^d; r_l = [a, x^l a x^-l] spelled out letter by letter by the
    word parser, which refuses a word of more than ``cap`` letters first."""
    return parse_word(f"a^{d}" if l == 0 else f"[a, x^{l} a x^-{l}]", cap)


# One entry per (ring, relator index l, symbol, cap).  At one cap, four
# rings with l <= 8 and both symbols take 72; certify's u on eight rings
# with l <= 4 takes 40 (symbol a only); a default selftest takes 59.  The
# bound leaves ample room and keeps a long process bounded.
@lru_cache(maxsize=1024)
def relator_fox_derivative(algebra: GroupRing, l: int, symbol: str,
                           cap: int = DEFAULT_CAP) -> GroupRingElement:
    """Cached d(r_l)/d(symbol) in the given group ring; r_l is spelled
    under ``cap`` letters (see :func:`relator_word`)."""
    return fox_derivative(relator_word(algebra.group.d, l, cap), symbol, algebra)


class ModuleVector(Immutable):
    """A finitely supported vector over the free module on generators
    ('a', 'x') or on relator indices (0..L), with group-ring components.

    Zero components are pruned; the basis tag fixes which index set is
    meant.
    """

    __slots__ = ("algebra", "basis", "components")

    BASES = ("generators", "relators")

    def __init__(self, algebra: GroupRing, basis: str, components: dict):
        if basis not in self.BASES:
            raise ValueError(f"basis must be one of {self.BASES}, got {basis!r}")
        cleaned = {}
        for key, value in components.items():
            if basis == "generators" and key not in GENERATOR_SYMBOLS:
                raise ValueError(f"generator key must be 'a' or 'x', got {key!r}")
            if basis == "relators" and (not isinstance(key, int) or key < 0):
                raise ValueError(f"relator key must be an integer >= 0, got {key!r}")
            if value.algebra != algebra:
                raise RingMismatchError("component algebra does not match the vector")
            if value:
                cleaned[key] = value
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "components", cleaned)

    def component(self, key) -> GroupRingElement:
        return self.components.get(key, self.algebra.zero)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return (self.algebra == other.algebra and self.basis == other.basis
                and self.components == other.components)

    def to_json(self) -> dict:
        return {"basis": self.basis,
                "components": {str(k): v.to_json() for k, v in sorted(self.components.items(),
                                                                      key=lambda kv: str(kv[0]))}}

    @classmethod
    def from_json(cls, data: dict, algebra: GroupRing) -> "ModuleVector":
        basis = data["basis"]
        comps = {}
        for key, value in data["components"].items():
            k = key if basis == "generators" else int(key)
            comps[k] = algebra.from_json(value)
        return cls(algebra, basis, comps)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.components.items(),
                                                         key=lambda kv: str(kv[0])))
        return f"<ModuleVector {self.basis} {{{inner}}}>"


def boundary_from_generators(v: ModuleVector) -> GroupRingElement:
    """Send each generator basis vector u*s to u*(s - 1) and sum."""
    if v.basis != "generators":
        raise ValueError("expected a vector over the generator basis")
    algebra = v.algebra
    group = algebra.group
    out = algebra.zero
    for sym, u in v.components.items():
        s = group.generator_a(0) if sym == "a" else group.generator_x(1)
        out = out + u * (algebra.monomial(s) - algebra.one)
    return out


def boundary_from_relators(z: ModuleVector, cap: int = DEFAULT_CAP) -> ModuleVector:
    """Send each relator basis vector u*r to sum_s u*(dr/ds)*s; a relator
    of more than ``cap`` letters is refused before it is spelled out."""
    if z.basis != "relators":
        raise ValueError("expected a vector over the relator basis")
    algebra = z.algebra
    comps = {}
    for sym in GENERATOR_SYMBOLS:
        total = algebra.zero
        for l, u in z.components.items():
            total = total + u * relator_fox_derivative(algebra, l, sym, cap)
        comps[sym] = total
    return ModuleVector(algebra, "generators", comps)
