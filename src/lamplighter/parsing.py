"""Text grammars: free words, wreath elements, and group-ring elements.

Three small recursive-descent parsers over one tokenizer.  All printers
in the package emit text these parsers accept, and parsing printed text
reproduces the original value bit-exactly.

Word grammar (letters of the free group on a, x):

    word   := { '*'? term }
    term   := factor [ '^' INT ]
    factor := 'a' | 'x' | '(' word ')' | '[' word ',' word ']'

``w^k`` expands to |k| copies of w (inverted when k < 0, empty when
k = 0); ``[u, v]`` is the commutator u v u^-1 v^-1.  Commutators nest.
Each expansion is counted against a letter cap before it is built.

Wreath-element grammar:

    element := 'e' | atom { '*' atom }
    atom    := 'a' [ '[' INT ']' ] [ '^' INT ]  |  'x' [ '^' INT ]

``a`` abbreviates ``a[0]``.  Atoms multiply left to right in the group.

Group-ring grammar (signed sums of coefficient-element terms):

    sum  := [ '-' ] term { ('+' | '-') term }
    term := UINT [ '*' element ]  |  element
"""

from __future__ import annotations

from .errors import LimitExceededError, ParseError
from .groupring import GroupRing, GroupRingElement
from .wreath import DEFAULT_CAP, WreathElement, WreathGroup

_PUNCT = set("^*()[],+-")
_DIGITS = set("0123456789")


class _Tokens:
    """Tokenizer: names, integers and punctuation, with positions.

    Integers are ASCII digits only; one too long for ``int`` to convert
    is a :class:`ParseError` at its position.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, object, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isalpha():
                # every grammar uses single-letter names, so juxtaposed
                # letters like "ax" tokenize separately
                self.toks.append(("name", ch, i))
                i += 1
            elif ch in _DIGITS or (ch == "-" and i + 1 < n and text[i + 1] in _DIGITS
                                   and self._after_power()):
                j = i + 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                try:
                    value = int(text[i:j])
                except ValueError:
                    raise ParseError(f"integer of {j - i} characters is too long to read",
                                     i) from None
                self.toks.append(("int", value, i))
                i = j
            elif ch in _PUNCT:
                self.toks.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
        self.pos = 0

    def _after_power(self) -> bool:
        # A '-' binds to the following digits only directly after '^' or '[',
        # where a signed integer is expected; elsewhere it is an operator.
        return bool(self.toks) and self.toks[-1][0] in ("^", "[")

    def peek(self) -> str | None:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def peek_value(self):
        return self.toks[self.pos][1] if self.pos < len(self.toks) else None

    def here(self) -> int:
        if self.pos < len(self.toks):
            return self.toks[self.pos][2]
        return len(self.text)

    def take(self, kind: str | None = None):
        if self.pos >= len(self.toks):
            raise ParseError(f"unexpected end of input, expected {kind or 'a token'}",
                             len(self.text))
        k, v, p = self.toks[self.pos]
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, found {v!r}", p)
        self.pos += 1
        return v

    def expect_end(self) -> None:
        if self.pos < len(self.toks):
            raise ParseError(f"trailing input {self.peek_value()!r}", self.here())

    def signed_int(self) -> int:
        if self.peek() == "-":
            self.take("-")
            return -int(self.take("int"))
        return int(self.take("int"))


Letters = tuple[tuple[str, int], ...]


def _invert_letters(letters: Letters) -> Letters:
    return tuple((s, -e) for s, e in reversed(letters))


def _check_word_length(letters: int, cap: int) -> None:
    """Refuse a word of more than ``cap`` letters before it is spelled out."""
    if letters > cap:
        raise LimitExceededError(f"a word of {letters} letters exceeds the cap {cap}")


def _parse_word_body(t: _Tokens, closers: set[str], cap: int) -> Letters:
    out: list[tuple[str, int]] = []
    while True:
        k = t.peek()
        if k is None or k in closers:
            return tuple(out)
        if k == "*":
            t.take("*")
            continue
        term = _parse_word_term(t, cap)
        _check_word_length(len(out) + len(term), cap)
        out.extend(term)


def _parse_word_term(t: _Tokens, cap: int) -> Letters:
    k = t.peek()
    if k == "name":
        p = t.here()
        name = t.take("name")
        if name not in ("a", "x"):
            raise ParseError(f"unknown letter {name!r}, expected 'a' or 'x'", p)
        base: Letters = ((name, 1),)
    elif k == "(":
        t.take("(")
        base = _parse_word_body(t, {")"}, cap)
        t.take(")")
    elif k == "[":
        t.take("[")
        u = _parse_word_body(t, {","}, cap)
        t.take(",")
        v = _parse_word_body(t, {"]"}, cap)
        t.take("]")
        _check_word_length(2 * (len(u) + len(v)), cap)
        base = u + v + _invert_letters(u) + _invert_letters(v)
    else:
        raise ParseError(f"expected a letter, '(' or '[', found {t.peek_value()!r}",
                         t.here())
    if t.peek() == "^":
        t.take("^")
        power = t.signed_int()
        if power < 0:
            base = _invert_letters(base)
            power = -power
        _check_word_length(len(base) * power, cap)
        base = base * power
    return base


def parse_word_letters(text: str, cap: int = DEFAULT_CAP) -> Letters:
    """Parse a free word over {a, x} into its letter sequence.

    The sequence is exactly as written (no free reduction); ``^0`` yields
    the empty word.  A word of more than ``cap`` letters is refused
    (:class:`LimitExceededError`) before it is spelled out.
    """
    t = _Tokens(text)
    letters = _parse_word_body(t, set(), cap)
    t.expect_end()
    return letters


def word_to_text(letters: Letters) -> str:
    """Canonical text of a letter sequence; parses back bit-exactly.

    Runs of equal signed letters collapse into powers; the empty word
    prints as the empty string.
    """
    parts = []
    i = 0
    while i < len(letters):
        sym, exp = letters[i]
        j = i
        while j < len(letters) and letters[j] == (sym, exp):
            j += 1
        run = (j - i) * exp
        parts.append(sym if run == 1 else f"{sym}^{run}")
        i = j
    return "*".join(parts)


def _parse_element_body(t: _Tokens, group: WreathGroup) -> WreathElement:
    if t.peek() == "name" and t.peek_value() == "e":
        t.take("name")
        return group.identity
    out = _parse_element_atom(t, group)
    while t.peek() == "*":
        t.take("*")
        out = out * _parse_element_atom(t, group)
    return out


def _parse_element_atom(t: _Tokens, group: WreathGroup) -> WreathElement:
    p = t.here()
    name = t.take("name")
    if name == "a":
        pos = 0
        if t.peek() == "[":
            t.take("[")
            pos = t.signed_int()
            t.take("]")
        val = 1
        if t.peek() == "^":
            t.take("^")
            val = t.signed_int()
        return group.element({pos: val})
    if name == "x":
        n = 1
        if t.peek() == "^":
            t.take("^")
            n = t.signed_int()
        return group.generator_x(n)
    raise ParseError(f"unknown element atom {name!r}, expected 'a', 'x' or 'e'", p)


def parse_element(text: str, group: WreathGroup) -> WreathElement:
    """Parse a wreath element written as a product of a[i]^k and x^n."""
    t = _Tokens(text)
    g = _parse_element_body(t, group)
    t.expect_end()
    return g


def parse_ring_element(text: str, algebra: GroupRing) -> GroupRingElement:
    """Parse a group-ring element written as a signed sum of terms."""
    t = _Tokens(text)
    group = algebra.group
    pairs: list[tuple[WreathElement, int]] = []
    sign = 1
    if t.peek() == "-":
        t.take("-")
        sign = -1
    while True:
        if t.peek() == "int":
            coeff = sign * int(t.take("int"))
            if t.peek() == "*":
                t.take("*")
                g = _parse_element_body(t, group)
            else:
                g = group.identity
        else:
            coeff = sign
            g = _parse_element_body(t, group)
        pairs.append((g, coeff))
        k = t.peek()
        if k is None:
            break
        if k == "+":
            t.take("+")
            sign = 1
        elif k == "-":
            t.take("-")
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', found {t.peek_value()!r}", t.here())
    t.expect_end()
    return algebra.element(pairs)
