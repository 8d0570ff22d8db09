import random

import pytest
from hypothesis import given, strategies as st

from conftest import random_free_word, random_ring_element
from lamplighter.errors import ParseError
from lamplighter.foxwords import FreeWord, parse_word
from lamplighter.groupring import GroupRing
from lamplighter.parsing import parse_element, parse_ring_element
from lamplighter.ring import INTEGERS, ScalarRing
from lamplighter.wreath import WreathGroup

G2 = WreathGroup(2)
G3 = WreathGroup(3)
ZG2 = GroupRing(INTEGERS, G2)
F3G3 = GroupRing(ScalarRing(3), G3)


def test_word_power_expansion():
    assert parse_word("a^2").letters == (("a", 1), ("a", 1))
    assert parse_word("a^-2").letters == (("a", -1), ("a", -1))
    assert parse_word("a^0").letters == ()
    assert parse_word("").letters == ()


def test_word_commutator():
    expected = (("a", 1), ("x", 1), ("a", 1), ("x", -1),
                ("a", -1), ("x", 1), ("a", -1), ("x", -1))
    assert parse_word("[a, x a x^-1]").letters == expected
    assert parse_word("[a,x*a*x^-1]").letters == expected


def test_word_nested_commutator():
    inner = parse_word("[a, x]")
    outer = parse_word("[[a, x], x]")
    manual = inner.letters + (("x", 1),) + inner.inverse().letters + (("x", -1),)
    assert outer.letters == manual


def test_word_parenthesized_powers():
    assert parse_word("(ax)^2").letters == (("a", 1), ("x", 1), ("a", 1), ("x", 1))
    assert parse_word("(a x)^-1").letters == (("x", -1), ("a", -1))


def test_word_juxtaposition_and_stars_agree():
    assert parse_word("a x a") == parse_word("a*x*a")


def test_word_round_trip_corpus():
    rng = random.Random(2024)
    for _ in range(200):
        w = random_free_word(rng)
        assert parse_word(str(w)) == w


@given(st.lists(st.tuples(st.sampled_from("ax"), st.sampled_from((1, -1))), max_size=20))
def test_word_round_trip_hypothesis(letters):
    w = FreeWord(tuple(letters))
    assert parse_word(str(w)) == w


def test_word_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_word("a^")
    assert info.value.position == 2
    with pytest.raises(ParseError):
        parse_word("b")
    with pytest.raises(ParseError):
        parse_word("[a, x")
    with pytest.raises(ParseError):
        parse_word("(a))")
    with pytest.raises(ParseError):
        parse_word("a^x")
    # ASCII digits only; a literal past int's conversion limit is refused where it starts
    for text, position in (("a^\u00b2", 2), ("x^\u0663", 2), ("a^" + "9" * 5000, 2)):
        with pytest.raises(ParseError) as info:
            parse_word(text)
        assert info.value.position == position


def test_element_grammar():
    assert parse_element("e", G2) == G2.identity
    assert parse_element("a[0]*a[3]*x", G2) == G2.element({0: 1, 3: 1}, 1)
    assert parse_element("a", G2) == G2.generator_a(0)
    assert parse_element("a[-2]^2", G3) == G3.element({-2: 2})
    assert parse_element("x^-3", G2) == G2.generator_x(-3)
    # products multiply in the group, left to right
    assert parse_element("x*a[0]", G2) == G2.element({1: 1}, 1)


def test_element_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        lamps = {pos: rng.randrange(3) for pos in range(-2, 3)}
        g = G3.element(lamps, rng.randint(-3, 3))
        assert parse_element(str(g), G3) == g


def test_element_parse_errors():
    with pytest.raises(ParseError):
        parse_element("q", G2)
    with pytest.raises(ParseError):
        parse_element("a[", G2)
    with pytest.raises(ParseError):
        parse_element("a[0]]", G2)
    with pytest.raises(ParseError):
        parse_element("", G2)
    for text, position in (("a^\u00b2", 2), ("x^\u0663", 2), ("a^" + "9" * 5000, 2),
                           ("a[-" + "1" * 4400 + "]", 2)):
        with pytest.raises(ParseError) as info:
            parse_element(text, G2)
        assert info.value.position == position


def test_ring_element_grammar():
    elt = parse_ring_element("1 - a[0] + 2*a[1]*x^-1", ZG2)
    expected = (ZG2.one - ZG2.monomial(G2.generator_a(0))
                + 2 * ZG2.monomial(G2.element({1: 1}, -1)))
    assert elt == expected
    assert parse_ring_element("0", ZG2).is_zero()
    assert parse_ring_element("-a[0]", ZG2) == -ZG2.monomial(G2.generator_a(0))
    assert parse_ring_element("3", ZG2) == 3 * ZG2.one
    assert parse_ring_element("x - x", ZG2).is_zero()
    # coefficients reduce into the ring
    assert parse_ring_element("5", F3G3) == 2 * F3G3.one


def test_ring_element_round_trip():
    rng = random.Random(6)
    for algebra in (ZG2, F3G3):
        for _ in range(200):
            alpha = random_ring_element(rng, algebra)
            assert parse_ring_element(str(alpha), algebra) == alpha
    assert parse_ring_element(str(ZG2.zero), ZG2) == ZG2.zero


def test_ring_element_parse_errors():
    with pytest.raises(ParseError):
        parse_ring_element("1 +", ZG2)
    with pytest.raises(ParseError):
        parse_ring_element("2 ** a[0]", ZG2)
    with pytest.raises(ParseError):
        parse_ring_element("a[0] a[1]", ZG2)
    with pytest.raises(ParseError):
        parse_ring_element("1 - - 2", ZG2)
    for text, position in (("a^\u00b2", 2), ("\u0663*x", 0), ("1 + " + "7" * 4400, 4),
                           ("a[-" + "1" * 4400 + "]", 2)):
        with pytest.raises(ParseError) as info:
            parse_ring_element(text, ZG2)
        assert info.value.position == position
