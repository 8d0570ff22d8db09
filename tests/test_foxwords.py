import random

import pytest

from conftest import random_free_word, random_ring_element
from lamplighter.foxwords import (FreeWord, ModuleVector, boundary_from_generators,
                                  boundary_from_relators, evaluate, fox_derivative,
                                  parse_word, relator_word)
from lamplighter.groupring import GroupRing, GroupRingElement
from lamplighter.ring import INTEGERS, ScalarRing
from lamplighter.wreath import WreathGroup

G2 = WreathGroup(2)
ZG2 = GroupRing(INTEGERS, G2)
F2G2 = GroupRing(ScalarRing(2), G2)


def telescoped_boundary(word: FreeWord, algebra: GroupRing) -> GroupRingElement:
    """Oracle: sum over letters of prefix * (letter image - 1).

    Expanding letter by letter telescopes to (word image) - 1, so this
    equals sum_s fox(word, s) * (s - 1) without using the Fox rules.
    """
    group = algebra.group
    a = group.generator_a(0)
    x = group.generator_x(1)
    images = {("a", 1): a, ("a", -1): a.inverse(),
              ("x", 1): x, ("x", -1): x.inverse()}
    total = algebra.zero
    prefix = group.identity
    for letter in word.letters:
        img = images[letter]
        total = total + (algebra.monomial(prefix * img) - algebra.monomial(prefix))
        prefix = prefix * img
    return total


def test_free_reduction():
    w = FreeWord((("a", 1), ("a", -1), ("x", 1)))
    assert w.reduce().letters == (("x", 1),)
    assert str(w) == "a*a^-1*x"
    wr = parse_word("a x x^-1 a^-1")
    assert wr.reduce().letters == ()


def test_relator_shapes():
    for d in (2, 3, 5):
        assert len(relator_word(d, 0)) == d
    for l in range(1, 7):
        assert len(relator_word(2, l)) == 4 * l + 4
    assert relator_word(2, 1) == parse_word("[a, x a x^-1]")
    assert relator_word(3, 2) == parse_word("[a, x^2 a x^-2]")


def test_relators_evaluate_to_identity():
    for d in (2, 3):
        group = WreathGroup(d)
        for l in range(0, 6):
            assert evaluate(relator_word(d, l), group).is_identity()
    assert evaluate(FreeWord(()), G2).is_identity()


def test_evaluate_random_words_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(300):
        u = random_free_word(rng)
        v = random_free_word(rng)
        assert evaluate(u * v, G2) == evaluate(u, G2) * evaluate(v, G2)
        assert evaluate(u.inverse(), G2) == evaluate(u, G2).inverse()


def test_fox_of_power_word():
    # d(a^d)/da = 1 + a + ... + a^(d-1)
    for d in (2, 3, 4, 5):
        algebra = GroupRing(INTEGERS, WreathGroup(d))
        lhs = fox_derivative(relator_word(d, 0), "a", algebra)
        assert lhs == algebra.geometric_a(d)


def test_fox_of_commutator_relators_closed_forms():
    for d in (2, 3):
        algebra = GroupRing(INTEGERS, WreathGroup(d))
        group = algebra.group
        one = algebra.one
        a = algebra.monomial(group.generator_a(0))
        for l in range(1, 6):
            xl = algebra.monomial(group.generator_x(l))
            xml = algebra.monomial(group.generator_x(-l))
            al = algebra.monomial(group.generator_a(l))
            lhs = fox_derivative(relator_word(d, l), "a", algebra)
            # four-term form 1 + a x^l - x^l a x^-l - x^l
            assert lhs == one + a * xl - al - xl
            # factored form x^l (x^-l a x^l - 1) - (x^l a x^-l - 1)
            assert lhs == xl * (xml * a * xl - one) - (xl * a * xml - one)


def test_fox_commutator_unsimplified_form():
    # the raw prefix products 1 + (a x^l) - (a x^l a x^-l a^-1)
    # - (a x^l a x^-l a^-1 x^l a^-1) collapse in normal form to the
    # simplified derivative, because x^l a x^-l commutes with a
    for d in (2, 3):
        algebra = GroupRing(INTEGERS, WreathGroup(d))
        group = algebra.group
        for l in range(1, 6):
            prefixes = [
                (parse_word(""), 1),
                (parse_word(f"a x^{l}"), 1),
                (parse_word(f"a x^{l} a x^{-l} a^-1"), -1),
                (parse_word(f"a x^{l} a x^{-l} a^-1 x^{l} a^-1"), -1),
            ]
            unsimplified = algebra.element(
                [(evaluate(w, group), c) for w, c in prefixes])
            assert unsimplified == fox_derivative(relator_word(d, l), "a", algebra)


def test_fox_of_unrelated_letter_is_zero():
    assert fox_derivative(parse_word("x"), "a", ZG2).is_zero()
    assert fox_derivative(parse_word("a"), "x", ZG2).is_zero()
    assert fox_derivative(parse_word("a"), "a", ZG2) == ZG2.one
    assert fox_derivative(parse_word("a^-1"), "a", ZG2) == \
        -ZG2.monomial(G2.generator_a(0).inverse())


def test_fundamental_identity_for_relators():
    # sum_s fox(r, s) (s - 1) = r - 1 = 0 in the group ring, l <= 6
    for d in (2, 3):
        algebra = GroupRing(INTEGERS, WreathGroup(d))
        group = algebra.group
        a1 = algebra.monomial(group.generator_a(0)) - algebra.one
        x1 = algebra.monomial(group.generator_x(1)) - algebra.one
        for l in range(0, 7):
            r = relator_word(d, l)
            total = (fox_derivative(r, "a", algebra) * a1
                     + fox_derivative(r, "x", algebra) * x1)
            assert total.is_zero()
            assert telescoped_boundary(r, algebra).is_zero()


def test_fundamental_identity_random_words_vs_oracle():
    rng = random.Random(9)
    for algebra in (ZG2, F2G2):
        group = algebra.group
        a1 = algebra.monomial(group.generator_a(0)) - algebra.one
        x1 = algebra.monomial(group.generator_x(1)) - algebra.one
        for _ in range(200):
            w = random_free_word(rng)
            total = (fox_derivative(w, "a", algebra) * a1
                     + fox_derivative(w, "x", algebra) * x1)
            assert total == telescoped_boundary(w, algebra)


def test_fox_prefix_product_law():
    rng = random.Random(13)
    for _ in range(300):
        u = random_free_word(rng)
        v = random_free_word(rng)
        for s in ("a", "x"):
            lhs = fox_derivative(u * v, s, ZG2)
            rhs = fox_derivative(u, s, ZG2) \
                + ZG2.monomial(evaluate(u, G2)) * fox_derivative(v, s, ZG2)
            assert lhs == rhs


def test_fox_of_inverse_word():
    rng = random.Random(19)
    for _ in range(300):
        w = random_free_word(rng)
        for s in ("a", "x"):
            lhs = fox_derivative(w.inverse(), s, ZG2)
            rhs = -(ZG2.monomial(evaluate(w.inverse(), G2)) * fox_derivative(w, s, ZG2))
            assert lhs == rhs


def test_boundary_from_generators():
    a = ZG2.monomial(G2.generator_a(0))
    x = ZG2.monomial(G2.generator_x(1))
    v = ModuleVector(ZG2, "generators", {"a": ZG2.one})
    assert boundary_from_generators(v) == a - ZG2.one
    assert boundary_from_generators(ModuleVector(ZG2, "generators", {})).is_zero()
    rng = random.Random(21)
    u = random_ring_element(rng, ZG2)
    w = random_ring_element(rng, ZG2)
    v = ModuleVector(ZG2, "generators", {"a": u, "x": -w})
    assert boundary_from_generators(v) == u * (a - ZG2.one) - w * (x - ZG2.one)


def test_boundary_from_relators_on_basis():
    z = ModuleVector(ZG2, "relators", {0: ZG2.one})
    image = boundary_from_relators(z)
    assert image.component("a") == ZG2.geometric_a(2)
    assert image.component("x").is_zero()
    zero = boundary_from_relators(ModuleVector(ZG2, "relators", {}))
    assert zero.is_zero()


def test_composite_boundary_vanishes_random():
    rng = random.Random(27)
    for algebra in (ZG2, F2G2):
        for _ in range(100):
            comps = {l: random_ring_element(rng, algebra, terms=2, lamp_bound=1,
                                            shift_bound=1)
                     for l in rng.sample(range(7), 3)}
            z = ModuleVector(algebra, "relators", comps)
            assert boundary_from_generators(boundary_from_relators(z)).is_zero()


def test_module_vector_validation_and_json():
    with pytest.raises(ValueError):
        ModuleVector(ZG2, "letters", {})
    with pytest.raises(ValueError):
        ModuleVector(ZG2, "generators", {"b": ZG2.one})
    with pytest.raises(ValueError):
        ModuleVector(ZG2, "relators", {-1: ZG2.one})
    rng = random.Random(31)
    z = ModuleVector(ZG2, "relators", {0: random_ring_element(rng, ZG2),
                                       3: random_ring_element(rng, ZG2)})
    assert ModuleVector.from_json(z.to_json(), ZG2) == z
    v = ModuleVector(ZG2, "generators", {"a": random_ring_element(rng, ZG2)})
    assert ModuleVector.from_json(v.to_json(), ZG2) == v
    # zero components prune away
    assert ModuleVector(ZG2, "relators", {2: ZG2.zero}).is_zero()
