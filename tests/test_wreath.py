import random
import time
from itertools import product

import pytest

from conftest import act_mul, random_group_element
from lamplighter.errors import LimitExceededError, RingMismatchError
from lamplighter.wreath import WreathElement, WreathGroup, lamp_configurations, lamp_span

G2 = WreathGroup(2)
G3 = WreathGroup(3)


def test_group_params_validation():
    with pytest.raises(ValueError):
        WreathGroup(1)
    with pytest.raises(ValueError):
        WreathGroup(0)


def test_normal_form_is_canonical():
    assert G2.element({0: 2}, 0) == G2.identity
    assert G3.element({5: 3, 1: 0}, 0) == G3.identity
    assert G2.element({1: 1, 0: 1}) == G2.element({0: 1, 1: 1})


def test_conjugation_moves_lamps():
    # x a[i] x^-1 = a[i+1]
    x = G2.generator_x(1)
    for i in range(-5, 6):
        assert x * G2.generator_a(i) * x.inverse() == G2.generator_a(i + 1)
        assert G3.generator_x(1) * G3.generator_a(i) * G3.generator_x(-1) == G3.generator_a(i + 1)


def test_shifted_product_example():
    # (a[0] x^2) * (a[1] x^-1) = a[0] a[3] x
    g = G2.element({0: 1}, 2)
    h = G2.element({1: 1}, -1)
    assert g * h == G2.element({0: 1, 3: 1}, 1)
    assert act_mul(g, h) == g * h


def test_inverse_examples():
    assert G2.identity.inverse() == G2.identity
    assert G2.generator_x(1).inverse() == G2.element({}, -1)
    assert G2.element({0: 1}, 1).inverse() == G2.element({-1: 1}, -1)


def test_inverse_random():
    rng = random.Random(11)
    for _ in range(1000):
        g = random_group_element(rng, G3)
        assert g * g.inverse() == G3.identity
        assert g.inverse() * g == G3.identity


def test_generator_order():
    for group in (G2, G3):
        for i in range(-5, 6):
            assert group.generator_a(i) ** group.d == group.identity


def test_lamp_generators_commute():
    for group in (G2, G3):
        for i in range(-5, 6):
            for j in range(-5, 6):
                ai, aj = group.generator_a(i), group.generator_a(j)
                assert ai * aj == aj * ai


def test_associativity_random_against_action_oracle():
    rng = random.Random(23)
    for _ in range(10_000):
        g = random_group_element(rng, G2, 1, 2)
        h = random_group_element(rng, G2, 1, 2)
        k = random_group_element(rng, G2, 1, 2)
        assert (g * h) * k == g * (h * k)
        assert g * h == act_mul(g, h)


def test_powers():
    g = G3.element({0: 1, 2: 2}, 1)
    acc = G3.identity
    for k in range(7):
        assert g ** k == acc
        assert g ** (-k) == acc.inverse()
        acc = acc * g


def test_canonical_order():
    x = G2.generator_x(1)
    a0, a1 = G2.generator_a(0), G2.generator_a(1)
    assert G2.identity < x
    assert a0 < a1
    assert G2.identity < a0
    elems = [x, a1, G2.identity, a0, x.inverse(), a0 * x]
    once = sorted(elems)
    assert sorted(once) == once
    # the shift-free block sorts first, negative shifts before positive
    assert once == [G2.identity, a0, a1, x.inverse(), x, a0 * x]


def test_mixed_group_arithmetic_rejected():
    with pytest.raises(RingMismatchError):
        G2.generator_a(0) * G3.generator_a(0)


def test_printing():
    assert str(G2.identity) == "e"
    assert str(G2.generator_x(1)) == "x"
    assert str(G2.generator_x(-2)) == "x^-2"
    assert str(G3.element({0: 1, 3: 2}, 1)) == "a[0]*a[3]^2*x"


def test_elements_are_immutable_and_hashable():
    g = G2.generator_a(0)
    with pytest.raises(AttributeError):
        g.shift = 5
    assert len({g, G2.generator_a(0), G2.identity}) == 2


def bfs_span(group, generators):
    """Oracle: the breadth-first closure of the base elements with these lamps."""
    gens = [WreathElement(group, lamps, 0) for lamps in generators]
    members, frontier = {group.identity}, [group.identity]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                if m * g not in members:
                    members.add(m * g)
                    new.append(m * g)
        frontier = new
    return members


def random_generators(rng, group, count):
    return [group.element({p: rng.randrange(group.d) for p in rng.sample(range(-2, 3), 2)}).lamps
            for _ in range(count)]


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_lamp_span_matches_the_breadth_first_closure(d):
    group = WreathGroup(d)
    rng = random.Random(500 + d)
    for _ in range(40):
        generators = random_generators(rng, group, rng.randint(0, 4))
        span = lamp_span(group, generators, 10 ** 6)
        assert len(span) == len(set(span))          # the cosets are disjoint
        assert set(span) == bfs_span(group, generators)
        assert span[0] == group.identity and all(b.shift == 0 for b in span)
        assert set(lamp_span(group, generators[::-1], 10 ** 6)) == set(span)


def test_lamp_span_generator_of_coset_order_two():
    # In Z/4: a[0]*a[1] has order 4, and a[1]^2 is not among its powers,
    # but its square is the identity, so it adds one coset.
    group = WreathGroup(4)
    g, h = ((0, 1), (1, 1)), ((1, 2),)
    span = lamp_span(group, [g, h], 8)
    cyclic = [WreathElement(group, g, 0) ** k for k in range(4)]
    assert span == cyclic + [c * WreathElement(group, h, 0) for c in cyclic]
    assert set(span) == bfs_span(group, [g, h])
    assert set(lamp_span(group, [h, g], 8)) == set(span)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_lamp_span_cap_is_exact(d):
    group = WreathGroup(d)
    rng = random.Random(600 + d)
    for _ in range(20):
        generators = random_generators(rng, group, rng.randint(1, 3))
        size = len(bfs_span(group, generators))
        assert len(lamp_span(group, generators, size)) == size
        if size > 1:
            with pytest.raises(LimitExceededError, match=f"closure exceeds the cap {size - 1}$"):
                lamp_span(group, generators, size - 1)


def test_lamp_span_cap_bounds_the_order_search():
    # a[0] has order 10^6; the span refuses after a handful of products,
    # not after the million it takes to find that order.
    start = time.perf_counter()
    with pytest.raises(LimitExceededError, match="closure exceeds the cap 5$"):
        lamp_span(WreathGroup(10 ** 6), [((0, 1),)], 5)
    with pytest.raises(LimitExceededError, match="closure exceeds the cap 5$"):
        lamp_span(WreathGroup(10 ** 6), [((0, 500000),), ((1, 1),)], 5)   # |S| = 2, then a[1]
    assert time.perf_counter() - start < 0.1


def test_lamp_configurations_order():
    # Shifts as given, then lamp values lexicographically over the positions.
    group = WreathGroup(3)
    positions, shifts = [2, -1, 0], [1, -2]
    expected = [group.element(zip(positions, values), n)
                for n in shifts for values in product(range(3), repeat=3)]
    assert lamp_configurations(group, positions, shifts, 54) == expected
    with pytest.raises(LimitExceededError, match="enumeration of 54 elements exceeds the cap 53"):
        lamp_configurations(group, positions, shifts, 53)
