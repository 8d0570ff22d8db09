import random
import tracemalloc

import pytest

from conftest import (certificate_u_reference, configurations_reference, convolve,
                      is_balanced, random_base_ideal_element, random_ring_element, tau,
                      time_limit)
from lamplighter.certificates import (Certificate, LampVector, RelatorCoefficients,
                                      certify, finite_subgroup_annihilator,
                                      lamp_subgroup, reduce_mod_ideal_square,
                                      right_annihilator, zerodivisor_from_coefficients)
from lamplighter.errors import (LimitExceededError, NotInAugmentationIdealError,
                                SupportError, UnsupportedRingError)
from lamplighter.foxwords import ModuleVector, boundary_from_relators
from lamplighter.groupring import CodedElements, GroupRing, lamp_configurations
from lamplighter.ring import INTEGERS, ScalarRing
from lamplighter.wreath import DEFAULT_CAP, WreathElement, WreathGroup

G2 = WreathGroup(2)
G3 = WreathGroup(3)
ZG2 = GroupRing(INTEGERS, G2)
ZG3 = GroupRing(INTEGERS, G3)
F2G2 = GroupRing(ScalarRing(2), G2)
F3G3 = GroupRing(ScalarRing(3), G3)


def test_u_with_only_z0():
    z = RelatorCoefficients([ZG3.one])
    assert zerodivisor_from_coefficients(z) == ZG3.geometric_a(3)
    zero = RelatorCoefficients([ZG3.zero, ZG3.zero])
    assert zerodivisor_from_coefficients(zero).is_zero()


def test_u_matches_relator_boundary_component():
    # u is read from the Fox derivative table; the oracle expands its
    # closed form with no Fox calculus.
    rng = random.Random(61)
    for algebra in (ZG2, F3G3):
        for _ in range(1000):
            depth = rng.randint(0, 3)
            entries = [random_ring_element(rng, algebra, terms=2, lamp_bound=1,
                                           shift_bound=1) for _ in range(depth + 1)]
            z = RelatorCoefficients(entries)
            vector = ModuleVector(algebra, "relators",
                                  {l: entries[l] for l in range(depth + 1)})
            u = zerodivisor_from_coefficients(z)
            assert u == certificate_u_reference(entries)
            assert u == boundary_from_relators(vector).component("a")


def test_annihilator_depth_zero():
    gamma = right_annihilator(0, ZG2)
    assert gamma == ZG2.one - ZG2.monomial(G2.generator_a(0))


def test_annihilator_depth_one_expansion():
    # (1 - a)(1 + a[-1] + a[1] + a[-1] a[1]), 8 distinct terms
    members = [G2.identity, G2.generator_a(-1), G2.generator_a(1),
               G2.generator_a(-1) * G2.generator_a(1)]
    expected = ZG2.zero
    a = ZG2.monomial(G2.generator_a(0))
    for c in members:
        cm = ZG2.monomial(c)
        expected = expected + cm - a * cm
    gamma = right_annihilator(1, ZG2)
    assert gamma == expected
    assert len(gamma) == 8


def test_annihilator_term_count_and_augmentation():
    for algebra, depth in ((ZG2, 0), (ZG2, 1), (ZG2, 2), (F3G3, 1), (F3G3, 2)):
        gamma = right_annihilator(depth, algebra)
        assert len(gamma) == 2 * algebra.group.d ** (2 * depth)
        assert gamma.augmentation().is_zero()
        assert not gamma.is_zero()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("field", [False, True])
def test_annihilator_equals_the_convolution(d, field):
    # gamma is written down term by term; it must equal (1 - a) * sum_C c.
    algebra = GroupRing(ScalarRing(d if field else 0), WreathGroup(d))
    one_minus_a = algebra.one - algebra.monomial(algebra.group.generator_a(0))
    for depth in range(4):
        subgroup_sum = algebra.element([(c, 1) for c in lamp_subgroup(algebra.group, depth)])
        assert right_annihilator(depth, algebra) == convolve(one_minus_a, subgroup_sum)


RINGS = [0, 4, 2, 3, 5]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("modulus", RINGS)
def test_tau_of_u_solves_the_ore_equation_and_is_balanced(d, modulus):
    # u (a - 1) + v (x - 1) = 0 with v = sum z_l dr_l/dx (the fundamental
    # identity), and tau reverses products: (1 - a) tau(u) = (1 - x)(-tau(v)).
    algebra = GroupRing(ScalarRing(modulus), WreathGroup(d))
    group = algebra.group
    one_minus_a = algebra.one - algebra.monomial(group.generator_a(0))
    one_minus_x = algebra.one - algebra.monomial(group.generator_x(1))
    rng = random.Random(10 * d + modulus)
    for _ in range(8):
        entries = [random_ring_element(rng, algebra, terms=2, lamp_bound=1, shift_bound=1)
                   for _ in range(rng.randint(1, 4))]
        u = zerodivisor_from_coefficients(RelatorCoefficients(entries))
        v = boundary_from_relators(ModuleVector(algebra, "relators",
                                                dict(enumerate(entries)))).component("x")
        sigma, alpha = tau(u), -tau(v)
        assert convolve(one_minus_a, sigma) == convolve(one_minus_x, alpha)
        assert is_balanced(sigma)


def test_balance_needs_tau():
    # dr_l/da itself is balanced only for l = 0; over Z that pins tau.
    for d in (2, 3, 4):
        algebra = GroupRing(INTEGERS, WreathGroup(d))
        for l in range(4):
            derivative = zerodivisor_from_coefficients(
                RelatorCoefficients([algebra.zero] * l + [algebra.one]))
            assert is_balanced(tau(derivative))
            assert is_balanced(derivative) == (l == 0)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("modulus", RINGS)
def test_tau_of_gamma_is_the_subgroup_sum_times_one_minus_a(d, modulus):
    algebra = GroupRing(ScalarRing(modulus), WreathGroup(d))
    group = algebra.group
    one_minus_a = algebra.one - algebra.monomial(group.generator_a(0))
    for depth in range(4):
        positions = [n for n in range(-depth, depth + 1) if n]
        subgroup_sum = algebra.element(
            [(c, 1) for c in configurations_reference(group, positions, (0,))])
        assert tau(right_annihilator(depth, algebra)) == convolve(subgroup_sum, one_minus_a)


@pytest.mark.parametrize("d, depth", [(2, 0), (2, 1), (2, 3), (3, 2), (5, 1), (131, 1)])
def test_lamp_subgroup_equals_the_reference(d, depth):
    # Positions 1 <= |n| <= depth skip 0, whose digit column stays zero.
    group = WreathGroup(d)
    positions = [n for n in range(-depth, depth + 1) if n]
    want = configurations_reference(group, positions, (0,))
    members = lamp_subgroup(group, depth)
    assert sorted(members, key=WreathElement.sort_key) == want
    coded = lamp_configurations(group, positions, (0,), DEFAULT_CAP)
    encoded = CodedElements.encode(group, want)
    assert (coded.lo, coded.digits.shape, coded.digits.dtype) == \
        (encoded.lo, encoded.digits.shape, encoded.digits.dtype)
    assert coded.decode() == members


def test_huge_lamp_subgroup_is_refused_at_once():
    # The positions are counted toward the cap, never listed in full.
    with time_limit(0.9):
        with pytest.raises(LimitExceededError, match="at least 1048576 elements exceeds"):
            lamp_subgroup(G2, 10 ** 18)
        with pytest.raises(LimitExceededError, match="exceeds the cap"):
            right_annihilator(10 ** 18, F2G2)


def test_annihilator_cap():
    with pytest.raises(LimitExceededError):
        right_annihilator(4, ZG3, cap=1000)
    assert lamp_subgroup(G2, 2, cap=16)


def test_certify_example():
    z = RelatorCoefficients([ZG2.zero, ZG2.one])
    cert = certify(z)
    # u = x(x^-1 a x - 1) - (x a x^-1 - 1) = a x - x - a[1] + 1
    expected_u = (ZG2.one + ZG2.monomial(G2.element({0: 1}, 1))
                  - ZG2.monomial(G2.generator_x(1)) - ZG2.monomial(G2.generator_a(1)))
    assert cert.u == expected_u
    assert cert.verified
    assert not cert.gamma.is_zero()
    assert cert.product.is_zero()
    assert convolve(cert.u, cert.gamma).is_zero()


def test_certify_zero_vector():
    cert = certify(RelatorCoefficients([ZG2.zero]))
    assert cert.verified
    assert cert.u.is_zero()
    assert not cert.gamma.is_zero()


def test_certify_random_over_z4():
    # non-field coefficients are supported by the certificate operations
    algebra = GroupRing(ScalarRing(4), G2)
    rng = random.Random(67)
    for _ in range(100):
        depth = rng.randint(0, 2)
        entries = [random_ring_element(rng, algebra, terms=2, lamp_bound=1,
                                       shift_bound=1) for _ in range(depth + 1)]
        cert = certify(RelatorCoefficients(entries))
        assert cert.verified
        assert convolve(cert.u, cert.gamma).is_zero()


def test_certificate_json_round_trip():
    rng = random.Random(71)
    entries = [random_ring_element(rng, F3G3, terms=2) for _ in range(3)]
    cert = certify(RelatorCoefficients(entries))
    data = cert.to_json()
    assert set(data) == {"d", "k", "N", "z", "u", "gamma", "product", "verified"}
    assert data["d"] == 3 and data["k"] == 3 and data["N"] == 2
    back = Certificate.from_json(data)
    assert back.u == cert.u
    assert back.gamma == cert.gamma
    assert back.product == cert.product
    assert back.verified == cert.verified


def _tamper_u(data, algebra):
    # 1 + x is not a zerodivisor, yet the product claims u * gamma = 0
    data["u"] = (algebra.one + algebra.monomial(algebra.group.generator_x(1))).to_json()
    data["product"] = []


def _tamper_gamma(data, algebra):
    # 2 * gamma is still annihilated by u, so u * gamma = 0 stays true
    data["gamma"] = algebra.from_json(data["gamma"]).scale(2).to_json()


def _tamper_product(data, algebra):
    data["product"] = algebra.one.to_json()


def _tamper_depth(data, algebra):
    data["N"] = -1


@pytest.mark.parametrize("tamper", [_tamper_u, _tamper_gamma, _tamper_product, _tamper_depth])
def test_certificate_from_json_recomputes(tamper):
    rng = random.Random(73)
    entries = [random_ring_element(rng, F3G3, terms=2) for _ in range(2)]
    data = certify(RelatorCoefficients(entries)).to_json()
    assert Certificate.from_json(data).verified
    tamper(data, F3G3)
    assert data["verified"] is True
    assert not Certificate.from_json(data).verified


def test_subgroup_annihilator_cyclic_case():
    for algebra in (ZG2, ZG3):
        d = algebra.group.d
        one_minus_a = algebra.one - algebra.monomial(algebra.group.generator_a(0))
        beta = finite_subgroup_annihilator([one_minus_a])
        assert beta == algebra.geometric_a(d)
        assert (beta * one_minus_a).is_zero()


def test_subgroup_annihilator_two_lamp_case():
    a0 = ZG2.monomial(G2.generator_a(0))
    a1 = ZG2.monomial(G2.generator_a(1))
    x = ZG2.monomial(G2.generator_x(1))
    alpha = (ZG2.one - a0) * x + (ZG2.one - a1)
    beta = finite_subgroup_annihilator([alpha])
    assert len(beta) == 4  # the d^2 elements of <a[0], a[1]>
    assert (beta * alpha).is_zero()
    assert convolve(beta, alpha).is_zero()


def test_subgroup_annihilator_empty_input():
    assert finite_subgroup_annihilator([], ZG2) == ZG2.one


def test_subgroup_annihilator_random():
    rng = random.Random(73)
    for algebra in (F2G2, F3G3, ZG2):
        for _ in range(60):
            alphas = [random_base_ideal_element(rng, algebra, lamp_bound=2, shift_bound=2)
                      for _ in range(rng.randint(1, 3))]
            beta = finite_subgroup_annihilator(alphas, algebra)
            assert not beta.is_zero()
            assert all(c == 1 for c in beta.terms.values())
            # augmentation is the subgroup order reduced into the ring
            assert beta.augmentation().value == algebra.ring.canon(len(beta))
            for alpha in alphas:
                assert (beta * alpha).is_zero()


def test_subgroup_annihilator_rejects_bad_input():
    with pytest.raises(NotInAugmentationIdealError):
        finite_subgroup_annihilator([ZG2.one])
    with pytest.raises(NotInAugmentationIdealError):
        finite_subgroup_annihilator([ZG2.monomial(G2.generator_x(1))])


def test_subgroup_annihilator_cap():
    rng = random.Random(79)
    alphas = [random_base_ideal_element(rng, F2G2, lamp_bound=3, shift_bound=1)
              for _ in range(3)]
    with pytest.raises(LimitExceededError):
        finite_subgroup_annihilator(alphas, cap=2)


def test_over_cap_closure_refuses_before_building():
    # a[0] + ... + a[11] - 12 spans 2^12 lamp configurations.  The closure
    # refuses at the last generator, having built 2^11 of them (a peak of
    # about 1.1 MB); the breadth-first closure it replaced built 4095 first
    # and peaked at 2.08 MB under tracemalloc on this input.
    alpha = ZG2.element([(G2.generator_a(i), 1) for i in range(12)] + [(G2.identity, -12)])
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceededError, match="subgroup closure exceeds the cap 4095"):
            finite_subgroup_annihilator([alpha], cap=4095)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
    assert len(finite_subgroup_annihilator([alpha], cap=4096)) == 4096


def test_reduction_of_single_difference():
    # 1 - x^-i a x^i = 1 - a[-i] reduces to -e at position -i
    for algebra, p in ((F2G2, 2), (F3G3, 3)):
        for i in range(-5, 6):
            b = algebra.one - algebra.monomial(algebra.group.generator_a(-i))
            vec = reduce_mod_ideal_square(b)
            assert vec == LampVector(algebra.ring, {-i: -1})


def test_reduction_images_linearly_independent():
    # the images of 1 - a[-i], |i| <= 5, are scaled unit vectors
    for algebra in (F2G2, F3G3):
        images = [reduce_mod_ideal_square(
            algebra.one - algebra.monomial(algebra.group.generator_a(-i)))
            for i in range(-5, 6)]
        supports = [tuple(v.entries) for v in images]
        assert len(set(supports)) == 11
        assert all(len(s) == 1 for s in supports)


def test_reduction_gf2_example():
    # (1-a) + (1-a) a = 1 - a^2 = 0 over GF(2) with d = 2
    one_minus_a = F2G2.one - F2G2.monomial(G2.generator_a(0))
    a = F2G2.monomial(G2.generator_a(0))
    beta = one_minus_a + one_minus_a * a
    assert reduce_mod_ideal_square(beta).is_zero()


def test_reduction_kills_products_of_augmentation_zero_elements():
    rng = random.Random(83)
    for algebra in (F2G2, F3G3):
        group = algebra.group
        for _ in range(100):
            def aug_zero():
                g = group.element({pos: rng.randrange(group.d) for pos in range(-2, 3)})
                h = group.element({pos: rng.randrange(group.d) for pos in range(-2, 3)})
                c = rng.randrange(1, algebra.ring.modulus)
                return algebra.element([(g, c), (h, -c)])
            sigma, tau = aug_zero(), aug_zero()
            assert reduce_mod_ideal_square(sigma * tau).is_zero()


def test_reduction_is_additive_on_its_domain():
    rng = random.Random(89)
    group = F3G3.group
    for _ in range(100):
        def aug_zero():
            g = group.element({pos: rng.randrange(3) for pos in range(-2, 3)})
            c = rng.randrange(1, 3)
            return F3G3.element([(g, c), (group.identity, -c)])
        u, v = aug_zero(), aug_zero()
        assert reduce_mod_ideal_square(u + v) == \
            reduce_mod_ideal_square(u) + reduce_mod_ideal_square(v)


def test_reduction_preconditions_named_individually():
    with pytest.raises(UnsupportedRingError):
        reduce_mod_ideal_square(ZG2.zero)  # not a prime field
    with pytest.raises(UnsupportedRingError):
        # field characteristic must match the lamp order
        reduce_mod_ideal_square(GroupRing(ScalarRing(3), G2).zero)
    with pytest.raises(SupportError):
        reduce_mod_ideal_square(F2G2.monomial(G2.generator_x(1))
                                - F2G2.monomial(G2.generator_x(-1)))
    with pytest.raises(NotInAugmentationIdealError):
        reduce_mod_ideal_square(F2G2.one)
